"""The README's Python examples run as written, and their comments hold."""

import re
from pathlib import Path

import numpy as np

from combmemory.config import load_config

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks():
    return re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)


def test_examples_run_and_their_claims_hold(capsys):
    blocks = python_blocks()
    assert len(blocks) == 2
    ns = {}
    for block in blocks:  # in order, in one namespace, as a reader pastes them
        exec(compile(block, str(README), "exec"), ns)

    # first block: eta = 0.9637..., one printed line per mode
    assert f"{ns['eta']:.4f}" == "0.9637"
    assert len(capsys.readouterr().out.splitlines()) == 3
    assert len(ns["per_mode"]) == 3

    # second block: b(., T) by both routes agree to ~2e-7 relative L2
    # (5e-7 allowed), and the write energy budget closes
    pde_b, analytic_b = ns["run"].profile.b_T, ns["profile"].b_T
    assert np.linalg.norm(pde_b - analytic_b) <= 5e-7 * np.linalg.norm(analytic_b)
    assert ns["energy_budget"](ns["run"], ns["p"])["residual"] <= 1e-4

    # |g(0)| within 0.5% of |K_0| = 1 - e^{-d}; the PDE gains within 1e-4
    p, gains, pde_gains = ns["p"], ns["gains"], ns["pde_gains"]
    k0 = 1.0 - np.exp(-p.d)
    assert abs(abs(gains[0]) - k0) <= 5e-3 * k0
    assert np.abs(pde_gains - gains).max() <= 1e-4


def test_config_example_loads(tmp_path):
    # the one INI block is a working config, and its values are the ones read
    blocks = re.findall(r"^```ini\n(.*?)^```", README.read_text(), re.S | re.M)
    assert len(blocks) == 1
    path = tmp_path / "readme.ini"
    path.write_text(blocks[0])
    cfg = load_config(str(path))
    assert (cfg.n_z, cfg.t_read, cfg.teeth) == (2000, 5e-3, 128)
    assert cfg.spectrum_db == (-6.0, -3.0, -1.0)
    assert cfg.sweep_d == (1.0, 2.0, 4.0, 8.0, 14.0, 20.0)
