"""The benchmark tracer still finds every entry point it wraps by name."""

import importlib.util
import os

from combmemory import cli, dynamics

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracer.py")

SMALL_DYNAMICS = """\
[memory]
d = 4
gamma_s = 2pi*18 kHz
T = 88.42 us

[state]
squeezing_db = -6

[dynamics]
n_z = 300
n_t = 400
probe_omegas = 0
"""


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layers_install_and_record_the_write_march(tmp_path):
    bench = load_tracer()
    tracer = bench.Tracer()
    bench.install_layers(tracer)  # a renamed entry point fails here
    try:
        (tmp_path / "exp.ini").write_text(SMALL_DYNAMICS)
        rc = cli.main(["dynamics", "--config", str(tmp_path / "exp.ini"),
                       "--out", str(tmp_path / "out")])
    finally:
        tracer.unwrap_all()
    assert rc == 0
    assert cli.pde_write is dynamics.pde_write and cli.energy_budget is dynamics.energy_budget
    names = {span[0] for span in tracer.spans}
    assert {"cli", "dynamics.march", "dynamics.budget", "dynamics.write"} <= names
    assert tracer.counts["dynamics.march.cells"] == 300 * 399
