import re

import numpy as np
import pytest

from combmemory import ConfigError
from combmemory.channel import MAX_KERNEL_POINTS
from combmemory.config import (
    _TABLE,
    MAX_STATE_FILE_BYTES,
    MAX_SWEEP_DEPTHS,
    load_config,
    parse_quantity,
)
from combmemory.dynamics import MAX_GRID_CELLS
from combmemory.modes import MAX_MODE_COUNT

TWO_PI = 2.0 * np.pi

BASE = """\
[memory]
d = 4
gamma_s = 2pi*18 kHz
T = 1 ms

[state]
squeezing_db = -6, -3
"""


def write_config(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def config_with(section, key, value):
    """A valid config of two squeezed modes with ``[section] key = value`` set."""
    raman = key in ("gamma", "Delta", "Omega_p")
    rate = ({"gamma": "2pi*20 MHz", "Delta": "2pi*9 THz", "Omega_p": "2pi*0.27 THz"} if raman
            else {"gamma_s": "2pi*18 kHz"})
    sections = {"memory": {"d": "4", "T": "1 ms", **rate}, "state": {"squeezing_db": "-6, -3"}}
    sections.setdefault(section, {})[key] = value
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()) + "\n"
                   for name, keys in sections.items())


class TestParseQuantity:
    def test_angular_prefix(self):
        assert parse_quantity("2pi*10e3") == pytest.approx(TWO_PI * 1e4, rel=1e-15)

    def test_frequency_units(self):
        assert parse_quantity("80 MHz") == 80e6
        assert parse_quantity("18kHz") == 18e3
        assert parse_quantity("9 THz") == 9e12

    def test_time_units(self):
        assert parse_quantity("1 ms") == 1e-3
        assert parse_quantity("88.42 us") == pytest.approx(88.42e-6)

    def test_bare_number_and_rad_s(self):
        assert parse_quantity("0.5") == 0.5
        assert parse_quantity("-3e2") == -300.0
        assert parse_quantity("1.5e4 rad/s") == 1.5e4

    def test_angular_with_unit(self):
        assert parse_quantity("2pi*18 kHz") == pytest.approx(TWO_PI * 18e3, rel=1e-15)

    def test_signed_angular_prefix(self):
        assert parse_quantity("-2pi*1.8 kHz") == parse_quantity("2pi*-1.8 kHz")
        assert parse_quantity("-2pi*1.8 kHz") == pytest.approx(-TWO_PI * 1.8e3, rel=1e-15)
        assert parse_quantity("+2pi*1.8 kHz") == parse_quantity("2pi*1.8 kHz")
        for doubled in ("-2pi*-1.8 kHz", "+2pi*-1.8 kHz", "--1.8 kHz"):
            with pytest.raises(ConfigError):
                parse_quantity(doubled)

    def test_unknown_unit(self):
        with pytest.raises(ConfigError, match="unknown unit"):
            parse_quantity("3 parsec")

    def test_garbage(self):
        with pytest.raises(ConfigError, match="cannot parse"):
            parse_quantity("fast")


class TestLoadConfig:
    def test_minimal(self, tmp_path):
        cfg = load_config(write_config(tmp_path, BASE))
        assert cfg.memory.d == 4.0
        assert cfg.memory.gamma_s == pytest.approx(TWO_PI * 18e3)
        assert cfg.memory.T == 1e-3
        assert cfg.state_source == "spectrum"
        assert cfg.spectrum_db == (-6.0, -3.0)

    def test_defaults(self, tmp_path):
        cfg = load_config(write_config(tmp_path, BASE))
        assert cfg.teeth == 128
        assert cfg.pump_basis == "supermodes"
        assert cfg.omega_max == pytest.approx(0.1 * cfg.memory.gamma_s)
        assert cfg.n_points == 201
        assert cfg.n_z == cfg.n_t == 2000
        assert cfg.dynamics_path == "analytic"
        assert cfg.probe_omegas == (0.0, pytest.approx(0.1 * cfg.memory.gamma_s))
        assert cfg.sweep_d == tuple(float(k) for k in range(1, 21))
        assert cfg.formats == ("csv", "json")
        assert cfg.seed == 0

    def test_rate_derived_from_raman_parameters(self, tmp_path):
        text = BASE.replace(
            "gamma_s = 2pi*18 kHz",
            "gamma = 2pi*20 MHz\nDelta = 2pi*9 THz\nOmega_p = 2pi*0.27 THz",
        )
        cfg = load_config(write_config(tmp_path, text))
        assert cfg.memory.gamma_s == pytest.approx(TWO_PI * 18e3, rel=1e-12)

    def test_rate_sources_are_exclusive(self, tmp_path):
        text = BASE.replace(
            "gamma_s = 2pi*18 kHz",
            "gamma_s = 2pi*18 kHz\ngamma = 2pi*20 MHz\nDelta = 2pi*9 THz\nOmega_p = 2pi*0.27 THz",
        )
        with pytest.raises(ConfigError, match="choose one"):
            load_config(write_config(tmp_path, text))

    def test_rate_required(self, tmp_path):
        text = BASE.replace("gamma_s = 2pi*18 kHz\n", "")
        with pytest.raises(ConfigError, match="gamma_s or all of"):
            load_config(write_config(tmp_path, text))

    def test_state_sources_are_exclusive(self, tmp_path):
        text = BASE + "preset = epr\n"
        with pytest.raises(ConfigError, match="exactly one state source"):
            load_config(write_config(tmp_path, text))

    def test_unknown_preset_rejected_at_load(self, tmp_path):
        text = BASE.replace("squeezing_db = -6, -3", "preset = nope")
        with pytest.raises(ConfigError,
                           match=r"\[state\] preset: must be one of cluster-linear-4, epr; got 'nope'"):
            load_config(write_config(tmp_path, text))

    def test_state_source_required(self, tmp_path):
        text = BASE.replace("squeezing_db = -6, -3\n", "")
        with pytest.raises(ConfigError, match="exactly one state source"):
            load_config(write_config(tmp_path, text))

    def test_angle_length_must_match(self, tmp_path):
        text = BASE + "angles = 0.0\n"
        with pytest.raises(ConfigError, match="same length"):
            load_config(write_config(tmp_path, text))

    def test_angles_need_spectrum(self, tmp_path):
        text = BASE.replace(
            "squeezing_db = -6, -3", "preset = epr\nangles = 0.0, 0.5"
        )
        with pytest.raises(ConfigError, match="angles only apply"):
            load_config(write_config(tmp_path, text))

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/nonexistent/exp.ini")

    def test_missing_memory_keys(self, tmp_path):
        with pytest.raises(ConfigError, match="both d and T"):
            load_config(write_config(tmp_path, "[memory]\nd = 4\n"))

    def test_invalid_memory_values(self, tmp_path):
        text = BASE.replace("d = 4", "d = -1")
        with pytest.raises(ConfigError, match="invalid \\[memory\\]"):
            load_config(write_config(tmp_path, text))

    def test_bad_integer(self, tmp_path):
        text = BASE + "teeth = many\n"
        with pytest.raises(ConfigError, match="integer"):
            load_config(write_config(tmp_path, text))

    @pytest.mark.parametrize("teeth, message", [
        ("0", r"\[state\] teeth: must be at least 1, got 0$"),
        ("65537", r"\[state\] teeth: must be at most 65536, got 65537$"),
        ("1000000000000", r"\[state\] teeth: must be at most 65536"),
    ], ids=["0-positive", "65537-teeth", "1000000000000-teeth"])
    def test_teeth_bounds(self, tmp_path, teeth, message):
        # rejected at load, before anything is allocated for the teeth
        with pytest.raises(ConfigError, match=message):
            load_config(write_config(tmp_path, BASE + f"teeth = {teeth}\n"))

    def test_kernel_point_bound(self, tmp_path):
        kernel = "\n[kernel]\nn_points = {}\n"
        with pytest.raises(ConfigError, match=r"\[kernel\] n_points: must be at most"):
            load_config(write_config(tmp_path, BASE + kernel.format(MAX_KERNEL_POINTS + 1)))
        cfg = load_config(write_config(tmp_path, BASE + kernel.format(MAX_KERNEL_POINTS)))
        assert cfg.n_points == MAX_KERNEL_POINTS

    @pytest.mark.parametrize("seed", ["-1", "-5"])
    def test_negative_seed_rejected(self, tmp_path, seed):
        with pytest.raises(ConfigError, match=r"\[output\] seed: must be at least 0, got -"):
            load_config(write_config(tmp_path, BASE + f"\n[output]\nseed = {seed}\n"))

    def test_largest_teeth_accepted(self, tmp_path):
        cfg = load_config(write_config(tmp_path, BASE + "teeth = 65536\n"))
        assert cfg.teeth == 65536

    def test_mode_count_bound(self, tmp_path):
        # a spectrum of MAX_MODE_COUNT + 1 modes exits at load, before any covariance
        db = ", ".join(["-3"] * (MAX_MODE_COUNT + 1))
        with pytest.raises(ConfigError, match=r"\[state\] squeezing_db: lists 513 values; at most 512 "):
            load_config(write_config(tmp_path, BASE.replace("-6, -3", db)))
        db = ", ".join(["-3"] * MAX_MODE_COUNT)
        cfg = load_config(write_config(tmp_path, BASE.replace("-6, -3", db)))
        assert len(cfg.spectrum_db) == MAX_MODE_COUNT

    def test_sweep_depth_bound(self, tmp_path):
        # the K x M sweep table is bounded at load, before any depth is parsed
        depths = "\n[sweep]\nd_values = {}\n"
        over = MAX_SWEEP_DEPTHS + 1
        message = rf"\[sweep\] d_values: lists {over} values; at most {MAX_SWEEP_DEPTHS} "
        for item in ("1", "x"):  # counted before any item is parsed
            with pytest.raises(ConfigError, match=message):
                load_config(write_config(tmp_path, BASE + depths.format(", ".join([item] * over))))
        text = BASE + depths.format(", ".join(["2.5"] * MAX_SWEEP_DEPTHS))
        assert load_config(write_config(tmp_path, text)).sweep_d == (2.5,) * MAX_SWEEP_DEPTHS

    def test_state_file_size_bound(self, tmp_path):
        # a sparse file one byte over the bound: its size is read, never its bytes
        state = tmp_path / "state.json"
        with open(state, "wb") as fh:
            fh.truncate(MAX_STATE_FILE_BYTES + 1)
        text = BASE.replace("squeezing_db = -6, -3", f"file = {state}")
        with pytest.raises(ConfigError, match=r"\[state\] file: .* bytes"):
            load_config(write_config(tmp_path, text))
        with open(state, "wb") as fh:
            fh.truncate(MAX_STATE_FILE_BYTES)
        assert load_config(write_config(tmp_path, text)).state_file == str(state)

    @pytest.mark.parametrize("n_z, n_t", [
        (10**6, 10**6),
        (33, 1016801),  # 2**25 + 1 cells, one over the cap
    ])
    def test_grid_cap(self, tmp_path, n_z, n_t):
        # rejected at load, before anything is allocated for the grid
        text = BASE + f"\n[dynamics]\nn_z = {n_z}\nn_t = {n_t}\n"
        with pytest.raises(ConfigError, match=r"n_z \* n_t must be at most"):
            load_config(write_config(tmp_path, text))

    def test_largest_grid_accepted(self, tmp_path):
        text = BASE + "\n[dynamics]\nn_z = 4096\nn_t = 8192\n"
        cfg = load_config(write_config(tmp_path, text))
        assert cfg.n_z * cfg.n_t == MAX_GRID_CELLS

    def test_inline_comments_stripped(self, tmp_path):
        text = BASE.replace("d = 4", "d = 4  # depth")
        cfg = load_config(write_config(tmp_path, text))
        assert cfg.memory.d == 4.0

    def test_unknown_pump_basis(self, tmp_path):
        text = BASE + "\n[pumps]\nbasis = diagonal\n"
        with pytest.raises(ConfigError, match=r"\[pumps\] basis: must be one of supermodes, random-unitary; got 'diagonal'$"):
            load_config(write_config(tmp_path, text))

    def test_unknown_dynamics_path(self, tmp_path):
        text = BASE + "\n[dynamics]\npath = exact\n"
        with pytest.raises(ConfigError, match=r"\[dynamics\] path: must be one of analytic, pde; got 'exact'$"):
            load_config(write_config(tmp_path, text))

    def test_unknown_format(self, tmp_path):
        text = BASE + "\n[output]\nformat = yaml\n"
        with pytest.raises(ConfigError, match=r"\[output\] format: must be one of csv, json, both; got 'yaml'$"):
            load_config(write_config(tmp_path, text))

    @pytest.mark.parametrize("extra, names", [
        ("\n[kernel]\nn_pionts = 1\n", "[kernel] n_pionts"),
        ("\n[kernal]\nomega_max = -5\n", "[kernal]"),
        ("\n[kernal]\nomega_max = -5\n\n[kernel]\nn_pionts = 1\n", "[kernal], [kernel] n_pionts"),
        ("gamma_S = 1 kHz\nteeth = 4\n", "[state] gamma_s"),
        ("\n[DEFAULT]\nseed = 3\n", "[DEFAULT] seed"),
        ("teeth = many\nteeh = 3\n", "[state] teeh"),
    ], ids=["misspelt-key", "misspelt-section", "both", "key-in-wrong-section", "default-section",
            "before-any-value"])
    def test_unknown_names_rejected(self, tmp_path, extra, names):
        # a misspelt name used to run silently with the default it meant to replace
        with pytest.raises(ConfigError, match=f"unknown config names: {re.escape(names)}$"):
            load_config(write_config(tmp_path, BASE + extra))

    def test_every_documented_key_accepted(self, tmp_path):
        text = (
            "[memory]\nd = 4\ngamma = 2pi*3 MHz\nDelta = 2pi*700 MHz\nOmega_p = 2pi*50 MHz\n"
            "T = 1 ms\nrep_rate = 80 MHz\n"
            "\n[state]\nsqueezing_db = -6, -3\nangles = 0, 0.5\nteeth = 8\n"
            "\n[pumps]\nbasis = random-unitary\n"
            "\n[kernel]\nomega_max = 2pi*1 kHz\nn_points = 11\n"
            "\n[dynamics]\nn_z = 40\nn_t = 51\npath = pde\nprobe_omegas = 0\nt_read = 1 ms\n"
            "\n[sweep]\nd_values = 1, 2\n"
            "\n[output]\ndir = somewhere\nformat = csv\nseed = 1\nworkers = 4\n"
        )
        cfg = load_config(write_config(tmp_path, text))
        assert (cfg.teeth, cfg.n_points, cfg.outdir) == (8, 11, "somewhere")

    def test_explicit_sections(self, tmp_path):
        text = (
            BASE
            + "\n[kernel]\nomega_max = 2pi*1.8 kHz\nn_points = 11\n"
            + "\n[dynamics]\nn_z = 600\nn_t = 600\npath = pde\nprobe_omegas = 0, 2pi*1.8 kHz\n"
            + "\n[sweep]\nd_values = 1, 2, 4\n"
            + "\n[output]\nformat = csv\nseed = 5\nworkers = 2\n"
        )
        cfg = load_config(write_config(tmp_path, text))
        assert cfg.omega_max == pytest.approx(TWO_PI * 1.8e3)
        assert cfg.n_points == 11
        assert (cfg.n_z, cfg.n_t, cfg.dynamics_path) == (600, 600, "pde")
        assert cfg.probe_omegas[1] == pytest.approx(TWO_PI * 1.8e3)
        assert cfg.sweep_d == (1.0, 2.0, 4.0)
        assert cfg.formats == ("csv",)
        # workers is the one retired key that is accepted and ignored
        assert cfg.seed == 5

    def test_raw_text_retained(self, tmp_path):
        cfg = load_config(write_config(tmp_path, BASE))
        assert cfg.raw_text == BASE


class TestKeyTable:
    """Every key is read through one table: its parser, default and bounds."""

    @pytest.mark.parametrize("section, key", [name for name, spec in _TABLE.items()
                                              if spec.parse is not str])
    def test_each_parse_error_names_its_key(self, tmp_path, section, key):
        with pytest.raises(ConfigError, match=f"^{re.escape(f'[{section}] {key}: ')}"):
            load_config(write_config(tmp_path, config_with(section, key, "nonsense")))

    @pytest.mark.parametrize("section, key", [name for name, spec in _TABLE.items()
                                              if spec.bounds != (None, None)])
    def test_bounds_are_inclusive(self, tmp_path, section, key):
        low, high = _TABLE[section, key].bounds
        for value in (low, high):
            if value is not None:
                cfg = load_config(write_config(tmp_path, config_with(section, key, value)))
                assert getattr(cfg, key) == value  # each bounded key names its field
        for value, word in ((low, "least"), (high, "most")):
            if value is not None:
                outside = value - 1 if word == "least" else value + 1
                text = config_with(section, key, outside)
                with pytest.raises(ConfigError, match=re.escape(
                        f"[{section}] {key}: must be at {word} {value}, got {outside}")):
                    load_config(write_config(tmp_path, text))

    def test_choices(self, tmp_path):
        # format folds case; basis and path are exact
        assert load_config(write_config(tmp_path, config_with("output", "format", "CSV"))).formats \
            == ("csv",)
        assert load_config(write_config(tmp_path, config_with("output", "format", "Both"))).formats \
            == ("csv", "json")
        for section, key, value in (("pumps", "basis", "Supermodes"), ("dynamics", "path", "PDE")):
            with pytest.raises(ConfigError, match=re.escape(f"[{section}] {key}: must be one of")):
                load_config(write_config(tmp_path, config_with(section, key, value)))

    def test_bad_interpolation_is_config_error(self, tmp_path):
        # configparser's %-interpolation error escaped as a traceback
        text = BASE.replace("T = 1 ms", "T = 1 ms %")
        with pytest.raises(ConfigError, match=re.escape("[memory] T: '%' must be followed by")):
            load_config(write_config(tmp_path, text))
        cfg = load_config(write_config(tmp_path, BASE.replace("T = 1 ms", "T = %(d)s ms")))
        assert cfg.memory.T == 4e-3  # a well-formed interpolation still reads
