"""Experiment configuration: INI-style key/value files with SI quantities.

Quantities accept an optional ``2pi*`` prefix and a unit suffix, e.g.::

    gamma_s = 2pi*18 kHz
    T = 1 ms
    rep_rate = 80 MHz

A configuration names exactly one state source: an explicit squeezing
spectrum in dB, a covariance-matrix JSON file, or a named synthetic preset.
"""

from __future__ import annotations

import configparser
import math
import os
import re
from dataclasses import dataclass

import numpy as np

from .channel import MAX_KERNEL_POINTS, MemoryParams, PhysicalParams, derive_gamma_s
from .errors import CombMemoryError, ConfigError
from .dynamics import MAX_GRID_CELLS
from .modes import DEFAULT_TOOTH_COUNT, MAX_MODE_COUNT, MAX_TOOTH_COUNT
from .presets import _check_name as _check_preset

__all__ = ["ExperimentConfig", "parse_quantity", "load_config"]

_UNITS = {
    "": 1.0,
    "s": 1.0, "ms": 1e-3, "us": 1e-6, "ns": 1e-9, "ps": 1e-12,
    "hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9, "thz": 1e12,
    "rad/s": 1.0,
}

# Every section and key a config may name (keys as configparser folds them,
# to lower case).  ``[output] workers`` is retired and accepted without effect.
_KEYS = {
    "memory": {"d", "t", "gamma_s", "gamma", "delta", "omega_p", "rep_rate", "alpha"},
    "state": {"squeezing_db", "file", "preset", "angles", "teeth"},
    "pumps": {"basis"},
    "kernel": {"omega_max", "n_points"},
    "dynamics": {"n_z", "n_t", "path", "probe_omegas", "t_read"},
    "sweep": {"d_values"},
    "output": {"dir", "format", "seed", "workers"},
}

# Largest `[state] file`, checked before it is read: 64 bytes for each entry of
# a 2 MAX_MODE_COUNT square matrix (64 MiB).  The stdlib's indent=2 encoding
# of a state takes at most 34: 8 spaces, a 24-character float and ",\n".
MAX_STATE_FILE_BYTES = 64 * (2 * MAX_MODE_COUNT) ** 2

_QUANTITY_RE = re.compile(r"^\s*(?:([-+]?)(2pi\*))?\s*([-+]?[0-9.]+(?:[eE][-+]?[0-9]+)?)\s*([a-zA-Z/]*)\s*$")


def _finite(value: float, text) -> float:
    """``value``, parsed from ``text``; inf or nan raises ConfigError (float() reads 1e999 as inf)."""
    if not math.isfinite(value):
        raise ConfigError(f"value {text!r} is not finite")
    return value


def parse_quantity(text: str) -> float:
    """SI value from '2pi*10e3', '-2pi*1.8 kHz', '80 MHz', '1 ms', '0.5', ...; finite."""
    m = _QUANTITY_RE.match(str(text))
    if m is None:
        raise ConfigError(f"cannot parse quantity {text!r}")
    sign, prefix, number, unit = m.groups()
    try:
        value = float((sign or "") + number)  # a sign before and after 2pi* fails here
    except ValueError:
        raise ConfigError(f"cannot parse number in {text!r}") from None
    scale = _UNITS.get(unit.lower())
    if scale is None:
        raise ConfigError(f"unknown unit {unit!r} in {text!r}")
    if prefix:
        value *= 2.0 * np.pi
    return _finite(value * scale, text)


def _float_list(text: str, what: str) -> tuple:
    items = [p.strip() for p in str(text).split(",") if p.strip()]
    if not items:
        raise ConfigError(f"{what} list is empty")
    try:
        return tuple(_finite(float(p), p) for p in items)
    except ValueError as exc:  # ConfigError is a ValueError too
        raise ConfigError(f"bad {what} list: {exc}") from None


def _quantity_list(text: str, what: str) -> tuple:
    items = [p.strip() for p in str(text).split(",") if p.strip()]
    if not items:
        raise ConfigError(f"{what} list is empty")
    return tuple(parse_quantity(p) for p in items)


def _int(value, what: str) -> int:
    try:
        return int(str(value))
    except ValueError:
        raise ConfigError(f"{what} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment description (one state source, SI units)."""

    memory: MemoryParams
    state_source: str                  # "spectrum" | "file" | "preset"
    spectrum_db: tuple | None
    angles: tuple | None
    state_file: str | None
    preset: str | None
    teeth: int
    pump_basis: str                    # "supermodes" | "random-unitary"
    omega_max: float
    n_points: int
    n_z: int
    n_t: int
    dynamics_path: str
    probe_omegas: tuple
    t_read: float | None
    sweep_d: tuple
    outdir: str | None
    formats: tuple
    seed: int
    raw_text: str


def load_config(path: str) -> ExperimentConfig:
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path) as fh:
        raw = fh.read()
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read_string(raw)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from None
    defaults = cp.defaults()  # [DEFAULT] keys, which every section would inherit
    unknown = [f"[{name}]" for name in cp.sections() if name not in _KEYS]
    unknown += [f"[{cp.default_section}] {key}" for key in defaults]
    unknown += [f"[{name}] {key}" for name in cp.sections() if name in _KEYS
                for key in cp.options(name) if key not in _KEYS[name] and key not in defaults]
    if unknown:
        raise ConfigError(f"unknown config names: {', '.join(unknown)}")

    def get(section, key, default=None):
        if cp.has_option(section, key):
            return cp.get(section, key)
        return default

    # --- memory -------------------------------------------------------------
    if not cp.has_section("memory"):
        raise ConfigError("missing [memory] section")
    d_text = get("memory", "d")
    T_text = get("memory", "T")
    if d_text is None or T_text is None:
        raise ConfigError("[memory] needs both d and T")
    gamma_s_text = get("memory", "gamma_s")
    trio = [get("memory", k) for k in ("gamma", "Delta", "Omega_p")]
    have_trio = all(v is not None for v in trio)
    if gamma_s_text is not None and any(v is not None for v in trio):
        raise ConfigError("[memory] gives both gamma_s and Raman parameters; choose one")
    if gamma_s_text is not None:
        gamma_s = parse_quantity(gamma_s_text)
    elif have_trio:
        phys = PhysicalParams(
            gamma=parse_quantity(trio[0]),
            Delta=parse_quantity(trio[1]),
            Omega_p=parse_quantity(trio[2]),
        )
        gamma_s = derive_gamma_s(phys)
    else:
        raise ConfigError("[memory] needs gamma_s or all of gamma, Delta, Omega_p")
    rep_text = get("memory", "rep_rate")
    alpha_text = get("memory", "alpha")
    try:
        memory = MemoryParams(
            d=_finite(float(d_text), d_text),
            gamma_s=gamma_s,
            T=parse_quantity(T_text),
            rep_rate=None if rep_text is None else parse_quantity(rep_text),
            alpha=None if alpha_text is None else _finite(float(alpha_text), alpha_text),
        )
    except (CombMemoryError, ValueError) as exc:
        raise ConfigError(f"invalid [memory] parameters: {exc}") from None

    # --- state --------------------------------------------------------------
    spectrum_db = angles = state_file = preset = None
    sources = []
    if cp.has_option("state", "squeezing_db"):
        spectrum_db = _float_list(get("state", "squeezing_db"), "squeezing_db")
        if len(spectrum_db) > MAX_MODE_COUNT:
            raise ConfigError(f"[state] squeezing_db lists {len(spectrum_db)} modes; "
                              f"at most {MAX_MODE_COUNT} are supported")
        sources.append("spectrum")
    if cp.has_option("state", "file"):
        state_file = get("state", "file")
        sources.append("file")
    if cp.has_option("state", "preset"):
        preset = get("state", "preset")
        _check_preset(preset)
        sources.append("preset")
    if len(sources) != 1:
        raise ConfigError(
            f"exactly one state source required (squeezing_db, file, or preset); got {sources or 'none'}"
        )
    if state_file is not None:
        if not os.path.isfile(state_file):
            raise ConfigError(f"state file not found: {state_file}")
        size = os.path.getsize(state_file)
        if size > MAX_STATE_FILE_BYTES:
            raise ConfigError(f"[state] file {state_file} is {size} bytes; a state of at most "
                              f"{MAX_MODE_COUNT} modes takes at most {MAX_STATE_FILE_BYTES}")
    if cp.has_option("state", "angles"):
        angles = _float_list(get("state", "angles"), "angles")
        if spectrum_db is None:
            raise ConfigError("angles only apply to an explicit squeezing spectrum")
        if len(angles) != len(spectrum_db):
            raise ConfigError("angles and squeezing_db must have the same length")
    teeth = _int(get("state", "teeth", DEFAULT_TOOTH_COUNT), "teeth")
    if teeth < 1:
        raise ConfigError("teeth must be positive")
    if teeth > MAX_TOOTH_COUNT:
        raise ConfigError(f"[state] teeth must be at most {MAX_TOOTH_COUNT}, got {teeth}")

    # --- pumps --------------------------------------------------------------
    pump_basis = get("pumps", "basis", "supermodes")
    if pump_basis not in ("supermodes", "random-unitary"):
        raise ConfigError(f"unknown pump basis {pump_basis!r}")

    # --- kernel -------------------------------------------------------------
    omega_max_text = get("kernel", "omega_max")
    omega_max = (
        0.1 * memory.gamma_s if omega_max_text is None else parse_quantity(omega_max_text)
    )
    if omega_max < 0.0:
        raise ConfigError(f"[kernel] omega_max must be >= 0, got {omega_max_text!r}")
    n_points = _int(get("kernel", "n_points", 201), "n_points")
    if n_points < 2:
        raise ConfigError(f"[kernel] n_points must be at least 2, got {n_points}")
    if n_points > MAX_KERNEL_POINTS:
        raise ConfigError(f"[kernel] n_points must be at most {MAX_KERNEL_POINTS}, got {n_points}")

    # --- dynamics -----------------------------------------------------------
    n_z = _int(get("dynamics", "n_z", 2000), "n_z")
    n_t = _int(get("dynamics", "n_t", 2000), "n_t")
    if n_z < 4:
        raise ConfigError(f"[dynamics] n_z must be at least 4, got {n_z}")
    if n_t < 9:  # the write quadrature's floor on input samples
        raise ConfigError(f"[dynamics] n_t must be at least 9, got {n_t}")
    if n_z * n_t > MAX_GRID_CELLS:  # march work, not memory; per-cell cost in dynamics
        raise ConfigError(f"[dynamics] n_z * n_t must be at most {MAX_GRID_CELLS}, "
                          f"got {n_z} * {n_t} = {n_z * n_t}")
    dynamics_path = get("dynamics", "path", "analytic")
    if dynamics_path not in ("analytic", "pde"):
        raise ConfigError(f"unknown dynamics path {dynamics_path!r}")
    probe_text = get("dynamics", "probe_omegas")
    probe_omegas = (
        (0.0, 0.1 * memory.gamma_s)
        if probe_text is None
        else _quantity_list(probe_text, "probe_omegas")
    )
    t_read_text = get("dynamics", "t_read")
    t_read = None if t_read_text is None else parse_quantity(t_read_text)
    if t_read is not None and t_read <= 0.0:
        raise ConfigError(f"[dynamics] t_read must be positive, got {t_read_text!r}")

    # --- sweep --------------------------------------------------------------
    if cp.has_option("sweep", "d_values"):
        sweep_d = _float_list(get("sweep", "d_values"), "d_values")
    else:
        sweep_d = tuple(float(k) for k in range(1, 21))

    # --- output -------------------------------------------------------------
    outdir = get("output", "dir")
    fmt = get("output", "format", "both").lower()
    if fmt == "both":
        formats = ("csv", "json")
    elif fmt in ("csv", "json"):
        formats = (fmt,)
    else:
        raise ConfigError(f"unknown output format {fmt!r}")
    seed = _int(get("output", "seed", 0), "seed")
    if seed < 0:  # numpy's generators take only non-negative seeds
        raise ConfigError(f"[output] seed must be non-negative, got {seed}")

    return ExperimentConfig(
        memory=memory,
        state_source=sources[0],
        spectrum_db=spectrum_db,
        angles=angles,
        state_file=state_file,
        preset=preset,
        teeth=teeth,
        pump_basis=pump_basis,
        omega_max=omega_max,
        n_points=n_points,
        n_z=n_z,
        n_t=n_t,
        dynamics_path=dynamics_path,
        probe_omegas=probe_omegas,
        t_read=t_read,
        sweep_d=sweep_d,
        outdir=outdir,
        formats=formats,
        seed=seed,
        raw_text=raw,
    )
