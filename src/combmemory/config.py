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
from typing import Callable, NamedTuple

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


def _number(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"cannot parse number {text!r}") from None
    return _finite(value, text)


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"must be an integer, got {text!r}") from None


def _list(parse):
    """Parser of a comma-separated list of at least one ``parse`` value."""
    def parse_list(text: str) -> tuple:
        items = [p.strip() for p in text.split(",") if p.strip()]
        if not items:
            raise ConfigError("list is empty")
        return tuple(parse(p) for p in items)
    return parse_list


def _choice(*names, fold=str):
    """Parser of one of ``names``, compared after ``fold``."""
    def parse_choice(text: str) -> str:
        if fold(text) not in names:
            raise ConfigError(f"must be one of {', '.join(names)}; got {text!r}")
        return fold(text)
    return parse_choice


# The files each output format writes, by the name a config or --format gives.
_FORMATS = {"csv": ("csv",), "json": ("json",), "both": ("csv", "json")}


class _Key(NamedTuple):
    parse: Callable[[str], object]
    default: object = None          # None: unset unless the config gives it
    bounds: tuple = (None, None)    # inclusive (low, high); None is open


# Every section and key a config may name, in their documented spelling
# (configparser compares keys in lower case), with each key's parser, default
# and bounds.  ``[output] workers`` is retired: accepted, and never read.
_TABLE = {
    ("memory", "d"): _Key(_number),
    ("memory", "T"): _Key(parse_quantity),
    ("memory", "gamma_s"): _Key(parse_quantity),
    ("memory", "gamma"): _Key(parse_quantity),
    ("memory", "Delta"): _Key(parse_quantity),
    ("memory", "Omega_p"): _Key(parse_quantity),
    ("memory", "rep_rate"): _Key(parse_quantity),
    ("memory", "alpha"): _Key(_number),
    ("state", "squeezing_db"): _Key(_list(_number)),
    ("state", "file"): _Key(str),
    ("state", "preset"): _Key(str),
    ("state", "angles"): _Key(_list(_number)),
    ("state", "teeth"): _Key(_integer, DEFAULT_TOOTH_COUNT, (1, MAX_TOOTH_COUNT)),
    ("pumps", "basis"): _Key(_choice("supermodes", "random-unitary"), "supermodes"),
    ("kernel", "omega_max"): _Key(parse_quantity, None, (0, None)),  # unset: 0.1 gamma_s
    ("kernel", "n_points"): _Key(_integer, 201, (2, MAX_KERNEL_POINTS)),
    ("dynamics", "n_z"): _Key(_integer, 2000, (4, None)),
    ("dynamics", "n_t"): _Key(_integer, 2000, (9, None)),  # the write quadrature's floor
    ("dynamics", "path"): _Key(_choice("analytic", "pde"), "analytic"),
    ("dynamics", "probe_omegas"): _Key(_list(parse_quantity)),  # unset: 0 and 0.1 gamma_s
    ("dynamics", "t_read"): _Key(parse_quantity),  # positive; unset: 5 T
    ("sweep", "d_values"): _Key(_list(_number), tuple(float(k) for k in range(1, 21))),
    ("output", "dir"): _Key(str),
    ("output", "format"): _Key(_choice(*_FORMATS, fold=str.lower), "both"),
    ("output", "seed"): _Key(_integer, 0, (0, None)),  # numpy's generators take no negative seed
    ("output", "workers"): _Key(str),
}


def _value(name: str, text: str, key: _Key):
    """``text`` parsed as ``key`` and held to its bounds; each error starts with ``name``."""
    try:
        value = key.parse(text)
    except ConfigError as exc:
        raise ConfigError(f"{name}: {exc}") from None
    low, high = key.bounds
    if low is not None and value < low:
        raise ConfigError(f"{name}: must be at least {low}, got {value}")
    if high is not None and value > high:
        raise ConfigError(f"{name}: must be at most {high}, got {value}")
    return value


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
    sections = {section for section, _ in _TABLE}
    keys = {(section, cp.optionxform(key)) for section, key in _TABLE}
    defaults = cp.defaults()  # [DEFAULT] keys, which every section would inherit
    unknown = [f"[{name}]" for name in cp.sections() if name not in sections]
    unknown += [f"[{cp.default_section}] {key}" for key in defaults]
    unknown += [f"[{name}] {key}" for name in cp.sections() if name in sections
                for key in cp.options(name) if (name, key) not in keys and key not in defaults]
    if unknown:
        raise ConfigError(f"unknown config names: {', '.join(unknown)}")

    def read(section, key):
        """``[section] key`` by the table, or its default when the config omits it."""
        if not cp.has_option(section, key):
            return _TABLE[section, key].default
        name = f"[{section}] {key}"
        try:
            text = cp.get(section, key)
        except configparser.Error as exc:  # a bad %-interpolation
            raise ConfigError(f"{name}: {exc}") from None
        return _value(name, text, _TABLE[section, key])

    # --- memory -------------------------------------------------------------
    if not cp.has_section("memory"):
        raise ConfigError("missing [memory] section")
    if not (cp.has_option("memory", "d") and cp.has_option("memory", "T")):
        raise ConfigError("[memory] needs both d and T")
    raman = [key for key in ("gamma", "Delta", "Omega_p") if cp.has_option("memory", key)]
    if cp.has_option("memory", "gamma_s"):
        if raman:
            raise ConfigError("[memory] gives both gamma_s and Raman parameters; choose one")
        gamma_s = read("memory", "gamma_s")
    elif len(raman) == 3:
        gamma_s = derive_gamma_s(PhysicalParams(**{key: read("memory", key) for key in raman}))
    else:
        raise ConfigError("[memory] needs gamma_s or all of gamma, Delta, Omega_p")
    given = {key: read("memory", key) for key in ("d", "T", "rep_rate", "alpha")}
    try:
        memory = MemoryParams(gamma_s=gamma_s, **given)
    except CombMemoryError as exc:
        raise ConfigError(f"invalid [memory] parameters: {exc}") from None

    # --- state --------------------------------------------------------------
    spectrum_db = read("state", "squeezing_db")
    if spectrum_db is not None and len(spectrum_db) > MAX_MODE_COUNT:
        raise ConfigError(f"[state] squeezing_db lists {len(spectrum_db)} modes; "
                          f"at most {MAX_MODE_COUNT} are supported")
    state_file = read("state", "file")
    preset = read("state", "preset")
    if preset is not None:
        _check_preset(preset)
    sources = [source for source, value in
               (("spectrum", spectrum_db), ("file", state_file), ("preset", preset))
               if value is not None]
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
    angles = read("state", "angles")
    if angles is not None:
        if spectrum_db is None:
            raise ConfigError("angles only apply to an explicit squeezing spectrum")
        if len(angles) != len(spectrum_db):
            raise ConfigError("angles and squeezing_db must have the same length")

    # --- kernel and dynamics: the defaults taken from gamma_s ----------------
    omega_max = read("kernel", "omega_max")
    if omega_max is None:
        omega_max = 0.1 * memory.gamma_s
    n_z, n_t = read("dynamics", "n_z"), read("dynamics", "n_t")
    if n_z * n_t > MAX_GRID_CELLS:  # march work, not memory; per-cell cost in dynamics
        raise ConfigError(f"[dynamics] n_z * n_t must be at most {MAX_GRID_CELLS}, "
                          f"got {n_z} * {n_t} = {n_z * n_t}")
    probe_omegas = read("dynamics", "probe_omegas")
    if probe_omegas is None:
        probe_omegas = (0.0, 0.1 * memory.gamma_s)
    t_read = read("dynamics", "t_read")
    if t_read is not None and t_read <= 0.0:
        raise ConfigError(f"[dynamics] t_read: must be positive, got {t_read}")

    return ExperimentConfig(
        memory=memory,
        state_source=sources[0],
        spectrum_db=spectrum_db,
        angles=angles,
        state_file=state_file,
        preset=preset,
        teeth=read("state", "teeth"),
        pump_basis=read("pumps", "basis"),
        omega_max=omega_max,
        n_points=read("kernel", "n_points"),
        n_z=n_z,
        n_t=n_t,
        dynamics_path=read("dynamics", "path"),
        probe_omegas=probe_omegas,
        t_read=t_read,
        sweep_d=read("sweep", "d_values"),
        outdir=read("output", "dir"),
        formats=_FORMATS[read("output", "format")],
        seed=read("output", "seed"),
        raw_text=raw,
    )
