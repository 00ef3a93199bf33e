"""Configuration-driven command line for reproducible memory experiments.

Subcommands::

    kernel    frequency response and flatness of the memory kernel
    metrics   per-supermode retrieval table (squeezing, purity, fidelity)
    channel   stored/retrieved covariance matrices through the pump cascade
    dynamics  space-time integrators validated against the closed forms
    sweep     efficiency / fidelity / purity curves over optical depth

Run protocol: ``main`` picks the seed, the formats and the output directory,
then calls ``cmd_<name>(cfg, seed)``, which only computes and returns its
``Outputs``.  ``main`` alone writes the data files and, last, a
``manifest.json`` naming them, the tool version, the seed and a hash of the
configuration text; it prints the summary lines and returns the exit code:
0 success, 2 configuration error, 3 physics/precondition error, 4 resolution
or tolerance failure.  Identical config + seed give byte-identical data files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from datetime import datetime, timezone
from typing import NamedTuple

import numpy as np

from . import __version__
from .channel import apply_cascade, efficiency, frequency_response, kernel, pulse_capacity
from .config import _FORMATS, _TABLE, ExperimentConfig, _value, load_config
from .dynamics import (
    energy_budget,
    expected_gain,
    pde_write,
    transfer_function_estimate,
    write_analytic,
)
from .errors import CombMemoryError, ConfigError, DimensionError, PhysicsError, ResolutionError
from .gaussian import (
    CovarianceMatrix,
    SqueezingSpectrum,
    squeezed_vacuum,
    supermode_extraction,
    zeta_to_db,
)
from .metrics import _pure_retrieval, _squeezed_zeta, overall_fidelity, retrieval_table
from .metrics import report_from_block  # noqa: F401  (bench/tracer.py wraps cli.report_from_block)
from .modes import MAX_MODE_COUNT, ModeBasis, unitary_mix
from .presets import get_preset
from .tables import Gathered, Records, SymmetricMatrix, write_csv, write_json

OUTDIR_ENV = "COMBMEMORY_OUTDIR"

L2_TOL = 1e-3          # pde vs analytic stored profile, relative L2
ETA_TOL = 5e-3         # measured |gain(0)|^2 vs (1 - e^{-d})^2, relative
GAIN0_TOL = 5e-3       # measured |gain(0)| vs |K_0|, relative
RATIO_TOL = 1e-3       # measured |gain(w)/gain(0)| vs kernel ratio, relative
BUDGET_TOL = 1e-4      # write-stage energy bookkeeping residual

# CSV values from which format = both writes the CSV tables in a forked child,
# beside the JSON documents; below it the fork costs more than it saves
FORK_MIN_VALUES = 1 << 14


# ----------------------------------------------------------------------------
# output helpers

class Outputs(NamedTuple):
    """What a subcommand computed, for ``main`` to write, print and exit on."""

    derived: dict         # manifest values beside eta, alpha, flatness, pulse_capacity
    tables: list          # (name, header, columns) CSV tables
    documents: list       # (name, body) JSON documents
    lines: list           # the summary printed to stdout
    failed: bool = False  # a tolerance check failed: exit 4


def _write_outputs(command, cfg, outdir, seed, formats, derived, tables, documents):
    """Write the ``(name, header, columns)`` CSV tables and ``(name, body)`` JSON
    documents that ``formats`` selects, then ``manifest.json`` naming them.

    With both formats and at least ``FORK_MIN_VALUES`` CSV values, a forked
    child writes the tables while this process writes the documents.
    """
    csv_jobs = [(os.path.join(outdir, name), header, columns)
                for name, header, columns in tables] if "csv" in formats else []
    json_jobs = [(os.path.join(outdir, name), body)
                 for name, body in documents] if "json" in formats else []

    def write_tables():
        for job in csv_jobs:
            write_csv(*job)

    def write_documents():
        for job in json_jobs:
            write_json(*job)

    if (csv_jobs and json_jobs and hasattr(os, "fork")
            and _csv_values(tables) >= FORK_MIN_VALUES):
        _fork_beside(write_tables, write_documents)
    else:
        write_tables()
        write_documents()
    digest = hashlib.sha256(
        cfg.raw_text.encode() + f"\nseed={seed}".encode()
    ).hexdigest()
    write_json(os.path.join(outdir, "manifest.json"), {
        "command": command,
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "seed": seed,
        "config_sha256": digest,
        "config": cfg.raw_text,
        "derived": derived,
        "files": sorted(os.path.basename(job[0]) for job in csv_jobs + json_jobs),
    })


def _csv_values(tables) -> int:
    """The number of fields in the ``(name, header, columns)`` CSV tables."""
    return sum(len(header) * len(columns.entries if isinstance(columns, SymmetricMatrix)
                                 else columns[0])
               for _, header, columns in tables)


def _fork_beside(child_work, own_work) -> None:
    """Run ``child_work()`` in a forked child while this process runs ``own_work()``.

    The child may only format and write files: it calls no BLAS routine,
    whose thread pool did not survive the fork.  It always ends in
    ``os._exit``, so it never returns into the caller's stack, runs no exit
    handler and flushes no inherited stdio buffer.  The child is reaped on
    every path.  If it exits nonzero, ``child_work()`` runs again here, so a
    failure raises what running the two in turn raises; an interrupt of
    ``own_work()`` (``KeyboardInterrupt``, ``SystemExit``) only waits for it.
    """
    import warnings  # loaded at interpreter start-up: no import cost

    with warnings.catch_warnings():
        # Python 3.12+ warns on any fork of a process with threads, here
        # OpenBLAS's idle pool; the child never enters BLAS
        warnings.filterwarnings("ignore", r"This process .* is multi-threaded",
                                DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        code = 1
        try:
            child_work()
            code = 0
        finally:
            os._exit(code)
    try:
        own_work()
    except BaseException as exc:
        if os.waitpid(pid, 0)[1] and isinstance(exc, Exception):
            child_work()  # written in turn, the tables would fail first
        raise
    if os.waitpid(pid, 0)[1]:
        child_work()


# ----------------------------------------------------------------------------
# state and basis assembly

def _fit_teeth(M: int, teeth) -> None:
    if teeth is not None and teeth < M:
        raise ConfigError(f"state has {M} modes but only {teeth} teeth configured")


def _input_state(cfg: ExperimentConfig, teeth=None) -> CovarianceMatrix:
    """The configured input state.  Given ``teeth``, a spectrum or state file
    of more modes than teeth exits 2 before any covariance is built."""
    if cfg.state_source == "spectrum":
        _fit_teeth(len(cfg.spectrum_db), teeth)
        return squeezed_vacuum(SqueezingSpectrum.from_db(cfg.spectrum_db), angles=cfg.angles)
    if cfg.state_source == "file":
        with open(cfg.state_file) as fh:
            try:
                obj = json.load(fh)
            except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError
                # on binary input, or nesting past the parser's recursion limit
                raise ConfigError(f"state file {cfg.state_file} is not JSON: {exc}") from exc
        rows = obj.get("rows") if isinstance(obj, dict) else None
        if isinstance(rows, list) and len(rows) > 2 * MAX_MODE_COUNT:
            raise ConfigError(f"[state] file {cfg.state_file} holds a {len(rows)}-row matrix; "
                              f"at most {MAX_MODE_COUNT} modes are supported")
        if isinstance(rows, list) and len(rows) % 2 == 0:  # odd sizes fail in from_json
            _fit_teeth(len(rows) // 2, teeth)
        try:
            return CovarianceMatrix.from_json(obj)
        except DimensionError as exc:  # malformed: exit 2; unphysical: exit 3
            raise ConfigError(f"state file {cfg.state_file} is malformed: {exc}") from exc
        except OverflowError as exc:  # an integer past the float range, or an infinite mode_count
            raise ConfigError(f"state file {cfg.state_file} holds a number beyond the float "
                              f"range: {exc}") from exc
    C = get_preset(cfg.preset)
    _fit_teeth(C.mode_count, teeth)
    return C


def _state_zetas_db(cfg: ExperimentConfig):
    """Per-supermode input squeezing in dB, extracting when not given directly."""
    if cfg.state_source == "spectrum":
        return list(cfg.spectrum_db)
    _, spectrum = supermode_extraction(_input_state(cfg))
    return spectrum.db.tolist()


def _random_unitary(M: int, rng: np.random.Generator) -> np.ndarray:
    Z = rng.normal(size=(M, M)) + 1j * rng.normal(size=(M, M))
    Q, R = np.linalg.qr(Z)
    ph = np.diag(R).copy()
    ph /= np.abs(ph)
    return Q * ph[None, :]


# ----------------------------------------------------------------------------
# subcommands

def cmd_kernel(cfg: ExperimentConfig, seed: int) -> Outputs:
    """frequency response and flatness of the memory kernel"""
    resp = frequency_response(cfg.memory, cfg.omega_max, cfg.n_points)
    w, K = resp.frequencies, resp.values
    summary = {
        "d": cfg.memory.d,
        "gamma_s": cfg.memory.gamma_s,
        "omega_max": cfg.omega_max,
        "n_points": cfg.n_points,
        "efficiency": efficiency(cfg.memory.d),
        "flatness": resp.flatness,
        "narrowband": resp.narrowband,
        "response": Records(["omega", "re", "im"], [w, K.real, K.imag]),
    }
    return Outputs(
        {"flatness": resp.flatness},
        # |K| by hypot, as complex scalars compute it; the array np.abs can
        # differ in the last bit
        [("kernel_response.csv", ["omega_rad_s", "re_K", "im_K", "absK2"],
          [w, K.real, K.imag, np.hypot(K.real, K.imag) ** 2])],
        [("kernel_summary.json", summary)],
        [f"kernel: flatness {resp.flatness:.6g} over |omega| <= {cfg.omega_max:.6g} rad/s"],
    )


def cmd_metrics(cfg: ExperimentConfig, seed: int) -> Outputs:
    """per-supermode retrieval table (squeezing, purity, fidelity)"""
    reports = retrieval_table(_state_zetas_db(cfg), cfg.memory.d)
    F, vec = overall_fidelity(reports)
    header = ["mode_index", "zeta_in_dB", "zeta_out_dB", "purity", "fidelity"]
    columns = [[getattr(r, name) for r in reports]
               for name in ("index", "zeta_in_db", "zeta_out_db", "purity_out", "fidelity")]
    return Outputs(
        {"overall_fidelity": F},
        [("metrics_table.csv", header, columns)],
        [("metrics_table.json", {
            "rows": Records(header, columns),
            "overall_fidelity": F,
            "fidelity_vector": vec.tolist(),
        })],
        [f"metrics: {len(reports)} supermodes at d = {cfg.memory.d:g}, overall fidelity {F:.6f}"],
    )


def cmd_channel(cfg: ExperimentConfig, seed: int) -> Outputs:
    """stored/retrieved covariance matrices through the pump cascade"""
    C_in = _input_state(cfg, teeth=cfg.teeth)
    M = C_in.mode_count
    k2 = efficiency(cfg.memory.d)
    supermodes = ModeBasis(np.eye(M))  # teeth past M would carry zero amplitude
    C_out = C_ref = apply_cascade(C_in, supermodes, supermodes, k2)
    basis_check = None
    if cfg.pump_basis == "random-unitary":
        pumps = unitary_mix(supermodes, _random_unitary(M, np.random.default_rng(seed)))
        C_out = apply_cascade(C_in, supermodes, pumps, k2)
        basis_check = float(np.abs(C_out.entries - C_ref.entries).max())

    lam_in = np.linalg.eigvalsh(C_in.entries)[:M]
    lam_out = _pure_retrieval(lam_in, k2)[0]  # channel maps quadrature spectra affinely
    c_in, c_out = SymmetricMatrix(C_in.entries), SymmetricMatrix(C_out.entries)
    summary = {
        "modes": M,
        "k2": k2,
        "pump_basis": cfg.pump_basis,
        "basis_independence_max_abs": basis_check,
        "c_in": {"mode_count": M, "rows": c_in},
        "c_out": {"mode_count": M, "rows": c_out},
        "zeta_in": lam_in.tolist(),
        "zeta_out": lam_out.tolist(),
    }
    matrix_header = [f"c{k}" for k in range(2 * M)]
    msg = f"channel: {M} modes through k2 = {k2:.6f}"
    if basis_check is not None:
        msg += f", basis-independence deviation {basis_check:.3e}"
    return Outputs(
        {"basis_independence_max_abs": basis_check},
        [("channel_c_in.csv", matrix_header, c_in),
         ("channel_c_out.csv", matrix_header, c_out),
         ("channel_spectra.csv", ["index", "zeta_in", "zeta_out"],
          [np.arange(M), lam_in, lam_out])],
        [("channel_summary.json", summary)],
        [msg],
    )


def cmd_dynamics(cfg: ExperimentConfig, seed: int) -> Outputs:
    """space-time integrators validated against the closed forms"""
    p = cfg.memory
    checks = []

    def record(name, value, tol, ok):
        checks.append({"check": name, "value": value, "tolerance": tol,
                       "status": "pass" if ok else "FAIL"})
        return ok

    # stored profile: marching integrator against the closed-form kernel
    a_in = np.ones(cfg.n_t, dtype=complex)
    profile = write_analytic(a_in, p, cfg.n_z)
    run = pde_write(a_in, p, cfg.n_z, cfg.n_t)
    budget = energy_budget(run, p)
    ref = np.linalg.norm(profile.b_T)
    diff = float(np.linalg.norm(run.profile.b_T - profile.b_T))
    l2 = diff / ref if ref > 0 else diff
    all_ok = record("pde_vs_analytic_l2", l2, L2_TOL, l2 <= L2_TOL)
    all_ok &= record("energy_budget_residual", budget["residual"], BUDGET_TOL,
                     budget["residual"] <= BUDGET_TOL)

    # end-to-end gains against the kernel prediction
    omegas = [0.0] + [w for w in cfg.probe_omegas if w != 0.0]
    gains = transfer_function_estimate(
        p, omegas, cfg.t_read, path=cfg.dynamics_path
    )
    eta = efficiency(p.d)
    eta_meas = float(np.abs(gains[0]) ** 2)
    err = abs(eta_meas - eta) / max(eta, 1e-12)
    all_ok &= record("efficiency_measured", err, ETA_TOL,
                     err <= ETA_TOL if p.d > 0 else eta_meas == 0.0)

    K0 = abs(kernel(p, 0.0))
    if p.d > 0:
        g0_err = abs(abs(gains[0]) - K0) / K0
        all_ok &= record("gain_zero_magnitude", g0_err, GAIN0_TOL, g0_err <= GAIN0_TOL)
        for w, g in zip(omegas[1:], gains[1:]):
            ratio_meas = abs(g / gains[0])
            ratio_ref = abs(kernel(p, w)) / K0
            r_err = abs(ratio_meas - ratio_ref) / ratio_ref
            all_ok &= record(f"gain_ratio_at_{w:.6g}", r_err, RATIO_TOL,
                             r_err <= RATIO_TOL)

    gain_rows = [{"omega": float(w), "measured": [float(g.real), float(g.imag)],
                  "expected": [float(e.real), float(e.imag)]}
                 for w, g, e in zip(omegas, gains, (expected_gain(p, w) for w in omegas))]

    header = ["check", "value", "tolerance", "status"]
    return Outputs(
        {"eta_measured": eta_meas},
        [("dynamics_report.csv", header, [[c[h] for c in checks] for h in header])],
        [("dynamics_report.json", {
            "checks": checks,
            "gains": gain_rows,
            "energy_budget": budget,
            "eta_measured": eta_meas,
            "eta_formula": eta,
            "all_pass": bool(all_ok),
        })],
        [f"dynamics: {c['check']} = {c['value']:.3e} (tol {c['tolerance']:g}) {c['status']}"
         for c in checks],
        failed=not all_ok,
    )


def cmd_sweep(cfg: ExperimentConfig, seed: int) -> Outputs:
    """efficiency / fidelity / purity curves over optical depth"""
    if not all(d > 0 for d in cfg.sweep_d):
        raise PhysicsError("optical depth must be positive")
    zeta_in = _squeezed_zeta(_state_zetas_db(cfg))
    etas = [efficiency(d) for d in cfg.sweep_d]
    zeta_out, purities, fidelities = _pure_retrieval(zeta_in, np.array(etas)[:, None])

    K, M = zeta_out.shape
    curve_header = ["d", "eta", "mode_index", "zeta_in_dB", "zeta_out_dB", "purity", "fidelity"]
    # the first four columns repeat K or M values: each is formatted once
    curves = [Gathered.repeat(cfg.sweep_d, M), Gathered.repeat(etas, M),
              Gathered.tile(np.arange(M), K), Gathered.tile(zeta_to_db(zeta_in), K),
              zeta_to_db(zeta_out).ravel(), purities.ravel(), fidelities.ravel()]
    overall_header = ["d", "eta", "overall_fidelity"]
    overall = [cfg.sweep_d, etas, np.prod(fidelities, axis=1)]
    return Outputs(
        {"sweep_points": len(cfg.sweep_d)},
        [("sweep_curves.csv", curve_header, curves),
         ("sweep_overall.csv", overall_header, overall)],
        [("sweep_curves.json", {
            "curves": Records(curve_header, curves),
            "overall": Records(overall_header, overall),
        })],
        [f"sweep: {len(cfg.sweep_d)} depths x {M} modes"],
    )


_COMMANDS = {
    "kernel": cmd_kernel,
    "metrics": cmd_metrics,
    "channel": cmd_channel,
    "dynamics": cmd_dynamics,
    "sweep": cmd_sweep,
}


# ----------------------------------------------------------------------------
# entry point

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="combmemory",
        description="Raman comb-memory simulation experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        sp = sub.add_parser(name, help=fn.__doc__)
        sp.add_argument("--config", required=True, help="experiment config file")
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument("--seed", type=int, default=None, help="override config seed")
        sp.add_argument("--format", choices=list(_FORMATS), default=None)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        formats = cfg.formats if args.format is None else _FORMATS[args.format]
        seed = cfg.seed if args.seed is None else _value("--seed", str(args.seed),
                                                         _TABLE["output", "seed"])
        outdir = args.out or cfg.outdir or os.environ.get(OUTDIR_ENV) or "combmemory-out"
        os.makedirs(outdir, exist_ok=True)
        run = _COMMANDS[args.command](cfg, seed)
        p = cfg.memory
        derived = {"eta": efficiency(p.d), "alpha": p.alpha, "flatness": None}
        if p.rep_rate is not None:
            derived["pulse_capacity"] = pulse_capacity(p.T, p.rep_rate)
        derived.update(run.derived)
        _write_outputs(args.command, cfg, outdir, seed, formats, derived,
                       run.tables, run.documents)
        print(*run.lines, sep="\n")
        if run.failed:
            print(f"{args.command}: tolerance failure", file=sys.stderr)
            return 4
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ResolutionError as exc:
        print(f"resolution error: {exc}", file=sys.stderr)
        return 4
    except PhysicsError as exc:
        print(f"physics error: {exc}", file=sys.stderr)
        return 3
    except CombMemoryError as exc:  # anything else from this package
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
