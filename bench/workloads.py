"""Workloads: seeded inputs, the CLI calls of one experiment, and output oracles.

Inputs are built with numpy alone, before any timing, and handed to the
program only as INI and state-JSON files.  Each oracle recomputes the expected
outputs from the generated inputs with plain numpy formulas (never with the
package) and runs outside the timed region.  An oracle returns ``None`` when
the outputs are right, or a one-line reason when they are not.
"""

from __future__ import annotations

import configparser
import json
import os
import re
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

SHIPPED_DYNAMICS = os.path.join("configs", "dynamics.ini")

# Working point of the shipped dynamics config, reused by dynamics-pde.
MEMORY_DYNAMICS = "d = 4\ngamma_s = 2pi*18 kHz\nT = 88.42 us\n"
# Working point of the shipped demo configs, used by comb-channel and depth-sweep.
MEMORY_DEMO = "d = 4\ngamma_s = 2pi*18 kHz\nT = 1 ms\n"

# The CLI's own acceptance tolerances for `dynamics`.
L2_TOL, ETA_TOL, GAIN0_TOL, RATIO_TOL, BUDGET_TOL = 1e-3, 5e-3, 5e-3, 1e-3, 1e-4
# Tolerances the channel, gaussian and metrics tests assert.
CHANNEL_TOL = 1e-10
CLOSED_FORM_TOL = 1e-10

COMB_SIZES = (8, 32, 128)
COMB_POOL = 4          # states generated per comb size; experiments cycle through them
SWEEP_MODES = 64
SWEEP_DEPTHS = 100


@dataclass
class Experiment:
    """One unit of timed work: one CLI run, or the channel + metrics pair."""

    label: str
    argvs: list
    outdirs: list
    check: Callable[[], str | None]


@dataclass
class Plan:
    """Everything a run needs, fixed before timing starts."""

    cycle: Callable[[int], list]   # round index -> the experiments of that round
    inputs: list = field(default_factory=list)
    period: int = 1                # a run stops only after a multiple of this many rounds


# ----------------------------------------------------------------------------
# helpers

_UNITS = {"": 1.0, "s": 1.0, "ms": 1e-3, "us": 1e-6, "hz": 1.0, "khz": 1e3, "mhz": 1e6}


def _si(text: str) -> float:
    m = re.fullmatch(r"\s*(2pi\*)?\s*([-+0-9.eE]+)\s*([a-zA-Z]*)\s*", text)
    value = float(m.group(2)) * _UNITS[m.group(3).lower()]
    return value * 2.0 * np.pi if m.group(1) else value


def _write(path: str, text: str) -> str:
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _files_ok(outdir: str) -> str | None:
    """Every file the manifest names exists and is nonempty."""
    with open(os.path.join(outdir, "manifest.json")) as fh:
        names = json.load(fh)["files"]
    for name in names:
        p = os.path.join(outdir, name)
        if not os.path.isfile(p) or os.path.getsize(p) == 0:
            return f"{name} missing or empty in {outdir}"
    return None


def _kernel(d, gamma_s, w):
    return 1.0 - np.exp(-d * gamma_s / (gamma_s + 1j * np.asarray(w, dtype=float)))


def _eta(d):
    return (1.0 - np.exp(-np.asarray(d, dtype=float))) ** 2


def _closed_forms(zeta, eta):
    """zeta_out, purity, fidelity of a pure squeezed block after the channel."""
    tr_less = zeta + 1.0 / zeta - 2.0
    return (1.0 - eta * (1.0 - zeta),
            1.0 / np.sqrt(1.0 + eta * (1.0 - eta) * tr_less),
            2.0 / np.sqrt(4.0 + (1.0 - eta * eta) * tr_less))


def _mismatch(what, got, want, tol) -> str | None:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return f"{what}: shape {got.shape} != {want.shape}"
    err = float(np.max(np.abs(got - want), initial=0.0))
    return None if err <= tol else f"{what}: max deviation {err:.3e} > {tol:g}"


def _first(*reasons):
    return next((r for r in reasons if r), None)


# ----------------------------------------------------------------------------
# dynamics-analytic and dynamics-pde

def _dynamics_experiment(label, ini, out, d, gamma_s, T, probes) -> Experiment:
    omegas = [0.0] + [w for w in probes if w != 0.0]

    def check():
        with open(os.path.join(out, "dynamics_report.json")) as fh:
            rep = json.load(fh)
        if rep["all_pass"] is not True:
            return "all_pass is not true"
        limits = {"pde_vs_analytic_l2": L2_TOL, "energy_budget_residual": BUDGET_TOL,
                  "efficiency_measured": ETA_TOL, "gain_zero_magnitude": GAIN0_TOL}
        for c in rep["checks"]:
            lim = limits.get(c["check"], RATIO_TOL)
            if c["status"] != "pass" or not c["value"] <= lim:
                return f"check {c['check']} = {c['value']} (limit {lim:g})"
        b = rep["energy_budget"]
        resid = abs(b["input"] - b["transmitted"] - b["stored"] - b["decayed"]) / b["input"]
        if not resid <= BUDGET_TOL:
            return f"energy budget residual {resid:.3e} > {BUDGET_TOL:g}"
        rows = rep["gains"]
        got_w = [r["omega"] for r in rows]
        if got_w != omegas:
            return f"probe frequencies {got_w} != {omegas}"
        w = np.array(omegas)
        K = _kernel(d, gamma_s, w)
        want = -K * np.exp(1j * w * T)
        listed = np.array([complex(*r["expected"]) for r in rows])
        meas = np.array([complex(*r["measured"]) for r in rows])
        eta = float(_eta(d))
        ratio_want = np.abs(K[1:]) / abs(K[0])
        ratio_got = np.abs(meas[1:] / meas[0])
        return _first(
            _mismatch("expected_gain", np.abs(listed - want) / np.abs(want), 0.0 * w, 1e-12),
            _mismatch("|g(0)|^2 vs eta", abs(abs(meas[0]) ** 2 - eta) / eta, 0.0, ETA_TOL),
            _mismatch("|g(0)| vs |K_0|", abs(abs(meas[0]) - abs(K[0])) / abs(K[0]), 0.0, GAIN0_TOL),
            _mismatch("|g(w)/g(0)| vs kernel", np.abs(ratio_got - ratio_want) / ratio_want,
                      0.0 * ratio_want, RATIO_TOL),
            _files_ok(out),
        )

    return Experiment(label, [["dynamics", "--config", ini, "--out", out]], [out], check)


def plan_dynamics_analytic(rng, work) -> Plan:
    # The shipped config, verbatim: no randomness, so the seed changes nothing.
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    with open(SHIPPED_DYNAMICS) as fh:
        cp.read_file(fh)
    mem = cp["memory"]
    probes = [_si(p) for p in cp["dynamics"]["probe_omegas"].split(",")]
    exp = _dynamics_experiment("dynamics-analytic", SHIPPED_DYNAMICS, os.path.join(work, "out"),
                               float(mem["d"]), _si(mem["gamma_s"]), _si(mem["T"]), probes)
    return Plan(cycle=lambda k: [exp], inputs=[SHIPPED_DYNAMICS])


def plan_dynamics_pde(rng, work) -> Plan:
    d, gamma_s, T = 4.0, 2.0 * np.pi * 18e3, 88.42e-6
    # four probes drawn from the protocol's band |omega| <= 0.3 gamma_s, plus DC
    probes = [0.0] + [float(w) for w in rng.uniform(-0.3, 0.3, 4) * gamma_s]
    ini = _write(os.path.join(work, "dynamics_pde.ini"),
                 f"[memory]\n{MEMORY_DYNAMICS}\n[state]\nsqueezing_db = -6\n\n"
                 "[dynamics]\nn_z = 1000\nn_t = 1000\npath = pde\n"
                 f"probe_omegas = {', '.join(repr(w) for w in probes)}\n\n"
                 "[output]\nformat = both\n")
    exp = _dynamics_experiment("dynamics-pde", ini, os.path.join(work, "out"),
                               d, gamma_s, T, probes)
    return Plan(cycle=lambda k: [exp], inputs=[ini])


# ----------------------------------------------------------------------------
# comb-channel

def _haar_unitary(M, rng):
    Z = rng.normal(size=(M, M)) + 1j * rng.normal(size=(M, M))
    Q, R = np.linalg.qr(Z)
    ph = np.diag(R) / np.abs(np.diag(R))
    return Q * ph[None, :]


def pure_comb_state(M, rng):
    """Pure M-mode state: squeezed vacua (uniform in [-10, -0.5] dB) under a Haar mixer.

    Returns the interleaved (S+, S-) covariance and the per-mode squeezing in dB.
    """
    db = rng.uniform(-10.0, -0.5, M)
    zeta = 10.0 ** (db / 10.0)
    D = np.zeros((2 * M, 2 * M))
    D[0::2, 0::2] = np.diag(1.0 / zeta)
    D[1::2, 1::2] = np.diag(zeta)
    U = _haar_unitary(M, rng)
    S = np.empty((2 * M, 2 * M))
    S[0::2, 0::2], S[0::2, 1::2] = U.real, -U.imag
    S[1::2, 0::2], S[1::2, 1::2] = U.imag, U.real
    C = S @ D @ S.T
    return 0.5 * (C + C.T), db


def _comb_experiment(label, ini, out, C, db) -> Experiment:
    M = C.shape[0] // 2
    eta = float(_eta(4.0))
    zeta = np.sort(10.0 ** (db / 10.0))
    ch_out, mt_out = os.path.join(out, "channel"), os.path.join(out, "metrics")

    def check():
        with open(os.path.join(ch_out, "channel_summary.json")) as fh:
            ch = json.load(fh)
        with open(os.path.join(mt_out, "metrics_table.json")) as fh:
            mt = json.load(fh)
        rows = mt["rows"]
        z_out, pur, fid = _closed_forms(zeta, eta)
        return _first(
            None if ch["modes"] == M else f"modes {ch['modes']} != {M}",
            _mismatch("c_in", ch["c_in"]["rows"], C, 1e-12),
            _mismatch("c_out vs (1-eta) I + eta c_in", ch["c_out"]["rows"],
                      (1.0 - eta) * np.eye(2 * M) + eta * C, CHANNEL_TOL),
            _mismatch("basis independence", ch["basis_independence_max_abs"], 0.0, CHANNEL_TOL),
            _mismatch("zeta_in", ch["zeta_in"], zeta, CLOSED_FORM_TOL),
            _mismatch("zeta_out", ch["zeta_out"], z_out, CLOSED_FORM_TOL),
            _mismatch("metrics zeta_in", [10.0 ** (r["zeta_in_dB"] / 10.0) for r in rows],
                      zeta, CLOSED_FORM_TOL),
            _mismatch("metrics zeta_out", [10.0 ** (r["zeta_out_dB"] / 10.0) for r in rows],
                      z_out, CLOSED_FORM_TOL),
            _mismatch("metrics purity", [r["purity"] for r in rows], pur, CLOSED_FORM_TOL),
            _mismatch("metrics fidelity", [r["fidelity"] for r in rows], fid, CLOSED_FORM_TOL),
            _mismatch("overall fidelity", mt["overall_fidelity"] / np.prod(fid), 1.0, 1e-12),
            _files_ok(ch_out),
            _files_ok(mt_out),
        )

    argvs = [["channel", "--config", ini, "--out", ch_out],
             ["metrics", "--config", ini, "--out", mt_out]]
    return Experiment(label, argvs, [ch_out, mt_out], check)


def plan_comb_channel(rng, work) -> Plan:
    pool, inputs = [], []
    for i in range(COMB_POOL):
        trio = []
        for M in COMB_SIZES:
            C, db = pure_comb_state(M, rng)
            state = os.path.join(work, f"state_m{M}_{i}.json")
            with open(state, "w") as fh:
                json.dump({"mode_count": M, "rows": C.tolist()}, fh)
            ini = _write(os.path.join(work, f"comb_m{M}_{i}.ini"),
                         f"[memory]\n{MEMORY_DEMO}\n[state]\nfile = {state}\nteeth = 128\n\n"
                         "[pumps]\nbasis = random-unitary\n\n"
                         f"[output]\nformat = both\nseed = {int(rng.integers(2**31))}\n")
            inputs += [state, ini]
            trio.append(_comb_experiment(f"M={M}", ini, os.path.join(work, "out"), C, db))
        pool.append(trio)
    # one round is M = 8 -> 32 -> 128; a run times whole passes over the pool,
    # so its mix of inputs, and every per-experiment count, is fixed by the seed
    return Plan(cycle=lambda k: pool[k % COMB_POOL], inputs=inputs, period=COMB_POOL)


# ----------------------------------------------------------------------------
# depth-sweep

def plan_depth_sweep(rng, work) -> Plan:
    db = rng.uniform(-12.0, -0.5, SWEEP_MODES)
    depths = np.sort(rng.uniform(0.25, 20.0, SWEEP_DEPTHS))
    ini = _write(os.path.join(work, "sweep.ini"),
                 f"[memory]\n{MEMORY_DEMO}\n"
                 f"[state]\nsqueezing_db = {', '.join(repr(float(x)) for x in db)}\nteeth = 128\n\n"
                 f"[sweep]\nd_values = {', '.join(repr(float(x)) for x in depths)}\n\n"
                 "[output]\nformat = both\nseed = 0\nworkers = 1\n")
    out = os.path.join(work, "out")

    # oracle table, one row per (depth, mode) in the order the CLI writes them
    d_col = np.repeat(depths, SWEEP_MODES)
    eta = _eta(d_col)
    zeta = np.tile(10.0 ** (db / 10.0), SWEEP_DEPTHS)
    z_out, pur, fid = _closed_forms(zeta, eta)
    curves = np.column_stack([d_col, eta, np.tile(np.arange(SWEEP_MODES), SWEEP_DEPTHS),
                              10.0 * np.log10(zeta), 10.0 * np.log10(z_out), pur, fid])
    overall = np.column_stack([depths, _eta(depths),
                               np.prod(fid.reshape(SWEEP_DEPTHS, SWEEP_MODES), axis=1)])

    def close(what, got, want):
        got = np.asarray(got, dtype=float)
        if got.shape != want.shape:
            return f"{what}: shape {got.shape} != {want.shape}"
        ok = np.isclose(got, want, rtol=1e-12, atol=CLOSED_FORM_TOL)
        return None if ok.all() else f"{what}: {int((~ok).sum())} values off the closed forms"

    def check():
        with open(os.path.join(out, "sweep_curves.json")) as fh:
            js = json.load(fh)
        keys = ["d", "eta", "mode_index", "zeta_in_dB", "zeta_out_dB", "purity", "fidelity"]
        return _first(
            close("json curves", [[r[k] for k in keys] for r in js["curves"]], curves),
            close("json overall", [[r[k] for k in ("d", "eta", "overall_fidelity")]
                                   for r in js["overall"]], overall),
            close("csv curves", np.loadtxt(os.path.join(out, "sweep_curves.csv"),
                                           delimiter=",", skiprows=1, ndmin=2), curves),
            close("csv overall", np.loadtxt(os.path.join(out, "sweep_overall.csv"),
                                            delimiter=",", skiprows=1, ndmin=2), overall),
            _files_ok(out),
        )

    exp = Experiment("depth-sweep", [["sweep", "--config", ini, "--out", out]], [out], check)
    return Plan(cycle=lambda k: [exp], inputs=[ini])


WORKLOADS = {
    "dynamics-analytic": plan_dynamics_analytic,
    "dynamics-pde": plan_dynamics_pde,
    "comb-channel": plan_comb_channel,
    "depth-sweep": plan_depth_sweep,
}
