"""combmemory benchmark: one workload, one seed, one closed-loop client.

Usage (from the repository root)::

    python3 bench/run.py --workload depth-sweep --seed 1 --seconds 10 --trace 0

The benchmark drives ``combmemory.cli.main`` in-process, one experiment at a
time, and times each call from outside.  Inputs are generated from the seed
before timing; every experiment's outputs are checked by numpy oracles after
timing.  With ``--trace 0`` it prints the end-to-end metrics; with
``--trace 1`` it runs an untraced half and a traced half and prints the
per-layer metrics.  The last line of standard output is the result as one
JSON object; the line before it is a report with the machine facts, input
digest, sample counts and work counters.  Exit code 0 means the run
completed (``correct`` says whether every output verified); any other code
means it could not run.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = ".bench_work"
SETUP_REPEATS = 11

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np  # noqa: E402

from tracer import Tracer, install_layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Per-layer metrics: the layer spans the tracer records, then the counters.
LAYERS = ("dynamics.j0", "dynamics.write", "dynamics.transfer", "dynamics.march",
          "dynamics.budget", "gaussian.cov", "gaussian.extract", "modes.basis",
          "channel.cascade", "metrics.report", "config.load", "cli")
COUNTERS = {"dynamics.j0.points": "count", "dynamics.march.cells": "count",
            "dynamics.march.hist_bytes": "bytes", "gaussian.cov.calls": "count",
            "modes.basis.calls": "count", "metrics.report.calls": "count"}


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark."""


# ----------------------------------------------------------------------------
# machine facts and set-up time

def machine_facts() -> dict:
    facts = {"nproc": len(os.sched_getaffinity(0)), "cpu_model": platform.processor(),
             "l3_cache": None, "python": platform.python_version(), "numpy": np.__version__}
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            facts["cpu_model"] = next(
                ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    for idx in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        with contextlib.suppress(OSError):
            with open(os.path.join(idx, "level")) as fh:
                if fh.read().strip() == "3":
                    with open(os.path.join(idx, "size")) as fs:
                        facts["l3_cache"] = fs.read().strip()
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    facts["blas"] = {"name": blas.get("name"), "version": blas.get("version"),
                     "threads": _blas_threads()}
    return facts


def _blas_threads():
    """Thread count of numpy's bundled OpenBLAS, left at its default."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


_IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); import combmemory.cli; "
    "t1 = time.perf_counter(); print(t1 - t0, combmemory.cli.__file__)"
)


def import_seconds() -> float:
    """Time a fresh interpreter takes to run ``import combmemory.cli``."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE],
                          env=dict(os.environ, PYTHONPATH=SRC), cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise SetupError(f"import combmemory.cli failed: {proc.stderr.strip()[-300:]}")
    seconds, path = proc.stdout.split()
    if not os.path.abspath(path).startswith(SRC + os.sep):
        raise SetupError(f"imported combmemory from {path}, not from {SRC}")
    return float(seconds)


def import_cli():
    if not os.path.isfile(os.path.join(SRC, "combmemory", "cli.py")):
        raise SetupError(f"no combmemory sources under {SRC}")
    sys.path.insert(0, SRC)
    from combmemory import cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SetupError(f"imported combmemory from {cli.__file__}, not from {SRC}")
    return cli


# ----------------------------------------------------------------------------
# the closed loop

def _bytes_in(dirs) -> int:
    return sum(e.stat().st_size for d in dirs if os.path.isdir(d)
               for e in os.scandir(d) if e.is_file())


def run_loop(cli, plan, seconds, tracer=None, after_round=None):
    """Run whole rounds until ``seconds`` of timed wall time have passed.

    Only the CLI calls are timed.  Clearing the output directories before an
    experiment and verifying its outputs after it are outside the timed region,
    and so is ``after_round(progress)``, called with the timed share of
    ``seconds`` done so far (at most 1).  Returns one record per experiment.
    """
    records, timed, k = [], 0.0, 0
    while True:
        for exp in plan.cycle(k):
            for d in exp.outdirs:
                shutil.rmtree(d, ignore_errors=True)
            sink = io.StringIO()
            error = None
            if tracer is not None:
                tracer.experiment += 1
                root = tracer.open("bench.experiment")
            t0 = perf_counter()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    codes = [cli.main(argv) for argv in exp.argvs]
            except Exception as exc:  # a traceback is a failed experiment, not a crash
                codes, error = None, f"{type(exc).__name__}: {exc}"
            dt = perf_counter() - t0
            if tracer is not None:
                tracer.close(root)
            timed += dt
            if error is None and any(codes):
                error = f"exit codes {codes}: {sink.getvalue().strip()[-300:]}"
            if error is None:
                try:
                    error = exp.check()
                except (OSError, KeyError, ValueError, TypeError) as exc:
                    error = f"unreadable output: {type(exc).__name__}: {exc}"
            records.append({"label": exp.label, "round": k, "seconds": dt, "error": error,
                            "bytes": _bytes_in(exp.outdirs)})
        k += 1
        if after_round is not None:
            after_round(min(timed / seconds, 1.0))
        if timed >= seconds and k % plan.period == 0:
            return records


def summarize(records) -> dict:
    """Throughput and latency figures of one loop.

    ``experiments_per_s`` is taken over the run's fastest round: verified
    experiments of that round per second of its timed wall time.  A round is
    one pass of the workload's cycle (one experiment, or the M = 8, 32, 128
    trio), so every round does the same kind of work.  The fastest round is
    the figure least disturbed by other load on the machine, whose speed
    swings over minutes; the overall rate and the median experiment time are
    reported alongside it.
    """
    times = [r["seconds"] for r in records]
    ok = sum(r["error"] is None for r in records)
    rounds = {}
    for r in records:
        done, secs = rounds.get(r["round"], (0, 0.0))
        rounds[r["round"]] = (done + (r["error"] is None), secs + r["seconds"])
    out = {"attempted": len(records), "failed": len(records) - ok, "rounds": len(rounds),
           "timed_s": sum(times),
           "experiments_per_s": max(d / s for d, s in rounds.values()),
           "experiments_per_s_overall": ok / sum(times),
           "run_s_p50": statistics.median(times), "run_s_samples": len(times)}
    if len(times) >= 20:  # the highest percentile with at least ten samples above it
        pct = int(100 * (1 - 10 / len(times)))
        out[f"run_s_p{pct}"] = float(np.percentile(times, pct))
    return out


def layer_metrics(tracer, records, untraced) -> dict:
    n = len(records)
    wall = sum(r["seconds"] for r in records)
    self_s = tracer.self_times()
    out = {}
    for layer in LAYERS:
        total = self_s.get(layer, 0.0)
        out[f"{layer}.self_s"] = (total / n, "s")
        out[f"{layer}.share_pct"] = (100.0 * total / wall, "%")
    for name, unit in COUNTERS.items():
        out[name] = (tracer.counts[name] / n, unit)
    points = tracer.counts["dynamics.j0.points"]
    out["dynamics.j0.ns_per_point"] = (
        1e9 * self_s.get("dynamics.j0", 0.0) / points if points else 0.0, "ns")
    out["cli.bytes_written"] = (sum(r["bytes"] for r in records) / n, "bytes")
    traced = summarize(records)["experiments_per_s"]
    out["trace.experiments_per_s"] = (traced, "1/s")
    out["trace.overhead_pct"] = (100.0 * (untraced / traced - 1.0), "%")
    out["trace.spans"] = (len(tracer.spans) / n, "count")
    return out


# ----------------------------------------------------------------------------
# entry point

def _digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as fh:
            h.update(os.path.basename(p).encode() + b"\0" + fh.read())
    return h.hexdigest()


def run(args) -> tuple:
    cli = import_cli()
    import_seconds()  # discarded: the first import may compile the bytecode
    work = os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    plan = WORKLOADS[args.workload](np.random.default_rng(args.seed), work)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "client": "closed loop, 1 client, in-process",
              "machine": machine_facts(), "inputs_sha256": _digest(plan.inputs)}

    if not args.trace:
        setup = []

        def probe_setup(progress):
            # set-up samples are spread over the run, so they see the same
            # machine load as the experiments
            while len(setup) < SETUP_REPEATS * progress:
                setup.append(import_seconds())

        records = run_loop(cli, plan, args.seconds, after_round=probe_setup)
        summary = summarize(records)
        report["setup_s_samples"] = setup
        metrics = {
            "experiments_per_s": (summary["experiments_per_s"], "1/s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        report.update(summary)
    else:
        # untraced half first, as the baseline for the tracing overhead
        base = run_loop(cli, plan, args.seconds / 2.0)
        tracer = Tracer()
        install_layers(tracer)
        try:
            traced = run_loop(cli, plan, args.seconds / 2.0, tracer)
        finally:
            tracer.unwrap_all()
        tracer.dump(os.path.join(work, "spans.jsonl"))
        metrics = layer_metrics(tracer, traced, summarize(base)["experiments_per_s"])
        report["untraced"], report["traced"] = summarize(base), summarize(traced)
        report["gaussian.cov.calls_by_modes"] = {
            name.rsplit(".", 1)[1]: c / len(traced) for name, c in sorted(tracer.counts.items())
            if name.startswith("gaussian.cov.calls.m")}
        records = base + traced

    failed = sum(r["error"] is not None for r in records)
    report["failed_frac"] = failed / len(records)
    report["failures"] = sorted({f"{r['label']}: {r['error']}" for r in records if r["error"]})
    report["experiments_by_label"] = {
        lab: sum(r["label"] == lab for r in records) for lab in sorted({r["label"] for r in records})}
    report["cli.bytes_written"] = sum(r["bytes"] for r in records) / len(records)
    result = {"correct": failed == 0, "attempted": len(records), "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    with open(os.path.join(work, "result.json"), "w") as fh:
        json.dump({"report": report, "result": result, "records": records}, fh, indent=1)
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:.6g} {unit}")
    if not args.trace:
        print(f"{'experiments_per_s_overall':32s} {summary['experiments_per_s_overall']:.6g} 1/s")
        print(f"{'run_s_p50':32s} {summary['run_s_p50']:.6g} s "
              f"({summary['run_s_samples']} samples)")
    print(f"{'failed_frac':32s} {report['failed_frac']:.6g} ({failed} of {len(records)})")
    return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    try:
        report, result = run(args)
    except (SetupError, OSError) as exc:
        print(f"bench: cannot run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
