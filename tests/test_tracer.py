"""The benchmark tracer still finds every entry point it wraps by name, and its
wrappers fire on the dynamics and metrics commands."""

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

ONE_MODE_METRICS = """\
[memory]
d = 4
gamma_s = 2pi*18 kHz
T = 1 ms

[state]
squeezing_db = -6
"""


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_traced(tmp_path, command, config):
    """Run one CLI command with the tracer's layers installed; return (exit code, tracer)."""
    bench = load_tracer()
    tracer = bench.Tracer()
    bench.install_layers(tracer)  # a renamed entry point fails here
    try:
        (tmp_path / "exp.ini").write_text(config)
        rc = cli.main([command, "--config", str(tmp_path / "exp.ini"),
                       "--out", str(tmp_path / "out")])
    finally:
        tracer.unwrap_all()
    return rc, tracer


def test_layers_install_and_record_the_write_march(tmp_path):
    rc, tracer = run_traced(tmp_path, "dynamics", SMALL_DYNAMICS)
    assert rc == 0
    assert cli.pde_write is dynamics.pde_write and cli.energy_budget is dynamics.energy_budget
    names = {span[0] for span in tracer.spans}
    assert {"cli", "dynamics.march", "dynamics.budget", "dynamics.write"} <= names
    assert tracer.counts["dynamics.march.cells"] == 300 * 399


def test_metrics_command_records_the_metrics_layer(tmp_path):
    # the tracer wraps cli.retrieval_table and cli.overall_fidelity by name, so
    # cmd_metrics must call both through the cli module's globals
    rc, tracer = run_traced(tmp_path, "metrics", ONE_MODE_METRICS)
    assert rc == 0
    names = [span[0] for span in tracer.spans]
    assert names.count("metrics.report") == 2
    assert tracer.counts["metrics.report.calls"] == 2
