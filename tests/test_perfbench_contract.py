"""The benchmark's tracer looks up kernels and arguments by name, and its
workloads check their output against frozen digests, a histogram, an
oracle's parse and summary groups; a renamed or deleted name or a changed
output must fail here, not first in a benchmark run."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import pytest  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracing import COUNTERS, LAYERS, Tracer  # noqa: E402

from matchpoly import _kernels, bpm, polyalg  # noqa: E402
from matchpoly.cli import main  # noqa: E402

from helpers import clear_caches  # noqa: E402


def test_tracer_counts_mc_filter_masks(capsys):
    clear_caches()
    tracer = Tracer()
    tracer.install()
    try:
        assert main(["poly", "--n", "2"]) == 0
    finally:
        tracer.uninstall()
    assert capsys.readouterr().out.count("\n") == 3
    assert tracer.metrics()["kernels.mc_filter.masks"] == 16


def test_tracer_sees_every_pool_window(capsys, monkeypatch):
    monkeypatch.setattr(_kernels, "CHUNK_BITS", 4)  # n = 3: 32 chunks, 16 windows
    tracer = Tracer()
    tracer.install()
    try:
        assert main(["--threads", "2", "count", "--n", "3", "--what", "mc"]) == 0
    finally:
        tracer.uninstall()
    assert capsys.readouterr().out == "49\n"
    metrics = tracer.metrics()
    assert metrics["kernels.pool.calls"] > 1
    assert 0 < metrics["kernels.pool.busy_ratio"] <= 1


def test_every_counter_reads_positive(capsys):
    """Each counted kernel runs in one small pass, so a renamed function or
    argument that a counter reads fails here.  The CLI renders through the
    writers, so the traced string and dict renderers are called directly."""
    clear_caches()
    tracer = Tracer()
    tracer.install()
    try:
        for argv in (["verify", "--n", "2"], ["poly", "--n", "2"],
                     ["poly", "--n", "2", "--format", "json"]):
            assert main(argv) == 0, argv
        p = bpm.primal_polynomial(2)
        assert polyalg.to_text(p).count("\n") == 3
        assert len(polyalg.to_json_dict(p, "primal")["terms"]) == 3
    finally:
        tracer.uninstall()
    capsys.readouterr()
    ran = {record["name"].rsplit(":", 1)[-1] for record in tracer.span_records()}
    assert set(COUNTERS) <= ran
    metrics = tracer.metrics()
    for layer, (_, _, names) in LAYERS.items():
        for name in names:
            for counter in COUNTERS.get(name, ((), None))[0]:
                assert metrics[f"{layer}.{counter}"] > 0, (layer, counter)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_outputs_pass_their_checks(name):
    """Every operation of a seed-1 pass, run and checked as the worker does."""
    workload = workloads.WORKLOADS[name]
    check = workload.checker(1)
    for op in workload.ops(1):
        _, result = worker.run_op(op, None)
        verdict = workloads.run_check(check, result)
        assert verdict is None, (op.argv, verdict)
