"""The benchmark's tracer looks up kernels and arguments by name; a renamed
or deleted name must fail here, not first in a benchmark run."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from tracing import Tracer  # noqa: E402

from matchpoly.cli import main  # noqa: E402


def test_tracer_counts_mc_filter_masks(capsys):
    tracer = Tracer()
    tracer.install()
    try:
        assert main(["poly", "--n", "2"]) == 0
    finally:
        tracer.uninstall()
    assert capsys.readouterr().out.count("\n") == 3
    assert tracer.metrics()["kernels.mc_filter.masks"] == 16
