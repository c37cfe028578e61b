"""The benchmark's workloads: the CLI invocations each one runs, the seeded
input generator for n5-classify, and the output checks that feed
``failed`` / ``ops_failed``.

Every workload is a fixed list of ``matchpoly.cli.main(argv)`` calls.  The
check of an operation sees its argv, exit code, stdout digest and (for the
operations marked ``keep``) its stdout text; it returns an error message or
None.  Checks run after the timed interval of the pass.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable

N5_DENSE_ARGV = ("--threads", "2", "--allow-large", "poly", "--n", "5",
                 "--basis", "dual", "--format", "text")

# Coefficient histogram of the n=5 dual polynomial (95,161 terms), derived
# densely and independently of the digest below.
N5_DUAL_HISTOGRAM = {-4: 500, -3: 700, -2: 2400, -1: 44175, 1: 42411,
                     2: 4800, 4: 30, 6: 120, 9: 25}

# The README's coefficient groups of ``summary --n 4 --basis dual``.
N4_SUMMARY_GROUPS = {-2: 144, -1: 1188, 1: 1353, 3: 20, 4: 16}

# sha256 of the stdout bytes, frozen from the seed implementation; the CLI
# promises byte-identical output.
DIGESTS = {
    N5_DENSE_ARGV:
        "76e052c51438226b9cb82a60c53cd2c905f9a769a51146403100a5bfc92fb1d7",
    ("poly", "--n", "4", "--basis", "fourier", "--format", "json"):
        "c99869f9399c216473d8263c575295bc21c64e5ade934090c5311290b68df7b0",
    ("summary", "--n", "4", "--basis", "dual"):
        "a98e59af35ce45a0af97095671ffc5325398d72d2036fcc16247cece433e8681",
    ("lattice", "--n", "4", "--format", "json"):
        "25cb4c9b37378b5066ff35dc240d1bdc400ffa18bd368c56257fb6e9174f3800",
    ("poly", "--n", "4", "--basis", "dual", "--format", "text"):
        "b549d6eb9976a401c8528a71fb789dddc68542c4910b9331556e2483b0d0fe4d",
}


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    keep: bool = False   # keep the stdout text for the check


@dataclass(frozen=True)
class Result:
    """What a pass recorded for one operation."""
    argv: tuple[str, ...]
    rc: int | None       # None when main raised
    sha256: str
    text: str | None


Check = Callable[[Result], "str | None"]


# ---------------------------------------------------------------------------
# n5-classify input generator
# ---------------------------------------------------------------------------

N = 5
FULL = (1 << (N * N)) - 1

# Per edge count in 7..13, 14 uniform random graphs and 14 permuted Ferrers
# shapes: the cost of one classify call is about 2^(25-|E|) supergraph
# masks, so a fixed count per edge count keeps a pass's work the same for
# every seed, while the seed picks which graphs.  7..13 edges spans
# 2^18..2^12 masks per call: from calls dominated by the filter itself down
# to calls dominated by the fixed per-call cost.  Random graphs are almost
# all not totally ordered (dual coefficient 0); Ferrers shapes are totally
# ordered and carry the nonzero coefficients.  Four permuted staircases
# (degrees 5,4,3,2,1, 15 edges) are the only strictly ordered graphs at n=5,
# so they are what exercises the "strict => +1" half of the dichotomy.
EDGE_COUNTS = range(7, 14)
PER_EDGE_COUNT = 14
STAIRCASES = 4


def _partitions(total: int, parts: int, cap: int) -> list[tuple[int, ...]]:
    """Non-increasing sequences of ``parts`` values in [0, cap] summing to total."""
    if parts == 0:
        return [()] if total == 0 else []
    out = []
    for first in range(min(cap, total), -1, -1):
        for rest in _partitions(total - first, parts - 1, first):
            out.append((first,) + rest)
    return out


def _ferrers_mask(rng: random.Random, degrees: tuple[int, ...]) -> int:
    rows = rng.sample(range(N), N)
    cols = rng.sample(range(N), N)
    mask = 0
    for i, d in zip(rows, degrees):
        for c in cols[:d]:
            mask |= 1 << (N * i + c)
    return mask


@dataclass(frozen=True)
class Graph:
    mask: int
    kind: str   # "random", "ferrers" or "staircase"


def classify_graphs(seed: int) -> list[Graph]:
    """The seeded n5-classify inputs, shuffled so the strata interleave."""
    rng = random.Random(seed)
    graphs = []
    for e in EDGE_COUNTS:
        shapes = _partitions(e, N, N)
        for _ in range(PER_EDGE_COUNT):
            bits = rng.sample(range(N * N), e)
            graphs.append(Graph(sum(1 << b for b in bits), "random"))
            graphs.append(Graph(_ferrers_mask(rng, rng.choice(shapes)), "ferrers"))
    for _ in range(STAIRCASES):
        graphs.append(Graph(_ferrers_mask(rng, (5, 4, 3, 2, 1)), "staircase"))
    rng.shuffle(graphs)
    return graphs


def classify_argv(mask: int) -> tuple[str, ...]:
    return ("--allow-large", "classify", "--n", str(N), "--graph", f"{mask:#x}")


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def run_check(check: Check, r: Result) -> str | None:
    """A check's verdict; output too malformed to parse is a failure too."""
    try:
        return check(r)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        return f"unparsable output: {exc!r}"


def _exit_ok(r: Result) -> str | None:
    if r.rc != 0:
        return f"exit code {r.rc}"
    return None


def check_digest(r: Result) -> str | None:
    want = DIGESTS[r.argv]
    if r.sha256 != want:
        return f"stdout sha256 {r.sha256[:16]}... != frozen {want[:16]}..."
    return None


def text_histogram(text: str) -> dict[int, int]:
    """Coefficient histogram of a ``to_text`` rendering."""
    hist: dict[int, int] = {}
    for line in text.splitlines():
        tokens = line.split()
        sign = -1 if tokens[0] == "-" else 1
        mag = int(tokens[1]) if len(tokens) > 1 and tokens[1].isdigit() else 1
        hist[sign * mag] = hist.get(sign * mag, 0) + 1
    return hist


def check_n5_dense(r: Result) -> str | None:
    err = _exit_ok(r) or check_digest(r)
    hist = text_histogram(r.text or "")
    if hist != N5_DUAL_HISTOGRAM:
        err = (err + "; " if err else "") + f"coefficient histogram {sorted(hist.items())}"
    return err


def check_render(r: Result) -> str | None:
    err = _exit_ok(r) or check_digest(r)
    if err is None and r.argv[0] == "summary":
        groups = {g["coeff"]: g["monomials"] for g in json.loads(r.text)["groups"]}
        if groups != N4_SUMMARY_GROUPS:
            err = f"summary groups {groups}"
    return err


def check_verify(r: Result) -> str | None:
    err = _exit_ok(r)
    if err:
        return err
    lines = (r.text or "").splitlines()
    if not lines:
        return "no output"
    claims, tally = lines[:-1], lines[-1]
    bad = [ln for ln in claims if not ln.startswith("[PASS] ")]
    if bad:
        return f"not passed: {bad[0]}"
    if tally != f"{len(claims)}/{len(claims)} claims passed":
        return f"tally line {tally!r}"
    return None


class ClassifyOracle:
    """Dual coefficients by the subset Moebius sum over the dense
    perfect-matching table:

        dual(S) = sum_{T subseteq S} (-1)^{|S - T|} (1 - BPM(K_{5,5} - T)).

    It reads only ``truth_table(5)``, nothing of the MC filter / chi route
    that ``classify`` uses.
    """

    def __init__(self, graphs: list[Graph], truth_table):
        import numpy as np
        self._np = np
        self._tt = truth_table
        self.kind = {f"{g.mask:#x}": g.kind for g in graphs}

    def coefficient(self, mask: int) -> int:
        np = self._np
        bits = [b for b in range(N * N) if (mask >> b) & 1]
        idx = np.arange(1 << len(bits), dtype=np.int64)
        subsets = np.zeros(idx.size, dtype=np.int64)
        sign = np.ones(idx.size, dtype=np.int64)
        for pos, b in enumerate(bits):
            bit = (idx >> pos) & 1
            subsets |= bit << b
            sign *= 2 * bit - 1
        dual_values = 1 - self._tt[FULL ^ subsets].astype(np.int64)
        return int((sign * dual_values).sum())

    def __call__(self, r: Result) -> str | None:
        err = _exit_ok(r)
        if err:
            return err
        fields = dict(f.split("=", 1) for f in (r.text or "").split())
        graph = r.argv[-1]
        if fields.get("graph") != graph:
            return f"graph field {fields.get('graph')!r} != input {graph}"
        try:
            got = int(fields["dual_coeff"])
        except (KeyError, ValueError):
            return f"no integer dual_coeff in {r.text!r}"
        want = self.coefficient(int(graph, 16))
        if got != want:
            return f"{graph}: dual_coeff={got}, subset Moebius sum gives {want}"
        cls = fields.get("class")
        if cls == "NotTotallyOrdered" and got != 0:
            return f"{graph}: NotTotallyOrdered with dual_coeff={got}"
        if cls == "StrictlyTotallyOrdered" and got != 1:
            return f"{graph}: StrictlyTotallyOrdered with dual_coeff={got}"
        if self.kind.get(graph) in ("ferrers", "staircase") and cls == "NotTotallyOrdered":
            return f"{graph}: Ferrers shape classified NotTotallyOrdered"
        if self.kind.get(graph) == "staircase" and cls != "StrictlyTotallyOrdered":
            return f"{graph}: staircase classified {cls}"
        return None


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    """Why each workload exists is recorded in BENCHMARK.json."""
    name: str
    ops: Callable[[int], list[Op]]
    checker: Callable[[int], Check]   # built after the timed ops of a pass


def _fixed(*ops: Op) -> Callable[[int], list[Op]]:
    return lambda seed: list(ops)


def _classify_checker(seed: int) -> Check:
    from matchpoly import _kernels
    return ClassifyOracle(classify_graphs(seed), _kernels.truth_table(N))


WORKLOADS = {w.name: w for w in [
    Workload(
        "n5-dense",
        _fixed(Op(N5_DENSE_ARGV, keep=True)),
        lambda seed: check_n5_dense),
    Workload(
        "n5-classify",
        lambda seed: [Op(classify_argv(g.mask), keep=True) for g in classify_graphs(seed)],
        _classify_checker),
    Workload(
        "n4-verify",
        _fixed(Op(("verify", "--n", "4", "--claim", "all"), keep=True),
               Op(("verify", "--n", "3", "--claim", "all"), keep=True)),
        lambda seed: check_verify),
    Workload(
        "n4-render",
        _fixed(Op(("poly", "--n", "4", "--basis", "fourier", "--format", "json")),
               Op(("summary", "--n", "4", "--basis", "dual"), keep=True),
               Op(("lattice", "--n", "4", "--format", "json")),
               Op(("poly", "--n", "4", "--basis", "dual", "--format", "text"))),
        lambda seed: check_render),
]}
