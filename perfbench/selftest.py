"""Self-tests of the benchmark's own checks and counters.

    python3 perfbench/selftest.py

1. Each output check accepts the genuine output and rejects a corrupted one:
   a flipped coefficient, an altered byte, a wrong ``dual_coeff``, a failed
   claim.
2. The exact counts of a traced pass (masks scanned, MC hits, calls, ...)
   repeat exactly between two traced passes of every workload, and on
   n5-dense equal 2^25 masks and |MC_5| = 6,092,721 hits.

Takes a few minutes (two traced passes of n5-dense dominate).  Exits 1 if
any test fails.
"""

import dataclasses
import hashlib
import json
import sys

import run
import worker
import workloads
from workloads import Op, Result

EXACT_SUFFIXES = (".calls", ".masks", ".hits", ".elements", ".terms",
                  ".bytes_computed", ".stdout_bytes", ".stdout_writes")


def genuine(argv) -> Result:
    _, result = worker.run_op(Op(tuple(argv), keep=True), None)
    return result


def altered(result: Result, text: str) -> Result:
    return dataclasses.replace(
        result, text=text, sha256=hashlib.sha256(text.encode()).hexdigest())


def expect(check, good: Result, bad: dict[str, Result]) -> list[str]:
    problems = []
    verdict = workloads.run_check(check, good)
    if verdict is not None:
        problems.append(f"genuine {' '.join(good.argv)} rejected: {verdict}")
    for what, result in bad.items():
        if workloads.run_check(check, result) is None:
            problems.append(f"{what} in {' '.join(result.argv)} not caught")
    return problems


def flip_first_sign(text: str) -> str:
    first, rest = text.split("\n", 1)
    flipped = ("- " + first[2:]) if first.startswith("+ ") else ("+ " + first[2:])
    return flipped + "\n" + rest


def test_n5_dense() -> list[str]:
    good = genuine(workloads.N5_DENSE_ARGV)
    text = good.text
    return expect(workloads.check_n5_dense, good, {
        "flipped coefficient": altered(good, flip_first_sign(text)),
        "altered byte": altered(good, text.replace("x_{1,1}", "x_{1,2}", 1)),
        "exit code 1": dataclasses.replace(good, rc=1),
    })


def test_n4_render() -> list[str]:
    problems = []
    for op in workloads.WORKLOADS["n4-render"].ops(0):
        good = genuine(op.argv)
        bad = {"altered byte": altered(good, good.text[:-2] + "#" + good.text[-1])}
        if op.argv[0] == "summary":
            doc = json.loads(good.text)
            doc["groups"][0]["coeff"] = -doc["groups"][0]["coeff"]
            bad["flipped coefficient"] = altered(good, json.dumps(doc, indent=2) + "\n")
            # a digest that matches but groups that do not: the groups
            # check stands on its own
            forged = dataclasses.replace(bad["flipped coefficient"], sha256=good.sha256)
            bad["flipped coefficient, digest forged"] = forged
        problems += expect(workloads.check_render, good, bad)
    return problems


def test_n4_verify() -> list[str]:
    problems = []
    for op in workloads.WORKLOADS["n4-verify"].ops(0):
        good = genuine(op.argv)
        problems += expect(workloads.check_verify, good, {
            "failed claim": altered(good, good.text.replace("[PASS]", "[FAIL]", 1)),
            "missing claim": altered(good, good.text.split("\n", 1)[1]),
            "exit code 1": dataclasses.replace(good, rc=1),
        })
    return problems


def test_n5_classify() -> list[str]:
    seed = 1
    check = workloads.WORKLOADS["n5-classify"].checker(seed)
    graphs = workloads.classify_graphs(seed)
    picked = [g for g in graphs if g.mask.bit_count() >= 11][:6]
    picked += [g for g in graphs if g.kind == "staircase"][:1]
    problems = []
    nonzero = 0
    for g in picked:
        good = genuine(workloads.classify_argv(g.mask))
        coeff = int(good.text.split("dual_coeff=")[1].split()[0])
        nonzero += coeff != 0
        wrong = good.text.replace(f"dual_coeff={coeff}", f"dual_coeff={coeff + 1}")
        problems += expect(check, good, {"wrong dual_coeff": altered(good, wrong)})
    if not nonzero:
        problems.append("no picked graph has a nonzero dual coefficient")
    return problems


def test_counts_repeat() -> list[str]:
    problems = []
    for name in run.WORKLOADS:
        a, b = (run.spawn(name, 1, trace=True)["layers"] for _ in range(2))
        exact = {k: v for k, v in a.items() if k.endswith(EXACT_SUFFIXES)}
        for k, v in exact.items():
            if b[k] != v:
                problems.append(f"{name}: {k} = {v} then {b[k]}")
        if name == "n5-dense":
            for k, want in (("kernels.mc_filter.masks", 1 << 25),
                            ("kernels.mc_filter.hits", 6_092_721)):
                if a[k] != want:
                    problems.append(f"n5-dense: {k} = {a[k]}, expected {want}")
        print(f"  {name}: {len(exact)} exact counts repeat", flush=True)
    return problems


def main() -> int:
    failed = 0
    for test in (test_n4_verify, test_n4_render, test_n5_classify, test_n5_dense,
                 test_counts_repeat):
        problems = test()
        failed += bool(problems)
        print(f"{'FAIL' if problems else 'PASS'} {test.__name__}", flush=True)
        for p in problems:
            print(f"  {p}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
