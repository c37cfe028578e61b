"""matchpoly benchmark: run one workload (or all) and report its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Each pass of a workload is a fresh
``worker.py`` process, so peak RSS and the cold lru-cached tables belong to
that pass alone.  Passes repeat until ``--seconds`` is used up (at least one
pass; a pass is not started if the typical pass would overrun).  Set-up-only
processes run before each pass and after the last, so ``setup_s`` is the
median of several set-ups spread over the run.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: medians over
passes of ``wall_s`` (sum of the operations' wall times), ``cpu_s`` (process
CPU over the same intervals, all threads) and ``peak_rss_mib``; the median
set-up time; and percentiles over the operations of each operation's median
latency.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of BENCHMARK.json (medians over traced passes) plus
``trace.overhead_s``.

The last line of stdout is the JSON result.  A per-run record with the
machine, the per-pass figures and, for traced runs, every span goes to
``.bench_out/``.  The exit code is 1 when any operation fails its check.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = tuple(workloads.WORKLOADS)
PROBES_PER_PASS = 2  # set-up-only processes before each pass and after the last
PASS_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a failed check)."""


def spawn(workload: str, seed: int, trace: bool, setup_only: bool = False) -> dict:
    """Run one worker process; return its record plus set-up and pass time."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--trace", "1" if trace else "0"]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("MATCHPOLY_THREADS", None)  # the CLI default (1) unless argv says
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{workload} pass exceeded {PASS_TIMEOUT_S} s")
    lines = out.decode().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} worker exited with {proc.returncode}")
    record = json.loads(lines[-1])
    record["setup_s"] = record["ready"] - t0  # CLOCK_MONOTONIC is system-wide
    record["pass_s"] = time.monotonic() - t0
    return record


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method); a lone value is every percentile."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    def probes() -> list[float]:
        return [spawn(workload, seed, False, setup_only=True)["setup_s"]
                for _ in range(PROBES_PER_PASS)]

    start = time.monotonic()
    setups: list[float] = []
    passes: list[dict] = []
    cycles: list[float] = []
    while True:
        t0 = time.monotonic()
        setups += probes()
        traced = trace and len(passes) % 2 == 1
        passes.append(dict(spawn(workload, seed, traced), traced=traced))
        setups.append(passes[-1]["setup_s"])
        cycles.append(time.monotonic() - t0)
        if trace and len(passes) < 2:
            continue
        if time.monotonic() - start + statistics.median(cycles) > seconds:
            break
    setups += probes()

    ops = [op for p in passes for op in p["ops"]]
    failed = sum(op["error"] is not None for op in ops)
    for p in passes:
        p["wall_s"] = sum(op["wall_s"] for op in p["ops"])
        p["cpu_s"] = sum(op["cpu_s"] for op in p["ops"])
    plain = [p for p in passes if not p["traced"]]
    if trace:
        traced = [p for p in passes if p["traced"]]
        metrics = {name: statistics.median(p["layers"][name] for p in traced)
                   for name in traced[0]["layers"]}
        metrics["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                       - statistics.median(p["wall_s"] for p in plain))
    else:
        # each operation at its median over the passes, then percentiles
        # over operations
        lat_ms = [statistics.median(p["ops"][i]["wall_s"] for p in plain) * 1e3
                  for i in range(len(plain[0]["ops"]))]
        metrics = {
            "wall_s": statistics.median(p["wall_s"] for p in plain),
            "cpu_s": statistics.median(p["cpu_s"] for p in plain),
            "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in plain),
            "setup_s": statistics.median(setups),
            "op_p50_ms": quantile(lat_ms, 50),
            "op_p90_ms": quantile(lat_ms, 90),
        }
    return {"attempted": len(ops), "failed": failed, "metrics": metrics,
            "passes": passes, "setups": setups,
            "errors": [op["error"] for op in ops if op["error"] is not None][:20]}


def machine(numpy_version: str, python_version: str) -> dict:
    model = None
    try:
        with open("/proc/cpuinfo") as f:
            model = next((ln.split(":", 1)[1].strip() for ln in f
                          if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        commit = res.stdout.strip() or None
    src = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, "src"))):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            src.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                src.update(f.read())
    return {"nproc": os.cpu_count(), "cpu_model": model, "platform": platform.platform(),
            "python": python_version, "numpy": numpy_version, "commit": commit,
            "src_sha256": src.hexdigest()}


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = load_spec()
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def report(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload, write its record, return its result object."""
    run = run_workload(workload, seed, seconds, trace)
    units = declared_metrics(trace)
    missing = sorted(set(units) - set(run["metrics"]))
    if missing:
        raise BenchError(f"metrics not produced: {missing}")
    result = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": run["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }
    first = run["passes"][0]
    spans = [p.pop("spans") for p in run["passes"] if "spans" in p]
    for p in run["passes"]:
        p.pop("layers", None)
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{int(trace)}")
    with open(stem + ".json", "w") as f:
        json.dump({"workload": workload, "seed": seed, "seconds": seconds,
                   "trace": trace, "machine": machine(first["numpy"], first["python"]),
                   "result": result, "setups_s": run["setups"],
                   "errors": run["errors"], "passes": run["passes"]}, f, indent=1)
    if spans:
        with open(stem + ".spans.jsonl", "w") as f:
            for k, pass_spans in enumerate(spans):
                for span in pass_spans:
                    f.write(json.dumps(dict(span, traced_pass=k)) + "\n")
    for err in run["errors"]:
        print(f"{workload}: FAILED CHECK: {err}", file=sys.stderr)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=load_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "matchpoly", "cli.py")):
        print(f"no matchpoly sources under {ROOT}/src", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: report(w, args.seed, args.seconds, bool(args.trace)) for w in names}
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        for w, res in results.items():
            print(f"{w:12s} ops_failed {res['failed'] / res['attempted']:.6g} ratio "
                  f"({res['failed']}/{res['attempted']})")
            for name, m in res["metrics"].items():
                value = m["value"] if isinstance(m["value"], int) else f"{m['value']:.6g}"
                print(f"{w:12s} {name} {value} {m['unit']}")
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
