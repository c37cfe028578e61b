"""One benchmark pass in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 [--setup-only]

Imports numpy and matchpoly from the checkout's ``src/``, notes when it is
ready (the end of set-up), then runs the workload's operations through
``matchpoly.cli.main(argv)`` with stdout going to a hashing sink, timing each
one.  Peak RSS is read right after the last operation; the output checks run
after that.  The last line of stdout is one JSON record for ``run.py``.
"""

import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy  # noqa: E402
import matchpoly.cli  # noqa: E402

READY = time.monotonic()

import tracing  # noqa: E402
import workloads  # noqa: E402


class HashSink(io.RawIOBase):
    """Raw byte sink: sha256 and byte count, optionally the bytes."""

    def __init__(self, keep: bool):
        super().__init__()
        self.sha = hashlib.sha256()
        self.nbytes = 0
        self.chunks: list[bytes] | None = [] if keep else None

    def writable(self) -> bool:
        return True

    def write(self, b) -> int:
        self.sha.update(b)
        self.nbytes += len(b)
        if self.chunks is not None:
            self.chunks.append(bytes(b))
        return len(b)


def run_op(op: workloads.Op, tracer) -> tuple[dict, workloads.Result]:
    sink = HashSink(op.keep)
    out = io.TextIOWrapper(io.BufferedWriter(sink), encoding="utf-8")
    stream = tracing.CountingStream(out) if tracer else out
    real = sys.stdout
    sys.stdout = stream
    try:
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            rc = matchpoly.cli.main(list(op.argv))
        except SystemExit as exc:  # argparse rejects its arguments
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            traceback.print_exc()
            rc = None
        out.flush()
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
    finally:
        sys.stdout = real
    text = b"".join(sink.chunks).decode() if op.keep else None
    rec = {"wall_s": wall, "cpu_s": cpu, "bytes": sink.nbytes,
           "writes": stream.writes if tracer else None}
    return rec, workloads.Result(op.argv, rc, sink.sha.hexdigest(), text)


def main(argv: list[str]) -> int:
    if "--setup-only" in argv:
        print(json.dumps({"ready": READY}))
        return 0
    args = dict(zip(argv[::2], argv[1::2]))
    mod_file = os.path.realpath(matchpoly.cli.__file__)
    if not mod_file.startswith(os.path.join(os.path.realpath(ROOT), "src") + os.sep):
        print(f"matchpoly imported from {mod_file}, not this checkout", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args["--workload"]]
    seed = int(args["--seed"])
    tracer = tracing.Tracer() if args["--trace"] == "1" else None

    ops = workload.ops(seed)
    if tracer:
        tracer.install()
    try:
        done = [run_op(op, tracer) for op in ops]
    finally:
        if tracer:
            tracer.uninstall()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    check = workload.checker(seed)
    records = []
    for rec, result in done:
        rec["error"] = workloads.run_check(check, result)
        records.append(rec)
    record = {
        "ready": READY,
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
        "ops": records,
        "peak_rss_mib": peak_rss_mib,
    }
    if tracer:
        layers = tracer.metrics()
        layers["cli.stdout_bytes"] = sum(r["bytes"] for r in records)
        layers["cli.stdout_writes"] = sum(r["writes"] for r in records)
        record["layers"] = layers
        record["spans"] = tracer.span_records()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
