import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import matchpoly
from matchpoly import _kernels, bpm, cli, mclattice, polyalg
from matchpoly.cli import main
from matchpoly.verify import golden_dual3_text

from helpers import clear_caches


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPoly:
    def test_primal_n2_text(self, capsys):
        code, out, _ = run(capsys, "poly", "--n", "2", "--basis", "primal")
        assert code == 0
        assert out == ("+ x_{1,2} x_{2,1}\n"
                       "+ x_{1,1} x_{2,2}\n"
                       "- x_{1,1} x_{1,2} x_{2,1} x_{2,2}\n")

    def test_dual_n3_matches_golden(self, capsys):
        code, out, _ = run(capsys, "poly", "--n", "3", "--basis", "dual",
                           "--format", "text")
        assert code == 0
        assert out == golden_dual3_text()

    def test_json_document(self, capsys):
        code, out, _ = run(capsys, "poly", "--n", "2", "--basis", "primal",
                           "--format", "json")
        doc = json.loads(out)
        assert doc["basis"] == "primal"
        assert len(doc["terms"]) == 3

    def test_fourier_json(self, capsys):
        code, out, _ = run(capsys, "poly", "--n", "2", "--basis", "fourier",
                           "--format", "json")
        doc = json.loads(out)
        assert doc["shared_exponent"] == 3
        assert doc["terms"][0] == {"mask": "0x0", "edges": [], "coeff": 1}

    def test_oversize_exits_3(self, capsys):
        code, _, err = run(capsys, "poly", "--n", "9")
        assert code == 3 and "cap" in err

    def test_n5_needs_allow_large(self, capsys):
        code, _, err = run(capsys, "poly", "--n", "5")
        assert code == 3 and "allow-large" in err

    def test_fourier_capped_at_4(self, capsys):
        code, _, _ = run(capsys, "--allow-large", "poly", "--n", "5",
                         "--basis", "fourier")
        assert code == 3

    @pytest.mark.parametrize("n,fmt,digest", [
        (1, "text", "1601efd301f1cc5e0259f6e63742ddac51fa25884d28d4cacecb7cf55e0d477b"),
        (1, "json", "b325d4ee18f7289e28dd1cdc8260979f3e06b4357ca1c7a83a287e0d5f2f0982"),
        (2, "text", "dc4c64792b1ec7faf7f5211d090635b782686e9941a4210aadb9cefde41adb2a"),
        (2, "json", "5d83fc8afbfe8548b31c220535efaed3bef4b67603e99dd474c795527dfc0506"),
        (3, "text", "c769a3fa7aa21cb62de345f07c6a4d4855234392969bee4bcefc08ac42ad9917"),
        (3, "json", "5f84362cfd40203108aec3ce04b8014f8c7fa7ec989762a3ca87cb50b5cf835f"),
    ])
    def test_fourier_output_frozen(self, capsys, n, fmt, digest):
        code, out, _ = run(capsys, "poly", "--n", str(n), "--basis", "fourier",
                           "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_deterministic(self, capsys):
        _, out1, _ = run(capsys, "poly", "--n", "3", "--basis", "dual")
        _, out2, _ = run(capsys, "poly", "--n", "3", "--basis", "dual")
        assert out1 == out2


class TestLattice:
    def test_n2_json(self, capsys):
        code, out, _ = run(capsys, "lattice", "--n", "2", "--format", "json")
        doc = json.loads(out)
        assert [node["rank"] for node in doc["nodes"]] == [0, 1, 1, 2]

    def test_n1_json(self, capsys):
        _, out, _ = run(capsys, "lattice", "--n", "1", "--format", "json")
        assert len(json.loads(out)["nodes"]) == 2

    def test_n3_dot(self, capsys):
        code, out, _ = run(capsys, "lattice", "--n", "3", "--format", "dot")
        assert code == 0
        assert out.count("rank=same") == 6
        assert out.count(" -> ") == 135

    def test_dot_capped_at_3(self, capsys):
        code, _, _ = run(capsys, "lattice", "--n", "4", "--format", "dot")
        assert code == 3

    def test_n4_json_allowed(self, capsys):
        code, out, _ = run(capsys, "lattice", "--n", "4", "--format", "json")
        assert code == 0
        assert len(json.loads(out)["nodes"]) == 7444


class TestThreads:
    def test_env_default(self, monkeypatch):
        from matchpoly._kernels import default_threads
        monkeypatch.setenv("MATCHPOLY_THREADS", "3")
        assert default_threads() == 3
        monkeypatch.setenv("MATCHPOLY_THREADS", "junk")
        assert default_threads() == 1
        monkeypatch.delenv("MATCHPOLY_THREADS")
        assert default_threads() == 1

    def test_threads_flag_changes_nothing(self, capsys):
        _, out1, _ = run(capsys, "--threads", "4", "poly", "--n", "3",
                         "--basis", "dual")
        _, out2, _ = run(capsys, "--threads", "1", "poly", "--n", "3",
                         "--basis", "dual")
        assert out1 == out2

    def test_flag_reaches_every_sweep(self, capsys, monkeypatch):
        clear_caches()
        monkeypatch.setattr(_kernels, "CHUNK_BITS", 4)  # n = 3: 32 chunks
        monkeypatch.delenv("MATCHPOLY_THREADS", raising=False)
        seen = []
        map_chunks = _kernels.map_chunks

        def spy(fn, total, threads):
            seen.append(threads)
            return map_chunks(fn, total, threads)
        monkeypatch.setattr(_kernels, "map_chunks", spy)
        code, out, _ = run(capsys, "--threads", "2", "verify", "--n", "3",
                           "--claim", "thm1")
        assert code == 0 and "PASS" in out
        assert len(seen) == 16 and set(seen) == {2}
        assert _kernels.default_threads() == 1  # scoped to the command

    @pytest.mark.parametrize("value", ["0", "-4"])
    def test_below_1_exits_2(self, capsys, value):
        with pytest.raises(SystemExit) as exc:
            main(["--threads", value, "count", "--n", "2", "--what", "mc"])
        assert exc.value.code == 2
        assert f"--threads: must be at least 1, got {value}" in capsys.readouterr().err


class TestClassify:
    def test_single_matching(self, capsys):
        code, out, _ = run(capsys, "classify", "--n", "2", "--graph", "1-1,2-2")
        assert code == 0
        assert "class=NotTotallyOrdered" in out
        assert "matching_covered=yes" in out
        assert "chi=0" in out
        assert "dual_coeff=0" in out

    def test_k33(self, capsys):
        code, out, _ = run(capsys, "classify", "--n", "3", "--graph", "0x1FF")
        assert "class=TotallyOrderedNonStrict" in out
        assert "elementary=yes" in out
        assert "chi=4" in out
        assert "dual_coeff=1" in out
        assert "umbrella_complete=yes" in out

    def test_n5_without_allow_large_unavailable(self, capsys):
        code, out, _ = run(capsys, "classify", "--n", "5", "--graph", "0x7BDEF")
        assert code == 0
        assert out.rstrip().endswith("dual_coeff=unavailable umbrella_complete=unavailable")

    def test_n5_allow_large_dense_coefficient(self, capsys):
        # K_{4,4} inside K_{5,5}: coefficient 9, also found by the subset
        # Moebius sum over the n=5 truth table
        code, out, _ = run(capsys, "--allow-large", "classify", "--n", "5",
                           "--graph", "0x7BDEF")
        assert code == 0
        assert "dual_coeff=9 umbrella_complete=unavailable" in out

    def test_incomplete_umbrella_reported(self, capsys):
        _, out, _ = run(capsys, "classify", "--n", "3", "--graph", "1-1")
        assert "umbrella_complete=no" in out

    def test_malformed_graph_exits_2(self, capsys):
        code, _, err = run(capsys, "classify", "--n", "2", "--graph", "1-")
        assert code == 2 and "error" in err


class TestVerify:
    def test_parity_n2(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "2", "--claim", "parity")
        assert code == 0
        assert "[PASS] parity n=2" in out
        assert "7 graphs" in out

    def test_all_n2(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "2", "--claim", "all")
        assert code == 0
        assert "[FAIL]" not in out
        lines = out.strip().splitlines()
        assert out.count("[PASS]") == len(lines) - 1
        assert lines[-1] == f"{len(lines) - 1}/{len(lines) - 1} claims passed"

    def test_unknown_claim_exits_2(self, capsys):
        code, _, err = run(capsys, "verify", "--n", "2", "--claim", "nope")
        assert code == 2 and "unknown claim" in err

    def test_thm1_n3(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "3", "--claim", "thm1")
        assert code == 0 and "49 terms" in out

    def test_n5_needs_allow_large(self, capsys):
        code, _, err = run(capsys, "verify", "--n", "5", "--claim", "thm1")
        assert code == 3 and "allow-large" in err

    def test_n6_over_hard_cap(self, capsys):
        code, out, err = run(capsys, "--allow-large", "verify", "--n", "6")
        assert code == 3 and "hard cap" in err and out == ""


class TestCount:
    @pytest.mark.parametrize("what,n,expected", [
        ("mc", 2, "3"),
        ("mc", 3, "49"),
        ("pm-graphs", 2, "7"),
        ("monomials-primal", 3, "49"),
        ("monomials-dual", 3, "121"),
        ("totally-ordered", 2, "14"),
        ("hall-violators", 3, "15"),
    ])
    def test_values(self, capsys, what, n, expected):
        code, out, _ = run(capsys, "count", "--n", str(n), "--what", what)
        assert code == 0 and out.strip() == expected

    def test_cap(self, capsys):
        code, _, _ = run(capsys, "count", "--n", "5", "--what", "mc")
        assert code == 3

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_primal_monomials_are_mc_masks(self, capsys, n):
        _, mc, _ = run(capsys, "count", "--n", str(n), "--what", "mc")
        _, primal, _ = run(capsys, "count", "--n", str(n), "--what", "monomials-primal")
        assert primal == mc == f"{len(matchpoly.primal_polynomial(n))}\n"

    def test_hall_violators_past_max_side_exit_at_once(self):
        # in a child process, so a scan of all 4^20 (X, Y) pairs fails the
        # timeout instead of hanging the suite
        src = str(Path(matchpoly.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "matchpoly", "count", "--n", "20",
             "--what", "hall-violators"],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == "error: side size must be in 1..8, got 20\n"
        assert time.perf_counter() - start < 10


class TestSummary:
    def test_dual_n3(self, capsys):
        code, out, _ = run(capsys, "summary", "--n", "3", "--basis", "dual")
        doc = json.loads(out)
        assert code == 0
        assert doc["groups"][-1] == {"coeff": 2, "monomials": 6,
                                     "isomorphism_classes": 1}

    def test_primal_n2(self, capsys):
        code, out, _ = run(capsys, "summary", "--n", "2", "--basis", "primal")
        doc = json.loads(out)
        assert [g["coeff"] for g in doc["groups"]] == [-1, 1]

    def test_dual_n5_frozen(self, capsys):
        try:
            code, out, _ = run(capsys, "--allow-large", "summary", "--n", "5", "--basis", "dual")
        finally:
            clear_caches()
        assert code == 0
        assert (hashlib.sha256(out.encode()).hexdigest()
                == "c3f870624dcfd72521d60781251f6eb472f882355cc71645585190b172096b63")


class TestBounds:
    def test_n2(self, capsys):
        code, out, _ = run(capsys, "bounds", "--n", "2")
        doc = json.loads(out)
        assert doc["xor_lb"] == 4
        assert doc["and_lb"] == 1.0
        # the JSON value is the report float rendered at 12 significant digits
        assert doc["or_lb_factorial"] == float(f"{1.2618595071429148:.12g}")

    def test_n5_unavailable_fields(self, capsys):
        code, out, _ = run(capsys, "bounds", "--n", "5")
        doc = json.loads(out)
        assert code == 0
        assert doc["xor_lb"] is None
        assert doc["monomials_dual"] is None
        assert doc["or_lb_factorial"] > 0


class TestOneProcess:
    """Many commands through ``main`` in one process, as a server or the
    benchmark worker runs them."""

    def test_second_call_builds_no_parser(self, capsys, monkeypatch):
        run(capsys, "bounds", "--n", "2")
        built = []
        init = argparse.ArgumentParser.__init__

        def spy(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
        code, out, _ = run(capsys, "count", "--n", "2", "--what", "mc")
        assert code == 0 and out == "3\n"
        assert built == []

    def test_allow_large_does_not_carry_over(self, capsys):
        graph = ("classify", "--n", "5", "--graph", "0x7BDEF")
        _, out, _ = run(capsys, "--allow-large", *graph)
        assert "dual_coeff=9" in out
        code, out, _ = run(capsys, *graph)
        assert code == 0 and "dual_coeff=unavailable" in out

    def test_format_does_not_carry_over(self, capsys):
        _, out, _ = run(capsys, "poly", "--n", "2", "--format", "json")
        assert json.loads(out)["basis"] == "primal"
        code, out, _ = run(capsys, "poly", "--n", "2")
        assert code == 0 and out.startswith("+ x_{1,2} x_{2,1}\n")

    def test_runs_after_rejected_threads(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--threads", "0", "bounds", "--n", "2"])
        assert exc.value.code == 2
        capsys.readouterr()
        code, out, err = run(capsys, "count", "--n", "3", "--what", "mc")
        assert code == 0 and out == "49\n" and err == ""


class TestUsage:
    @pytest.mark.parametrize("n", ["0", "-1"])
    @pytest.mark.parametrize("command", [
        ("poly", "--basis", "primal"),
        ("poly", "--basis", "dual"),
        ("poly", "--basis", "fourier"),
        ("lattice", "--format", "json"),
        ("lattice", "--format", "dot"),
        ("classify", "--graph", "0x0"),
        ("summary", "--basis", "primal"),
        ("summary", "--basis", "dual"),
        ("verify",),
        ("count", "--what", "mc"),
        ("count", "--what", "pm-graphs"),
        ("count", "--what", "monomials-primal"),
        ("count", "--what", "monomials-dual"),
        ("count", "--what", "totally-ordered"),
        ("count", "--what", "hall-violators"),
        ("bounds",),
    ], ids=" ".join)
    def test_n_below_1_exits_2(self, capsys, command, n):
        code, out, err = run(capsys, command[0], "--n", n, *command[1:])
        assert code == 2 and err.startswith("error:") and out == ""
        assert f"n must be at least 1, got n={n}" in err

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_bad_flag_value(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["poly", "--n", "x"])
        assert exc.value.code == 2


def assert_written_as_json_dumps(capsys, doc, items=None):
    cli._write_json(doc, items)
    assert capsys.readouterr().out == json.dumps(doc, indent=2) + "\n"


def poly_doc(basis, n):
    if basis == "dual":
        return polyalg.to_json_dict(bpm.dual_polynomial(n), basis)
    p = bpm.primal_polynomial(n)
    return polyalg.to_json_dict(polyalg.to_fourier(p) if basis == "fourier" else p, basis)


class TestJsonWriter:
    """``_write_json`` against ``json.dumps(doc, indent=2) + "\\n"``."""

    @pytest.mark.parametrize("basis,n", [
        (basis, n) for basis in ("primal", "dual", "fourier") for n in (1, 2, 3)
    ] + [("primal", 4), ("dual", 4)])
    def test_polynomial_documents(self, capsys, basis, n):
        doc = poly_doc(basis, n)
        assert_written_as_json_dumps(capsys, doc, cli._POLY_ITEMS)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_lattice_documents(self, capsys, n):
        doc = mclattice.build_lattice(n).to_json_dict()
        assert_written_as_json_dumps(capsys, doc, cli._LATTICE_ITEMS)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("basis", ["primal", "dual"])
    def test_summary_documents(self, capsys, basis, n):
        p = bpm.primal_polynomial(n) if basis == "primal" else bpm.dual_polynomial(n)
        doc = {"n": n, "basis": basis, "groups": bpm.monomial_summary(p)}
        assert_written_as_json_dumps(capsys, doc)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_bounds_documents(self, capsys, n):
        doc = bpm.bounds_report(n).to_json_dict()
        assert_written_as_json_dumps(capsys, doc)

    def test_empty_polynomial(self, capsys):
        doc = polyalg.to_json_dict(polyalg.MultilinearPoly.zero(2), "dual")
        assert doc["terms"] == []
        assert_written_as_json_dumps(capsys, doc, cli._POLY_ITEMS)

    def test_constant_term(self, capsys):
        p = polyalg.MultilinearPoly(2, np.array([0, 9]), np.array([-3, 1]), 1)
        doc = polyalg.to_json_dict(p, "fourier")
        assert doc["terms"][0]["edges"] == []
        assert_written_as_json_dumps(capsys, doc, cli._POLY_ITEMS)

    @pytest.mark.parametrize("size", [1, 2, 3, 4])
    def test_lists_across_batch_boundaries(self, capsys, monkeypatch, size):
        monkeypatch.setattr(cli, "_JSON_BATCH", 2)
        poly = poly_doc("primal", 3)
        poly["terms"] = poly["terms"][:size]
        lattice = mclattice.build_lattice(2).to_json_dict()
        lattice["nodes"] = lattice["nodes"][:size]
        lattice["cover_edges"] = [[k, k + 1] for k in range(size)]
        for doc, items in ((poly, cli._POLY_ITEMS), (lattice, cli._LATTICE_ITEMS)):
            assert_written_as_json_dumps(capsys, doc, items)

    @pytest.mark.parametrize("argv,digest", [
        (("poly", "--n", "4", "--basis", "primal", "--format", "json"),
         "5e7177186f87444f61280f71e087b29a5c542e216be6c48a08ba9842df6f779c"),
        (("poly", "--n", "4", "--basis", "dual", "--format", "json"),
         "852f2f333fd02fbb42024bb56417edc9241fc94f6faaee151b08b1c1e4e91b9e"),
        (("poly", "--n", "4", "--basis", "fourier", "--format", "json"),
         "c99869f9399c216473d8263c575295bc21c64e5ade934090c5311290b68df7b0"),
        (("lattice", "--n", "4", "--format", "json"),
         "25cb4c9b37378b5066ff35dc240d1bdc400ffa18bd368c56257fb6e9174f3800"),
        (("summary", "--n", "4", "--basis", "primal"),
         "d315b7b5d468af20b86cc5325517387d131112b034de9619abf0c3b7c90189a4"),
        (("summary", "--n", "4", "--basis", "dual"),
         "a98e59af35ce45a0af97095671ffc5325398d72d2036fcc16247cece433e8681"),
    ], ids=lambda v: " ".join(v) if isinstance(v, tuple) else "")
    def test_n4_json_frozen(self, capsys, argv, digest):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class ClosingPipe:
    """A stdout whose reader leaves after ``writes`` writes; its descriptor
    is a temporary file's, for ``main`` to point at os.devnull."""

    def __init__(self, fd, writes):
        self.fd, self.writes, self.text = fd, writes, []

    def write(self, s):
        if len(self.text) == self.writes:
            raise BrokenPipeError(32, "Broken pipe")
        self.text.append(s)
        return len(s)

    def flush(self):
        pass

    def fileno(self):
        return self.fd


class TestClosedPipe:
    def test_streamed_document_exits_141(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(cli, "_JSON_BATCH", 2)
        with open(tmp_path / "stdout", "w") as f:
            pipe = ClosingPipe(f.fileno(), writes=7)
            monkeypatch.setattr(sys, "stdout", pipe)
            code = main(["lattice", "--n", "3", "--format", "json"])  # 25 batches
            monkeypatch.undo()
            devnull = os.stat(os.devnull)
            assert os.fstat(f.fileno())[:2] == (devnull.st_mode, devnull.st_ino)
        assert code == cli.EXIT_BROKEN_PIPE == 141
        text = "".join(pipe.text)  # two of the 25 batches
        assert text.count('"mask"') == 4
        assert json.dumps(mclattice.build_lattice(3).to_json_dict(), indent=2).startswith(text)
        assert capsys.readouterr().err == ""

    def test_reader_gone_before_output(self):
        # a pipe without a reader fails every write: no traceback, and no
        # "Exception ignored" line from the interpreter's exit flush
        src = str(Path(matchpoly.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "matchpoly", "poly", "--n", "2",
                 "--format", "json"],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
                timeout=60)
        finally:
            os.close(write_end)
        assert proc.returncode == 141 and proc.stderr == ""
