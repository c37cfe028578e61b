import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import matchpoly
from matchpoly import _kernels, bpm, cli, mclattice, polyalg
from matchpoly.cli import main
from matchpoly.polyalg import MultilinearPoly
from matchpoly.verify import golden_dual3_text

from helpers import assert_same_text, clear_caches


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

    @pytest.mark.parametrize("basis,digest", [
        ("primal", "932d52f715fbd6f540f903dccb9056fc65885d6357b812b90314656e4278dd85"),
        ("dual", "b549d6eb9976a401c8528a71fb789dddc68542c4910b9331556e2483b0d0fe4d"),
        ("fourier", "21855965337bc91acfda47578e072ee66bc23e35af787b5bb7c59296d545513e"),
    ])
    def test_n4_text_frozen(self, capsys, basis, digest):
        code, out, _ = run(capsys, "poly", "--n", "4", "--basis", basis, "--format", "text")
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

    @pytest.mark.parametrize("n,fmt,digest", [
        (1, "json", "68a7086a82c6aacb489582f5b138408bc16bea797ddf5bc28f702b8da23bcb17"),
        (2, "json", "d421d67ed58fde13baf4b70e0f4ce2e51965c376dc63aed78f71235d1af390ae"),
        (3, "json", "05bc51dcf8de79bd7d8a12bef451c128ffd12e0f2fd1662e16a4a3de4495164a"),
        (3, "dot", "4959abd7e0e0634134c0e94ac7c8bd442b8733a828f3eb9c9672e16d766fe2b7"),
    ])
    def test_output_frozen(self, capsys, n, fmt, digest):
        code, out, _ = run(capsys, "lattice", "--n", str(n), "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

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

    def test_n6_allow_large_coefficient(self, capsys):
        staircase = "0x" + format(sum(((1 << (6 - i)) - 1) << (6 * i) for i in range(6)), "X")
        code, out, _ = run(capsys, "--allow-large", "classify", "--n", "6", "--graph", staircase)
        assert code == 0 and "dual_coeff=-1 umbrella_complete=unavailable" in out
        code, out, _ = run(capsys, "classify", "--n", "6", "--graph", staircase)
        assert code == 0 and "dual_coeff=unavailable" in out

    def test_n8_above_the_hard_cap_unavailable(self, capsys):
        code, out, _ = run(capsys, "--allow-large", "classify", "--n", "8", "--graph", "1-1")
        assert code == 0
        assert out.rstrip().endswith("dual_coeff=unavailable umbrella_complete=unavailable")

    def test_empty_graph(self, capsys):
        code, out, _ = run(capsys, "classify", "--n", "3", "--graph", "0x0")
        assert code == 0
        assert out == ("n=3 graph=0x0 class=TotallyOrderedNonStrict matching_covered=no "
                       "elementary=no chi=0 dual_coeff=0 umbrella_complete=yes\n")

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

    @pytest.fixture(scope="class")
    def modules_after_commands(self):
        """The modules loaded in a fresh process after the render commands,
        the n = 5 commands and ``verify``."""
        src = str(Path(matchpoly.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        script = """
import contextlib, io, sys
from matchpoly.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (("poly", "--n", "4", "--basis", "fourier", "--format", "json"),
                 ("summary", "--n", "4", "--basis", "dual"),
                 ("lattice", "--n", "4", "--format", "json"),
                 ("poly", "--n", "4", "--basis", "dual", "--format", "text"),
                 ("--threads", "2", "--allow-large", "poly", "--n", "5", "--basis", "dual",
                  "--format", "text"),
                 ("--allow-large", "classify", "--n", "5", "--graph", "0x119dff"),
                 ("verify", "--n", "4", "--claim", "all")):
        assert main(list(argv)) == 0
print("\\n".join(sys.modules))
"""
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return set(proc.stdout.split())

    def test_render_commands_leave_numpy_ma_unloaded(self, modules_after_commands):
        # np.unique's first call imports numpy.ma, 13 ms of a fresh process
        assert "numpy.ma" not in modules_after_commands

    def test_commands_leave_the_thread_pool_unimported(self, modules_after_commands):
        # concurrent.futures brings logging and queue, several ms of every
        # start; none of these commands starts a pool
        assert "concurrent.futures" not in modules_after_commands

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

    @pytest.mark.parametrize("module", ["matchpoly", "matchpoly.cli"])
    def test_module_exits_with_the_code_of_main(self, module):
        src = str(Path(matchpoly.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", module, "count", "--n", "0", "--what", "mc"],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == "error: enumerate-mc: n must be at least 1, got n=0\n"


def written(writer, *args):
    chunks = []
    writer(*args, chunks.append)
    return "".join(chunks)


def assert_indent2(out, doc):
    """``out`` is ``json.dumps(doc, indent=2)`` plus a newline."""
    assert_same_text(out, json.dumps(doc, indent=2) + "\n")


def reference_poly_doc(p, basis):
    """The polynomial document built term by term from the masks, apart from
    the writer."""
    n = p.n
    doc = {"n": n, "basis": basis}
    if basis == "fourier":
        doc["shared_exponent"] = p.shared_exponent
    doc["terms"] = [
        {"mask": hex(m),
         "edges": [[i + 1, j + 1] for i in range(n) for j in range(n) if m >> (n * i + j) & 1],
         "coeff": c}
        for m, c in zip(p.masks.tolist(), p.coeffs.tolist())]
    return doc


def reference_lattice_doc(lat):
    return {"n": lat.n,
            "nodes": [{"mask": hex(m), "rank": r, "mobius": mu}
                      for m, r, mu in zip(lat.masks.tolist(), lat.rank.tolist(),
                                          lat.mobius.tolist())],
            "cover_edges": lat.cover_edges.tolist()}


@st.composite
def json_polys(draw):
    """``(p, basis)`` at n = 1..5 for the JSON writer: up to 12 terms, each
    mask 0 or one whose last nonempty row is any of rows 0..n-1 (no terms
    is the zero polynomial, mask 0 alone a constant), numerators over 2^k
    in the Fourier basis."""
    n = draw(st.integers(1, 5))

    def with_top_row(top):
        below = st.integers(0, (1 << (n * top)) - 1)
        return st.tuples(below, st.integers(1, (1 << n) - 1)).map(
            lambda parts: parts[0] | parts[1] << (n * top))
    masks = st.just(0) | st.integers(0, n - 1).flatmap(with_top_row)
    chosen = sorted(draw(st.sets(masks, max_size=12)))
    basis = draw(st.sampled_from(["primal", "dual", "fourier"]))
    k = draw(st.integers(0, 24)) if basis == "fourier" else 0
    coeffs = draw(st.lists(st.integers(-(1 << 40), 1 << 40).filter(bool),
                           min_size=len(chosen), max_size=len(chosen)))
    return MultilinearPoly(n, np.array(chosen, dtype=np.int64),
                           np.array(coeffs, dtype=np.int64), k), basis


@st.composite
def json_lattices(draw):
    """Hand-built ``McLattice`` objects for the JSON writer: up to 12 nodes
    with ranks and Moebius numbers of any sign and width, and up to 12
    covers whose indices may pass the node count; either list may be
    empty."""
    n = draw(st.integers(1, 4))
    masks = sorted(draw(st.sets(st.integers(0, (1 << (n * n)) - 1), max_size=12)))
    ranks = draw(st.lists(st.integers(-(1 << 15), (1 << 15) - 1),
                          min_size=len(masks), max_size=len(masks)))
    mobius = draw(st.lists(st.integers(-(1 << 62), 1 << 62) | st.integers(-3, 3),
                           min_size=len(masks), max_size=len(masks)))
    covers = draw(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)), max_size=12))
    return mclattice.McLattice(n, np.array(masks, dtype=np.int64),
                               np.array(ranks, dtype=np.int16),
                               np.array(mobius, dtype=np.int64),
                               np.array(covers, dtype=np.int32).reshape(-1, 2))


def basis_poly(basis, n):
    if basis == "dual":
        return bpm.dual_polynomial(n)
    p = bpm.primal_polynomial(n)
    return polyalg.to_fourier(p) if basis == "fourier" else p


class TestJsonWriter:
    """Every JSON document is ``json.dumps(doc, indent=2) + "\\n"``: the
    writers of ``polyalg`` and ``McLattice`` against documents built element
    by element, and ``summary`` and ``bounds`` against their dicts."""

    @pytest.mark.parametrize("basis,n", [
        (basis, n) for basis in ("primal", "dual", "fourier") for n in (1, 2, 3)
    ] + [("primal", 4), ("dual", 4)])
    def test_polynomial_documents(self, basis, n):
        p = basis_poly(basis, n)
        assert_indent2(written(polyalg.write_json, p, basis), reference_poly_doc(p, basis))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_lattice_documents(self, n):
        lat = mclattice.build_lattice(n)
        assert_indent2(written(lat.write_json), reference_lattice_doc(lat))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("basis", ["primal", "dual"])
    def test_summary_documents(self, capsys, basis, n):
        p = bpm.primal_polynomial(n) if basis == "primal" else bpm.dual_polynomial(n)
        doc = {"n": n, "basis": basis, "groups": bpm.monomial_summary(p)}
        code, out, _ = run(capsys, "summary", "--n", str(n), "--basis", basis)
        assert code == 0 and out == json.dumps(doc, indent=2) + "\n"

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_bounds_documents(self, capsys, n):
        doc = bpm.bounds_report(n).to_json_dict()
        code, out, _ = run(capsys, "bounds", "--n", str(n))
        assert code == 0 and out == json.dumps(doc, indent=2) + "\n"

    def test_empty_polynomial(self):
        p = polyalg.MultilinearPoly.zero(2)
        out = written(polyalg.write_json, p, "dual")
        assert json.loads(out)["terms"] == []
        assert_indent2(out, reference_poly_doc(p, "dual"))

    def test_constant_term(self):
        p = polyalg.MultilinearPoly(2, np.array([0, 9]), np.array([-3, 1]), 1)
        out = written(polyalg.write_json, p, "fourier")
        assert json.loads(out)["terms"][0]["edges"] == []
        assert_indent2(out, reference_poly_doc(p, "fourier"))

    @given(json_polys(), st.integers(1, 8))
    @settings(deadline=None, derandomize=True, max_examples=300)
    @example((MultilinearPoly.zero(5), "dual"), 1)
    @example((MultilinearPoly(3, np.array([0]), np.array([-6]), 2), "fourier"), 2)
    @example((polyalg.to_fourier(bpm.primal_polynomial(2)), "fourier"), 3)
    @example((polyalg.to_fourier(bpm.primal_polynomial(3)), "fourier"), 8)
    def test_matches_the_reference_document(self, case, batch):
        p, basis = case
        chunks = []
        with mock.patch.object(polyalg, "_BATCH", batch):
            polyalg.write_json(p, basis, chunks.append)
        assert_indent2("".join(chunks), reference_poly_doc(p, basis))
        assert len(chunks) == 2 + -(-len(p) // batch)  # the head, the batches, the close

    @given(json_lattices(), st.integers(1, 8))
    @settings(deadline=None, derandomize=True, max_examples=300)
    @example(mclattice.McLattice(1, np.zeros(0, np.int64), np.zeros(0, np.int16),
                                 np.zeros(0, np.int64), np.zeros((0, 2), np.int32)), 1)
    @example(mclattice.McLattice(2, np.array([0, 9]), np.array([-12, 0], np.int16),
                                 np.array([7, -1]), np.array([[3, 17]], np.int32)), 1)
    def test_lattice_matches_the_reference_document(self, lat, batch):
        chunks = []
        with mock.patch.object(polyalg, "_BATCH", batch):
            lat.write_json(chunks.append)
        assert_indent2("".join(chunks), reference_lattice_doc(lat))
        # the head, the node batches, the covers' key, the cover batches, the close
        assert len(chunks) == 3 + -(-len(lat) // batch) + -(-len(lat.cover_edges) // batch)

    @pytest.mark.parametrize("size", [0, 1, 2, 3, 4])
    def test_lists_across_batch_boundaries(self, monkeypatch, size):
        monkeypatch.setattr(polyalg, "_BATCH", 2)
        p = bpm.primal_polynomial(3)
        poly = polyalg.MultilinearPoly(3, p.masks[:size], p.coeffs[:size])
        lat = mclattice.build_lattice(2)
        lat = mclattice.McLattice(2, lat.masks[:size], lat.rank[:size], lat.mobius[:size],
                                  np.array([[k, k + 1] for k in range(size)]).reshape(-1, 2))
        assert_indent2(written(polyalg.write_json, poly, "primal"),
                       reference_poly_doc(poly, "primal"))
        assert_indent2(written(lat.write_json), reference_lattice_doc(lat))

    def test_text_across_batch_boundaries(self, monkeypatch):
        monkeypatch.setattr(polyalg, "_BATCH", 2)  # 121 terms: the last batch holds one
        assert_same_text(polyalg.to_text(bpm.dual_polynomial(3)), golden_dual3_text())

    @pytest.mark.parametrize("block,batch", [(1, 1), (5, 2), (7, 3), (40, 16), (200, 64)])
    def test_index_blocks_hold_whole_batches(self, monkeypatch, block, batch):
        # blocks of index rows round down to whole batches, and at least one
        monkeypatch.setattr(polyalg, "_BLOCK", block)
        monkeypatch.setattr(polyalg, "_BATCH", batch)
        p, lat = bpm.dual_polynomial(3), mclattice.build_lattice(3)  # 121 terms, 49 + 1 nodes
        chunks = []
        polyalg.write_text(p, chunks.append)
        assert_same_text("".join(chunks), golden_dual3_text())
        assert len(chunks) == -(-len(p) // batch)
        chunks = []
        polyalg.write_json(p, "dual", chunks.append)
        assert_indent2("".join(chunks), reference_poly_doc(p, "dual"))
        assert len(chunks) == 2 + -(-len(p) // batch)
        assert_indent2(written(lat.write_json), reference_lattice_doc(lat))

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
        monkeypatch.setattr(polyalg, "_BATCH", 2)
        with open(tmp_path / "stdout", "w") as f:
            pipe = ClosingPipe(f.fileno(), writes=3)  # the head, then two batches
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


# Runs one command and then reports its own peak RSS from /proc.  Not from
# the exit rusage: a child's ru_maxrss starts at its parent's peak when the
# parent's address space is replaced at exec.
_PEAK_RSS_CHILD = """
import sys
from matchpoly.cli import main
code = main(sys.argv[1:])
sys.stdout.flush()
with open("/proc/self/status") as f:
    print(*[line for line in f if line.startswith("VmHWM:")], file=sys.stderr, end="")
sys.exit(code)
"""


@pytest.mark.large
class TestPrimalN5:
    """The largest document the caps allow, in a fresh process: its bytes,
    and a peak RSS that stays near the polynomial's own arrays."""

    @pytest.mark.parametrize("fmt,digest", [
        ("text", "2a0fa0365e669638dab9307a9613023ef8b547ff46b612500c83aadd57c844ed"),
        ("json", "a2bb91c2beb89fd694b80a353b76c405bd43508b36f0d7113fc75a7e9fc200ab"),
    ])
    def test_stdout_frozen_and_peak_rss_bounded(self, tmp_path, fmt, digest):
        src = str(Path(matchpoly.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        with open(tmp_path / "stderr", "w+") as err:
            proc = subprocess.Popen(
                [sys.executable, "-c", _PEAK_RSS_CHILD, "--allow-large", "poly",
                 "--n", "5", "--basis", "primal", "--format", fmt],
                stdout=subprocess.PIPE, stderr=err, env=env)
            sha = hashlib.sha256()
            for chunk in iter(lambda: proc.stdout.read(1 << 20), b""):
                sha.update(chunk)
            proc.stdout.close()
            assert proc.wait(timeout=600) == 0
            err.seek(0)
            stderr = err.read()
        assert sha.hexdigest() == digest
        peak_mib = int(stderr.split()[1]) / 1024  # "VmHWM:  262144 kB"
        assert peak_mib < 512, f"peak RSS {peak_mib:.0f} MiB"
