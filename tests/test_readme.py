"""The README's examples run as written and print what its comments say."""

import ast
import re
import shlex
from pathlib import Path

from matchpoly.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.M | re.S)


def test_cli_lines_exit_0(capsys):
    argvs = [shlex.split(line, comments=True)
             for block in blocks("sh") for line in block.splitlines()
             if line.startswith("matchpoly ")]
    assert argvs
    for argv in argvs:
        assert main(argv[1:]) == 0, argv
    capsys.readouterr()


def test_library_block_values():
    """Run the Library block statement by statement, keeping the value of
    each bare expression by its source text."""
    (block,) = blocks("python")
    ns, values = {}, {}
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            values[ast.get_source_segment(block, stmt)] = eval(
                compile(ast.Expression(stmt.value), "README", "eval"), ns)
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), ns)
    assert len(ns["p"]) == 49
    assert len(ns["d"]) == 121
    assert (len(ns["lat"]), len(ns["lat"].cover_edges)) == (50, 135)
    for source in ("mp.is_elementary(g)", "mp.check_ear_decomposition(g, ears)",
                   "mp.interpolate(mp.bpm_truth(3)) == p"):
        assert values[source] is True
    assert repr(values["f.shared_exponent, f.coeff(0)"]) == "(8, Fraction(9, 256))"
    assert repr(values["d.coeffs_at([0x1, 0x1FF])"]) == "array([0, 1])"
    assert repr(values["mp.pm_probability(3)"]) == "Fraction(247, 512)"
    assert repr(values["mp.bounds_report(3).xor_lb"]) == "9"
