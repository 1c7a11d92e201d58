"""Smoke tests of the entry points in scripts/, run in-process on narrowed
arguments: each exits 0 and prints its CSV header."""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script,args,header", [
    ("run_invertibility_scan.py", ["--kmax", "2", "--nmax", "6"],
     "k,n,sign,r_star_log10,min_abs_lambda_log10,closed_residual_log10,"
     "closed_singular,eigen_singular,verdict"),
    ("run_benchmark.py", ["--sizes", "64"], "n,path,mean_ns,rel_err"),
    ("run_table1.py", [], "n,r,lower_published,lower_ours,sigma_published,sigma_ours,"
                          "upper_published,upper_ours,flags"),
    ("line_budget.py", [], "module,lines"),
])
def test_script_exits_0_with_its_csv_header(script, args, header, monkeypatch, capsys):
    path = SCRIPTS / script
    monkeypatch.setattr(sys, "argv", [str(path), *args])
    with pytest.raises(SystemExit) as done:
        runpy.run_path(str(path), run_name="__main__")
    assert done.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == header
    assert len(lines) > 1



def test_line_budget_counts_lines_outside_docstrings(capsys):
    # module, class and function docstrings, one line or more, are left
    # out; comments, blank lines and other strings count.  The rows cover
    # every module of src/pelltrib and the last one is their total.
    budget = runpy.run_path(str(SCRIPTS / "line_budget.py"))
    source = (
        '"""Module\n\ndocstring."""\n'
        "\n# a comment\n"
        'X = """not a\ndocstring"""\n\n\n'
        'class A:\n    """One line."""\n\n'
        '    def f(self):\n        """Two\n        lines."""\n        return 1\n'
    )
    assert len(source.splitlines()) == 16
    assert budget["code_lines"](source) == 16 - 3 - 1 - 2
    assert budget["main"]() == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert [name for name, _ in rows[:-1]] == sorted(p.name for p in budget["PACKAGE"].glob("*.py"))
    assert rows[-1] == ["total", str(sum(int(lines) for _, lines in rows[:-1]))]
