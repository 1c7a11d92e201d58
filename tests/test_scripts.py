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
