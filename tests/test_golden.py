"""Byte-for-byte golden reports of `det` and `invert`.

golden/det_invert.json holds the exit code, stdout and stderr of every
case below, run in-process through cli.main with the default precision.
After an intended change of report bytes, regenerate the file with

    PYTHONPATH=src python tests/test_golden.py

and review the diff of the JSON file.
"""

import contextlib
import io
import json
import os
import pathlib

import pytest

from pelltrib import cli

GOLDEN = pathlib.Path(__file__).with_name("golden") / "det_invert.json"

COMMANDS = ("det", "invert")
FORMATS = ("plain", "csv", "json")
K_VALUES = (1, 3)
N_VALUES = (2, 3, 9, 24, 40)
R_VALUES = ("2", "-3/2", "3/7", "169/25", "-1/8")


def _argvs(command: str, fmt: str) -> list[list[str]]:
    return [[command, f"--k={k}", f"--n={n}", f"--r={r}", f"--format={fmt}"]
            for k in K_VALUES for n in N_VALUES for r in R_VALUES]


def _run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("command", COMMANDS)
def test_reports_match_golden(command, fmt, monkeypatch):
    monkeypatch.delenv(cli.PRECISION_ENV, raising=False)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    differ = []
    for argv in _argvs(command, fmt):
        key = " ".join(argv)
        if _run(argv) != golden[key]:
            differ.append(key)
    assert not differ, differ


if __name__ == "__main__":
    os.environ.pop(cli.PRECISION_ENV, None)
    reports = {" ".join(argv): _run(argv)
               for command in COMMANDS for fmt in FORMATS for argv in _argvs(command, fmt)}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(reports, indent=1, sort_keys=True) + "\n", encoding="utf-8")
