"""Byte-for-byte golden reports of every command but `bench`.

golden/det_invert.json pins `det` and `invert`; golden/reports.json pins
`seq`, `sums`, `norms`, `bounds`, `eig`, `scan`, `table1` and a set of
error exits.  Each entry holds the exit code, stdout and stderr of one
argv, run in-process through cli.main with the default precision, in
plain, CSV and JSON.  `bench` prints timings and is left out.

After an intended change of report bytes, regenerate both files with

    PYTHONPATH=src python tests/test_golden.py

which prints the keys that changed; review them and the diff of the JSON.
"""

import contextlib
import io
import json
import pathlib

import pytest

from pelltrib import cli

GOLDEN_DIR = pathlib.Path(__file__).with_name("golden")
FORMATS = ("plain", "csv", "json")

DET_R = ("2", "-3/2", "3/7", "169/25", "-1/8")
NORM_R = ("2", "-3/2", "3/7", "1.08", "1e-3", "0+1i", "2-3i")

# the same argv in every format; the key appends --format=<fmt>
CASES = {
    "det_invert.json": [
        [command, f"--k={k}", f"--n={n}", f"--r={r}"]
        for command in ("det", "invert")
        for k in (1, 3) for n in (2, 3, 9, 24, 40) for r in DET_R
    ],
    "reports.json": [
        [command, f"--k={k}", f"--n={n}"]
        for command in ("seq", "sums") for k in (1, 3) for n in (2, 9, 40)
    ] + [
        [command, f"--k={k}", f"--n={n}", f"--r={r}"]
        for command in ("norms", "bounds", "eig")
        for k in (1, 3) for n in (3, 9) for r in NORM_R
    ] + [
        ["scan", "--kmax=2", "--nmax=6", f"--sign={sign}"] for sign in (1, -1)
    ] + [
        ["scan", "--kmin=8", "--kmax=10", "--nmin=20", "--nmax=30", "--bits=512",
         f"--sign={sign}"]
        for sign in (1, -1)
    ] + [
        ["table1"],
        # error exits
        ["norms", "--k=1", "--n=3", "--r=0"],
        ["norms", "--k=1", "--n=400", "--r=2"],
        ["bounds", "--k=1", "--n=3", "--r=1e400"],
        ["eig", "--k=1", "--n=2", "--r=2"],
        ["seq", "--k=0", "--n=3"],
        ["scan", "--kmax=2", "--nmin=1", "--nmax=4"],
    ],
}

COMMANDS = ("det", "invert", "seq", "sums", "norms", "bounds", "eig", "scan", "table1")


def _keyed(argvs) -> dict[str, list[str]]:
    return {" ".join(argv): argv
            for fmt in FORMATS for argv in (a + [f"--format={fmt}"] for a in argvs)}


def _run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("command", COMMANDS)
def test_reports_match_golden(command, fmt):
    differ = []
    for name, argvs in CASES.items():
        golden = json.loads((GOLDEN_DIR / name).read_text(encoding="utf-8"))
        for key, argv in _keyed(argvs).items():
            if argv[0] == command and argv[-1] == f"--format={fmt}" and _run(argv) != golden[key]:
                differ.append(key)
    assert not differ, differ


def test_golden_files_cover_every_case():
    for name, argvs in CASES.items():
        golden = json.loads((GOLDEN_DIR / name).read_text(encoding="utf-8"))
        assert set(golden) == set(_keyed(argvs)), name


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argvs in CASES.items():
        path = GOLDEN_DIR / name
        old = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
        reports = {key: _run(argv) for key, argv in _keyed(argvs).items()}
        for key in sorted(set(old) | set(reports)):
            if old.get(key) != reports.get(key):
                print(f"{name}: {key}")
        path.write_text(json.dumps(reports, indent=1, sort_keys=True) + "\n", encoding="utf-8")
