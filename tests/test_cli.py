import contextlib
import dataclasses
import itertools
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from importlib.resources import files
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

from pelltrib import cli
from pelltrib.errors import PrecisionExhausted, ScalarParseError
from pelltrib.invertibility import ScanCell
from pelltrib.sequence import char_roots, term

import reference as ref


SCHEMA = json.loads((files("pelltrib") / "schema" / "report.schema.json").read_text())
VALIDATOR = jsonschema.Draft202012Validator(SCHEMA)


# ---------------------------------------------------------------------------
# scalar grammar

def test_parse_rational():
    assert cli.parse_scalar("3/2") == Fraction(3, 2)
    assert cli.parse_scalar("-1") == Fraction(-1)
    assert cli.parse_scalar("7") == Fraction(7)
    assert isinstance(cli.parse_scalar("7"), Fraction)


def test_parse_decimal_promoted_to_requested_precision():
    value = cli.parse_scalar("1.08", 512)
    with mp.workprec(512):
        # a 53-bit parse would sit ~2^-53 away from the true value
        assert abs(value - mp.mpf("1.08")) < mp.mpf(2) ** -500


def test_parse_complex_forms():
    assert cli.parse_scalar("2+3i") == complex(2, 3)
    assert cli.parse_scalar("1.5-2i") == complex(1.5, -2)
    assert cli.parse_scalar("i") == 1j
    assert cli.parse_scalar("-i") == -1j
    assert cli.parse_scalar("3i") == 3j
    assert cli.parse_scalar("-2-i") == complex(-2, -1)


def test_parse_exponent_forms():
    assert cli.parse_scalar("1e-3") == cli.parse_scalar("1.0e-3")
    assert cli.parse_scalar("1E5") == 100000
    assert cli.parse_scalar("1e400") > 10 ** 399
    assert cli.parse_scalar("2e0+1e-1i") == 2 + 0.1j


@pytest.mark.parametrize("bad", ["", "x", "1/0", "1//2", "2+3", "1.2.3", "i2", "++i",
                                 "1e", "1e400+1i"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(ScalarParseError):
        cli.parse_scalar(bad)


def _parse_outcome(parse, text):
    """What parse does with text: its value's type, repr and mpf bits, or
    its error's kind and message."""
    try:
        value = parse(text)
    except Exception as exc:
        return "error", type(exc).__name__, str(exc)
    return "value", type(value).__name__, repr(value), getattr(value, "_mpf_", None)


def test_parse_matches_the_two_regex_oracle_on_every_short_string():
    # every string up to length 4 over the grammar's alphabet: 7381 strings
    for size in range(5):
        for chars in itertools.product("01.eE+-i/", repeat=size):
            text = "".join(chars)
            assert _parse_outcome(cli.parse_scalar, text) == _parse_outcome(ref.parse_scalar, text), text


@settings(max_examples=500)
@given(st.text(alphabet="0123456789.eE+-i/ \t\n٣", max_size=14))
def test_parse_matches_the_two_regex_oracle(text):
    assert _parse_outcome(cli.parse_scalar, text) == _parse_outcome(ref.parse_scalar, text)


# ---------------------------------------------------------------------------
# exit codes and error objects

def test_seq_example(capsys):
    assert cli.main(["seq", "--k", "1", "--n", "4"]) == 0
    assert capsys.readouterr().out.strip() == "13"


def test_zero_r_exits_2(capsys):
    assert cli.main(["norms", "--k", "1", "--n", "3", "--r", "0"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["kind"] == "ZeroR"


def test_malformed_r_exits_2(capsys):
    assert cli.main(["norms", "--k", "1", "--n", "3", "--r", "nope"]) == 2
    assert json.loads(capsys.readouterr().err)["error"]["kind"] == "ScalarParseError"


def test_bad_bits_exits_2(capsys):
    assert cli.main(["seq", "--k", "1", "--n", "4", "--bits", "10"]) == 2
    assert "error" in json.loads(capsys.readouterr().err)


def test_unknown_flag_exits_2(capsys):
    assert cli.main(["seq", "--k", "1", "--n", "4", "--wat"]) == 2


def test_numeric_failure_exits_3(monkeypatch, capsys):
    def explode(*args, **kwargs):
        raise PrecisionExhausted("residual target unreachable")
    monkeypatch.setattr(cli.spectral, "eigenvalues_closed", explode)
    assert cli.main(["eig", "--k", "1", "--n", "3", "--r", "1"]) == 3
    assert json.loads(capsys.readouterr().err)["error"]["kind"] == "PrecisionExhausted"


@pytest.mark.parametrize("bounds", [
    ["--kmin", "5", "--kmax", "2", "--nmax", "10"],
    ["--kmax", "2", "--nmin", "8", "--nmax", "3"],
])
def test_scan_reversed_range_exits_2(bounds, capsys):
    assert cli.main(["scan", *bounds]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"]["kind"] == "ValueError"


def test_bits_default_to_256():
    assert cli.parse_args(["seq", "--k", "1", "--n", "4"]).bits == 256


_COMMAND_ARGS = {
    "seq": ["--k", "1", "--n", "4"], "sums": ["--k", "1", "--n", "4"],
    "norms": ["--k", "1", "--n", "4", "--r", "2"], "bounds": ["--k", "1", "--n", "4", "--r", "2"],
    "eig": ["--k", "1", "--n", "4", "--r", "2"], "det": ["--k", "1", "--n", "4", "--r", "2"],
    "invert": ["--k", "1", "--n", "4", "--r", "2"],
    "scan": ["--kmax", "2", "--nmax", "4", "--sign", "-1"],
    "bench": ["--k", "1", "--r", "2", "--sizes", "4,8"], "table1": ["--bits", "128"],
}


def _equals_form(args):
    """The same options with each value joined to its flag by '='."""
    out = []
    for arg in args:
        if out and out[-1].startswith("--") and "=" not in out[-1] and not arg.startswith("--"):
            out[-1] += f"={arg}"
        else:
            out.append(arg)
    return out


def _argvs():
    for command, args in _COMMAND_ARGS.items():
        pairs = [args[i:i + 2] for i in range(0, len(args), 2)]
        yield [command, *args]
        yield [command, *_equals_form(args)]
        yield [command, *itertools.chain(*reversed(pairs)), "--format", "json"]
        yield [command, "--", *args]
        yield [command, *args[:-2]]
        yield [command, *args, "--wat", "1"]
        yield [command, *args, "--k=x"]
        yield [command, *args, "--format", "xml"]
    yield ["scan", "--kmax", "2", "--nmax", "4", "--sign", "0"]
    yield ["scan", "--kmin", "3", "--kmax", "2", "--nmax", "4"]
    yield ["bench", "--k", "1", "--r", "2", "--sizes", "4,x"]
    yield ["nosuch", "--k", "1"]
    yield ["--k", "1", "norms"]
    yield []


def _parse_outcome_of(argv):
    try:
        return "namespace", vars(cli.parse_args(list(argv)))
    except ValueError as exc:
        return "error", str(exc)


@pytest.mark.parametrize("argv", list(_argvs()), ids=" ".join)
def test_parse_args_matches_the_full_parser(argv, monkeypatch):
    # the oracle is parse_args with no command to dispatch to, which hands
    # every argv to build_parser().parse_args and then runs the same checks
    got = _parse_outcome_of(argv)
    monkeypatch.setattr(cli.build_parser(), "commands", {})
    assert got == _parse_outcome_of(argv)


# ---------------------------------------------------------------------------
# JSON envelope

def test_parser_commands_are_the_schema_commands():
    assert list(cli.build_parser().commands) == SCHEMA["properties"]["command"]["enum"]


@pytest.mark.parametrize("argv", [
    ["seq", "--k", "2", "--n", "6"],
    ["sums", "--k", "1", "--n", "4"],
    ["norms", "--k", "1", "--n", "3", "--r", "2"],
    ["norms", "--k", "1", "--n", "3", "--r", "1.08"],
    ["bounds", "--k", "1", "--n", "5", "--r=-1/2"],
    ["eig", "--k", "1", "--n", "4", "--r", "2+3i", "--bits", "128"],
    ["det", "--k", "1", "--n", "4", "--r=-3/2", "--bits", "128"],
    ["invert", "--k", "1", "--n", "4", "--r", "2"],
    ["scan", "--kmax", "1", "--nmax", "3", "--bits", "128"],
    ["table1"],
    ["bench", "--sizes", "4,8", "--k", "1", "--r", "2"],
])
def test_json_validates_against_schema(argv, capsys):
    assert cli.main(argv + ["--format", "json"]) == 0
    envelope = json.loads(capsys.readouterr().out)
    VALIDATOR.validate(envelope)
    assert envelope["command"] == argv[0]
    assert len(envelope["formula_version"]) == 12


def test_formula_version_is_hex_and_stable():
    version = cli._formula_fingerprint()
    assert len(version) == 12
    int(version, 16)
    assert cli._formula_fingerprint() == version


_JSON_LEAVES = st.one_of(
    st.text(), st.none(), st.booleans(), st.integers(),
    st.integers(min_value=-10 ** 4400, max_value=10 ** 4400),
    st.floats(), st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 5e-324]),
    st.fractions(), st.integers().map(Fraction),
    st.floats(allow_nan=False).map(mp.mpf), st.builds(mp.mpc, st.floats(), st.floats()),
)
_JSON_VALUES = st.recursive(_JSON_LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(st.text(), inner, max_size=4)), max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(_JSON_VALUES)
def test_json_writer_is_json_dumps(value):
    with _no_int_digit_limit():
        assert cli._json(value) == json.dumps(value, sort_keys=True, indent=2, default=cli._fmt)


def _failing_w2(k, n):
    raise ArithmeticError("w2: closed form produced a non-integer")


def test_failing_closed_form_fails_only_the_json_report(monkeypatch, capsys):
    # the fingerprint is computed on first use: a broken closed form makes
    # the JSON envelope exit 3 with the error object, not the import
    monkeypatch.setattr(cli.sums, "w2_closed", _failing_w2)
    cli._formula_fingerprint.cache_clear()
    try:
        assert cli.main(["seq", "--k", "1", "--n", "5", "--format", "json"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": {
            "kind": "ArithmeticError", "message": "w2: closed form produced a non-integer"}}
        assert cli.main(["seq", "--k", "1", "--n", "5"]) == 0
        assert capsys.readouterr().out == "33\n"
    finally:
        cli._formula_fingerprint.cache_clear()


def test_import_survives_a_failing_closed_form():
    # a fresh interpreter breaks w2_closed before pelltrib.cli is imported
    code = ("import sys\n"
            "from pelltrib import sums\n"
            "sums.w2_closed = lambda k, n: sums._exact_div(1, 2, 'w2')\n"
            "import pelltrib.cli as cli\n"
            "sys.exit(cli.main(['seq', '--k', '1', '--n', '5', '--format', 'json']))\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert done.returncode == 3, done.stderr
    assert done.stdout == ""
    assert json.loads(done.stderr) == {"error": {
        "kind": "ArithmeticError", "message": "w2: closed form produced a non-integer"}}


# ---------------------------------------------------------------------------
# determinism and file output

def _capture(argv, capsys):
    assert cli.main(argv) == 0
    return capsys.readouterr().out


def test_byte_identical_reruns(capsys):
    for argv in (
        ["norms", "--k", "2", "--n", "6", "--r", "3/7", "--format", "json"],
        ["eig", "--k", "1", "--n", "5", "--r", "-1", "--format", "csv", "--bits", "128"],
        ["table1", "--format", "csv"],
        ["scan", "--kmax", "1", "--nmax", "4", "--bits", "128", "--format", "csv"],
    ):
        assert _capture(argv, capsys) == _capture(argv, capsys)


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    assert cli.main(["sums", "--k", "1", "--n", "4", "--format", "json",
                     "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    envelope = json.loads(target.read_text())
    VALIDATOR.validate(envelope)
    assert envelope["result"] == {"s1": 21, "w1": 72, "s2": 199, "w2": 760}


@pytest.mark.parametrize("where", ["missing_dir", "directory"])
def test_out_unwritable_exits_2(where, tmp_path, capsys):
    target = tmp_path / "no" / "such" / "x" if where == "missing_dir" else tmp_path
    assert cli.main(["seq", "--k", "1", "--n", "4", "--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error["kind"] == ("FileNotFoundError" if where == "missing_dir" else "IsADirectoryError")
    assert str(target) in error["message"]


# ---------------------------------------------------------------------------
# per-command content

def test_norms_example(capsys):
    out = _capture(["norms", "--k", "1", "--n", "3", "--r", "2"], capsys)
    assert "6.48074069840786" in out
    assert "l1 = 14" in out


def test_table1_csv_shape_and_flags(capsys):
    out = _capture(["table1", "--format", "csv"], capsys)
    lines = out.strip().splitlines()
    assert len(lines) == 13
    assert lines[0].startswith("n,r,lower_published")
    erratum_rows = [line for line in lines if "upper_erratum" in line]
    assert len(erratum_rows) == 1
    assert erratum_rows[0].startswith("8,4,")
    assert "1408.00" in erratum_rows[0] and "1498.00" in erratum_rows[0]


def test_scan_csv_contains_all_cells(capsys):
    out = _capture(["scan", "--kmax", "2", "--nmax", "4", "--bits", "128",
                    "--format", "csv"], capsys)
    lines = out.strip().splitlines()
    assert lines[0].split(",") == [field.name for field in dataclasses.fields(ScanCell)]
    assert len(lines) == 1 + 2 * 3
    for line in lines[1:]:
        assert line.split(",")[-1] in ("invertible", "singular", "undetermined")


def test_bench_csv_header(capsys):
    out = _capture(["bench", "--sizes", "4,8", "--k", "1", "--r", "2",
                    "--format", "csv"], capsys)
    lines = out.strip().splitlines()
    assert lines[0] == "n,path,mean_ns,rel_err"
    assert len(lines) == 5
    # one fast and one dense row per n; mean_ns as .1f, rel_err as .3e
    for line, (n, path) in zip(lines[1:], [(4, "fast"), (4, "dense"), (8, "fast"), (8, "dense")]):
        assert re.fullmatch(rf"{n},{path},\d+\.\d,\d\.\d{{3}}e[+-]\d\d", line), line


def test_bench_r_outside_fast_range_exits_2(capsys):
    assert cli.main(["bench", "--sizes", "4", "--k", "1", "--r", "5"]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["kind"] == "ValueError" and "outside [1/4, 4]" in err["message"]


@pytest.mark.parametrize("sizes", [["--sizes=-3"], ["--sizes", "0"], ["--sizes", "4,0,8"],
                                   ["--sizes", ","]],
                         ids=["negative", "zero", "zero_in_list", "no_n"])
def test_bench_nonpositive_size_exits_2(sizes, capsys):
    # rejected while parsing, before any matrix is built
    argv = ["bench", *sizes, "--k", "1", "--r", "2"]
    with pytest.raises(ValueError, match="--sizes"):
        cli.parse_args(argv)
    assert cli.main(argv) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["kind"] == "ValueError" and "--sizes" in err["message"]


def test_eig_plain_lists_branches(capsys):
    out = _capture(["eig", "--k", "1", "--n", "3", "--r", "1", "--bits", "128"], capsys)
    assert out.count("branch=generic") == 3


def test_det_reports_exact_for_rational_r(capsys):
    out = _capture(["det", "--k", "1", "--n", "3", "--r", "1", "--format", "json"], capsys)
    envelope = json.loads(out)
    assert envelope["result"]["det_exact"] == 9


def _fields(out):
    return dict(line.split(" = ", 1) for line in out.splitlines())


def test_norms_keep_a_decimal_r_at_the_requested_precision(capsys):
    # r = 1 + 1e-18: frobenius_sq = 995 + (r^2 - 1) w2(4), l1 = 105 + (r - 1) w1(4)
    out = _capture(["norms", "--k", "1", "--n", "5", "--r", "1.000000000000000001",
                    "--bits", "512"], capsys)
    fields = _fields(out)
    with mp.workprec(600):
        eps = mp.mpf("1e-18")
        assert abs(mp.mpf(fields["frobenius_sq"]) - (995 + (2 * eps + eps * eps) * 760)) < 1e-140
        assert abs(mp.mpf(fields["l1"]) - (105 + eps * 72)) < 1e-140


def test_invert_witness_prints_at_requested_precision(capsys):
    with mp.workprec(300):
        recip = 1 / char_roots(1, 256).alpha
        r_text = mp.nstr(recip, 20)
    out = _capture(["invert", "--k", "1", "--n", "4", "--r", r_text, "--bits", "64"], capsys)
    fields = _fields(out)
    assert fields["status"] == "excluded_parameter"
    with mp.workprec(300):
        assert abs(mp.mpf(fields["witness"]) - recip) < mp.mpf(2) ** -90


def test_invert_complex_r_not_covered(capsys):
    out = _capture(["invert", "--k", "1", "--n", "4", "--r", "i", "--format", "json"], capsys)
    envelope = json.loads(out)
    assert envelope["result"]["status"] == "not_covered"
    assert envelope["result"]["gcd_invertible"] is None


@pytest.mark.parametrize("argv, message", [
    (["invert", "--k=0", "--n=3"], "k must be an integer >= 1, got 0"),
    (["invert", "--k=1", "--n=1"], "matrix order n must be an integer >= 2, got 1"),
])
@pytest.mark.parametrize("r", ["--r=2-3i", "--r=0+1i", "--r=2"])
def test_invert_checks_k_and_n_for_every_r(argv, message, r, capsys):
    assert cli.main(argv + [r]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert json.loads(captured.err)["error"]["message"] == message


_MPC_RE = re.compile(r"^\((\S+) ([+-]) (\S+)j\)$")


def _printed_complex(text):
    """(re, im) of an mpc as a report prints it, as exact decimals."""
    re_text, sign, im_text = _MPC_RE.match(text).groups()
    im = Fraction(im_text)
    return Fraction(re_text), -im if sign == "-" else im


@pytest.mark.parametrize("k,n,r", [(1, 5, "3/7"), (2, 9, "-3/2"), (3, 16, "2")])
def test_det_json_carries_criterion_07_agreement(k, n, r, capsys):
    out = _capture(["det", "--k", str(k), "--n", str(n), f"--r={r}", "--bits", "256",
                    "--format", "json"], capsys)
    result = json.loads(out)["result"]
    exact = Fraction(result["det_exact"])
    scale = max(abs(exact), 1)
    for name in ("det_closed", "det_product_of_eigenvalues"):
        re_part, im_part = _printed_complex(result[name])
        assert abs(re_part - exact) <= Fraction(1, 10**20) * scale, name
        assert abs(im_part) <= Fraction(1, 10**20) * scale, name


@pytest.mark.parametrize("command", ["norms", "bounds"])
@pytest.mark.parametrize("r", ["1e400", "1e200"])
def test_non_finite_norms_exit_3(command, r, capsys):
    assert cli.main([command, "--k", "1", "--n", "3", "--r", r]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"]["kind"] == "OverflowError"


def test_parser_reuse_after_error_matches_fresh_process(capsys):
    argv = ["norms", "--k", "2", "--n", "6", "--r", "3/7", "--format", "csv"]
    src = str(Path(cli.__file__).resolve().parents[1])
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    fresh = subprocess.run([sys.executable, "-m", "pelltrib.cli", *argv],
                           capture_output=True, text=True, env=env, timeout=60, check=True)
    assert cli.main(["seq", "--k", "1", "--n", "4", "--wat"]) == 2
    capsys.readouterr()
    assert _capture(argv, capsys) == fresh.stdout


def test_python_dash_m_pelltrib_runs_the_cli():
    src = str(Path(cli.__file__).resolve().parents[1])
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    done = subprocess.run([sys.executable, "-m", "pelltrib", "seq", "--k", "1", "--n", "4"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "13\n", "")


@contextlib.contextmanager
def _no_int_digit_limit():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def test_seq_renders_terms_past_the_int_digit_limit(capsys):
    limit = sys.get_int_max_str_digits()
    plain = _capture(["seq", "--k", "1", "--n", "20000"], capsys)
    doc = _capture(["seq", "--k", "1", "--n", "20000", "--format", "json"], capsys)
    assert sys.get_int_max_str_digits() == limit
    with _no_int_digit_limit():
        want = term(1, 20000)
        assert len(str(want)) > 4300
        assert plain == f"{want}\n"
        assert json.loads(doc)["result"]["term"] == want


def test_parse_keeps_the_int_digit_limit(capsys):
    assert cli.main(["seq", "--k", "1", "--n", "1" * 5000]) == 2
    assert json.loads(capsys.readouterr().err)["error"]["kind"] == "ValueError"


def test_det_large_order_agrees_with_closed_form(capsys):
    out = _capture(["det", "--k", "1", "--n", "200", "--r", "3/7", "--format", "json"], capsys)
    with _no_int_digit_limit():
        result = json.loads(out)["result"]
        exact = Fraction(result["det_exact"])
    re_part, im_part = _printed_complex(result["det_closed"])
    assert abs(re_part - exact) <= Fraction(1, 10**20) * abs(exact)
    assert abs(im_part) <= Fraction(1, 10**20) * abs(exact)
