"""Command line front end for the package.

Subcommands cover the sequence, the four summation identities, norms
and spectral bounds, eigenvalues, determinants, invertibility checks,
the counterexample scan, the matvec benchmark and the reference-table
reproduction.  argv is the only input: --bits (default 256) sets every
precision.  Handlers return the library's values, and Report alone turns
them into plain text, CSV or a JSON envelope
{command, precision_bits, formula_version, params, result}; the
envelope shape is pinned by schema/report.schema.json.

Exit codes: 0 success, 2 invalid input (parse errors, domain errors),
3 numeric failure (lost precision, non-convergence, degenerate
parameters).  Errors print one JSON object on stderr with the error
kind, so callers never have to scrape tracebacks.
"""

from __future__ import annotations

import argparse
import cmath
import dataclasses
import functools
import hashlib
import json
import re
import sys
from fractions import Fraction

from mpmath import mp

from . import circulant, fastops, invertibility, sequence, spectral, sums
from .errors import ScalarParseError, ZeroR

_DEFAULT_BITS = 256


@functools.cache
def _formula_fingerprint() -> str:
    """Short stable digest of the formula set, stamped on every JSON report.

    Probing the closed forms on a fixed grid fingerprints the actual
    coefficient tables: any change to a formula changes the digest.  It is
    computed on first use, not at import, so a closed form that fails its
    exact division fails the JSON report that needs the digest (exit 3)
    rather than every import of the module.
    """
    probes: list = []
    for k in (1, 2, 3):
        probes.append(tuple(sequence.terms_upto(k, 12)))
        for n in range(9):
            probes.append((sums.s1_closed(k, n), sums.w1_closed(k, n),
                           sums.s2_closed(k, n), sums.w2_closed(k, n)))
        probes.append(tuple(sequence.terms_upto(k, 5)))
    return hashlib.sha256(repr(probes).encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# scalar parsing

_U = r"(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?"  # an unsigned real literal
_SCALAR_RE = re.compile(rf"(?P<rational>[+-]?\d+(/\d+)?)|(?P<real>[+-]?{_U})"
                        rf"|(?:(?P<re>[+-]?{_U})(?=[+-]))?(?P<im>[+-]?(?:{_U})?)i")


def parse_scalar(text: str, precision_bits: int = _DEFAULT_BITS):
    """Parse the r grammar of _SCALAR_RE: [+-]int[/int], a real literal, or
    a complex a+bi, a+i, bi or i, where a and b are real literals.

    Rational input stays exact (Fraction); other real literals are
    promoted to an mpf at the requested precision; a+bi yields a double
    complex.
    """
    s = text.strip().replace(" ", "")
    if not s:
        raise ScalarParseError("empty scalar")
    match = _SCALAR_RE.fullmatch(s)
    if match is None:
        raise ScalarParseError(f"cannot parse scalar {text!r}")
    if match["rational"]:
        try:
            return Fraction(s)
        except ZeroDivisionError as exc:
            raise ScalarParseError(f"zero denominator in {text!r}") from exc
    if match["real"]:
        with mp.workprec(precision_bits):
            return mp.mpf(s)
    im = match["im"]
    value = complex(float(match["re"] or 0), float(im + "1" if im in ("", "+", "-") else im))
    if not cmath.isfinite(value):
        raise ScalarParseError(f"complex scalar {text!r} overflows a double")
    return value


def _parse_r(args: argparse.Namespace):
    """The command's --r at the requested precision; ZeroR when it is 0."""
    value = parse_scalar(args.r, args.bits)
    if value == 0:
        raise ZeroR("r must be nonzero for this command")
    return value


# ---------------------------------------------------------------------------
# serialization

def _fmt(value):
    """The JSON atom of a value json cannot write itself: an integral
    Fraction as its int, any other Fraction, mpf or mpc as its str."""
    if isinstance(value, Fraction) and value.denominator == 1:
        return value.numerator
    return str(value)


def _json(value, indent: str = "\n") -> str:
    """json.dumps(value, sort_keys=True, indent=2, default=_fmt) for a value
    whose dicts have str keys, written directly in json's type order."""
    quote = json.encoder.encode_basestring_ascii
    if isinstance(value, str):
        return quote(value)
    if value is None or isinstance(value, bool):
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        text = float.__repr__(value)
        return {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}.get(text, text)
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        first, last, items = "[", "]", [_json(item, inner) for item in value]
    elif isinstance(value, dict):
        first, last = "{", "}"
        items = [quote(key) + ": " + _json(item, inner) for key, item in sorted(value.items())]
    else:
        return _json(_fmt(value), indent)
    return first + (inner + ("," + inner).join(items) + indent if items else "") + last


def _csv_cell(value) -> str:
    return "" if value is None else str(value)


class Report:
    """One command's params and result, rendered in the --format of its
    args: the one place where a computed value becomes text.

    Values are printed in run's precision context.  JSON writes the values
    json cannot write itself through _fmt.  Plain and csv default to the
    result's entries in its order.  For a dict result, such as a library
    record passed through dataclasses.asdict, that is one `name = value`
    line per entry and a one-row table of the params followed by the
    result, whose names no param shares.  For a list of dicts it is one
    line of space-separated `name=value` fields per row and a table of the
    rows under a header of their names.  A command whose lines the defaults
    cannot give passes its own.
    """

    def __init__(self, params: dict, result, plain: list[str] | None = None,
                 csv: list[str] | None = None):
        self.params = params
        self.result = result
        self.plain = plain
        self.csv = csv

    def render(self, args: argparse.Namespace) -> str:
        if args.format == "json":
            envelope = {
                "command": args.command,
                "precision_bits": args.bits,
                "formula_version": _formula_fingerprint(),
                "params": self.params,
                "result": self.result,
            }
            return _json(envelope) + "\n"
        if args.format == "csv" and self.csv is not None:
            lines = self.csv
        elif args.format == "csv":
            rows = self.result if isinstance(self.result, list) else [self.params | self.result]
            lines = [",".join(rows[0]), *(",".join(map(_csv_cell, row.values())) for row in rows)]
        elif self.plain is not None:
            lines = self.plain
        elif isinstance(self.result, list):
            lines = [" ".join(f"{name}={value}" for name, value in row.items()) for row in self.result]
        else:
            lines = [f"{name} = {value}" for name, value in self.result.items()]
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# command handlers

def _cmd_seq(args: argparse.Namespace) -> Report:
    value = sequence.term(args.k, args.n)
    return Report({"k": args.k, "n": args.n}, {"term": value}, plain=[str(value)])


def _cmd_sums(args: argparse.Namespace) -> Report:
    rep = sums.sums_report(args.k, args.n)
    return Report({"k": args.k, "n": args.n}, dataclasses.asdict(rep))


def _knr(args: argparse.Namespace) -> dict:
    """The params of a command that takes k, n and r, with r as typed."""
    return {"k": args.k, "n": args.n, "r": args.r}


def _cmd_norms(args: argparse.Namespace) -> Report:
    return Report(_knr(args), spectral.norms_closed(args.k, args.n, _parse_r(args)))


def _cmd_bounds(args: argparse.Namespace) -> Report:
    rep = spectral.norm_report(args.k, args.n, _parse_r(args))
    return Report(_knr(args), dataclasses.asdict(rep))


def _cmd_eig(args: argparse.Namespace) -> Report:
    spectrum = spectral.eigenvalues_closed(args.k, args.n, _parse_r(args), args.bits)
    pairs = list(enumerate(zip(spectrum.branches, spectrum.lambdas)))
    entries = [{"m": m, "branch": branch, "value": value} for m, (branch, value) in pairs]
    csv = ["m,branch,re,im"] + [f"{m},{branch},{value.real},{value.imag}"
                                for m, (branch, value) in pairs]
    return Report(_knr(args), entries, csv=csv)


def _cmd_det(args: argparse.Namespace) -> Report:
    k, n, bits = args.k, args.n, args.bits
    r = _parse_r(args)
    rep = spectral.determinant_closed(k, n, r, bits)
    det_exact = circulant.det_exact(k, n, r) if circulant.is_exact(r) else None
    return Report(_knr(args), {
        "det_closed": rep.det_closed,
        "det_product_of_eigenvalues": rep.det_oracle,
        "det_exact": det_exact,
        "quadratic_r1": rep.r1,
        "quadratic_r2": rep.r2,
        "used_generic_formula": True,
    })


def _cmd_invert(args: argparse.Namespace) -> Report:
    r = _parse_r(args)
    if not circulant.is_real(r):
        verdict = invertibility.InvertibilityVerdict(
            status="not_covered", reason="sufficient condition applies to real r only")
    else:
        verdict = invertibility.sufficient_condition(args.k, args.n, r, args.bits)
    result = {
        "status": verdict.status,
        "reason": verdict.reason,
        "witness": verdict.witness,
        "gcd_invertible": verdict.exact_invertible,
    }
    # the CSV row leaves out the witness and quotes the reason
    csv = ["k,n,r,status,reason,gcd_invertible",
           f"{args.k},{args.n},{args.r},{verdict.status},\"{verdict.reason}\","
           f"{_csv_cell(verdict.exact_invertible)}"]
    return Report(_knr(args), result, csv=csv)


def _cmd_scan(args: argparse.Namespace) -> Report:
    cells = invertibility.counterexample_scan(
        range(args.kmin, args.kmax + 1),
        range(args.nmin, args.nmax + 1),
        sign=args.sign,
        precision_bits=args.bits,
    )
    rows = [dataclasses.asdict(cell) for cell in cells]
    plain = [
        f"k={row['k']} n={row['n']} verdict={row['verdict']} "
        f"min|lambda| 1e{row['min_abs_lambda_log10']:.1f}"
        for row in rows
    ]
    params = {name: vars(args)[name] for name in ("kmin", "kmax", "nmin", "nmax", "sign")}
    return Report(params, rows, plain)


def _cmd_bench(args: argparse.Namespace) -> Report:
    rows = fastops.bench_matvec(args.sizes, args.k, complex(_parse_r(args)))
    dicts = [dataclasses.asdict(row) for row in rows]
    csv = ["n,path,mean_ns,rel_err"] + [
        f"{row.n},{row.path},{row.mean_ns:.1f},{row.rel_err:.3e}" for row in rows]
    plain = [f"n={row.n} {row.path}: {row.mean_ns / 1e3:.1f} us (rel_err {row.rel_err:.2e})"
             for row in rows]
    return Report({"k": args.k, "r": args.r, "sizes": args.sizes}, dicts, plain, csv)


_TABLE_FIELDS = tuple(f.name for f in dataclasses.fields(spectral.Table1Row))


def _cmd_table1(args: argparse.Namespace) -> Report:
    rows = [dataclasses.asdict(row) for row in spectral.table1_report()]
    csv = [",".join(_TABLE_FIELDS)]
    for entry in rows:
        cells = []
        for name in _TABLE_FIELDS:
            value = entry[name]
            if isinstance(value, float):
                cells.append(f"{value:.2f}")
            elif name == "flags":
                cells.append(";".join(value))
            else:
                cells.append(str(value))
        csv.append(",".join(cells))
    plain = [
        f"n={e['n']} r={e['r']} lower {e['lower_ours']:.2f}/{e['lower_published']:.2f} "
        f"sigma {e['sigma_ours']:.2f}/{e['sigma_published']:.2f} "
        f"upper {e['upper_ours']:.2f}/{e['upper_published']:.2f}"
        + (f" [{';'.join(e['flags'])}]" if e["flags"] else "")
        for e in rows
    ]
    return Report({}, rows, plain, csv)


def run(args: argparse.Namespace) -> str:
    """Run the command of parse_args' namespace and return its rendered report.

    The command runs and renders in one mpmath context of bits + _GUARD
    bits, so a value computed or printed outside the library's own
    precision blocks keeps the requested precision.  Exact results can have
    far more than CPython's default 4300 digits, so the int-to-str limit is
    lifted while the command runs and renders, and restored afterwards;
    argument parsing keeps the default.
    """
    sequence.check_bits(args.bits)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        with mp.workprec(args.bits + sequence._GUARD):
            return args.handler(args).render(args)
    finally:
        sys.set_int_max_str_digits(limit)


# ---------------------------------------------------------------------------
# argument parsing

class _Parser(argparse.ArgumentParser):
    commands: dict  # the top-level parser's subparsers by command name
    # argparse wants to sys.exit on bad flags; raise instead so errors
    # flow through the one JSON-emitting path
    def error(self, message):
        raise ValueError(message)


@functools.cache
def build_parser() -> _Parser:
    """The argument tree, built once per process; parsing leaves it unchanged."""
    parser = _Parser(prog="pelltrib", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    def common(p, handler, k=False, n=False, r=False):
        p.set_defaults(handler=handler)
        if k:
            p.add_argument("--k", type=int, required=True)
        if n:
            p.add_argument("--n", type=int, required=True)
        if r:
            p.add_argument("--r", type=str, required=True)
        p.add_argument("--bits", type=int, default=_DEFAULT_BITS,
                       help="working precision in bits (64..4096)")
        p.add_argument("--format", choices=("plain", "json", "csv"), default="plain")
        p.add_argument("--out", type=str, default=None)

    common(sub.add_parser("seq"), _cmd_seq, k=True, n=True)
    common(sub.add_parser("sums"), _cmd_sums, k=True, n=True)
    common(sub.add_parser("norms"), _cmd_norms, k=True, n=True, r=True)
    common(sub.add_parser("bounds"), _cmd_bounds, k=True, n=True, r=True)
    common(sub.add_parser("eig"), _cmd_eig, k=True, n=True, r=True)
    common(sub.add_parser("det"), _cmd_det, k=True, n=True, r=True)
    common(sub.add_parser("invert"), _cmd_invert, k=True, n=True, r=True)

    scan = sub.add_parser("scan")
    scan.add_argument("--kmin", type=int, default=1)
    scan.add_argument("--kmax", type=int, required=True)
    scan.add_argument("--nmin", type=int, default=2)
    scan.add_argument("--nmax", type=int, required=True)
    scan.add_argument("--sign", type=int, choices=(1, -1), default=1)
    common(scan, _cmd_scan)

    bench = sub.add_parser("bench")
    bench.add_argument("--sizes", type=str, required=True,
                       help="comma-separated list of n values")
    common(bench, _cmd_bench, k=True, r=True)

    common(sub.add_parser("table1"), _cmd_table1)
    return parser


def parse_args(argv=None) -> argparse.Namespace:
    """The validated namespace: scan ranges checked and --sizes as a list
    of positive ints; --bits is checked when the command runs.

    When argv[0] names a command, argv[1:] goes to that command's parser
    alone, which is all the full parser does with it; any other argv goes
    to the full parser, whose errors and help it keeps."""
    argv = sys.argv[1:] if argv is None else list(argv)
    command = build_parser().commands.get(argv[0]) if argv else None
    args = build_parser().parse_args(argv) if command is None else \
        command.parse_args(argv[1:], argparse.Namespace(command=argv[0]))
    if args.command == "scan":
        if args.kmin > args.kmax:
            raise ValueError(f"--kmin {args.kmin} exceeds --kmax {args.kmax}")
        if args.nmin > args.nmax:
            raise ValueError(f"--nmin {args.nmin} exceeds --nmax {args.nmax}")
    elif args.command == "bench":
        try:
            sizes = [int(s) for s in args.sizes.split(",") if s]
        except ValueError as exc:
            raise ValueError(f"--sizes must be comma-separated integers, got {args.sizes!r}") from exc
        if not sizes:
            raise ValueError("--sizes must name at least one n")
        if min(sizes) < 1:
            raise ValueError(f"--sizes must be positive, got {min(sizes)}")
        args.sizes = sizes
    return args


def _emit_error(exc: BaseException) -> None:
    payload = {"error": {"kind": type(exc).__name__, "message": str(exc)}}
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
        text = run(args)
    except (ValueError, TypeError) as exc:
        _emit_error(exc)
        return 2
    except ArithmeticError as exc:
        _emit_error(exc)
        return 3
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            _emit_error(exc)
            return 2
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
