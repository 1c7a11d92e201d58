"""Command line front end for the package.

Subcommands cover the sequence, the four summation identities, norms
and spectral bounds, eigenvalues, determinants, invertibility checks,
the counterexample scan, the matvec benchmark and the reference-table
reproduction.  Reports serialize to plain text, CSV or a JSON envelope
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
import os
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from mpmath import mp

from . import circulant, fastops, invertibility, sequence, spectral, sums
from .errors import ScalarParseError, ZeroR

_DEFAULT_BITS = 256
PRECISION_ENV = "KPT_PRECISION_BITS"


def _formula_fingerprint() -> str:
    """Short stable digest of the formula set, stamped on every report.

    Probing the closed forms on a fixed grid fingerprints the actual
    coefficient tables: any change to a formula changes the digest.
    """
    probes: list = []
    for k in (1, 2, 3):
        probes.append(tuple(sequence.terms_upto(k, 12)))
        for n in range(9):
            probes.append((sums.s1_closed(k, n), sums.w1_closed(k, n),
                           sums.s2_closed(k, n), sums.w2_closed(k, n)))
        probes.append(tuple(sequence.terms_upto(k, 5)))
    return hashlib.sha256(repr(probes).encode()).hexdigest()[:12]


FORMULA_SET_VERSION = _formula_fingerprint()


# ---------------------------------------------------------------------------
# scalar parsing

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")
_REAL_RE = re.compile(r"[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?")


def parse_scalar(text: str, precision_bits: int = _DEFAULT_BITS):
    """Parse the r grammar: [-]int[/int], real literal, or a+bi.

    Rational input stays exact (Fraction); other real literals are
    promoted to an mpf at the requested precision; a+bi yields a double
    complex.
    """
    s = text.strip().replace(" ", "")
    if not s:
        raise ScalarParseError("empty scalar")
    if _RATIONAL_RE.match(s):
        try:
            return Fraction(s)
        except ZeroDivisionError as exc:
            raise ScalarParseError(f"zero denominator in {text!r}") from exc
    if _REAL_RE.fullmatch(s):
        with mp.workprec(precision_bits):
            return mp.mpf(s)
    if s.endswith("i"):
        return _parse_complex(s, text)
    raise ScalarParseError(f"cannot parse scalar {text!r}")


def _parse_complex(s: str, original: str) -> complex:
    body = s[:-1]
    # split at the last sign that is not leading and not an exponent sign
    split = -1
    for idx in range(len(body) - 1, 0, -1):
        if body[idx] in "+-" and body[idx - 1] not in "eE":
            split = idx
            break
    real_text, imag_text = (body[:split], body[split:]) if split > 0 else ("0", body)
    if imag_text in ("", "+"):
        imag_text = "1"
    elif imag_text == "-":
        imag_text = "-1"
    if not _REAL_RE.fullmatch(real_text) or not _REAL_RE.fullmatch(imag_text):
        raise ScalarParseError(f"cannot parse scalar {original!r}")
    value = complex(float(real_text), float(imag_text))
    if not cmath.isfinite(value):
        raise ScalarParseError(f"complex scalar {original!r} overflows a double")
    return value


def _parse_r(config: "CliConfig"):
    """The command's --r at the requested precision; ZeroR when it is 0."""
    value = parse_scalar(config.r, config.precision_bits)
    if value == 0:
        raise ZeroR("r must be nonzero for this command")
    return value


# ---------------------------------------------------------------------------
# config and serialization

@dataclass
class CliConfig:
    command: str
    k: int | None = None
    n: int | None = None
    r: str | None = None
    precision_bits: int = _DEFAULT_BITS
    output: str = "plain"
    out_path: str | None = None
    options: dict = field(default_factory=dict)


def _fmt(value):
    """Convert any computed value into a JSON- and CSV-safe atom."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return value.numerator
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float):
        return value
    if isinstance(value, complex):
        sign = "+" if value.imag >= 0 else "-"
        return f"{value.real!r}{sign}{abs(value.imag)!r}i"
    return str(value)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(_fmt(value))


class Report:
    """One command's output in all three serializations.

    For a dict result, plain and csv default to one `name = value` line per
    entry and a one-row table of the params followed by the result.
    """

    def __init__(self, params: dict, result, plain: list[str] | None = None,
                 csv: list[str] | None = None):
        self.params = params
        self.result = result
        self.plain = plain
        self.csv = csv

    def render(self, config: CliConfig) -> str:
        if config.output == "json":
            envelope = {
                "command": config.command,
                "precision_bits": config.precision_bits,
                "formula_version": FORMULA_SET_VERSION,
                "params": self.params,
                "result": self.result,
            }
            return json.dumps(envelope, sort_keys=True, indent=2) + "\n"
        if config.output == "csv":
            lines = self.csv
            if lines is None:
                values = [*self.params.values(), *self.result.values()]
                lines = [",".join([*self.params, *self.result]), ",".join(map(_csv_cell, values))]
        else:
            lines = self.plain
            if lines is None:
                lines = [f"{name} = {value}" for name, value in self.result.items()]
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# command handlers

def _cmd_seq(config: CliConfig) -> Report:
    value = sequence.term(config.k, config.n)
    return Report({"k": config.k, "n": config.n}, {"term": value}, plain=[str(value)])


def _cmd_sums(config: CliConfig) -> Report:
    rep = sums.sums_report(config.k, config.n)
    return Report({"k": config.k, "n": config.n},
                  {"s1": rep.s1, "w1": rep.w1, "s2": rep.s2, "w2": rep.w2})


def _knr(config: CliConfig) -> dict:
    """The params of a command that takes k, n and r, with r as typed."""
    return {"k": config.k, "n": config.n, "r": config.r}


def _cmd_norms(config: CliConfig) -> Report:
    k, n, r = config.k, config.n, _parse_r(config)
    fro_sq = spectral.frobenius_sq_closed(k, n, r)
    result = {"frobenius": spectral.frobenius_closed(k, n, r),
              "frobenius_sq": _fmt(fro_sq),
              "l1": _fmt(spectral.l1_closed(k, n, r))}
    return Report(_knr(config), result)


def _cmd_bounds(config: CliConfig) -> Report:
    rep = spectral.norm_report(config.k, config.n, _parse_r(config))
    return Report(_knr(config), {
        "lower": rep.spectral_lower,
        "upper": rep.spectral_upper,
        "sigma": rep.sigma,
        "frobenius": rep.frobenius,
        "frobenius_over_sqrt_n": rep.frobenius / config.n ** 0.5,
        "row_length_norm": rep.row_length_norm,
        "col_length_norm": rep.col_length_norm,
    })


def _cmd_eig(config: CliConfig) -> Report:
    n, bits = config.n, config.precision_bits
    spectrum = spectral.eigenvalues_closed(config.k, n, _parse_r(config), bits)
    entries = [
        {"m": m, "branch": spectrum.branches[m], "value": str(spectrum.lambdas[m])}
        for m in range(n)
    ]
    csv = ["m,branch,re,im"] + [
        f"{m},{spectrum.branches[m]},{str(spectrum.lambdas[m].real)},{str(spectrum.lambdas[m].imag)}"
        for m in range(n)
    ]
    plain = [f"m={e['m']} branch={e['branch']} value={e['value']}" for e in entries]
    return Report(_knr(config), entries, plain, csv)


def _cmd_det(config: CliConfig) -> Report:
    k, n, bits = config.k, config.n, config.precision_bits
    r = _parse_r(config)
    rep = spectral.determinant_closed(k, n, r, bits)
    det_exact = circulant.det_exact(k, n, r) if circulant.is_exact(r) else None
    return Report(_knr(config), {
        "det_closed": str(rep.det_closed),
        "det_product_of_eigenvalues": str(rep.det_oracle),
        "det_exact": _fmt(det_exact),
        "quadratic_r1": str(rep.r1),
        "quadratic_r2": str(rep.r2),
        "used_generic_formula": True,
    })


def _cmd_invert(config: CliConfig) -> Report:
    r = _parse_r(config)
    if isinstance(r, complex):
        verdict = invertibility.InvertibilityVerdict(
            status="not_covered", reason="sufficient condition applies to real r only")
    else:
        verdict = invertibility.sufficient_condition(config.k, config.n, r, config.precision_bits)
    result = {
        "status": verdict.status,
        "reason": verdict.reason,
        "witness": None if verdict.witness is None else str(verdict.witness),
        "gcd_invertible": verdict.exact_invertible,
    }
    # the CSV row leaves out the witness and quotes the reason
    csv = ["k,n,r,status,reason,gcd_invertible",
           f"{config.k},{config.n},{config.r},{verdict.status},\"{verdict.reason}\","
           f"{_csv_cell(verdict.exact_invertible)}"]
    return Report(_knr(config), result, csv=csv)


_SCAN_FIELDS = tuple(f.name for f in dataclasses.fields(invertibility.ScanCell))


def _cmd_scan(config: CliConfig) -> Report:
    opts = config.options
    cells = invertibility.counterexample_scan(
        range(opts["kmin"], opts["kmax"] + 1),
        range(opts["nmin"], opts["nmax"] + 1),
        sign=opts["sign"],
        precision_bits=config.precision_bits,
    )
    rows = [dataclasses.asdict(cell) for cell in cells]
    csv = [",".join(_SCAN_FIELDS)]
    for row in rows:
        csv.append(",".join(_csv_cell(row[name]) for name in _SCAN_FIELDS))
    plain = [
        f"k={row['k']} n={row['n']} verdict={row['verdict']} "
        f"min|lambda| 1e{row['min_abs_lambda_log10']:.1f}"
        for row in rows
    ]
    params = {name: opts[name] for name in ("kmin", "kmax", "nmin", "nmax", "sign")}
    return Report(params, rows, plain, csv)


def _cmd_bench(config: CliConfig) -> Report:
    sizes = config.options["sizes"]
    rows = fastops.bench_matvec(sizes, config.k, complex(_parse_r(config)))
    dicts = [dataclasses.asdict(row) for row in rows]
    csv = ["n,path,mean_ns,rel_err"] + [
        f"{row.n},{row.path},{row.mean_ns:.1f},{row.rel_err:.3e}" for row in rows]
    plain = [f"n={row.n} {row.path}: {row.mean_ns / 1e3:.1f} us (rel_err {row.rel_err:.2e})"
             for row in rows]
    return Report({"k": config.k, "r": config.r, "sizes": list(sizes)}, dicts, plain, csv)


_TABLE_FIELDS = ("n", "r", "lower_published", "lower_ours", "sigma_published",
                 "sigma_ours", "upper_published", "upper_ours", "flags")


def _cmd_table1(config: CliConfig) -> Report:
    rows = []
    for row in spectral.table1_report():
        entry = dataclasses.asdict(row)
        entry["flags"] = list(row.flags)
        rows.append(entry)
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


_HANDLERS = {
    "seq": _cmd_seq,
    "sums": _cmd_sums,
    "norms": _cmd_norms,
    "bounds": _cmd_bounds,
    "eig": _cmd_eig,
    "det": _cmd_det,
    "invert": _cmd_invert,
    "scan": _cmd_scan,
    "bench": _cmd_bench,
    "table1": _cmd_table1,
}


def run(config: CliConfig) -> tuple[int, str]:
    """Execute one command; returns (exit code, serialized report).

    The command runs and renders in one mpmath context of bits + _GUARD
    bits, so a value computed or printed outside the library's own
    precision blocks keeps the requested precision.  Exact results can have
    far more than CPython's default 4300 digits, so the int-to-str limit is
    lifted while the command runs and renders, and restored afterwards;
    argument parsing keeps the default.
    """
    sequence.check_bits(config.precision_bits)
    if config.output not in ("json", "csv", "plain"):
        raise ValueError(f"unknown output format {config.output!r}")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        with mp.workprec(config.precision_bits + sequence._GUARD):
            report = _HANDLERS[config.command](config)
            return 0, report.render(config)
    finally:
        sys.set_int_max_str_digits(limit)


# ---------------------------------------------------------------------------
# argument parsing

class _Parser(argparse.ArgumentParser):
    # argparse wants to sys.exit on bad flags; raise instead so errors
    # flow through the one JSON-emitting path
    def error(self, message):
        raise ValueError(message)


def _default_bits() -> int:
    raw = os.environ.get(PRECISION_ENV)
    if raw is None:
        return _DEFAULT_BITS
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"{PRECISION_ENV} must be an integer, got {raw!r}") from exc


@functools.cache
def build_parser() -> _Parser:
    """The argument tree, built once per process; parsing leaves it unchanged."""
    parser = _Parser(prog="pelltrib", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, k=False, n=False, r=False):
        if k:
            p.add_argument("--k", type=int, required=True)
        if n:
            p.add_argument("--n", type=int, required=True)
        if r:
            p.add_argument("--r", type=str, required=True)
        p.add_argument("--bits", type=int, default=None,
                       help="working precision in bits (64..4096)")
        p.add_argument("--format", choices=("plain", "json", "csv"), default="plain")
        p.add_argument("--out", type=str, default=None)

    common(sub.add_parser("seq"), k=True, n=True)
    common(sub.add_parser("sums"), k=True, n=True)
    common(sub.add_parser("norms"), k=True, n=True, r=True)
    common(sub.add_parser("bounds"), k=True, n=True, r=True)
    common(sub.add_parser("eig"), k=True, n=True, r=True)
    common(sub.add_parser("det"), k=True, n=True, r=True)
    common(sub.add_parser("invert"), k=True, n=True, r=True)

    scan = sub.add_parser("scan")
    scan.add_argument("--kmin", type=int, default=1)
    scan.add_argument("--kmax", type=int, required=True)
    scan.add_argument("--nmin", type=int, default=2)
    scan.add_argument("--nmax", type=int, required=True)
    scan.add_argument("--sign", type=int, choices=(1, -1), default=1)
    common(scan)

    bench = sub.add_parser("bench")
    bench.add_argument("--sizes", type=str, required=True,
                       help="comma-separated list of n values")
    common(bench, k=True, r=True)

    common(sub.add_parser("table1"))
    return parser


def parse_args(argv=None) -> CliConfig:
    ns = build_parser().parse_args(argv)
    options: dict = {}
    if ns.command == "scan":
        if ns.kmin > ns.kmax:
            raise ValueError(f"--kmin {ns.kmin} exceeds --kmax {ns.kmax}")
        if ns.nmin > ns.nmax:
            raise ValueError(f"--nmin {ns.nmin} exceeds --nmax {ns.nmax}")
        options = {"kmin": ns.kmin, "kmax": ns.kmax,
                   "nmin": ns.nmin, "nmax": ns.nmax, "sign": ns.sign}
    elif ns.command == "bench":
        try:
            options = {"sizes": [int(s) for s in ns.sizes.split(",") if s]}
        except ValueError as exc:
            raise ValueError(f"--sizes must be comma-separated integers, got {ns.sizes!r}") from exc
        if not options["sizes"]:
            raise ValueError("--sizes must name at least one n")
    return CliConfig(
        command=ns.command,
        k=getattr(ns, "k", None),
        n=getattr(ns, "n", None),
        r=getattr(ns, "r", None),
        precision_bits=ns.bits if ns.bits is not None else _default_bits(),
        output=ns.format,
        out_path=ns.out,
        options=options,
    )


def _emit_error(exc: BaseException) -> None:
    payload = {"error": {"kind": type(exc).__name__, "message": str(exc)}}
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)


def main(argv=None) -> int:
    try:
        config = parse_args(argv)
        code, text = run(config)
    except (ValueError, TypeError) as exc:
        _emit_error(exc)
        return 2
    except ArithmeticError as exc:
        _emit_error(exc)
        return 3
    if config.out_path:
        try:
            with open(config.out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            _emit_error(exc)
            return 2
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
