"""Command-line front end: eval | factorize | series | verify.

Problem files are JSON documents with string fields `b0`, `a`, `b` and
optional `target`, `name`; all expression fields are parsed by the same
grammars the library uses. Exit codes: 0 verified/ok, 1 refuted-at-depth,
2 parse error, 3 precondition failure, 4 inconclusive.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .errors import (
    ExprSyntaxError,
    GcfForgeError,
    NonPolynomial,
    ProblemFileError,
)
from .expr import parse_const_expr, parse_polynomial, parse_rational
from .factorize import Coupling, find_couplings, verify_coupling
from .gcf import GcfProblem, _frames, _scale, check_boundary_selection
from .numerics import PrecisionReal, rational_to_real
from .series import cascade, ratio_certificate
from .verify import REFUTED_AT_DEPTH, VERIFIED, VerificationReport, verify_conjecture

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_INCONCLUSIVE = 4

DEFAULT_DIGITS = 30
DEFAULT_VERIFY_DEPTH = 256
DEFAULT_TABLE_DEPTH = 16

_REQUIRED_FIELDS = ("b0", "a", "b")
_OPTIONAL_FIELDS = ("target", "name")


@dataclass(frozen=True)
class ProblemFile:
    """A problem document: its name plus the parsed problem."""

    name: str | None
    problem: GcfProblem


def load_problem_file(path: str | Path) -> ProblemFile:
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ProblemFileError(f"cannot read {path}: {exc}") from exc

    def unique_fields(pairs: list[tuple[str, object]]) -> dict:
        doc = {}
        for key, value in pairs:
            if key in doc:  # json.loads alone would keep the last value silently
                raise ProblemFileError(f"{path}: duplicate field {key!r}")
            doc[key] = value
        return doc

    try:
        doc = json.loads(raw, object_pairs_hook=unique_fields)
    except ValueError as exc:  # a JSONDecodeError, or a number past the int-to-text limit
        raise ProblemFileError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ProblemFileError(f"{path}: expected a JSON object")
    unknown = sorted(set(doc) - set(_REQUIRED_FIELDS) - set(_OPTIONAL_FIELDS))
    if unknown:
        raise ProblemFileError(f"{path}: unknown fields {unknown}")
    missing = [key for key in _REQUIRED_FIELDS if key not in doc]
    if missing:
        raise ProblemFileError(f"{path}: missing fields {missing}")
    for key in doc:
        if not isinstance(doc[key], str):
            raise ProblemFileError(f"{path}: field {key!r} must be a string")

    b0 = parse_rational(doc["b0"])
    a = parse_polynomial(doc["a"])
    b = parse_polynomial(doc["b"])
    target_text = doc.get("target")
    target = parse_const_expr(target_text) if target_text is not None else None
    problem = GcfProblem(b0=b0, a=a, b=b, target=target)
    return ProblemFile(name=doc.get("name"), problem=problem)


# --- report serialization ----------------------------------------------------


def _to_json(value):
    if isinstance(value, PrecisionReal):
        return {"decimal": value.to_decimal(), "precision_bits": value.precision_bits}
    if isinstance(value, Coupling):
        return {"c": value.c.to_text(), "d": value.d.to_text()}
    if isinstance(value, tuple):
        return [_to_json(item) for item in value]
    if isinstance(value, dict):
        return dict(value)
    return value


def _rho_text(rho: Fraction | None) -> str:
    """A classified series' limit ratio; None is an infinite limit."""
    return "infinite" if rho is None else str(rho)


def report_to_dict(report: VerificationReport) -> dict:
    doc = {name: _to_json(value) for name, value in vars(report).items()}  # in field order
    if report.classification is not None:  # else no series, and rho is None
        doc["rho"] = _rho_text(report.rho)
    return doc


# --- commands -----------------------------------------------------------------


def _preview(p: int, q: int) -> str:
    """A table entry: p/q, from an unreduced int pair, rounded to 64 bits and shown to 12 digits."""
    return rational_to_real((p, q), 64).to_decimal(12)


def _print_table(lines: list[str], rows, widths: tuple[int, ...]) -> None:
    """Print lines, then a line per row (index, entry, ...), all rendered first; None shows "-"."""
    for i, *entries in rows:
        try:
            cells = ["-" if x is None else str(x) for x in entries]
        except ValueError as exc:  # str() of an int past the interpreter's int-to-text limit
            hint = "the preview table (without --exact) rounds it"
            raise GcfForgeError(f"row {i} is too long to print exactly; {hint}") from exc
        lines.append("  ".join([f"{i:>5}", *(f"{c:>{w}}" for c, w in zip(cells, widths))]))
    print(*lines, sep="\n")


def cmd_eval(args) -> int:
    pf = load_problem_file(args.file)
    if args.depth < 0:  # refused before any output
        raise ValueError("depth must be nonnegative")
    L, entry = _scale(pf.problem), Fraction if args.exact else _preview
    # A_n = A'_n / L^(n+1), B_n = B'_n / L^(n+1) and x_n = A'_n / B'_n
    rows = (
        (n, entry(A, L ** (n + 1)), entry(B, L ** (n + 1)), entry(A, B) if B else None)
        for n, (A, B) in zip(range(args.depth + 1), _frames(pf.problem, L))
    )
    name = f"# {pf.name or args.file}: convergents to depth {args.depth}"
    _print_table([name, f"{'n':>5}  {'A_n':>20}  {'B_n':>20}  x_n"], rows, (20, 20, 0))
    return EXIT_OK


def cmd_factorize(args) -> int:
    pf = load_problem_file(args.file)
    couplings = find_couplings(pf.problem.a, pf.problem.b, pf.problem.minus_a)
    if not couplings:
        print("no coupling within linear-split search space")
        print("(search covers rational-root factors plus one indivisible residual)")
        return EXIT_OK
    for coupling in couplings:
        ok = verify_coupling(pf.problem.a, pf.problem.b, coupling)
        tick = "ok" if ok else "FAILED"
        print(f"{coupling}   [identities: {tick}]")
    return EXIT_OK


def cmd_series(args) -> int:
    pf = load_problem_file(args.file)
    couplings = find_couplings(pf.problem.a, pf.problem.b, pf.problem.minus_a)
    if not couplings:
        print("no coupling within linear-split search space; no series to show")
        return EXIT_INCONCLUSIVE
    # the coupling verify sums: the first that meets b0 = d(1)
    eligible = [cp for cp in couplings if check_boundary_selection(pf.problem, cp)]
    if not eligible:
        print("\n".join(_failed_boundary(couplings)))
        return EXIT_INCONCLUSIVE
    coupling = eligible[0]
    if args.count < 0:  # refused before any output
        raise ValueError("count must be nonnegative")
    # t_k = C_k/D_k and S_k = T_k/D_k; a d(j) = 0 raises here, before any output
    frames = zip(range(args.count), cascade(coupling))
    if args.exact:  # t_k = S_k - S_{k-1} reduces smaller ints than C_k/D_k does
        sums = [Fraction(T, D) for _, (_, D, T) in frames]
        rows = [(k, s - sums[k - 1] if k else s, s) for k, s in enumerate(sums)]
    else:
        rows = [(k, _preview(C, D), _preview(T, D)) for k, (C, D, T) in frames]
    cert = ratio_certificate(coupling)
    ratio = f"({cert.numerator.to_text()}) / ({cert.denominator.to_text()})"
    ratio += f"   rho = {_rho_text(cert.rho)}   [{cert.classification}]"
    head = [f"coupling: {coupling}", f"ratio: {ratio}", f"{'k':>5}  {'t_k':>24}  S_k"]
    _print_table(head, rows, (24, 0))
    return EXIT_OK


def cmd_verify(args) -> int:
    pf = load_problem_file(args.file)
    report = verify_conjecture(pf.problem, digits=args.digits, depth=args.depth, name=pf.name)
    _print_report(report)
    if args.json:
        try:
            Path(args.json).write_text(json.dumps(report_to_dict(report)) + "\n")
        except OSError as exc:  # exit 3, which no verdict uses
            raise GcfForgeError(f"cannot write {args.json}: {exc}") from exc
        print(f"report written to {args.json}")
    if report.verdict == VERIFIED:
        return EXIT_OK
    if report.verdict == REFUTED_AT_DEPTH:
        return EXIT_REFUTED
    return EXIT_INCONCLUSIVE


def _failed_boundary(couplings) -> list[str]:
    """Every coupling found, when none of them meets b0 = d(1)."""
    return [*(f"coupling: {coupling}" for coupling in couplings), "boundary rule b0 = d(1): fails"]


def _print_report(report: VerificationReport) -> None:
    """The human summary: every line rendered first, then printed in one call."""
    lines = [f"problem: {name}"] if (name := report.problem.get("name")) else []
    lines.append("  b0 = {b0}; a = {a}; b = {b}".format_map(report.problem))
    if report.coupling is None and not report.other_couplings:
        lines.append("coupling: none within linear-split search space")
    elif report.coupling is None:
        lines += _failed_boundary(report.other_couplings)
    else:
        extra = f" (+{len(report.other_couplings)} more)" if report.other_couplings else ""
        lines += [
            f"coupling: {report.coupling}{extra}",
            "boundary rule b0 = d(1): holds",
            "structural depths: "
            f"reciprocal identity {report.exact_identity_depth}/{report.depth}, "
            f"numerator product {report.numerator_product_depth}/{report.depth}, "
            f"casoratian {report.casoratian_depth}/{report.depth}",
            f"rho = {_rho_text(report.rho)}   [{report.classification}]",
        ]
    # previews show matched digits plus a small margin, not full precision
    shown = (report.digits_matched or report.digits_requested) + 5
    if report.series_value is not None:
        lines.append(
            f"series value: {report.series_value.to_decimal(shown)}   ({report.terms_used} terms)"
        )
    if report.gcf_value is not None:
        lines.append(f"gcf value:    {report.gcf_value.to_decimal(shown)}")
    if report.target_value is not None:
        lines += [
            f"target:       {report.target_value.to_decimal(shown)}",
            f"digits matched: {report.digits_matched} (requested {report.digits_requested})",
        ]
    if report.monotone_convergents is not None:  # a walk to the depth, not a sum
        monotone = "strictly decreasing" if report.monotone_convergents else "not monotone"
        lines.append(f"convergents: {monotone}; cauchy digits {report.cauchy_digits}")
    lines.append(f"verdict: {report.verdict}")
    print("\n".join(lines))


@functools.cache  # main runs once per job when called in-process
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gcf-forge",
        description="verify polynomial generalized continued fraction conjectures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="print a convergent table")
    p_eval.add_argument("file")
    p_eval.add_argument("--depth", type=int, default=DEFAULT_TABLE_DEPTH)
    p_eval.add_argument("--exact", action="store_true", help="exact rationals instead of previews")

    p_fact = sub.add_parser("factorize", help="search for couplings (c, d)")
    p_fact.add_argument("file")

    p_series = sub.add_parser("series", help="show the induced series and its ratio certificate")
    p_series.add_argument("file")
    p_series.add_argument("--count", type=int, default=DEFAULT_TABLE_DEPTH)
    p_series.add_argument("--exact", action="store_true", help="exact rationals instead of previews")

    p_verify = sub.add_parser("verify", help="run the full verification pipeline")
    p_verify.add_argument("file")
    p_verify.add_argument("--digits", type=int, default=DEFAULT_DIGITS)
    p_verify.add_argument("--depth", type=int, default=DEFAULT_VERIFY_DEPTH)
    p_verify.add_argument("--json", metavar="PATH", help="also write the report as JSON")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    command = globals()[f"cmd_{args.command}"]  # looked up per call, not cached
    try:
        code = command(args)
        sys.stdout.flush()  # a closed stdout fails here, not in the exit's flush
        return code
    except (ExprSyntaxError, NonPolynomial, ProblemFileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (GcfForgeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except BrokenPipeError as exc:  # the reader closed stdout: exit 3, which no verdict uses
        # the exit's flush of stdout would raise again, so it goes to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: cannot write the output: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
