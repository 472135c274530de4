"""Known answers for benchmark jobs, computed without gcf_forge.

Closed forms come from mpmath's asin at twice the requested precision.
Induced series are summed as hypergeometric functions of the generating
coupling's roots. Convergents of uncoupled or non-convergent inputs are
evaluated backwards with exact fractions. A report passes only if its exit
code, verdict, couplings, classification and values all agree.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction as F

import mpmath

from workloads import Job, poly_eval

_POLY_TEXT = re.compile(r"[0-9n+\-*/^ ]*")


@dataclass(frozen=True)
class Expected:
    exit_code: int
    verdict: str
    classification: str | None
    rho: str | None  # as the report writes it
    coupling: tuple | None  # the generating (c, d); must be among those reported
    series: mpmath.mpf | None
    value: mpmath.mpf | None  # the GCF value (or its depth-N estimate)
    target: mpmath.mpf | None


def _classify(job: Job) -> tuple[str, str | None]:
    cp = job.coupling
    dc, dd = len(cp.c_roots), len(cp.d_roots)
    if dc < dd:
        rho = F(0)
    elif dc == dd:
        rho = cp.c_lead / cp.d_lead
    else:
        return "divergent", "infinite"
    text = str(rho)
    if abs(rho) < 1:
        return "convergent", text
    return ("divergent" if abs(rho) > 1 else "inconclusive"), text


def _mpf(q: F) -> mpmath.mpf:
    return mpmath.mpf(q.numerator) / q.denominator


def closed_form(family: str, z: F) -> mpmath.mpf:
    """1/S for the family's series: 2 asin(x)^2 or asin(x)/(x sqrt(1-x^2))."""
    if family == "asin2":
        x = mpmath.sqrt(_mpf(z)) / 2
        series = 2 * mpmath.asin(x) ** 2 * 2 / _mpf(z)
    else:
        x = mpmath.sqrt(_mpf(z) / 2)
        series = mpmath.asin(x) / (x * mpmath.sqrt(1 - x * x))
    return 1 / series


def hypergeometric_sum(job: Job) -> mpmath.mpf:
    """sum_k t_k with t_k = prod_{j<=k} c(j) / prod_{j<=k+1} d(j).

    With c = g prod(n - r) and d = h prod(n - s), t_k / t_0 equals
    (g/h)^k prod (1-r)_k / prod (2-s)_k, a pFq series with an extra upper 1.
    """
    cp = job.coupling
    upper = [_mpf(1 - F(r)) for r in cp.c_roots] + [1]
    lower = [_mpf(2 - F(s)) for s in cp.d_roots]
    ratio = _mpf(cp.c_lead / cp.d_lead)
    return mpmath.hyper(upper, lower, ratio) / _mpf(poly_eval(cp.d, 1))


def convergent_at(job: Job, depth: int) -> F:
    """x_depth = b0 + a(1)/(b(1) + ... + a(depth)/b(depth)), exactly."""
    tail = F(0)
    for n in range(depth, 0, -1):
        tail = poly_eval(job.a, n) / (poly_eval(job.b, n) + tail)
    return job.b0 + tail


def expect(job: Job, digits: int, depth: int) -> Expected:
    """The known answer; call inside mpmath.workdps(2 * digits + 10)."""
    if job.coupling is None:
        value = _mpf(convergent_at(job, depth))
        return Expected(4, "inconclusive", None, None, None, None, value, None)
    classification, rho = _classify(job)
    coupling = (job.coupling.c, job.coupling.d)
    if classification != "convergent":
        value = _mpf(convergent_at(job, depth))
        return Expected(4, "inconclusive", classification, rho, coupling, None, value, None)
    if job.closed is not None:
        cf = job.closed
        value = closed_form(cf.family, cf.z) * _mpf(cf.scale)
        target = value + mpmath.mpf(10) ** -15 if cf.perturbed else value
        verdict, code = ("refuted-at-depth", 1) if cf.perturbed else ("verified", 0)
        return Expected(code, verdict, classification, rho, coupling, 1 / value, value, target)
    series = hypergeometric_sum(job)
    return Expected(4, "inconclusive", classification, rho, coupling, series, 1 / series, None)


def _poly_values(text: str) -> tuple:
    """Values of report polynomial text at n = 0..7 (degree <= 7 is pinned)."""
    if not _POLY_TEXT.fullmatch(text):
        raise ValueError(f"unexpected polynomial text {text!r}")
    expr = re.sub(r"\d+", lambda m: f"F({m.group()})", text).replace("^", "**")
    return tuple(eval(expr, {"__builtins__": {}, "F": F, "n": F(k)}) for k in range(8))


def _agrees(text: str | None, ref: mpmath.mpf, digits: int) -> bool:
    if text is None:
        return False
    gap = abs(mpmath.mpf(text) - ref)
    return gap <= mpmath.mpf(10) ** -digits * max(1, abs(ref))


def check(report: dict, exit_code: int, exp: Expected, digits: int, depth: int) -> list[str]:
    """Every disagreement between a report and the known answer."""
    problems = []

    def require(ok: bool, what: str) -> None:
        if not ok:
            problems.append(what)

    require(exit_code == exp.exit_code, f"exit code {exit_code} != {exp.exit_code}")
    require(report["verdict"] == exp.verdict, f"verdict {report['verdict']} != {exp.verdict}")
    require(report["classification"] == exp.classification, "classification")
    require(report["rho"] == exp.rho, f"rho {report['rho']} != {exp.rho}")
    reported = [cp for cp in [report["coupling"], *report["other_couplings"]] if cp]
    if exp.coupling is None:
        require(not reported, "a coupling was reported where none exists")
    else:
        want = tuple(tuple(poly_eval(p, k) for k in range(8)) for p in exp.coupling)
        have = {(_poly_values(cp["c"]), _poly_values(cp["d"])) for cp in reported}
        require(want in have, "generating coupling not reported")
        require(report["boundary_rule_holds"], "boundary rule")
        for field in ("exact_identity_depth", "numerator_product_depth", "casoratian_depth"):
            require(report[field] == depth, f"{field} {report[field]} != {depth}")

    def real(name: str) -> str | None:
        return (report[name] or {}).get("decimal")

    if exp.series is not None:
        require(_agrees(real("series_value"), exp.series, digits), "series value")
    else:
        require(report["series_value"] is None, "series value where none is certified")
    if exp.value is not None:
        require(_agrees(real("gcf_value"), exp.value, digits), "gcf value")
    if exp.target is not None:
        require(_agrees(real("target_value"), exp.target, digits), "target value")
    return problems
