"""Seeded inputs for the three benchmark workloads.

Every coupled input is built in Euler form from a generating coupling
(c, d) given as a leading coefficient and a list of rational roots:
a = -c*d, b = c + d(n+1), b0 = d(1). Keeping the roots lets the oracle sum
the induced series independently as a hypergeometric function. This module
uses only the standard library, so generating inputs never touches the
program under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction as F

Poly = tuple  # coefficients as Fractions, lowest degree first

# --- a small polynomial kit, independent of gcf_forge.poly -----------------


def poly_trim(coeffs) -> Poly:
    out = [F(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def poly_mul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return ()
    out = [F(0)] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return poly_trim(out)


def poly_add(p: Poly, q: Poly) -> Poly:
    out = [F(0)] * max(len(p), len(q))
    for i, x in enumerate(p):
        out[i] += x
    for i, y in enumerate(q):
        out[i] += y
    return poly_trim(out)


def poly_eval(p: Poly, n) -> F:
    acc = F(0)
    for c in reversed(p):
        acc = acc * n + c
    return acc


def poly_shift1(p: Poly) -> Poly:
    """q with q(n) = p(n + 1)."""
    acc: Poly = ()
    for c in reversed(p):
        acc = poly_add(poly_mul(acc, (F(1), F(1))), (c,))
    return acc


def poly_from_roots(lead: F, roots) -> Poly:
    out: Poly = (F(lead),)
    for r in roots:
        out = poly_mul(out, (-F(r), F(1)))
    return out


def poly_text(p: Poly) -> str:
    """Text in the program's polynomial grammar."""
    if not p:
        return "0"
    terms = []
    for k in range(len(p) - 1, -1, -1):
        c = p[k]
        if c == 0:
            continue
        power = "" if k == 0 else ("*n" if k == 1 else f"*n^{k}")
        terms.append(f"({c}){power}")
    return " + ".join(terms)


# --- jobs ------------------------------------------------------------------


@dataclass(frozen=True)
class Coupling:
    """c(n) = c_lead * prod(n - r), d(n) = d_lead * prod(n - s)."""

    c_lead: F
    c_roots: tuple
    d_lead: F
    d_roots: tuple

    @property
    def c(self) -> Poly:
        return poly_from_roots(self.c_lead, self.c_roots)

    @property
    def d(self) -> Poly:
        return poly_from_roots(self.d_lead, self.d_roots)


@dataclass(frozen=True)
class ClosedForm:
    """The value is scale * (family constant at z); see oracle.closed_form."""

    family: str  # "asin2" or "asin"
    z: F
    scale: F
    perturbed: bool


@dataclass(frozen=True)
class Job:
    key: str
    b0: F
    a: Poly
    b: Poly
    target: str | None = None
    coupling: Coupling | None = None
    closed: ClosedForm | None = None

    def problem_document(self) -> dict:
        doc = {"name": self.key, "b0": str(self.b0), "a": poly_text(self.a), "b": poly_text(self.b)}
        if self.target is not None:
            doc["target"] = self.target
        return doc


def euler_job(key: str, coupling: Coupling, target=None, closed=None) -> Job:
    c, d = coupling.c, coupling.d
    a = tuple(-x for x in poly_mul(c, d))
    b = poly_add(c, poly_shift1(d))
    return Job(key, poly_eval(d, 1), a, b, target, coupling, closed)


# The two closed-form families (rho = z/4 and z/2). Only these z make the
# value a rational multiple of pi^-1 or pi^-2 with sqrt(3), which the
# target grammar can express.
FAMILY_TARGETS = {
    ("asin2", F(1)): "9/pi^2",
    ("asin2", F(2)): "8/pi^2",
    ("asin2", F(3)): "27/(4*pi^2)",
    ("asin", F(1, 2)): "3*sqrt(3)/(2*pi)",
    ("asin", F(1)): "2/pi",
    ("asin", F(3, 2)): "3*sqrt(3)/(4*pi)",
}


def closed_form_job(key: str, family: str, z: F, scale: F = F(1), perturbed: bool = False) -> Job:
    if family == "asin2":  # c = (z/2) n^2, d = 2n^2 - n
        coupling = Coupling(scale * z / 2, (0, 0), 2 * scale, (0, F(1, 2)))
    else:  # c = z n, d = 2n - 1
        coupling = Coupling(scale * z, (0,), 2 * scale, (F(1, 2),))
    target = FAMILY_TARGETS[(family, z)]
    if scale != 1:
        target = f"({scale})*({target})"
    if perturbed:
        target = f"{target} + 1/10^15"
    return euler_job(key, coupling, target, ClosedForm(family, z, scale, perturbed))


def closed_form_six() -> list[Job]:
    return [
        closed_form_job(f"{family}-z{str(z).replace('/', '_')}", family, z)
        for family, z in FAMILY_TARGETS
    ]


# --- screening corpus --------------------------------------------------------

# Roots below 1 keep c(n), d(n) > 0 for n >= 1, so every term of the induced
# series is positive: no partial sum (hence no B_n) can vanish, and a(n) has
# no zero at a positive integer.
_SAFE_ROOTS = (F(0), F(-1), F(-2), F(-3), F(1, 2), F(-1, 2), F(1, 3), F(2, 3), F(-3, 2), F(-5, 2))
_CONVERGENT_RHOS = (F(0), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(3, 4))
_DIVERGENT_RHOS = (F(3, 2), F(2), F(5, 2), F(4))


def _euler_random(rng: random.Random, key: str, rho) -> Job:
    """A random positive coupling whose term ratio tends to rho (None: infinite)."""
    deg_d = rng.choice((1, 2))
    if rho is None:
        deg_c = deg_d + 1
    elif rho == 0:
        deg_c = deg_d - 1
    else:
        deg_c = deg_d
    d_lead = F(rng.randint(1, 4))
    c_lead = d_lead * rho if rho else F(rng.randint(1, 4))
    coupling = Coupling(
        c_lead,
        tuple(rng.choice(_SAFE_ROOTS) for _ in range(deg_c)),
        d_lead,
        tuple(rng.choice(_SAFE_ROOTS) for _ in range(deg_d)),
    )
    return euler_job(key, coupling)


def screening_corpus(seed: int) -> list[Job]:
    """About 200 small jobs; the mix is fixed, the parameters come from the seed.

    Costly parameters (the large root K, the onset width q) are drawn around
    fixed grid points, so the corpus cost barely depends on the seed.
    """
    rng = random.Random(seed)
    # Euler form over the four ratio classes
    jobs = [_euler_random(rng, f"conv-{i}", _CONVERGENT_RHOS[i % 6]) for i in range(60)]
    jobs += [_euler_random(rng, f"div-{i}", _DIVERGENT_RHOS[i % 4]) for i in range(20)]
    jobs += [_euler_random(rng, f"unit-{i}", F(1)) for i in range(16)]
    jobs += [_euler_random(rng, f"inf-{i}", None) for i in range(16)]

    # family members, scaled by a random rational, with the true target and
    # with the target perturbed by 1e-15
    families = list(FAMILY_TARGETS)
    for perturbed in (False, True):
        for i in range(24):
            family, z = families[i % 6]
            scale = F(rng.randint(1, 9), rng.randint(1, 9))
            tag = "off" if perturbed else "true"
            jobs.append(closed_form_job(f"member-{tag}-{i}", family, z, scale, perturbed))

    # no coupling: -a is an irreducible quadratic, b is linear, so any split
    # leaves c + d(n+1) of degree 2 against a linear b
    for i in range(20):
        a = (F(rng.randint(1, 9)), F(0), F(rng.randint(1, 9)))
        b = (F(rng.randint(1, 9)), F(rng.randint(1, 9)))
        jobs.append(Job(f"nocoupling-{i}", F(rng.randint(0, 3)), a, b))

    # divergent couplings with a factor (n + K) in c: the rational-root
    # search in poly divides trial divisors up to sqrt(K)
    for i in range(16):
        K = 10 ** (3 + 6 * i // 15) + rng.randint(1, 99)
        s = rng.choice(_SAFE_ROOTS)
        if i % 2:  # infinite rho
            coupling = Coupling(F(rng.randint(1, 3)), (-K, rng.choice(_SAFE_ROOTS)), F(1), (s,))
        else:  # rho = 2
            coupling = Coupling(F(2), (-K,), F(1), (s,))
        jobs.append(euler_job(f"bigroot-{i}", coupling))

    # onset-heavy: c = const, d = n (n + q); the Cauchy root bound forces
    # about 2q exact terms before the geometric tail certificate applies
    for i in range(6):
        q = 50 * (i + 1) + rng.randint(0, 4)
        coupling = Coupling(F(rng.randint(1, 5)), (), F(1), (F(0), F(-q)))
        jobs.append(euler_job(f"onset-{i}", coupling))
    return jobs
