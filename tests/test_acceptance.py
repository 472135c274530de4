"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Expected values come from the independent oracles in oracles.py
(Machin pi, factorials, long division), never from the code under test.
"""

import json
import math
import time
from fractions import Fraction

from gcf_forge import (
    Coupling,
    find_couplings,
    parse_polynomial,
    ratio_certificate,
    verify_conjecture,
    verify_coupling,
)
from gcf_forge.cli import main

from oracles import (
    cascade_frames,
    central_binomial_sum,
    close_to,
    convergent_frames,
    eight_over_pi_squared,
    pi_squared_over_8,
    pi_squared_over_18,
)


def report(criterion: int, text: str) -> None:
    print(f"PASS: criterion {criterion} - {text}")


def series_terms(coupling, count: int) -> list[Fraction]:
    """t_0 .. t_{count-1} = C_k / D_k from the program's cascade."""
    return [Fraction(C, D) for C, D, _ in cascade_frames(coupling, count)]


# The quartic's frame scale is 1, so its frames (A'_n, B'_n) are (A_n, B_n) themselves.


def test_criterion_1_exact_reciprocal_identity(quartic_problem, quartic_coupling):
    started = time.perf_counter()
    rows = convergent_frames(quartic_problem, 200)
    sums = cascade_frames(quartic_coupling, 201)
    assert len(rows) == len(sums) == 201
    for n, ((A, B), (_, D, T)) in enumerate(zip(rows, sums)):
        # x_n S_n = 1 with x_n = A'_n / B'_n and S_n = T_n / D_n
        assert A * T == B * D, f"identity broke at n = {n}"
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"took {elapsed:.2f}s, budget is 5s"
    report(1, f"x_n * S_n = 1 exactly for n <= 200 ({elapsed:.2f}s)")


def test_criterion_2_coupling_recovery(quartic_a, quartic_b):
    found = find_couplings(quartic_a, quartic_b)
    expected = Coupling(c=parse_polynomial("n^2"), d=parse_polynomial("2*n^2 - n"))
    assert found == [expected], f"expected exactly one coupling, got {found}"
    assert verify_coupling(quartic_a, quartic_b, expected)
    report(2, "search returns exactly c = n^2, d = 2*n^2 - n, identities exact")


def test_criterion_3_constant_verification(problems_dir, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    started = time.perf_counter()
    code = main(
        [
            "verify",
            str(problems_dir / "eight_over_pi_squared.json"),
            "--digits",
            "50",
            "--json",
            str(report_path),
        ]
    )
    elapsed = time.perf_counter() - started
    capsys.readouterr()
    assert code == 0
    doc = json.loads(report_path.read_text())
    assert doc["verdict"] == "verified"
    assert doc["digits_matched"] >= 50
    assert doc["terms_used"] <= 400
    assert elapsed < 10.0, f"took {elapsed:.2f}s, budget is 10s"
    report(
        3,
        f"cmd_verify exits 0; {doc['digits_matched']} digits vs 8/pi^2 with "
        f"{doc['terms_used']} terms ({elapsed:.2f}s)",
    )


def test_criterion_4_ratio_certificate(quartic_coupling):
    cert = ratio_certificate(quartic_coupling)
    assert cert.numerator == parse_polynomial("(n + 1)^2")
    assert cert.denominator == parse_polynomial("(n + 2)*(2*n + 3)")
    assert cert.rho == Fraction(1, 2)
    ts = series_terms(quartic_coupling, 102)
    for k in range(101):
        assert ts[k + 1] / ts[k] == cert.numerator(k) / cert.denominator(k)
    report(4, "ratio is (k+1)^2/((k+2)(2k+3)), rho = 1/2, exact for k <= 100")


def test_criterion_5_closed_form_terms(quartic_coupling):
    ts = series_terms(quartic_coupling, 101)
    for k in range(101):
        reference = Fraction(
            2 ** (k + 1) * math.factorial(k) ** 2, math.factorial(2 * k + 2)
        )
        assert ts[k] == reference, f"term mismatch at k = {k}"
    report(5, "t_k = 2^(k+1) (k!)^2 / (2k+2)! exactly for k <= 100")


def test_criterion_6_central_binomial_cross_check():
    assert close_to(central_binomial_sum(2, 50), pi_squared_over_8(60), 50)
    assert close_to(central_binomial_sum(1, 30), pi_squared_over_18(40), 30)
    report(6, "sum(2) = pi^2/8 to 50 digits; sum(1) = pi^2/18 to 30 digits")


def test_criterion_7_casoratian_law(quartic_problem):
    frames = [(1, 0)] + convergent_frames(quartic_problem, 100)
    w = [A * Bp - Ap * B for (Ap, Bp), (A, B) in zip(frames, frames[1:])]
    assert w[0] == -1
    for n in range(1, 101):
        assert w[n] == -quartic_problem.a(n) * w[n - 1]
    assert verify_conjecture(quartic_problem, digits=10, depth=100).casoratian_depth == 100
    report(7, "W_0 = -1 and W_n = -a(n) W_{n-1} exactly for n <= 100")


def test_criterion_8_minimal_solution_collapse(quartic_problem, quartic_coupling):
    rows = convergent_frames(quartic_problem, 100)
    d, c = quartic_coupling.d, quartic_coupling.c
    numerator = [1] + [A for A, _ in rows]
    assert all(numerator[k + 1] == d(k + 1) * numerator[k] for k in range(101))

    product = Fraction(1)
    for n in range(101):
        product *= d(n + 1)
        assert numerator[n + 1] == product, f"product law broke at n = {n}"

    denominator = [0] + [B for _, B in rows]
    trace = [denominator[k + 1] - d(k + 1) * denominator[k] for k in range(101)]
    assert trace[0] == 1
    for k in range(1, 101):
        assert trace[k] == c(k) * trace[k - 1]

    verification = verify_conjecture(quartic_problem, digits=10, depth=100)
    assert verification.numerator_product_depth == verification.exact_identity_depth == 100
    report(8, "numerator trace = 0, A_n = prod d(j), denominator trace = prod c(j)")


def test_criterion_9_convergence_behavior(quartic_problem):
    xs = [Fraction(A, B) for A, B in convergent_frames(quartic_problem, 65)]
    assert all(earlier > later for earlier, later in zip(xs[:65], xs[1:66]))

    limit = eight_over_pi_squared(80)  # error < 10^-80, far below the gaps here
    ratio = abs(xs[65] - limit) / abs(xs[64] - limit)
    assert abs(ratio - Fraction(1, 2)) <= Fraction(1, 20), f"ratio was {float(ratio)}"
    report(
        9,
        f"x_n strictly decreasing to n = 64; error ratio {float(ratio):.4f} "
        "within 0.05 of 1/2",
    )
