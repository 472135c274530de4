import sys
from fractions import Fraction
from pathlib import Path

import pytest

from gcf_forge import Coupling, GcfProblem, Polynomial

sys.path.insert(0, str(Path(__file__).resolve().parent))

PROBLEMS_DIR = Path(__file__).resolve().parent.parent / "problems"


@pytest.fixture
def quartic_a() -> Polynomial:
    # -(2n^4 - n^3)
    return Polynomial([0, 0, 0, 1, -2])


@pytest.fixture
def quartic_b() -> Polynomial:
    # 3n^2 + 3n + 1
    return Polynomial([1, 3, 3])


@pytest.fixture
def quartic_problem(quartic_a, quartic_b) -> GcfProblem:
    return GcfProblem(b0=Fraction(1), a=quartic_a, b=quartic_b)


@pytest.fixture
def quartic_coupling() -> Coupling:
    # c = n^2, d = 2n^2 - n
    return Coupling(c=Polynomial([0, 0, 1]), d=Polynomial([0, -1, 2]))


@pytest.fixture
def problems_dir() -> Path:
    return PROBLEMS_DIR
