import cmath
import math

import pytest

from _oracles import (
    EtaParams,
    GapCheckResult,
    eta1,
    eta1_closed,
    eta1_prime,
    eta1_quadrature,
    riemann_gap_check,
)
from hsketch.errors import DomainError
from hsketch.special import gamma_fn


def test_gamma_exact_identities():
    assert gamma_fn(1.0) == pytest.approx(1.0, rel=1e-12)
    assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-12)
    assert gamma_fn(5.0) == pytest.approx(24.0, rel=1e-12)


def test_gamma_against_stdlib():
    # math.gamma is an independent implementation (libm)
    xs = [x / 16 for x in range(-16, 81) if x / 16 > -1.0001]
    for x in xs:
        if x <= 0 and x == int(x):
            continue
        assert gamma_fn(x) == pytest.approx(math.gamma(x), rel=1e-10)


def test_gamma_negative_third_via_recurrence():
    # Gamma(-1/3) = -3 Gamma(2/3), with Gamma(2/3) computed independently
    g23 = math.gamma(2.0 / 3.0)
    assert gamma_fn(-1.0 / 3.0) == pytest.approx(-3.0 * g23, rel=1e-10)
    assert gamma_fn(-1.0 / 3.0) == pytest.approx(-4.0623538, rel=1e-6)


def test_gamma_poles_rejected():
    for x in (0.0, -1.0, -2.0, -7.0):
        with pytest.raises(DomainError):
            gamma_fn(x)


def test_gamma_recurrence_grid():
    xs = [-0.9 + 0.05 * i for i in range(60)]
    for x in xs:
        if abs(x) < 1e-9 or (x < 0 and abs(x - round(x)) < 1e-9):
            continue
        assert abs(gamma_fn(x + 1.0) - x * gamma_fn(x)) <= 1e-10 * abs(gamma_fn(x + 1.0))


def test_gamma_reflection_grid():
    for i in range(1, 20):
        x = i / 20
        lhs = gamma_fn(x) * gamma_fn(1.0 - x)
        rhs = math.pi / math.sin(math.pi * x)
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_gamma_tau_star_cross_check():
    tau = 0.34355
    via_reflection = math.pi / (math.sin(math.pi * tau) * gamma_fn(1.0 - tau))
    assert gamma_fn(tau) == pytest.approx(via_reflection, rel=1e-9)


def test_eta_params_validation():
    with pytest.raises(DomainError):
        EtaParams(a=-1.0 + 0j, b=1.0 + 0j, c=0.5)
    with pytest.raises(DomainError):
        EtaParams(a=0j, b=1.0 + 0j, c=1.5)
    with pytest.raises(DomainError):
        EtaParams(a=0j, b=1.0 + 0j, c=0.0)


def test_eta1_closed_antisymmetry():
    p = EtaParams(a=2.0 + 1.0j, b=2.0 + 1.0j, c=1.0 / 3.0)
    assert eta1_closed(p) == 0


def test_eta1_closed_cardinality_kernel():
    # (a, b, c) = (0, lam, 1/3) integrates to -lam^{1/3} Gamma(-1/3) > 0
    lam = 50.0
    p = EtaParams(a=0j, b=complex(lam), c=1.0 / 3.0)
    got = eta1_closed(p)
    assert got.imag == pytest.approx(0.0, abs=1e-12)
    assert got.real == pytest.approx(-(lam ** (1.0 / 3.0)) * gamma_fn(-1.0 / 3.0), rel=1e-12)
    assert got.real > 0


def test_eta1_closed_half_exponent():
    # c = 1/2, a = 0, b = 1: integral is -Gamma(-1/2) = 2 sqrt(pi)
    p = EtaParams(a=0j, b=1.0 + 0j, c=0.5)
    assert eta1_closed(p).real == pytest.approx(2.0 * math.sqrt(math.pi), rel=1e-12)


@pytest.mark.parametrize("a", [0j, 1.0 + 0j, 2.0 + 1.0j])
@pytest.mark.parametrize("b", [1.0 + 0j, 5.0 + 0j])
@pytest.mark.parametrize("c", [1.0 / 3.0, 2.0 / 3.0])
def test_eta1_closed_matches_quadrature(a, b, c):
    params = EtaParams(a=a, b=b, c=c)
    closed = eta1_closed(params)
    quad = eta1_quadrature(params, tolerance=1e-9)
    assert abs(closed - quad) <= 1e-6 * max(1.0, abs(closed))


def test_eta1_quadrature_equal_params():
    p = EtaParams(a=3.0 + 0j, b=3.0 + 0j, c=0.5)
    assert abs(eta1_quadrature(p, tolerance=1e-9)) <= 1e-9


def test_riemann_gap_eta_kernel():
    params = EtaParams(a=0j, b=1.0 + 0j, c=1.0 / 3.0)
    result = riemann_gap_check(
        lambda x: eta1(x, params), lambda x: eta1_prime(x, params), m=8
    )
    assert isinstance(result, GapCheckResult)
    assert result.holds


def test_riemann_gap_zero_function():
    result = riemann_gap_check(lambda x: 0.0, lambda x: 0.0, m=4)
    assert result.integral_gap == pytest.approx(0.0, abs=1e-12)
    assert result.holds


@pytest.mark.parametrize("m", [2, 8, 32])
def test_riemann_gap_gaussian(m):
    h = lambda x: cmath.exp(-x * x)
    hp = lambda x: -2.0 * x * cmath.exp(-x * x)
    result = riemann_gap_check(h, hp, m=m, lo=-12.0, hi=12.0)
    assert result.holds
