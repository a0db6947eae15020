"""Exact polynomial layer: recurrences, integration, orthogonality."""

import random
from fractions import Fraction

import pytest

from oracles import definite_integral, poly_antiderivative_from, poly_mul

from itolegendre.polycore import ONE, Poly, X, legendre

F = Fraction


def test_legendre_base_cases():
    assert legendre(0) == Poly([1])
    assert legendre(1) == Poly([0, 1])
    # expanded by hand from the recurrence: (3 x^2 - 1) / 2
    assert legendre(2) == Poly([F(-1, 2), 0, F(3, 2)])


@pytest.mark.parametrize("n", range(13))
def test_legendre_endpoint_values(n):
    p = legendre(n)
    assert p(1) == 1
    assert p(-1) == (-1) ** n


@pytest.mark.parametrize("n", range(13))
@pytest.mark.parametrize("m", range(13))
def test_legendre_orthogonality_exact(n, m):
    value = definite_integral(poly_mul(legendre(n), legendre(m)), -1, 1)
    assert value == (F(2, 2 * n + 1) if n == m else 0)


def test_legendre_rejects_negative_degree():
    with pytest.raises(ValueError):
        legendre(-1)


def test_poly_mul_examples():
    assert poly_mul(X, X) == Poly([0, 0, 1])
    # P_1 * P_1 expands to x^2 as well
    assert poly_mul(legendre(1), legendre(1)) == Poly([0, 0, 1])
    p = Poly([F(1, 3), 2, F(7, 5)])
    assert poly_mul(ONE, p) == p
    assert poly_mul(p, Poly()) == Poly()


def test_poly_mul_degree_law():
    a = Poly([1, 2, 3])
    b = Poly([F(1, 2), 0, 0, 4])
    assert poly_mul(a, b).degree == a.degree + b.degree


def test_canonical_form_strips_trailing_zeros():
    assert Poly([1, 2, 0, 0]) == Poly([1, 2])
    assert Poly([0, 0]) == Poly()
    assert Poly().degree == -1
    assert not Poly()
    assert Poly([F(2, 4)]).coefficients == (F(1, 2),)


def test_antiderivative_examples():
    assert poly_antiderivative_from(ONE, -1) == Poly([1, 1])
    # integral of P_1 from -1: (x^2 - 1) / 2
    assert poly_antiderivative_from(legendre(1), -1) == \
        Poly([F(-1, 2), 0, F(1, 2)])
    # integral of P_2 from -1: (x^3 - x) / 2, vanishing at both endpoints
    f = poly_antiderivative_from(legendre(2), -1)
    assert f == Poly([0, F(-1, 2), 0, F(1, 2)])
    assert f(1) == 0 and f(-1) == 0


def test_antiderivative_then_derivative_round_trip():
    rng = random.Random(7)
    for _ in range(25):
        coeffs = [F(rng.randint(-50, 50), rng.randint(1, 20))
                  for _ in range(rng.randint(0, 9))]
        p = Poly(coeffs)
        lower = F(rng.randint(-3, 3), rng.randint(1, 5))
        f = poly_antiderivative_from(p, lower)
        assert f.derivative() == p
        assert f(lower) == 0


def test_definite_integral_examples():
    assert definite_integral(ONE, -1, 1) == 2
    assert definite_integral(poly_mul(legendre(1), legendre(1)), -1, 1) == F(2, 3)
    assert definite_integral(poly_mul(legendre(1), legendre(2)), -1, 1) == 0


def test_definite_integral_rejects_reversed_bounds():
    with pytest.raises(ValueError):
        definite_integral(ONE, 1, -1)


def test_evaluation_is_exact_at_rationals():
    p = Poly([F(1, 3), F(-2, 7), 5])
    x = F(9, 4)
    assert p(x) == F(1, 3) - F(2, 7) * x + 5 * x * x


def test_pipelines_are_deterministic():
    def pipeline():
        p = poly_mul(legendre(7), legendre(5))
        f = poly_antiderivative_from(p, F(-1))
        return f(F(3, 7)), f.coefficients

    assert pipeline() == pipeline()
