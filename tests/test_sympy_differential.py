"""Cyclotomic products, quotients and ranks against sympy's number fields.

Skipped when sympy is not installed.  Elements of Z[zeta_m] are compared
as polynomials in x mod Phi_m over QQ, a quotient or an inverse by its
product with the divisor; ranks are taken by sympy's DomainMatrix over the
field Q[x]/Phi_m.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
from sympy.polys.agca.extensions import FiniteExtension  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402

import datasets  # noqa: E402
from jumploci.fox import (alexander_matrix, parse_presentation,  # noqa: E402
                          rank_at_character)
from jumploci.laurent import (CyclotomicNumber,  # noqa: E402
                              cyclotomic_polynomial)
from jumploci.tori import TorsionCharacter  # noqa: E402

F = Fraction
X = sympy.Symbol("x")
ORDERS = [3, 5, 12, 101, 202]


def modulus(m):
    return sympy.Poly(sympy.cyclotomic_poly(m, X), X, domain=sympy.QQ)


def to_sympy(z):
    return sympy.Poly(list(reversed(z.num)), X, domain=sympy.QQ)


def from_sympy(poly, m):
    phi = len(cyclotomic_polynomial(m)) - 1
    coeffs = [int(c) for c in reversed(poly.all_coeffs())]
    return CyclotomicNumber(m, coeffs + [0] * (phi - len(coeffs)))


def random_element(rng, m, big):
    phi = len(cyclotomic_polynomial(m)) - 1
    bound = 2 ** 20 if big else 4
    return CyclotomicNumber(m, [rng.randint(-bound, bound)
                                if rng.random() < 0.7 else 0
                                for _ in range(phi)])


@pytest.mark.parametrize("m", ORDERS)
def test_products_and_inverses_match_sympy(m):
    # sympy.invert runs a Euclid over QQ that takes minutes at m = 101, so
    # a quotient q of a by b is checked by q * b = a mod Phi_m
    rng = random.Random(m)
    mod = modulus(m)
    one = CyclotomicNumber.zeta_power(m, 0)
    for trial in range(4):
        a, b = random_element(rng, m, trial % 2), random_element(rng, m, False)
        product = a * b
        assert product == from_sympy((to_sympy(a) * to_sympy(b)).rem(mod), m)
        if not b:
            continue
        q, rest = divmod(product, b)
        assert not rest and q == a
        assert (to_sympy(q) * to_sympy(b)).rem(mod) == to_sympy(product)
        # 2 b is no divisor of a 2 b + 1, since 2 is no unit
        q, rest = divmod(product * 2 + one, b * 2)
        assert rest
        assert (to_sympy(q) * to_sympy(b * 2) + to_sympy(rest)).rem(mod) == \
            to_sympy(product * 2 + one)
    # a unit: zeta^k (1 + zeta + ... + zeta^(a-1)), a prime to m, divides 1
    unit = CyclotomicNumber.zeta_power(m, rng.randrange(m)) * sum(
        (CyclotomicNumber.zeta_power(m, i) for i in range(m - 1)), 0 * one)
    inverse, rest = divmod(one, unit)
    assert not rest
    assert (to_sympy(inverse) * to_sympy(unit)).rem(mod) == 1


@pytest.mark.parametrize("m", ORDERS)
def test_rank_at_character_matches_sympy(m):
    rng = random.Random(100 + m)
    field = FiniteExtension(modulus(m))
    zeta = field.convert(X)
    for text in (datasets.CLOSED_OMEGA_PRES, datasets.ONE_RELATOR_PRES):
        M = alexander_matrix(parse_presentation(text))
        for _ in range(2):
            lam = [F(rng.randrange(m), m) for _ in range(M.num_vars)]
            if rng.random() < 0.5:
                lam[0] = F(0)                 # points where the rank drops
            steps = [int(x * m) for x in lam]
            rows = []
            for row in M.entries:
                rows.append([])
                for f in row:
                    value = field.zero
                    for e, c in f.terms.items():
                        k = sum(a * s for a, s in zip(e, steps)) % m
                        value += field.convert(
                            sympy.Rational(c.numerator, c.denominator)) * zeta ** k
                    rows[-1].append(value)
            expected = DomainMatrix(rows, (len(rows), len(rows[0])), field).rank()
            assert rank_at_character(M, TorsionCharacter(steps, m)) == expected
