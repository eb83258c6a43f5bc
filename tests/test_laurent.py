"""Laurent polynomials, cyclotomic numbers, coset restriction, Bareiss rank."""

import math
import random
import re
import sys
from fractions import Fraction

import pytest

import builders
import oracles
from jumploci.fox import alexander_matrix, parse_presentation
from jumploci.laurent import (
    CyclotomicNumber,
    MAX_VARIABLES,
    LaurentPoly,
    bareiss_rank,
    TermTable,
    cyclotomic_polynomial,
    zeta_height,
)
from jumploci.laurent import _conjugate_product, _convolve, _ring_mul
from jumploci.qlinalg import RationalSubspace
from suites import (character, fraction_values, laurent_poly_from_json,
                    restricted_to_coset)

F = Fraction


def rand_poly(rng, num_vars, max_terms=5, span=3):
    """Random terms with small int coefficients."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = tuple(rng.randint(-span, span) for _ in range(num_vars))
        c = rng.choice([-3, -2, -1, 1, 2, 3])
        terms[e] = terms.get(e, 0) + c
    return LaurentPoly(num_vars, terms)


def embed(f, order):
    """f with each int coefficient taken into Z[zeta_order]."""
    return LaurentPoly._make(f.num_vars, {
        e: builders.cyclotomic(order, c) for e, c in f.terms.items()})


def rand_cyclo_poly(rng, num_vars, order, max_terms=3, span=2):
    """Random terms whose coefficients are small sums of powers of zeta."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = tuple(rng.randint(-span, span) for _ in range(num_vars))
        c = sum((rng.choice([-2, -1, 1, 3]) * CyclotomicNumber.zeta_power(
            order, rng.randrange(order)) for _ in range(rng.randint(1, 2))),
            builders.cyclotomic(order, 0))
        if c:
            terms[e] = c
    return LaurentPoly._make(num_vars, terms)


# ---------------------------------------------------------------------------
# rational Laurent polynomials
# ---------------------------------------------------------------------------

def test_arithmetic_and_text_rendering():
    t1, t2 = builders.variables(2)
    f = (t1 - 1) * (t2 + 1)
    assert f.to_text() == "-1 - t2 + t1 + t1*t2"
    assert (t1 * t1 - 1).to_text() == "-1 + t1^2"
    assert t1.shift((-3, 0)).to_text() == "t1^-2"
    assert LaurentPoly(2, {}).to_text() == "0"
    assert (t1 - t1).is_zero()
    assert (F(1, 2) * t2).to_text() == "1/2*t2"


def test_parse_round_trips_text():
    rng = random.Random(31)
    for _ in range(80):
        f = rand_poly(rng, rng.randint(1, 3))
        assert LaurentPoly.parse(f.to_text(), f.num_vars) == f


def test_parse_handles_implicit_products_and_signs():
    f = LaurentPoly.parse("t1^2*t2^-1 - 3/2*t3 + 1")
    assert f.num_vars == 3
    assert f.terms[(2, -1, 0)] == 1
    assert f.terms[(0, 0, 1)] == F(-3, 2)
    assert f.terms[(0, 0, 0)] == 1
    assert LaurentPoly.parse("-t1") == -builders.monomial([1])
    assert LaurentPoly.parse("2", 2) == builders.constant(2, 2)


def test_parse_errors_carry_positions():
    with pytest.raises(ValueError):
        LaurentPoly.parse("t1 + + t2")
    with pytest.raises(ValueError):
        LaurentPoly.parse("t0 + 1")
    with pytest.raises(ValueError):
        LaurentPoly.parse("t2", num_vars=1)
    with pytest.raises(ValueError):
        LaurentPoly.parse("x1 + 1")


def _outcome(parse, text, num_vars=None):
    """``(num_vars, terms in order)``, or ``(error type, message)``."""
    try:
        nv, terms = parse(text, num_vars)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc).__name__, str(exc)
    return nv, list(terms.items())


def _library(text, num_vars=None):
    f = LaurentPoly.parse(text, num_vars)
    return f.num_vars, f.terms


def _bench_text(rng, nv, coeffs):
    """The benchmark's text shape: ``2*t1^-1*t2 - t3 + 1/2``."""
    exps = sorted({tuple(rng.randint(-2, 2) for _ in range(nv))
                   for _ in coeffs})
    parts = []
    for e, c in zip(exps, rng.sample(coeffs, len(exps))):
        mono = "*".join(f"t{i + 1}" + (f"^{k}" if k != 1 else "")
                        for i, k in enumerate(e) if k)
        body = f"{abs(c)}*{mono}" if mono else str(abs(c))
        parts.append(("- " if c < 0 else "+ ") + body)
    return " ".join(parts).lstrip("+ ")


def _spaced(rng, text):
    """Whitespace of several kinds inserted next to the operators."""
    out = []
    for i, ch in enumerate(text):
        if ch in "+-*^" or (i and text[i - 1] in "+-*^"):
            out.append(rng.choice(["", " ", "  ", "\t", "\n", "\u00a0"]))
        out.append(ch)
    return "".join(out)


def _valid_texts():
    rng = random.Random(41)
    texts = []
    for _ in range(60):
        coeffs = rng.choice([(1, 1, -1, -1), (2, -1, -1, 1, -1),
                             (F(1, 2), F(1, 2), -1, 3, -3),
                             (1, 1, 1, 1, 1, -1, -1, -1, -2)])
        texts.append(_bench_text(rng, rng.randint(1, 4), list(coeffs)))
    for _ in range(60):
        nv = rng.randint(1, 3)
        terms = {tuple(rng.randint(-3, 3) for _ in range(nv)):
                 F(rng.randint(-7, 7), rng.randint(1, 4)) for _ in range(4)}
        texts.append(LaurentPoly(nv, terms).to_text())
    variants = []
    for text in texts:
        variants += [text.replace("*", ""), text.replace(" ", ""),
                     _spaced(rng, text)]
    return texts + variants + [
        "t1^ - 2", "t1 ^-2 * t2", "t1^6/2", "t1^-6/3 - t1^-2", "t1^0",
        "3/4*t1 - 3/4", "1/2 3/4 t1 - 3/8 t1", "007*t1^010", "2 3 t1t2",
        "t1*t1^-1*t2", "t1 + t1 - 2", "t1 - t1", "t3^1*t3^-1 + t2", "*t1",
        "t1* *2", "2*", "-t1", "+ t1 - 1", "", "   ", "0", "0*t4",
        "t1\u2003+\u00a0t2", "\u0663*t1 - 3", "t\u0662 - t1"]


def test_parse_matches_the_reference_parser_on_valid_text():
    for text in _valid_texts():
        expected = _outcome(oracles.oracle_parse_poly, text)
        assert isinstance(expected[0], int), (text, expected)
        assert _outcome(_library, text) == expected, text
        for num_vars in (expected[0], expected[0] + 2):
            assert (_outcome(_library, text, num_vars)
                    == _outcome(oracles.oracle_parse_poly, text, num_vars)), text


def _term_text(c, exps):
    """One signed term ``c*t_i^k*...`` of a generated text."""
    mono = "*".join(f"t{i}" + (f"^{k}" if k != 1 else "") for i, k in exps)
    body = str(abs(c))
    if mono:
        body = mono if abs(c) == 1 else f"{body}*{mono}"
    return ("- " if c < 0 else "+ ") + body


def test_parse_is_the_reference_parser_term_by_term():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    coeffs = st.one_of(st.integers(-9, 9),
                       st.fractions(-9, 9, max_denominator=6))
    terms = st.lists(st.tuples(coeffs, st.lists(
        st.tuples(st.integers(1, 3), st.integers(-2, 2)), max_size=3)),
        max_size=7)

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(terms)
    def check(terms):
        text = " ".join(_term_text(c, exps) for c, exps in terms)
        num_vars, expected = oracles.oracle_parse_poly(text)
        f = LaurentPoly.parse(text)
        assert f.num_vars == num_vars
        # the same terms in the same order, integral ones as ints
        assert list(f.terms.items()) == list(expected.items()), text
        assert all((type(c) is int) == (c.denominator == 1)
                   for c in f.terms.values()), text
        as_fractions = LaurentPoly(num_vars,
                                   {e: F(c) for e, c in expected.items()})
        assert f.to_text() == as_fractions.to_text()
        assert f.to_json() == as_fractions.to_json()

    check()


def test_parse_drops_cancelled_terms_and_keeps_integral_coefficients_int():
    cases = {"t1 - t1 + 1": [((0,), 1)],
             "1/2*t1 + 1/2 - t1": [((1,), F(-1, 2)), ((0,), F(1, 2))],
             "1/2*t1 + 1/2*t1 - t1 + 2/2": [((0,), 1)],
             "3/2*t2 - 1/2*t2 + 4/6": [((0, 1), 1), ((0, 0), F(2, 3))],
             "t1 - t1": []}
    for text, expected in cases.items():
        f = LaurentPoly.parse(text)
        assert list(f.terms.items()) == expected, text
        assert [type(c) for c in f.terms.values()] == [
            type(c) for _, c in expected], text
    # integer and Fraction coefficients print alike
    ints = LaurentPoly(2, {(1, 0): -3, (0, 1): 1, (0, 0): 2})
    fracs = LaurentPoly(2, {e: F(c) for e, c in ints.terms.items()})
    assert ints == fracs
    assert ints.to_text() == fracs.to_text() == "2 + t2 - 3*t1"
    assert ints.to_json() == fracs.to_json()
    assert [type(c) for c in ints.terms.values()] == [int] * 3


INVALID_TEXTS = [
    "t1 + + t2", "t0 + 1", "x1 + 1", "1/ + t1", "t1^", "t1^ ", "t1^t2",
    "t1^+2", "t1^--2", "t1^ - - 2", "t1^1/2", "t1^-6/4 - 1", "2^3", "t1^2^3",
    "t1*^2", "^2", "t1 + ^2", "+", "-", "t1 +", "t1 + *", "* + t1", "+ - t1",
    "1/0*t1", "t1^3/0", "t1 + + 1/0", "t1 + + t2 $", "t1^1/2 + $",
    "t1^1/2 t0", "t0 t1^1/2", "1 /2", "1/2/3", "t1/2", "t", "t x", "T1",
    "t1 + 2$", "t1.5", "t\u00b2", "1\u00b2*t1", "t1^\u00b2", "t1\u00b2",
    "1/2\u00b2", "t1 - " + "1" * 5000, "t1^" + "2" * 5000 + " + + 1",
    "0" * 4400 + "/ - 1", "t1 - " + "7" * 4400, "t" + "0" * 4400 + "1",
    "2/" + "3" * 4400 + " t1", "t1 + + " + "5" * 4400]


def _mutants(rng, text, count):
    """Texts one insertion, deletion or replacement away from text."""
    out = []
    while len(out) < count:
        i = rng.randrange(len(text) + 1)
        ch = rng.choice("+-*^/ t01x$.\t")
        kind = rng.randrange(3) if text else 0
        i = min(i, len(text) - (kind > 0))
        mutant = text[:i] + (ch if kind != 1 else "") + text[i + (kind > 0):]
        # indices over the variable limit are refused by the library alone
        if all(int(k) <= MAX_VARIABLES for k in re.findall(r"t(\d+)", mutant)):
            out.append(mutant)
    return out


def test_parse_errors_match_the_reference_parser():
    rng = random.Random(43)
    texts = list(INVALID_TEXTS)
    for text in _valid_texts()[:120]:
        texts += _mutants(rng, text, 4)
    errors = 0
    for text in texts:
        expected = _outcome(oracles.oracle_parse_poly, text)
        errors += isinstance(expected[0], str)
        assert _outcome(_library, text) == expected, text
    assert errors > len(texts) // 2
    for text, num_vars in (("t2", 1), ("t1", 0), ("5", -1), ("", -1),
                           ("t1 + + t2", 1)):
        assert (_outcome(_library, text, num_vars)
                == _outcome(oracles.oracle_parse_poly, text, num_vars))


def test_parse_errors_on_zero_denominators_and_other_digits_give_a_position():
    cases = [t for t in INVALID_TEXTS if "/0" in t or "\u00b2" in t]
    assert len(cases) == 8
    for text in cases:
        with pytest.raises(ValueError, match="position") as info:
            LaurentPoly.parse(text)
        assert type(info.value) is ValueError, text
    with pytest.raises(ValueError, match="^zero denominator at position 5$"):
        LaurentPoly.parse("t1 - 1/0")
    with pytest.raises(ValueError,
                       match="^unexpected character '\u00b2' at position 2$"):
        LaurentPoly.parse("t1\u00b2 - 1")


def test_parse_errors_on_over_long_numbers_give_a_position():
    # int() refuses digit runs past sys.get_int_max_str_digits(); the
    # parser reports where the run starts, in token order
    cases = [t for t in INVALID_TEXTS if len(t) > 4300]
    assert len(cases) == 7
    for text in cases:
        with pytest.raises(ValueError, match="position"):
            LaurentPoly.parse(text)
    too_long = f"^a number of more than {sys.get_int_max_str_digits()} digits"
    with pytest.raises(ValueError, match=too_long + " at position 5$"):
        LaurentPoly.parse("t1 - " + "7" * 4400)
    # a bad token comes before a misplaced one, wherever it stands
    with pytest.raises(ValueError, match=too_long + " at position 7$"):
        LaurentPoly.parse("t1 + + " + "5" * 4400)
    with pytest.raises(ValueError, match="^bad rational at position 0$"):
        LaurentPoly.parse("0" * 4400 + "/ - 1")


def test_parse_refuses_variables_over_the_limit():
    top = MAX_VARIABLES
    f = LaurentPoly.parse(f"t{top} - 1")
    assert f.num_vars == top and f.terms[(0,) * (top - 1) + (1,)] == 1
    with pytest.raises(ValueError, match=(
            f"variable t{top + 1} at position 5 is above MAX_VARIABLES = {top}")):
        LaurentPoly.parse(f"t1 + t{top + 1}^2 - 2")
    # the limit is checked as the token is read, before a later syntax error
    with pytest.raises(ValueError, match="t100000 at position 0"):
        LaurentPoly.parse("t100000 + + 1")
    with pytest.raises(ValueError, match=f"num_vars={top + 1} is above"):
        LaurentPoly.parse("t1 - 1", top + 1)


def test_support_and_coefficient_sum():
    f = LaurentPoly.parse("t1 + t2 - 2")
    assert sorted(f.terms) == [(0, 0), (0, 1), (1, 0)]
    assert f.coefficient_sum() == 0
    assert LaurentPoly.parse("t1 + t2").coefficient_sum() == 2


def test_json_round_trip():
    rng = random.Random(32)
    for _ in range(40):
        f = rand_poly(rng, rng.randint(1, 3))
        assert laurent_poly_from_json(f.to_json()) == f
    data = LaurentPoly.parse("t1 - 1").to_json()
    data["terms"][1]["coeff"] = "-1/0"
    with pytest.raises(ValueError, match="a polynomial's term 1 'coeff' "
                                         "has a zero denominator"):
        laurent_poly_from_json(data)


def test_multiplication_agrees_with_complex_evaluation():
    rng = random.Random(33)
    for _ in range(30):
        n = rng.randint(1, 2)
        f, g = rand_poly(rng, n), rand_poly(rng, n)
        point = tuple(oracles.unit_root(F(rng.randint(0, 11), 12)) for _ in range(n))
        lhs = oracles.eval_laurent_complex((f * g).terms, point)
        rhs = (oracles.eval_laurent_complex(f.terms, point)
               * oracles.eval_laurent_complex(g.terms, point))
        assert abs(lhs - rhs) < 1e-8


# ---------------------------------------------------------------------------
# cyclotomic polynomials and numbers
# ---------------------------------------------------------------------------

def test_cyclotomic_polynomial_small_values():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_polynomials_multiply_to_x_m_minus_1():
    for m in [1, 2, 4, 6, 9, 12, 15, 30, 105, 202]:
        prod = [1]
        for d in range(1, m + 1):
            if m % d == 0:
                phi_d = list(cyclotomic_polynomial(d))
                out = [0] * (len(prod) + len(phi_d) - 1)
                for i, a in enumerate(prod):
                    for j, b in enumerate(phi_d):
                        out[i + j] += a * b
                prod = out
        assert prod == [-1] + [0] * (m - 1) + [1]


def test_large_cyclotomic_polynomials_satisfy_their_identities():
    # Phi_9240 took seconds and Phi_30030 most of a minute by recursive
    # division; the Moebius product takes milliseconds
    phi_2310 = cyclotomic_polynomial(2310)
    phi_9240 = cyclotomic_polynomial(9240)            # 9240 = 4 * 2310
    assert phi_9240[::4] == phi_2310 and not any(
        c for i, c in enumerate(phi_9240) if i % 4)
    for odd in (1155, 15015):                         # Phi_2n(x) = Phi_n(-x)
        assert cyclotomic_polynomial(2 * odd) == tuple(
            -c if i % 2 else c for i, c in enumerate(cyclotomic_polynomial(odd)))
    for m, phi in ((9240, 1920), (30030, 5760)):
        c = cyclotomic_polynomial(m)
        assert len(c) - 1 == phi and c == c[::-1] and sum(c) == 1
    assert cyclotomic_polynomial.cache_info().maxsize is not None


def test_zeta_height_matches_the_oracle():
    # every order below 700 and the largest heights up to the CLI's
    # MAX_CHARACTER_ORDER; prime powers and orders with at most two odd
    # primes have height 1
    orders = list(range(1, 700)) + [2310, 3465, 3990, 4095]
    heights = {m: zeta_height(m) for m in orders}
    assert heights == {m: oracles.oracle_zeta_height(m) for m in orders}
    assert [heights[m] for m in (105, 385, 595, 3465)] == [2, 3, 4, 9]
    for m in orders:
        odd_primes = [p for p in range(3, m + 1, 2)
                      if not m % p and all(p % q for q in range(3, p, 2))]
        assert len(odd_primes) > 2 or heights[m] == 1


def schoolbook(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_kronecker_convolution_matches_schoolbook():
    rng = random.Random(41)
    big = 2 ** 200
    cases = [([0, 0, 0], [5, -7, 1]), ([0], [0]), ([3], [-4]),
             ([big, -big], [-big, big, 1]), ([-1] * 30, [-1] * 30)]
    for _ in range(80):
        bound = rng.choice([1, 9, 2 ** 64, big])
        cases.append(tuple([rng.randint(-bound, bound)
                            for _ in range(rng.randint(1, 12))]
                           for _ in range(2)))
    for a, b in cases:
        assert _convolve(a, b) == schoolbook(a, b)


def test_products_and_powers_match_schoolbook_reduction():
    rng = random.Random(43)
    for m in [1, 2, 3, 12, 30, 202]:
        phi_poly = oracles.oracle_cyclotomic_polynomial(m)
        phi = len(phi_poly) - 1
        for trial in range(5):
            a = [rng.randint(-2 ** 200, 2 ** 200) for _ in range(phi)]
            b = [rng.randint(-3, 3) for _ in range(phi)]
            if trial == 0:
                b = [0] * phi
            product = CyclotomicNumber(m, a) * CyclotomicNumber(m, b)
            assert product.num == tuple(oracles.cyclo_mul(
                [F(x) for x in a], [F(x) for x in b], phi_poly))
            k = rng.randint(-3 * m, 3 * m)
            power = [F(0)] * (k % m) + [F(1)]
            assert CyclotomicNumber.zeta_power(m, k).num == tuple(
                oracles.cyclo_reduce(power, phi_poly))


def test_hash_agrees_with_equality_across_orders():
    rng = random.Random(44)
    for m in [3, 4, 5, 12]:
        phi = len(cyclotomic_polynomial(m)) - 1
        for _ in range(10):
            coeffs = [rng.randint(-5, 5) for _ in range(phi)]
            z = CyclotomicNumber(m, coeffs)
            again, rest = divmod(CyclotomicNumber(m, [3 * c for c in coeffs]),
                                 builders.cyclotomic(m, 3))
            assert not rest
            assert z == again and hash(z) == hash(again)
            assert len({z, again, z + z - again}) == 1
    # one value at two orders: the orders differ, so the numbers do
    assert CyclotomicNumber.zeta_power(2, 1) != builders.cyclotomic(3, -1)


def test_zeta_arithmetic():
    z = CyclotomicNumber.zeta_power(5, 1)
    total = builders.cyclotomic(5, 0)
    for k in range(5):
        total = total + CyclotomicNumber.zeta_power(5, k)
    assert not total
    assert (z * z * z * z * z) == CyclotomicNumber.zeta_power(5, 0)
    assert CyclotomicNumber.zeta_power(2, 1) == builders.cyclotomic(2, -1)


def test_inverses_on_random_elements():
    # the units of Z[zeta_m] divide 1: powers of zeta times cyclotomic units
    # (1 - zeta^a) / (1 - zeta) = 1 + zeta + ... + zeta^(a-1), gcd(a, m) = 1;
    # 2 and 1 - zeta at a prime power m are no units, and leave a remainder
    rng = random.Random(34)
    for m in [3, 4, 5, 8, 12]:
        one, zeta = (CyclotomicNumber.zeta_power(m, k) for k in (0, 1))
        for _ in range(15):
            a = rng.choice([a for a in range(1, m) if math.gcd(a, m) == 1])
            u = CyclotomicNumber.zeta_power(m, rng.randrange(m)) * sum(
                (CyclotomicNumber.zeta_power(m, i) for i in range(a)),
                0 * one)
            inverse, rest = divmod(one, u)
            assert not rest and u * inverse == one
        for b in [2 * one] + ([one - zeta] if m in (3, 4, 5, 8) else []):
            q, rest = divmod(one, b)
            assert rest and q * b + rest == one
    with pytest.raises(ZeroDivisionError):
        divmod(CyclotomicNumber.zeta_power(5, 1), builders.cyclotomic(5, 0))


def test_integer_divisor_matches_the_conjugate_product_path():
    # divmod by a rational integer a divides coefficientwise; the general
    # path multiplies by a^(phi - 1) and floor-divides by a^phi
    rng = random.Random(36)
    for m in [3, 5, 12, 254]:
        phi = len(cyclotomic_polynomial(m)) - 1
        for _ in range(12):
            z = CyclotomicNumber(m, [rng.randint(-50, 50) for _ in range(phi)])
            a = rng.choice([-1, 1]) * rng.randint(1, 7)
            b = builders.cyclotomic(m, a)
            others, norm = _conjugate_product(m, b.num)
            expected = CyclotomicNumber(
                m, [x // norm for x in _ring_mul(m, z.num, others)])
            assert divmod(z, b) == (expected, z - expected * b)
    with pytest.raises(ZeroDivisionError):
        divmod(builders.cyclotomic(254, 3), builders.cyclotomic(254, 0))


def test_integer_factors_scale_and_divide_back_out():
    rng = random.Random(35)
    for m in [3, 4, 5, 8, 12]:
        for _ in range(15):
            z = CyclotomicNumber(m, [rng.randint(-3, 3) for _ in
                                     range(len(cyclotomic_polynomial(m)) - 1)])
            q = rng.randint(-5, 5)
            assert z * q == z * builders.cyclotomic(m, q)
            assert q * z == z * q
            if q:
                assert divmod(q * z, builders.cyclotomic(m, q)) == (z, 0 * z)
    with pytest.raises(TypeError):
        CyclotomicNumber(3, [F(1, 2), 0])
    with pytest.raises(TypeError):
        CyclotomicNumber.zeta_power(3, 1) * F(1, 2)


# ---------------------------------------------------------------------------
# evaluation at finite-order characters
# ---------------------------------------------------------------------------

def table_value(f, chi):
    """f at chi through a one-entry TermTable: its integer vector in
    Z[zeta_m], or None for zero (f has integral coefficients)."""
    return TermTable([[f]]).at_character(chi, [0])[0][0]


def test_evaluate_at_character_simple_values():
    f = LaurentPoly.parse("t1 + t2 - 2")
    assert table_value(f, character((F(1, 2), F(1, 2)))) == [-4]
    assert table_value(f, character((0, 0))) is None
    g = LaurentPoly.parse("t1^3")
    assert table_value(g, character([F(1, 3)])) == [1, 0]


def test_evaluate_at_character_matches_numeric_oracle():
    rng = random.Random(35)
    for _ in range(40):
        n = rng.randint(1, 3)
        f = rand_poly(rng, n)
        lam = [F(rng.randint(0, 11), rng.choice([1, 2, 3, 4, 6, 12]))
               for _ in range(n)]
        chi = character(lam)
        value = table_value(f, chi) or [0] * len(cyclotomic_polynomial(
            chi.order)[1:])
        assert oracles.oracle_character_value(f.terms, lam) == (chi.order,
                                                                value)
        exact = sum(c * oracles.unit_root(F(k, chi.order))
                    for k, c in enumerate(value))
        approx = oracles.eval_laurent_complex(
            f.terms, tuple(oracles.unit_root(x) for x in lam))
        assert abs(exact - approx) < 1e-7


def test_term_table_indexes_each_monomial_once_and_scales_rows():
    # two rows share t1 and 1; the Fraction row is scaled by its lcm 6,
    # which keeps the rank, and the value at a character is read off the
    # indexed powers
    f = LaurentPoly.parse("1/2 t1 - 1/3", 2)
    g = LaurentPoly.parse("t1 + t2")
    table = TermTable([[f, LaurentPoly(2, {})], [g, g - 1]])
    assert sorted(table.exponents) == [(0, 0), (0, 1), (1, 0)]
    assert table.cells[0][0] == ((table.exponents.index((1, 0)), 3),
                                 (table.exponents.index((0, 0)), -2))
    assert table.cells[0][1] == ()
    chi = character((F(1, 2), 0))
    assert table.at_character(chi, [0, 1]) == [[[-5], None], [None, [-1]]]
    assert table.at_character(chi, [1]) == [[None], [[-1]]]


# ---------------------------------------------------------------------------
# restriction to translated subtori
# ---------------------------------------------------------------------------

def test_restriction_substitutes_the_direction_rows():
    # t_i -> prod_j u_j^B[j][i] with B the stored rows of L, here (2, 0, 1)
    # and (0, 2, 1), which are no basis of L meet Z^3: that lattice also
    # holds (1, 1, 1), half their sum
    torus = builders.torus([0, 0, 0], [(2, 0, 1), (0, 2, 1)], 3)
    assert torus.direction.rows == ((2, 0, 1), (0, 2, 1))
    t1, t2, t3 = builders.variables(3)
    rows = [[t1, t2 * t3, t1 - t2]]
    got = builders.restricted_polys(TermTable(rows), torus, [0, 1, 2])[0]
    assert got == [LaurentPoly.parse(text, 2)
                   for text in ("t1^2", "t1*t2^3", "t1^2 - t2^2")]
    assert restricted_to_coset(rows, torus)[0] == got
    # a translate of order 1 restricts into Q itself, not Q(zeta_1)
    assert all(type(c) is int for f in got for c in f.terms.values())


def test_restriction_detects_vanishing_on_coset():
    def vanishes(f, torus):
        [[g]] = builders.restricted_polys(TermTable([[f]]), torus, [0])
        zero = g.is_zero()
        assert restricted_to_coset([[f]], torus)[0][0].is_zero() == zero
        return zero

    diag = builders.torus([0, 0], [(1, 1)], 2)
    f = LaurentPoly.parse("t1 - t2")
    assert vanishes(f, diag)
    g = LaurentPoly.parse("t1 + t2")
    assert not vanishes(g, diag)

    shifted = builders.torus([0, F(1, 2)], [(1, 1)], 2)
    assert vanishes(g, shifted)
    assert not vanishes(f, shifted)


def test_restriction_agrees_with_sampling_the_coset():
    # f restricted to rho.T is zero iff f kills sampled points of the coset
    rng = random.Random(36)
    for _ in range(25):
        n = rng.randint(2, 3)
        rows = [[rng.randint(-2, 2) for _ in range(n)]]
        space = RationalSubspace.from_rows(rows, n)
        if space.dim != 1:
            continue
        lam = [F(rng.randint(0, 3), 4) for _ in range(n)]
        torus = builders.torus(lam, rows, n)
        f = rand_poly(rng, n, max_terms=4, span=2)
        [[restricted]] = builders.restricted_polys(TermTable([[f]]), torus,
                                                   [0])
        assert restricted == restricted_to_coset([[f]], torus)[0][0]
        # sample characters on the coset: lam + s * primitive direction
        zero_everywhere = True
        base = fraction_values(torus.translate)
        direction = torus.direction.rows[0]
        for num in range(8):
            pt = tuple(oracles.unit_root(b + F(num, 8) * d)
                       for b, d in zip(base, direction))
            if abs(oracles.eval_laurent_complex(f.terms, pt)) > 1e-6:
                zero_everywhere = False
                break
        assert restricted.is_zero() == zero_everywhere


def test_cyclo_poly_exact_division():
    # one LaurentPoly type over Z and over Z[zeta_m]: the quotient of a
    # product by a factor is the other factor, and a non-divisor raises
    rng = random.Random(37)
    for _ in range(15):
        n = rng.randint(1, 2)
        f, g = rand_poly(rng, n, 3, 2), rand_poly(rng, n, 3, 2)
        assert (f * g)._divide(g) == f
    for m in [1, 2, 3, 4]:
        for _ in range(15):
            n = rng.randint(1, 2)
            f = rand_cyclo_poly(rng, n, m)
            g = rand_cyclo_poly(rng, n, m)
            if g.is_zero():
                continue
            assert (f * g)._divide(g) == f
    for order in (None, 1, 5):
        one, other = (LaurentPoly.parse(t) for t in ("t1 + 1", "t1 - 1"))
        if order:
            one, other = embed(one, order), embed(other, order)
        with pytest.raises(ArithmeticError):
            one._divide(other)


def test_monomial_content_and_units_do_not_change_divisibility():
    f = LaurentPoly.parse("t1^-2*t2 + t1^-1")
    assert f.monomial_content() == (-2, 0)
    shifted = f.shift((5, 7))
    assert shifted.monomial_content() == (3, 7)
    assert shifted._divide(f) == LaurentPoly.parse("t1^5*t2^7")
    assert embed(shifted, 3)._divide(embed(f, 3)) == \
        embed(LaurentPoly.parse("t1^5*t2^7"), 3)


def test_integer_alexander_entries_divide_to_exact_rationals():
    # alexander_matrix builds int coefficients, and an exact quotient of
    # two of its entries keeps them int
    M = alexander_matrix(parse_presentation(
        "<a, b, c | a^3 [b, c]^2, b^2 a^3 b^-2>"))   # 3, 2 - 2 t2, 3 t1^2, ...
    entries = [e for row in M.entries for e in row]
    assert any(type(c) is int and abs(c) > 1
               for e in entries for c in e.terms.values())
    for f in entries:
        for g in entries:
            if g.is_zero():
                continue
            q = (f * g)._divide(g)
            assert q == f
            assert all(type(c) is int for c in q.terms.values())


def test_integral_division_stays_on_ints_and_refuses_a_remainder():
    f, g = LaurentPoly.parse("2*t1^2 - 2"), LaurentPoly.parse("2*t1 - 2")
    q = (f * g)._divide(g)
    assert q == f and all(type(c) is int for c in q.terms.values())
    # over Q, t1 + 1 = (2*t1 + 2) / 2, but 1/2 is no integer, nor over Z[i]
    for order in (None, 4):
        one, two, q = (LaurentPoly.parse(t, 1) for t in ("t1 + 1", "2*t1 + 2",
                                                         "2"))
        if order:
            one, two, q = (embed(f, order) for f in (one, two, q))
        with pytest.raises(ArithmeticError):
            one._divide(two)
        assert two._divide(one) == q


def test_repr_of_cyclotomic_coefficients():
    f = embed(LaurentPoly.parse("t1 - 2"), 3)
    text = repr(f)
    assert text.startswith("LaurentPoly(1, ") and "order=3" in text
    assert repr(LaurentPoly.parse("t1 - 2")) == "LaurentPoly(1, '-2 + t1')"


# ---------------------------------------------------------------------------
# fraction-free rank
# ---------------------------------------------------------------------------

def as_matrix(rows, num_vars, order=None):
    """Texts of integral polynomials parsed over Z, or taken into
    Z[zeta_order]."""
    parsed = [[LaurentPoly.parse(t, num_vars) for t in row] for row in rows]
    return parsed if order is None else [[embed(f, order) for f in row]
                                         for row in parsed]


def test_bareiss_rank_frozen_cases():
    for order in (None, 1, 3):
        m = as_matrix([["t1 - 1", "t2 - 1"], ["t1 - 1", "t2 - 1"]], 2, order)
        assert bareiss_rank(m) == 1
        m2 = as_matrix([["t1", "0"], ["0", "t2^-5"]], 2, order)
        assert bareiss_rank(m2) == 2
        m3 = as_matrix([["0", "0"], ["0", "0"]], 2, order)
        assert bareiss_rank(m3) == 0
        # rank drops only on the nose: a 2x2 with proportional rows via units
        m4 = as_matrix([["t1 + t2", "t1"], ["t1*t2 + t2^2", "t1*t2"]], 2,
                       order)
        assert bareiss_rank(m4) == 1


def oracle_rank(rows, zero, one):
    return oracles.minor_rank(
        rows, add=lambda a, b: a + b, mul=lambda a, b: a * b,
        neg=lambda a: -a, is_zero=lambda a: a.is_zero(), zero=zero, one=one)


def test_bareiss_rank_matches_minor_oracle():
    """Random 3 x 3 matrices, the same with each entry times its own random
    monomial, and two 2 x 2 matrices of rank 2 whose entries differ only by
    monomials in a row or a column (dividing each entry by its own monomial
    content would make their rows equal)."""
    rng = random.Random(39)
    zero = embed(LaurentPoly(2, {}), 2)
    one = embed(LaurentPoly.parse("1", 2), 2)
    u = embed(LaurentPoly.parse("t1", 2), 2)
    for rows in ([[one, u], [one, u * u]], [[one, u], [u, one]]):
        assert oracle_rank(rows, zero, one) == 2
        assert bareiss_rank(rows) == 2
    for _ in range(25):
        rows = [[embed(rand_poly(rng, 2, 2, 1), 2) for _ in range(3)]
                for _ in range(3)]
        assert bareiss_rank(rows) == oracle_rank(rows, zero, one)
        shifted = [[p.shift((rng.randint(-2, 2), rng.randint(-2, 2)))
                    for p in row] for row in rows]
        assert bareiss_rank(shifted) == oracle_rank(shifted, zero, one)


def test_bareiss_rank_is_unchanged_by_embedding_into_cyclotomic_fields():
    # one matrix over Z and over Z[zeta_m]: one rank, the minor oracle's.
    # Every other matrix has a row that combines the other two, so both
    # full and deficient ranks occur.
    rng = random.Random(40)
    zero, one = LaurentPoly(2, {}), LaurentPoly.parse("1", 2)
    ranks = []
    for trial in range(12):
        rows = [[rand_poly(rng, 2, 2, 1) for _ in range(3)] for _ in range(3)]
        if trial % 2:
            a, b = rand_poly(rng, 2, 2, 1), rand_poly(rng, 2, 2, 1)
            rows[2] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
            rng.shuffle(rows)
        rank = oracle_rank(rows, zero, one)
        ranks.append(rank)
        assert bareiss_rank(rows) == rank
        for m in (2, 3, 4, 5):
            assert bareiss_rank([[embed(f, m) for f in row]
                                 for row in rows]) == rank
    assert 3 in ranks and min(ranks) < 3


def test_bareiss_rank_refuses_a_fraction_coefficient():
    # a rational row would reach a division that is not exact over Z
    rows = [[LaurentPoly.parse("t1 - 1", 1), LaurentPoly.parse("2", 1)],
            [LaurentPoly.parse("1/2 t1", 1), LaurentPoly.parse("1", 1)]]
    with pytest.raises(ValueError, match="row 1 .*scale it to integers"):
        bareiss_rank(rows)
    # the row scaled by 2 has the same rank
    rows[1] = [LaurentPoly.parse("t1", 1), LaurentPoly.parse("2", 1)]
    assert bareiss_rank(rows) == 2
