"""Sparse multivariate Laurent polynomials and cyclotomic arithmetic.

Two layers, all exact:

* :class:`LaurentPoly` — Z^n-graded sparse polynomials over Q, or over
  Z[zeta_m] once restricted to a translated subtorus, with serializers of
  rational ones to a JSON term form and a text form such as
  ``t1^2*t2^-1 - 3/2*t3 + 1``.  The text parser reads one term per match of
  a regular expression (a sign, then numbers ``p`` or ``p/q`` and variables
  ``tK`` with integer exponents, ``*`` optional, whitespace between any two
  tokens) and keeps each coefficient an integer numerator and denominator
  until the term is read: an integral coefficient stays an ``int``, and
  only any other becomes a ``Fraction``.  Indices above ``MAX_VARIABLES``
  are refused as they are read.
* :class:`CyclotomicNumber` — elements of Z[zeta_m] = Z[x]/Phi_m(x), kept
  as integer coefficients.  Phi_m is the Moebius product of the binomials
  x^d - 1.  A product is one multiplication of Python ints (Kronecker
  substitution: each coefficient vector packed into one int), then a fold
  mod x^m - 1 and one reduction by the monic Phi_m.  A power of zeta, or a
  sum of powers of zeta, is a vector indexed by exponents mod m, reduced
  once.  Division is ``divmod``: a times the product of b's other Galois
  conjugates, over b's norm, an integer; the remainder is zero exactly
  when b divides a.

A character is read on integers throughout: rho = exp(2 pi i w / m) for its
numerators w over its order m, so the monomial t^a takes the value
zeta_m^(a . w).  Ranks at characters never build a CyclotomicNumber: a
:class:`TermTable` indexes the distinct exponent vectors of a matrix once,
so evaluating the matrix at a character costs one dot product per distinct
monomial and gives each entry as its integer vector in Z[zeta_m], reduced
mod Phi_m; :func:`cyclotomic_rank` eliminates those vectors without
division.

Generic ranks on a coset rho.T read the same table:
:meth:`TermTable.restrict` substitutes t_i = rho_i * prod_j u_j^{B_ji} (B
the k = dim T integer rows that store T's direction) into every entry, so
each restricted coefficient is one m-long vector reduced once, m the order
of rho, and an entry restricts to zero iff it vanishes on all of rho.T.
Each restricted row carries its norm and its degree span in each u_j.
:func:`at_point` evaluates those rows at an integer point u of the coset
into the integer vectors that :func:`cyclotomic_rank` eliminates; at the
point chosen by :func:`jumploci.fox.generic_rank_on_torus` that rank is the
generic one.  :func:`on_coset` turns the same rows into polynomials with
int coefficients for m <= 2, where Z[zeta_m] = Z, and CyclotomicNumbers
otherwise; :func:`bareiss_rank` divides exactly in that ring, with one
conjugate product per distinct divisor.

>>> f = LaurentPoly.parse("t1 + t2 - 2")
>>> TermTable([[f]]).at_character(TorsionCharacter((1, 1), 2), [0])
[[[-4]]]
>>> f.coefficient_sum()
Fraction(0, 1)
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional, Sequence

from .qlinalg import format_rational, number_too_long
from .tori import MAX_VARIABLES, TorsionCharacter, TranslatedTorus

Expo = tuple[int, ...]

# The text form, one term per match: a sign, then factors (a number p or
# p/q; a variable tK with an optional exponent ^k, ^-k or ^p/q; a "*"),
# whitespace between any two tokens.
_TERM = re.compile(r"([-+]?)((?:\s*(?:\d+(?:/\d+)?"
                   r"|t\d+(?:\s*\^\s*-?\s*\d+(?:/\d+)?)?|\*))*)\s*")
# one factor of a term: (p, q, index, minus, k, d) for p/q or t_index^(-k/d)
_FACTOR = re.compile(r"(\d+)(?:/(\d+))?|t(\d+)(?:\s*\^\s*(-?)\s*(\d+)(?:/(\d+))?)?")
_EXPONENT_GAP = re.compile(r"\s*\^\s*-?\s*")


# ---------------------------------------------------------------------------
# Laurent polynomials
# ---------------------------------------------------------------------------

class LaurentPoly:
    """A sparse Laurent polynomial in ``num_vars`` variables.

    Terms are a dict from integer exponent tuples to nonzero coefficients:
    ints and Fractions (the constructor reads rationals), or, built with
    :meth:`_make`, CyclotomicNumbers of one order.  Arithmetic stays in that
    ring; the text and JSON forms are rational.  The zero polynomial has no
    terms.  Canonical serialization orders terms lexicographically by
    exponent vector (ascending).

    >>> f = LaurentPoly.parse("t1 - 1", 2) * LaurentPoly.parse("t2 + 1")
    >>> f.to_text()
    '-1 - t2 + t1 + t1*t2'
    """

    __slots__ = ("num_vars", "terms")

    def __init__(self, num_vars: int, terms: dict):
        self.num_vars = int(num_vars)
        clean = {}
        for e, c in terms.items():
            e = tuple(int(x) for x in e)
            if len(e) != num_vars:
                raise ValueError("exponent arity mismatch")
            if type(c) is not int and type(c) is not Fraction:
                c = Fraction(c)
            if c:
                clean[e] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def _make(cls, num_vars: int, terms: dict) -> "LaurentPoly":
        """The polynomial on ``terms`` as they are: int exponent tuples of
        length num_vars to nonzero coefficients, ints and Fractions or
        CyclotomicNumbers of one order."""
        f = cls.__new__(cls)
        f.num_vars = num_vars
        f.terms = terms
        return f

    # -- predicates and views ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient_sum(self) -> Fraction:
        """The value at the trivial character t = (1, ..., 1)."""
        return Fraction(sum(self.terms.values()))

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other) -> "LaurentPoly":
        if isinstance(other, LaurentPoly):
            if other.num_vars != self.num_vars:
                raise ValueError("variable count mismatch")
            return other
        return LaurentPoly(self.num_vars,
                           {(0,) * self.num_vars: Fraction(other)})

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            c = out[e] + c if e in out else c
            if c:
                out[e] = c
            else:
                del out[e]
        return LaurentPoly._make(self.num_vars, out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._make(self.num_vars,
                                 {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            return LaurentPoly._make(self.num_vars, {
                e: p for e, c in self.terms.items() if (p := c * other)})
        if other.num_vars != self.num_vars:
            raise ValueError("variable count mismatch")
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(operator.add, e1, e2))
                out[e] = out[e] + c1 * c2 if e in out else c1 * c2
        return LaurentPoly._make(self.num_vars,
                                 {e: c for e, c in out.items() if c})

    __rmul__ = __mul__

    def shift(self, delta: Sequence[int]) -> "LaurentPoly":
        """Multiply by the unit monomial t^delta."""
        return LaurentPoly._make(self.num_vars, {
            tuple(map(operator.add, e, delta)): c
            for e, c in self.terms.items()})

    def monomial_content(self) -> Expo:
        """Componentwise minimum exponent over the support (zero if empty)."""
        if not self.terms:
            return (0,) * self.num_vars
        return tuple(map(min, zip(*self.terms)))

    def _divide(self, other: "LaurentPoly") -> "LaurentPoly":
        """The quotient self/other in the Laurent ring over Z or one
        Z[zeta_m], for a nonzero other: long division by other's leading
        term (the largest exponent), each quotient coefficient taken by
        ``divmod`` with other's leading coefficient.  A remainder, in a
        coefficient or in the polynomial, raises ArithmeticError."""
        if not self.terms:
            return self
        fshift = self.monomial_content()
        gshift = other.monomial_content()
        r = self.shift([-x for x in fshift])
        g = other.shift([-x for x in gshift])
        glead_e = max(g.terms)
        lead = g.terms[glead_e]
        quo: dict = {}
        while r.terms:
            rlead_e = max(r.terms)
            t = tuple(map(operator.sub, rlead_e, glead_e))
            c, rest = divmod(r.terms[rlead_e], lead)
            if rest or any(x < 0 for x in t):
                raise ArithmeticError("polynomials do not divide exactly")
            quo[t] = c
            r = r - g.shift(t) * c
        return LaurentPoly._make(self.num_vars, quo).shift(
            tuple(map(operator.sub, fshift, gshift)))

    def __eq__(self, other):
        return (isinstance(other, LaurentPoly) and self.num_vars == other.num_vars
                and self.terms == other.terms)

    def __repr__(self):
        if any(isinstance(c, CyclotomicNumber) for c in self.terms.values()):
            return f"LaurentPoly({self.num_vars}, {sorted(self.terms.items())})"
        return f"LaurentPoly({self.num_vars}, {self.to_text()!r})"

    # -- text form -----------------------------------------------------------

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms):
            c = self.terms[e]
            mono = "*".join(
                f"t{i + 1}" + (f"^{k}" if k != 1 else "")
                for i, k in enumerate(e) if k != 0)
            if mono:
                if abs(c) == 1:
                    body = mono
                else:
                    body = f"{format_rational(abs(c))}*{mono}"
            else:
                body = format_rational(abs(c))
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    @classmethod
    def parse(cls, text: str, num_vars: Optional[int] = None) -> "LaurentPoly":
        """Parse ``"t1^2*t2^-1 - 3/2*t3 + 1"``-style text.

        A text is a sum of terms, each after a ``+`` or ``-`` (optional on
        the first).  A term is a product of factors, ``*`` between them
        optional: numbers ``p`` or ``p/q`` and variables ``t1``, ``t2``,
        ..., each variable with an optional integer exponent ``^k``,
        ``^-k`` or ``^p/q`` (with q dividing p).  Whitespace may stand
        between any two tokens.  Numbers multiply, exponents of a repeated
        variable add, like terms combine and zero terms drop; blank text is
        the zero polynomial.  An integral coefficient is an int, any other
        a ``Fraction``.  ``num_vars`` defaults to the largest index that
        appears.  A ``num_vars`` above ``MAX_VARIABLES`` is refused at
        once, and an index above it as the variable is read, before any
        exponent tuple is built.  Bad input raises ValueError with a
        position.

        >>> LaurentPoly.parse("2 t1^ -1 t1^3 t2 - 1/2 + t1^2*t2")
        LaurentPoly(2, '-1/2 + 3*t1^2*t2')
        """
        if num_vars is not None and num_vars > MAX_VARIABLES:
            raise ValueError(f"num_vars={num_vars} is above MAX_VARIABLES = "
                             f"{MAX_VARIABLES}")
        parsed = []
        n = len(text)
        pos = n - len(text.lstrip())
        while pos < n:
            m = _TERM.match(text, pos)
            try:
                term = _term(m[1], _FACTOR.findall(m[2]))
            except ValueError:      # a number past int()'s digit limit
                term = None
            start, pos = pos, m.end()
            if term is None or (pos < n and text[pos] not in "+-"):
                raise _syntax_error(text, start)
            parsed.append(term)
        max_index = max((max(e, default=0) for _, e in parsed), default=0)
        if num_vars is None:
            num_vars = max_index
        if max_index > num_vars:
            raise ValueError(f"variable t{max_index} exceeds num_vars={num_vars}")
        zero = [0] * num_vars
        terms: dict = {}
        for c, exps in parsed:
            e = zero.copy()
            for i, k in exps.items():
                e[i - 1] = k
            key = tuple(e)
            terms[key] = terms[key] + c if key in terms else c
        return cls._make(num_vars, {
            e: c if type(c) is int or c.denominator != 1 else c.numerator
            for e, c in terms.items() if c})

    # -- JSON form -----------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "num_vars": self.num_vars,
            "terms": [{"exponents": list(e), "coeff": format_rational(self.terms[e])}
                      for e in sorted(self.terms)],
        }


def _term(sign: str, factors
          ) -> Optional[tuple[int | Fraction, dict[int, int]]]:
    """The coefficient and ``{index: exponent}`` of one term, from its sign
    and its factors as ``_FACTOR`` groups; None if it has no factor or a
    factor the term scan cannot take (see :func:`_syntax_error`).  The
    coefficient is an int when it is integral and a ``Fraction`` otherwise.
    A number longer than ``int()`` reads raises its ValueError."""
    if not factors:
        return None
    num, den = (-1 if sign == "-" else 1), 1
    exps: dict[int, int] = {}
    for p, q, index, minus, k, d in factors:
        if index:
            index = int(index)
            if not 0 < index <= MAX_VARIABLES:
                return None
            if k:
                k = int(k)
                if d:
                    d = int(d)
                    if not d or k % d:
                        return None
                    k //= d
                if minus:
                    k = -k
            else:
                k = 1
            exps[index] = exps.get(index, 0) + k
        else:
            num *= int(p)
            if q:
                den *= int(q)
                if not den:
                    return None
    return (num // den if num % den == 0 else Fraction(num, den)), exps


def _syntax_error(text: str, start: int) -> ValueError:
    """The error for text whose term at ``start`` the term scan rejects.

    Errors come in the order of a token-by-token reading: first the leftmost
    bad token from ``start`` on (a stray character, ``p/`` without digits, a
    number longer than ``int()`` reads, a zero denominator, ``t0``, an index
    above ``MAX_VARIABLES``), then the first misplaced token.  Tokens are
    runs of decimal digits (``\\d``, as in the term pattern), so a digit
    that is not decimal (``²``) is a stray character.
    """
    i, n = start, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace() or ch in "+-*^":
            i += 1
            continue
        j = i + (ch == "t")
        k = _digits_end(text, j)
        if k == j:
            return ValueError(f"unexpected character {ch!r} at position {i}")
        if ch != "t" and text[k:k + 1] == "/":
            k = _digits_end(text, k + 1)
            if text[k - 1] == "/":
                return ValueError(f"bad rational at position {i}")
        num, _, den = text[j:k].partition("/")
        try:
            num, den = int(num), int(den or 1)
        except ValueError:
            return ValueError(f"{number_too_long()} at position {i}")
        if ch == "t":
            if num < 1:
                return ValueError(f"variables are numbered from t1, at position {i}")
            if num > MAX_VARIABLES:
                return ValueError(f"variable t{num} at position {i} is above "
                                  f"MAX_VARIABLES = {MAX_VARIABLES}")
        elif not den:
            return ValueError(f"zero denominator at position {i}")
        i = k
    m = _TERM.match(text, start)
    factors = list(_FACTOR.finditer(text, m.start(2), m.end(2)))
    for f in factors:
        if f[6] and int(f[5]) % int(f[6]):
            return ValueError(f"expected integer exponent at position {f.start(5)}")
    if not factors:
        return ValueError(f"expected a term at position {m.end()}")
    # the term ends at a "^": an exponent missing after a bare variable, or
    # a "^" where only a sign may follow
    last = factors[-1]
    gap = _EXPONENT_GAP.match(text, last.end()) if last[3] and not last[5] else None
    if gap:
        return ValueError(f"expected integer exponent at position {gap.end()}")
    return ValueError(f"expected '+' or '-' at position {m.end()}")


def _digits_end(text: str, i: int) -> int:
    """The end of the run of decimal digits (``str.isdecimal``, the
    characters ``\\d`` matches) at position i."""
    while i < len(text) and text[i].isdecimal():
        i += 1
    return i


# ---------------------------------------------------------------------------
# cyclotomic integers Z[zeta_m]
# ---------------------------------------------------------------------------

def _prime_factors(m: int) -> list[int]:
    """The distinct primes dividing m > 0, ascending (trial division)."""
    primes = []
    p = 2
    while p * p <= m:
        if m % p == 0:
            primes.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        primes.append(m)
    return primes


def _totient(m: int) -> int:
    for p in _prime_factors(m):
        m -= m // p
    return m


@lru_cache(maxsize=64)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Integer coefficients (ascending) of the m-th cyclotomic polynomial.

    The Moebius product Phi_m = prod_{d | m} (1 - x^d)^mu(m/d) for m > 1,
    taken as a power series cut after degree phi(m): each factor is one pass
    that multiplies or divides by a binomial.

    >>> cyclotomic_polynomial(1)
    (-1, 1)
    >>> cyclotomic_polynomial(6)
    (1, -1, 1)
    """
    if m < 1:
        raise ValueError("m must be positive")
    if m == 1:
        return (-1, 1)
    phi = _totient(m)
    c = [1] + [0] * phi
    primes = _prime_factors(m)
    for squarefree in itertools.product((False, True), repeat=len(primes)):
        d = m
        for p, used in zip(primes, squarefree):
            if used:
                d //= p
        if d > phi:
            continue
        if sum(squarefree) % 2:                  # mu(m/d) = -1: divide
            for i in range(d, phi + 1):
                c[i] += c[i - d]
        else:                                    # mu(m/d) = 1: multiply
            for i in range(phi, d - 1, -1):
                c[i] -= c[i - d]
    return tuple(c)


@lru_cache(maxsize=64)
def _field(m: int) -> tuple[int, int, tuple[int, ...]]:
    """``(phi, k, low)`` for reducing integer polynomials mod Phi_m.

    ``phi`` is phi(m) and ``low`` the coefficients of the monic Phi_m below
    x^phi.  ``k = m / p`` for p the least prime factor of m (0 when m = 1):
    Theta = 1 + x^k + ... + x^((p-1)k) = Phi_p(x^k) is a multiple of Phi_m
    with only p terms, so reducing by it first is one cheap pass that leaves
    few steps to the long division by Phi_m (none when m is a prime power,
    one when m is twice an odd prime).
    """
    top = cyclotomic_polynomial(m)
    k = m // _prime_factors(m)[0] if m > 1 else 0
    return len(top) - 1, k, top[:-1]


@lru_cache(maxsize=64)
def zeta_height(m: int) -> int:
    """rho_m = max |coefficient| of zeta_m^r, r < m, in the power basis, so
    a polynomial of degree below m reduces mod Phi_m to coefficients at most
    rho_m times its l1 norm; each x^r is x^(r-1) times x, reduced once."""
    phi, _, low = _field(m)
    height, v = 1, [0] * (phi - 1) + [1]
    for _ in range(phi, m):
        q = v[-1]
        v = [-q * low[0]] + [a - q * b for a, b in zip(v, low[1:])]
        height = max(height, max(v), -min(v))
    return height


def _reduce(m: int, c: list[int]) -> list[int]:
    """The integer polynomial c (ascending) mod Phi_m: phi(m) coefficients."""
    phi, k, low = _field(m)
    if len(c) > m:                                    # x^m = 1
        folded = c[:m]
        for i in range(m, len(c)):
            folded[i % m] += c[i]
        c = folded
    top = m - k                                       # deg Theta
    if len(c) > top and any(c[top:]):
        # x^((p-1)k + i) = -(x^i + x^(k+i) + ... + x^((p-2)k+i)) mod Theta
        block = c[top:] + [0] * (m - len(c))
        c = [a - b for a, b in zip(c, block * (top // k))]
    else:
        c = c[:top]
    for d in range(len(c) - 1, phi - 1, -1):          # long division
        q = c.pop()
        if q:
            base = d - phi
            c[base:d] = [a - q * b for a, b in zip(c[base:d], low)]
    return c + [0] * (phi - len(c))


def _offset(width: int, count: int) -> int:
    """sum(2^(8 width - 1) * 2^(8 width i) for i < count): the digit bias."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")


def _pack(v: Sequence[int], width: int, half: int) -> int:
    """sum(v[i] * 2^(8 width i)), each |v[i]| < half = 2^(8 width - 1)."""
    digits = b"".join([(x + half).to_bytes(width, "little") for x in v])
    return int.from_bytes(digits, "little") - _offset(width, len(v))


def _convolve(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Coefficients of the product a * b of two integer polynomials.

    Kronecker substitution (Harvey, J. Symb. Comp. 44, 2009): each vector is
    packed into one Python int with ``width`` bytes per coefficient, the
    ints are multiplied, and the result is unpacked with signs.  The width
    leaves room for the largest coefficient the product can have, so no
    digit carries into the next.
    """
    count = len(a) + len(b) - 1
    bound = max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))
    if not bound:
        return [0] * count
    width = bound.bit_length() // 8 + 1
    half = 1 << (8 * width - 1)
    return _unpack(_pack(a, width, half) * _pack(b, width, half),
                   width, half, count)


def _unpack(total: int, width: int, half: int, count: int) -> list[int]:
    """The count signed digits of ``width`` bytes that :func:`_pack` and
    products of packed ints leave in total, each of absolute value below
    half."""
    data = (total + _offset(width, count)).to_bytes(width * count, "little")
    return [int.from_bytes(data[i:i + width], "little") - half
            for i in range(0, width * count, width)]


def _ring_mul(m: int, a: Sequence[int], b: Sequence[int]) -> list[int]:
    """a * b in Z[zeta_m], both given by their phi(m) coefficients."""
    return _reduce(m, _convolve(a, b))


def _conjugate(m: int, a: Sequence[int], g: int) -> list[int]:
    """sigma_g(a) in Z[zeta_m], zeta -> zeta^g for a unit g mod m."""
    spread = [0] * m
    for i, x in enumerate(a):
        spread[i * g % m] = x
    return _reduce(m, spread)


def _orbit_product(m: int, a: Sequence[int], g: int, k: int) -> list[int]:
    """prod(sigma_g^i(a) for i < k), from the bits of k: with P_j the
    product of the first j factors, P_2j = P_j sigma_g^j(P_j) and
    P_(j+1) = a sigma_g(P_j)."""
    product, j = [1] + [0] * (len(a) - 1), 0
    for bit in bin(k)[2:]:
        if j:
            product = _ring_mul(m, product,
                                _conjugate(m, product, pow(g, j, m)))
            j *= 2
        if bit == "1":
            product = _ring_mul(m, a, _conjugate(m, product, g))
            j += 1
    return product


@lru_cache(maxsize=8)
def _conjugate_product(m: int, a: tuple[int, ...]
                       ) -> tuple[tuple[int, ...], int]:
    """(c, N) for a in Z[zeta_m]: c the product of the Galois conjugates
    sigma_g(a) other than a, zeta -> zeta^g for g a unit mod m, and N = a c
    the norm of a, an integer (zero iff a is).

    The conjugates are multiplied along a chain of subgroups H of (Z/m)^*,
    each adding one generator g by doubling, so the whole product takes
    O(log phi(m)) multiplications.  Cached: Bareiss divides by one pivot's
    leading coefficient many times.
    """
    others = [1] + [0] * (len(a) - 1)        # prod over H \ {1}
    norm = list(a)                            # prod over H
    group = {1}
    for g in range(2, m):
        if len(group) == len(a):
            break
        if g in group or math.gcd(g, m) != 1:
            continue
        t, power = 1, g                       # g^t is the first in H
        while power not in group:
            t, power = t + 1, power * g % m
        # H' = H u gH u ... u g^(t-1)H; the cosets j >= 1 multiply in
        # sigma_g^j(prod over H) = sigma_g(orbit product of t - 1)
        others = _ring_mul(m, others, _conjugate(
            m, _orbit_product(m, norm, g, t - 1), g))
        norm = _ring_mul(m, a, others)
        group = {h * pow(g, j, m) % m for h in group for j in range(t)}
    if any(norm[1:]):
        raise ArithmeticError("the product of the conjugates is not rational")
    return tuple(others), norm[0]


class CyclotomicNumber:
    """An element of Z[zeta_m], integer coefficients in the basis 1, x, ...,
    x^{phi-1}.  Sums and differences take two numbers of one order;
    products also take an int.  ``divmod(a, b)`` divides in the ring.

    >>> z, one = (CyclotomicNumber.zeta_power(3, k) for k in (1, 0))
    >>> bool(z * z + z + one), divmod(one, z) == (z * z, 0 * z)
    (False, True)
    """

    __slots__ = ("order", "num")

    def __init__(self, order: int, coeffs: Iterable[int]):
        self.order = int(order)
        self.num = tuple(map(operator.index, coeffs))
        if len(self.num) != _field(self.order)[0]:
            raise ValueError("wrong number of coefficients")

    @classmethod
    def _make(cls, order: int, num: Sequence[int]) -> "CyclotomicNumber":
        """The number with coefficients num; len(num) = phi(order)."""
        z = cls.__new__(cls)
        z.order, z.num = order, tuple(num)
        return z

    @classmethod
    def zeta_power(cls, order: int, k: int) -> "CyclotomicNumber":
        """zeta_m^k, exponent taken mod m."""
        k %= order
        return cls._make(order, _reduce(order, [0] * k + [1]))

    def __bool__(self) -> bool:
        return any(self.num)

    def _check(self, other: "CyclotomicNumber"):
        if self.order != other.order:
            raise ValueError("cyclotomic orders differ")

    def __add__(self, other):
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        self._check(other)
        return CyclotomicNumber._make(
            self.order, [a + b for a, b in zip(self.num, other.num)])

    def __neg__(self):
        return CyclotomicNumber._make(self.order, [-a for a in self.num])

    def __sub__(self, other):
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return CyclotomicNumber._make(self.order,
                                          [a * other for a in self.num])
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        self._check(other)
        return CyclotomicNumber._make(
            self.order, _ring_mul(self.order, self.num, other.num))

    __rmul__ = __mul__

    def __divmod__(self, other):
        """(q, r) with self = q other + r: q is (self c) // N taken
        coefficientwise, where c is the product of other's other Galois
        conjugates and N = other c its norm (see
        :func:`_conjugate_product`).  For a rational integer other = a, c is
        a^(phi - 1) and N = a^phi, so q is self // a coefficientwise, with
        no product built.  r is zero exactly when other divides self, and
        then q is the quotient.  Division by zero raises ZeroDivisionError."""
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        self._check(other)
        m = self.order
        if any(other.num[1:]):
            others, norm = _conjugate_product(m, other.num)
            q = [x // norm for x in _ring_mul(m, self.num, others)]
        else:
            a = other.num[0]
            q = [x // a for x in self.num]
        q = CyclotomicNumber._make(m, q)
        return q, self - q * other

    def __eq__(self, other):
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        return self.order == other.order and self.num == other.num

    def __hash__(self):
        return hash((self.order, self.num))

    def __repr__(self):
        return f"CyclotomicNumber(order={self.order}, {list(self.num)})"


# ---------------------------------------------------------------------------
# characters and restriction to translated subtori
# ---------------------------------------------------------------------------

#: A row of :meth:`TermTable.restrict`: (entries, lo, norm, spans).
Restricted = tuple[list[dict], Optional[Expo], int, Optional[Expo]]


class TermTable:
    """The terms of a matrix of rational Laurent polynomials, indexed once
    for evaluation at many characters and restriction to cosets.

    ``exponents`` holds each distinct exponent vector of the matrix once.
    ``cells[i][j]`` is entry (i, j) as a tuple of (index into
    ``exponents``, coefficient) pairs, with row i scaled by the lcm of its
    coefficients' denominators (1 for an Alexander matrix), so that every
    coefficient is an int.  Scaling a row by a nonzero rational keeps the
    rank.  Equal cells are one object, and a character
    (:meth:`at_character`) or a coset (:meth:`restrict`) takes each once.
    ``weights[j]`` is the number of terms in column j.  A table never
    changes once built.

    >>> table = TermTable([[LaurentPoly.parse("t1 - 1", 2),
    ...                     LaurentPoly.parse("1/2 t1*t2 - 1/2")]])
    >>> table.exponents, table.cells
    ([(1, 0), (0, 0), (1, 1)], [[((0, 2), (1, -2)), ((2, 1), (1, -1))]])
    """

    __slots__ = ("num_vars", "exponents", "cells", "weights")

    def __init__(self, rows: Sequence[Sequence[LaurentPoly]]):
        index: dict = {}
        distinct: dict = {}
        self.cells = []
        for row in rows:
            scale = math.lcm(*(c.denominator for f in row
                               for c in f.terms.values()))
            cells = [tuple((index.setdefault(e, len(index)),
                            c.numerator * (scale // c.denominator))
                           for e, c in f.terms.items()) for f in row]
            self.cells.append([distinct.setdefault(c, c) for c in cells])
        self.num_vars = rows[0][0].num_vars if rows and rows[0] else 0
        self.exponents = list(index)
        self.weights = [sum(map(len, column)) for column in zip(*self.cells)]

    def at_character(self, chi: TorsionCharacter, columns: Sequence[int]
                     ) -> list[list[Optional[list[int]]]]:
        """The entries in ``columns`` of every (scaled) row at the character
        chi, as integer vectors of Z[zeta_m] in the basis 1, zeta, ...,
        zeta^(phi(m)-1), m the order of chi, and None for a zero entry: the
        input of :func:`cyclotomic_rank`.  The monomial t^a takes the value
        zeta_m^(a . w), w the numerators of chi.
        """
        if chi.n != self.num_vars and self.exponents:
            raise ValueError("character length mismatch")
        m, rows = chi.order, []
        powers = [sum(map(operator.mul, e, chi.nums)) % m
                  for e in self.exponents]
        values: dict = {(): None}             # cell -> its vector; () is 0
        for row in self.cells:
            for cell in map(row.__getitem__, columns):
                if cell not in values:
                    acc = [0] * m
                    for i, c in cell:
                        acc[powers[i]] += c
                    v = _reduce(m, acc)
                    values[cell] = v if any(v) else None
            rows.append([values[row[j]] for j in columns])
        return rows

    def restrict(self, chi: TorsionCharacter,
                 basis: Sequence[Sequence[int]], columns: Sequence[int]
                 ) -> list[Restricted]:
        """The entries in ``columns`` of every (scaled) row restricted to
        the coset chi.exp(L tensor C), L stored by the d integer rows
        ``basis``: t_i becomes chi_i prod_j u_j^B[j][i], so the monomial
        t^a becomes zeta_m^(a . w) u^(B a), w the numerators of chi over its
        order m.  Any integer basis of L maps u -> chi u^B onto the coset,
        so an entry restricts to zero iff it vanishes there, and the matrix
        keeps its generic rank there.

        Each row is (entries, lo, norm, spans).  An entry is the dict of
        its restricted exponents B a with their nonzero coefficients, each
        an integer vector of Z[zeta_m] reduced once mod Phi_m; equal cells
        share one dict.  lo is the least exponent of each u_j among the
        row's terms, spans their greatest less lo, and norm the sum of |c|
        over the integers c of the row's coefficients (lo and spans are
        None, and norm 0, for a row without terms).  Once the row is
        shifted by u^(-lo), a unit, the spans bound the degree in u_j of
        its entries, and the norms bound the coefficients of every minor
        (see :func:`jumploci.fox.generic_rank_on_torus`).
        """
        if chi.n != self.num_vars and self.exponents:
            raise ValueError("character length mismatch")
        m, exponents = chi.order, self.exponents
        images = (list(zip(*[[sum(map(operator.mul, b, a)) for a in exponents]
                             for b in basis])) if basis
                  else [()] * len(exponents))
        powers = [sum(map(operator.mul, a, chi.nums)) % m for a in exponents]
        done: dict = {}                       # cell -> (its restriction, norm)
        rows = []
        for row in self.cells:
            norm = 0
            entries = []
            for cell in map(row.__getitem__, columns):
                if cell not in done:
                    sums: dict = {}
                    for i, c in cell:
                        e = images[i]
                        if e not in sums:
                            sums[e] = [0] * m
                        sums[e][powers[i]] += c
                    terms, size = {}, 0
                    for e, acc in sums.items():
                        v = _reduce(m, acc)
                        if any(v):
                            terms[e] = v
                            size += sum(map(abs, v))
                    done[cell] = terms, size
                terms, size = done[cell]
                entries.append(terms)
                norm += size
            exps = [e for terms in entries for e in terms]
            if exps:
                lo = tuple(map(min, zip(*exps)))
                rows.append((entries, lo, norm, tuple(
                    map(operator.sub, map(max, zip(*exps)), lo))))
            else:
                rows.append((entries, None, 0, None))
        return rows


def at_point(rows: Sequence[Restricted], point: Sequence[int]
             ) -> list[list[Optional[list[int]]]]:
    """The restricted ``rows`` of :meth:`TermTable.restrict` at the integer
    point u, which has no zero coordinate, as integer vectors of Z[zeta_m]
    and None for a zero entry: the input of :func:`cyclotomic_rank`.

    Row i is multiplied by the unit u^(-lo_i), so every power of u is a
    polynomial one and every rank is kept.  A monomial that cancels on the
    coset was dropped by the restriction and is never evaluated.
    """
    values: dict = {}                         # (cell, lo_i) -> its value
    monomials: dict = {}                      # shifted exponent -> u^e
    out = []
    for entries, lo, _, _ in rows:
        row = []
        for terms in entries:
            key = (id(terms), lo)             # the rows keep each terms alive
            if key not in values:
                value = None
                for e, v in terms.items():
                    k = tuple(map(operator.sub, e, lo))
                    if k not in monomials:
                        monomials[k] = math.prod(map(pow, point, k))
                    x = monomials[k]
                    value = ([a + b * x for a, b in zip(value, v)]
                             if value else [b * x for b in v])
                values[key] = value if value and any(value) else None
            row.append(values[key])
        out.append(row)
    return out


def on_coset(rows: Sequence[Restricted], order: int, dim: int
             ) -> list[list[LaurentPoly]]:
    """The restricted ``rows`` of :meth:`TermTable.restrict` as Laurent
    polynomials in the ``dim`` variables u, over Z[zeta_m] for m =
    ``order``: the input of :func:`bareiss_rank`.  A coefficient is its
    vector's one int when phi(m) = 1 (m <= 2, zeta_2 = -1 folded), and a
    CyclotomicNumber otherwise.
    """
    values: dict = {}                         # id(terms) -> its polynomial
    out = []
    for entries, _, _, _ in rows:
        row = []
        for terms in entries:
            if id(terms) not in values:
                values[id(terms)] = LaurentPoly._make(dim, {
                    e: v[0] if len(v) == 1 else CyclotomicNumber._make(order, v)
                    for e, v in terms.items()})
            row.append(values[id(terms)])
        out.append(row)
    return out


# ---------------------------------------------------------------------------
# fraction-free ranks
# ---------------------------------------------------------------------------

def bareiss_rank(rows: Sequence[Sequence[LaurentPoly]]) -> int:
    """Rank over the fraction field, by Bareiss elimination.

    The coefficients lie in Z or one Z[zeta_m]: ints, or CyclotomicNumbers
    of one order.  Every entry of an intermediate matrix is a minor of the
    original, so each division by the previous pivot is exact in that ring
    (:meth:`LaurentPoly._divide`).  A ``Fraction`` coefficient is refused
    with a ValueError: scale its row to integers first, which keeps the
    rank.
    """
    work = [list(r) for r in rows]
    for i, row in enumerate(work):
        if any(type(c) is Fraction for f in row for c in f.terms.values()):
            raise ValueError(f"row {i} has a Fraction coefficient; scale it "
                             f"to integers, which keeps the rank")
    if not work:
        return 0
    prev = None
    active_cols = list(range(len(work[0])))
    row_at = 0
    while row_at < len(work) and active_cols:
        # pick the surviving entry with the sparsest support as pivot
        best = None
        for i in range(row_at, len(work)):
            for cpos, c in enumerate(active_cols):
                p = work[i][c]
                if p.is_zero():
                    continue
                key = (len(p.terms), i, cpos)
                if best is None or key < best[0]:
                    best = (key, i, cpos)
        if best is None:
            break
        _, pi, cpos = best
        pcol = active_cols.pop(cpos)
        work[row_at], work[pi] = work[pi], work[row_at]
        pivot = work[row_at][pcol]
        for i in range(row_at + 1, len(work)):
            fi = work[i][pcol]
            if fi.is_zero():
                row = [pivot * work[i][c] for c in active_cols]
            else:
                row = [pivot * work[i][c] - fi * work[row_at][c]
                       for c in active_cols]
            for c, val in zip(active_cols, row):
                work[i][c] = val if prev is None else val._divide(prev)
        prev = pivot
        row_at += 1
    return row_at


def cyclotomic_rank(rows: Sequence[Sequence[Optional[list[int]]]],
                    order: int) -> int:
    """Rank over Q(zeta_m), m = ``order``, of a matrix whose entries are
    integer vectors of Z[zeta_m] in the basis 1, zeta, ..., zeta^(phi(m)-1),
    and None for zero, as :meth:`TermTable.at_character` and
    :func:`at_point` give them.

    Elimination takes no division and no inverse: a pivot p clears an entry
    a below it by row_i <- p * row_i - a * row_p, which keeps the rank since
    p != 0, and the integer content of the new row is divided out.  Products
    are Kronecker substitutions (see :func:`_convolve`) with the width each
    entry needs; p and each entry of the pivot row are packed once per
    pivot step and width, and a once per row and width.  When phi(m) = 1
    the vectors are single ints and are multiplied as they are.
    """
    work = [list(row) for row in rows]
    if not work:
        return 0
    ncols = len(work[0])
    rank = 0
    for col in range(ncols):
        below = [i for i in range(rank, len(work)) if work[i][col]]
        if not below:
            continue
        # the pivot with the fewest and smallest coefficients
        piv = min(below, key=lambda i: (
            len(work[i][col]) - work[i][col].count(0),
            max(map(abs, work[i][col])), i))
        work[rank], work[piv] = work[piv], work[rank]
        prow = work[rank]
        p = prow[col]
        lower = [i for i in range(rank + 1, len(work)) if work[i][col]]
        if len(p) == 1:
            (x,) = p
            for i in lower:
                row = work[i]
                (a,) = row[col]
                row[col] = None
                for c in range(col + 1, ncols):
                    v = x * row[c][0] if row[c] else 0
                    if prow[c]:
                        v -= a * prow[c][0]
                    row[c] = [v] if v else None
        elif lower:
            phi = len(p)
            packed: dict = {}     # (column, width) -> prow[column] packed
            tops: dict = {}       # column -> phi max |prow[column]|
            for i in lower:
                row = work[i]
                a, row[col] = row[col], None
                ha = 0                        # max |a|, taken when needed
                packed_a: dict = {}           # width -> a packed
                for c in range(col + 1, ncols):
                    r, q = row[c], prow[c]
                    if not (r or q):
                        continue
                    # the largest coefficient that p r - a q can have
                    bound = 0
                    if r:
                        if col not in tops:
                            tops[col] = phi * max(map(abs, p))
                        bound = tops[col] * max(map(abs, r))
                    if q:
                        if c not in tops:
                            tops[c] = phi * max(map(abs, q))
                        ha = ha or max(map(abs, a))
                        bound += ha * tops[c]
                    width = bound.bit_length() // 8 + 1
                    half = 1 << (8 * width - 1)
                    total = 0
                    if r:
                        if (col, width) not in packed:
                            packed[col, width] = _pack(p, width, half)
                        total = packed[col, width] * _pack(r, width, half)
                    if q:
                        if (c, width) not in packed:
                            packed[c, width] = _pack(q, width, half)
                        if width not in packed_a:
                            packed_a[width] = _pack(a, width, half)
                        total -= packed_a[width] * packed[c, width]
                    v = _reduce(order, _unpack(total, width, half,
                                               2 * phi - 1))
                    row[c] = v if any(v) else None
        for i in lower:
            g = math.gcd(*(x for v in work[i] if v for x in v))
            if g > 1:
                work[i] = [[x // g for x in v] if v else None for v in work[i]]
        rank += 1
        if rank == len(work):
            break
    return rank
