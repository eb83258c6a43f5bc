"""Sparse multivariate Laurent polynomials and cyclotomic arithmetic.

Three layers, all exact:

* :class:`LaurentPoly` — Z^n-graded sparse polynomials over Q; the parsers
  and serializers for the ``t1^2*t2^-1`` text form and the JSON term form
  live here.
* :class:`CyclotomicNumber` — elements of Q(zeta_m) = Q[x]/Phi_m(x) with
  Phi_m computed by recursive division of x^m - 1; inverses come from the
  extended Euclidean algorithm in Q[x] (Phi_m is irreducible, so this is a
  field and linear algebra over it is exact).
* :class:`CycloLaurentPoly` — Laurent polynomials with cyclotomic
  coefficients; what a rational polynomial becomes after being restricted to
  a translated subtorus.

The restriction map is the workhorse: given f on (C*)^n and a coset rho.T
with direction L, substituting t_i = rho_i * prod_j u_j^{B_ji} (B a basis of
the saturated lattice L meet Z^n) yields a polynomial in k = dim L variables
that vanishes identically iff f vanishes on all of rho.T.

>>> f = LaurentPoly.parse("t1 + t2 - 2")
>>> evaluate_at_character(f, (Fraction(1, 2), Fraction(1, 2))).is_zero()
False
>>> f.coefficient_sum()
Fraction(0, 1)
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional, Sequence

from .qlinalg import format_rational, parse_rational, saturated_integer_points, vec
from .tori import TorsionCharacter, TranslatedTorus

Expo = tuple[int, ...]


# ---------------------------------------------------------------------------
# rational Laurent polynomials
# ---------------------------------------------------------------------------

class LaurentPoly:
    """A sparse Laurent polynomial over Q in ``num_vars`` variables.

    Terms are a dict from integer exponent tuples to nonzero rational
    coefficients; the zero polynomial has no terms.  Canonical serialization
    orders terms lexicographically by exponent vector (ascending).

    >>> t1, t2 = LaurentPoly.variables(2)
    >>> ((t1 - 1) * (t2 + 1)).to_text()
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
            c = Fraction(c)
            if c != 0:
                clean[e] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, num_vars: int) -> "LaurentPoly":
        return cls(num_vars, {})

    @classmethod
    def constant(cls, num_vars: int, value) -> "LaurentPoly":
        return cls(num_vars, {tuple([0] * num_vars): Fraction(value)})

    @classmethod
    def monomial(cls, exponents: Sequence[int], coeff=1,
                 num_vars: Optional[int] = None) -> "LaurentPoly":
        exponents = tuple(int(x) for x in exponents)
        return cls(num_vars if num_vars is not None else len(exponents),
                   {exponents: Fraction(coeff)})

    @classmethod
    def variable(cls, index: int, num_vars: int) -> "LaurentPoly":
        """The variable t_{index+1} (zero-based index)."""
        e = [0] * num_vars
        e[index] = 1
        return cls(num_vars, {tuple(e): Fraction(1)})

    @classmethod
    def variables(cls, num_vars: int) -> list["LaurentPoly"]:
        return [cls.variable(i, num_vars) for i in range(num_vars)]

    # -- predicates and views ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def support(self) -> list[Expo]:
        return sorted(self.terms)

    def coefficient_sum(self) -> Fraction:
        """The value at the trivial character t = (1, ..., 1)."""
        return sum(self.terms.values(), Fraction(0))

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other) -> "LaurentPoly":
        if isinstance(other, LaurentPoly):
            if other.num_vars != self.num_vars:
                raise ValueError("variable count mismatch")
            return other
        return LaurentPoly.constant(self.num_vars, other)

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return LaurentPoly(self.num_vars, out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly(self.num_vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            other = LaurentPoly.constant(self.num_vars, other)
        if other.num_vars != self.num_vars:
            raise ValueError("variable count mismatch")
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return LaurentPoly(self.num_vars, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            if len(self.terms) != 1:
                raise ValueError("only monomials can be inverted")
            (e, c), = self.terms.items()
            return LaurentPoly(self.num_vars, {tuple(x * k for x in e): c ** k})
        out = LaurentPoly.constant(self.num_vars, 1)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        return (isinstance(other, LaurentPoly) and self.num_vars == other.num_vars
                and self.terms == other.terms)

    def __repr__(self):
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

        Variables are t1, t2, ...; ``num_vars`` defaults to the largest index
        that appears.  Raises ValueError with a position on bad input.
        """
        tokens = _tokenize_poly(text)
        terms, max_index = _parse_poly(tokens, text)
        if num_vars is None:
            num_vars = max_index
        if max_index > num_vars:
            raise ValueError(f"variable t{max_index} exceeds num_vars={num_vars}")
        padded = {}
        for e, c in terms.items():
            key = tuple(e[i] if i < len(e) else 0 for i in range(num_vars))
            padded[key] = padded.get(key, Fraction(0)) + c
        return cls(num_vars, padded)

    # -- JSON form -----------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "num_vars": self.num_vars,
            "terms": [{"exponents": list(e), "coeff": format_rational(self.terms[e])}
                      for e in sorted(self.terms)],
        }

    @classmethod
    def from_json(cls, data: dict) -> "LaurentPoly":
        n = int(data["num_vars"])
        terms = {}
        for t in data.get("terms", []):
            e = tuple(int(x) for x in t["exponents"])
            terms[e] = terms.get(e, Fraction(0)) + parse_rational(str(t["coeff"]))
        return cls(n, terms)


def _tokenize_poly(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*^":
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == "/":
                k = j + 1
                while k < n and text[k].isdigit():
                    k += 1
                if k == j + 1:
                    raise ValueError(f"bad rational at position {i}")
                tokens.append(("num", Fraction(text[i:k]), i))
                i = k
            else:
                tokens.append(("num", Fraction(text[i:j]), i))
                i = j
            continue
        if ch == "t" and i + 1 < n and text[i + 1].isdigit():
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            index = int(text[i + 1:j])
            if index < 1:
                raise ValueError(f"variables are numbered from t1, at position {i}")
            tokens.append(("var", index, i))
            i = j
            continue
        raise ValueError(f"unexpected character {ch!r} at position {i}")
    return tokens


def _parse_poly(tokens, text):
    terms: dict = {}
    max_index = 0
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else (None, None, len(text))

    def parse_term():
        nonlocal pos, max_index
        coeff = Fraction(1)
        exps: dict[int, int] = {}
        saw_factor = False
        while True:
            kind, value, at = peek()
            if kind == "num":
                coeff *= value
                pos += 1
                saw_factor = True
            elif kind == "var":
                pos += 1
                exp = 1
                if peek()[0] == "^":
                    pos += 1
                    sign = 1
                    if peek()[0] == "-":
                        sign = -1
                        pos += 1
                    k2, v2, at2 = peek()
                    if k2 != "num" or v2.denominator != 1:
                        raise ValueError(f"expected integer exponent at position {at2}")
                    exp = sign * int(v2)
                    pos += 1
                exps[value] = exps.get(value, 0) + exp
                max_index = max(max_index, value)
                saw_factor = True
            elif kind == "*":
                pos += 1
                continue
            else:
                break
        if not saw_factor:
            raise ValueError(f"expected a term at position {peek()[2]}")
        return coeff, exps

    first = True
    while pos < len(tokens):
        sign = Fraction(1)
        kind, _, at = peek()
        if kind in ("+", "-"):
            sign = Fraction(-1) if kind == "-" else Fraction(1)
            pos += 1
        elif not first:
            raise ValueError(f"expected '+' or '-' at position {at}")
        coeff, exps = parse_term()
        first = False
        width = max(exps) if exps else 0
        key = tuple(exps.get(i + 1, 0) for i in range(width))
        terms[key] = terms.get(key, Fraction(0)) + sign * coeff
    # normalize: pad all keys to the widest arity
    width = max((len(k) for k in terms), default=0)
    out = {}
    for k, c in terms.items():
        key = k + (0,) * (width - len(k))
        out[key] = out.get(key, Fraction(0)) + c
    return out, max_index


# ---------------------------------------------------------------------------
# cyclotomic fields Q(zeta_m)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Integer coefficients (ascending) of the m-th cyclotomic polynomial.

    >>> cyclotomic_polynomial(1)
    (-1, 1)
    >>> cyclotomic_polynomial(6)
    (1, -1, 1)
    """
    if m < 1:
        raise ValueError("m must be positive")
    num = [-1] + [0] * (m - 1) + [1]          # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            num = _int_poly_div(num, list(cyclotomic_polynomial(d)))
    return tuple(num)


def _int_poly_div(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials (ascending coefficients)."""
    num = num[:]
    out = [0] * (len(num) - len(den) + 1)
    for shift in range(len(num) - len(den), -1, -1):
        c = num[shift + len(den) - 1]
        q, r = divmod(c, den[-1])
        if r:
            raise ArithmeticError("non-exact polynomial division")
        out[shift] = q
        if q:
            for i, d in enumerate(den):
                num[shift + i] -= q * d
    if any(num):
        raise ArithmeticError("non-exact polynomial division")
    return out


@lru_cache(maxsize=None)
def _phi(m: int) -> int:
    return len(cyclotomic_polynomial(m)) - 1


@lru_cache(maxsize=None)
def _power_table(m: int) -> tuple[tuple[Fraction, ...], ...]:
    """x^j mod Phi_m for 0 <= j < max(m, 2*phi(m)), as coefficient tuples."""
    phi = _phi(m)
    top = cyclotomic_polynomial(m)
    limit = max(m, 2 * phi)
    rows: list[tuple[Fraction, ...]] = []
    current = [Fraction(0)] * phi
    if phi:
        current[0] = Fraction(1)
    rows.append(tuple(current))
    for _ in range(1, limit):
        shifted = [Fraction(0)] + current[:]
        if len(shifted) > phi:
            lead = shifted.pop()
            if lead:
                # x^phi = -(Phi_m - x^phi), monic reduction
                for i in range(phi):
                    shifted[i] -= lead * top[i]
        current = shifted
        rows.append(tuple(current))
    return tuple(rows)


class CyclotomicNumber:
    """An element of Q(zeta_m), coefficients in the basis 1, x, ..., x^{phi-1}.

    >>> z = CyclotomicNumber.zeta_power(3, 1)
    >>> (z * z + z + 1).is_zero()
    True
    >>> (z.inverse() * z) == CyclotomicNumber.one(3)
    True
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Iterable):
        self.order = int(order)
        coeffs = tuple(Fraction(x) for x in coeffs)
        if len(coeffs) != _phi(self.order):
            raise ValueError("wrong number of coefficients")
        self.coeffs = coeffs

    @classmethod
    def zero(cls, order: int) -> "CyclotomicNumber":
        return cls(order, [Fraction(0)] * _phi(order))

    @classmethod
    def one(cls, order: int) -> "CyclotomicNumber":
        return cls.from_rational(order, 1)

    @classmethod
    def from_rational(cls, order: int, value) -> "CyclotomicNumber":
        coeffs = [Fraction(0)] * _phi(order)
        v = Fraction(value)
        if _phi(order) == 0:
            raise ValueError("degenerate order")
        if v != 0:
            table = _power_table(order)
            coeffs = [v * c for c in table[0]]
        return cls(order, coeffs)

    @classmethod
    def zeta_power(cls, order: int, k: int) -> "CyclotomicNumber":
        """zeta_m^k, exponent taken mod m."""
        k %= order
        return cls(order, _power_table(order)[k])

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def rational_part(self) -> Fraction:
        return self.coeffs[0]

    def _check(self, other: "CyclotomicNumber"):
        if self.order != other.order:
            raise ValueError("cyclotomic orders differ (lift first)")

    def __add__(self, other):
        if not isinstance(other, CyclotomicNumber):
            other = CyclotomicNumber.from_rational(self.order, other)
        self._check(other)
        return CyclotomicNumber(self.order,
                                [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicNumber(self.order, [-a for a in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, CyclotomicNumber):
            other = CyclotomicNumber.from_rational(self.order, other)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, CyclotomicNumber):
            return CyclotomicNumber(self.order, [c * other for c in self.coeffs])
        self._check(other)
        phi = len(self.coeffs)
        conv = [Fraction(0)] * (2 * phi - 1 if phi else 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    conv[i + j] += a * b
        table = _power_table(self.order)
        out = [Fraction(0)] * phi
        for k, c in enumerate(conv):
            if c:
                row = table[k]
                for i in range(phi):
                    if row[i]:
                        out[i] += c * row[i]
        return CyclotomicNumber(self.order, out)

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicNumber":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        top = [Fraction(c) for c in cyclotomic_polynomial(self.order)]
        g, s, _ = _poly_xgcd(list(self.coeffs), top)
        # g is a nonzero constant since Phi_m is irreducible
        if len(g) != 1 or g[0] == 0:
            raise ArithmeticError("gcd with the cyclotomic polynomial is not "
                                  "a nonzero constant")
        inv = [c / g[0] for c in s]
        inv = _poly_mod(inv, top)
        phi = len(self.coeffs)
        inv += [Fraction(0)] * (phi - len(inv))
        return CyclotomicNumber(self.order, inv[:phi])

    def __truediv__(self, other):
        if not isinstance(other, CyclotomicNumber):
            other = CyclotomicNumber.from_rational(self.order, other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def lift(self, new_order: int) -> "CyclotomicNumber":
        """Image under zeta_m -> zeta_M^(M/m) for m | M."""
        if new_order == self.order:
            return self
        if new_order % self.order != 0:
            raise ValueError("new order must be a multiple of the old one")
        step = new_order // self.order
        table = _power_table(new_order)
        phi = _phi(new_order)
        out = [Fraction(0)] * phi
        for i, c in enumerate(self.coeffs):
            if c:
                row = table[(i * step) % new_order]
                for j in range(phi):
                    if row[j]:
                        out[j] += c * row[j]
        return CyclotomicNumber(new_order, out)

    def to_complex(self) -> complex:
        z = complex(math.cos(2 * math.pi / self.order),
                    math.sin(2 * math.pi / self.order))
        total = 0j
        power = 1 + 0j
        for c in self.coeffs:
            total += float(c) * power
            power *= z
        return total

    def __eq__(self, other):
        if isinstance(other, CyclotomicNumber):
            if self.order != other.order:
                m = self.order * other.order // math.gcd(self.order, other.order)
                return self.lift(m).coeffs == other.lift(m).coeffs
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.rational_part() == other
        return NotImplemented

    def __hash__(self):
        if self.is_rational():
            return hash(self.rational_part())
        return hash((self.order, self.coeffs))

    def __repr__(self):
        return f"CyclotomicNumber(order={self.order}, {list(self.coeffs)})"


def _poly_trim(p: list[Fraction]) -> list[Fraction]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_divmod(a: list[Fraction], b: list[Fraction]):
    a = _poly_trim([Fraction(x) for x in a])
    b = _poly_trim([Fraction(x) for x in b])
    if not b:
        raise ZeroDivisionError
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    r = a[:]
    while len(r) >= len(b) and r:
        f = r[-1] / b[-1]
        shift = len(r) - len(b)
        q[shift] = f
        for i in range(len(b)):
            r[shift + i] -= f * b[i]
        _poly_trim(r)
    return q, r


def _poly_mod(a, b):
    return _poly_divmod(a, b)[1]


def _poly_xgcd(a, b):
    """(g, s, t) with s*a + t*b = g over Q[x], coefficients ascending."""
    r0, r1 = _poly_trim([Fraction(x) for x in a]), _poly_trim([Fraction(x) for x in b])
    s0, s1 = [Fraction(1)], []
    t0, t1 = [], [Fraction(1)]

    def add(p, q):
        out = [Fraction(0)] * max(len(p), len(q))
        for i, c in enumerate(p):
            out[i] += c
        for i, c in enumerate(q):
            out[i] += c
        return _poly_trim(out)

    def mul(p, q):
        if not p or not q:
            return []
        out = [Fraction(0)] * (len(p) + len(q) - 1)
        for i, c in enumerate(p):
            if c:
                for j, d in enumerate(q):
                    out[i + j] += c * d
        return _poly_trim(out)

    while r1:
        q, r = _poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, add(s0, [-c for c in mul(q, s1)])
        t0, t1 = t1, add(t0, [-c for c in mul(q, t1)])
    return r0, s0, t0


# ---------------------------------------------------------------------------
# Laurent polynomials with cyclotomic coefficients
# ---------------------------------------------------------------------------

class CycloLaurentPoly:
    """Sparse Laurent polynomial over Q(zeta_m)."""

    __slots__ = ("num_vars", "order", "terms")

    def __init__(self, num_vars: int, order: int, terms: dict):
        self.num_vars = int(num_vars)
        self.order = int(order)
        clean = {}
        for e, c in terms.items():
            e = tuple(int(x) for x in e)
            if len(e) != num_vars:
                raise ValueError("exponent arity mismatch")
            if not isinstance(c, CyclotomicNumber):
                c = CyclotomicNumber.from_rational(order, c)
            if c.order != order:
                raise ValueError("coefficient order mismatch")
            if not c.is_zero():
                clean[e] = c
        self.terms = clean

    @classmethod
    def zero(cls, num_vars: int, order: int) -> "CycloLaurentPoly":
        return cls(num_vars, order, {})

    @classmethod
    def constant(cls, num_vars: int, order: int, value) -> "CycloLaurentPoly":
        return cls(num_vars, order, {tuple([0] * num_vars): value})

    @classmethod
    def from_rational_poly(cls, f: LaurentPoly, order: int = 1
                           ) -> "CycloLaurentPoly":
        return cls(f.num_vars, order,
                   {e: CyclotomicNumber.from_rational(order, c)
                    for e, c in f.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other: "CycloLaurentPoly"):
        if self.num_vars != other.num_vars or self.order != other.order:
            raise ValueError("incompatible polynomials")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out[e] + c if e in out else c
        return CycloLaurentPoly(self.num_vars, self.order, out)

    def __neg__(self):
        return CycloLaurentPoly(self.num_vars, self.order,
                                {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                prod = c1 * c2
                out[e] = out[e] + prod if e in out else prod
        return CycloLaurentPoly(self.num_vars, self.order, out)

    def scale(self, c: CyclotomicNumber) -> "CycloLaurentPoly":
        return CycloLaurentPoly(self.num_vars, self.order,
                                {e: v * c for e, v in self.terms.items()})

    def shift(self, delta: Sequence[int]) -> "CycloLaurentPoly":
        """Multiply by the unit monomial u^delta."""
        delta = tuple(int(x) for x in delta)
        return CycloLaurentPoly(
            self.num_vars, self.order,
            {tuple(a + b for a, b in zip(e, delta)): c
             for e, c in self.terms.items()})

    def monomial_content(self) -> Expo:
        """Componentwise minimum exponent over the support (zero if empty)."""
        if not self.terms:
            return tuple([0] * self.num_vars)
        mins = None
        for e in self.terms:
            mins = e if mins is None else tuple(min(a, b) for a, b in zip(mins, e))
        return mins

    def leading(self) -> tuple[Expo, CyclotomicNumber]:
        e = max(self.terms)
        return e, self.terms[e]

    def divide_exact(self, other: "CycloLaurentPoly") -> "CycloLaurentPoly":
        """Quotient self/other in the Laurent ring; raises if not divisible."""
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return CycloLaurentPoly.zero(self.num_vars, self.order)
        fshift = self.monomial_content()
        gshift = other.monomial_content()
        f = self.shift(tuple(-x for x in fshift))
        g = other.shift(tuple(-x for x in gshift))
        glead_e, glead_c = g.leading()
        glead_inv = glead_c.inverse()
        quo: dict = {}
        r = f
        while not r.is_zero():
            rlead_e, rlead_c = r.leading()
            t = tuple(a - b for a, b in zip(rlead_e, glead_e))
            if any(x < 0 for x in t):
                raise ArithmeticError("polynomials do not divide exactly")
            c = rlead_c * glead_inv
            quo[t] = c
            r = r - g.shift(t).scale(c)
        q = CycloLaurentPoly(self.num_vars, self.order, quo)
        return q.shift(tuple(a - b for a, b in zip(fshift, gshift)))

    def __eq__(self, other):
        return (isinstance(other, CycloLaurentPoly)
                and self.num_vars == other.num_vars
                and self.order == other.order and self.terms == other.terms)

    def __repr__(self):
        items = ", ".join(f"{e}: {c!r}" for e, c in sorted(self.terms.items()))
        return (f"CycloLaurentPoly(vars={self.num_vars}, order={self.order}, "
                f"{{{items}}})")


# ---------------------------------------------------------------------------
# characters and restriction to translated subtori
# ---------------------------------------------------------------------------

def evaluate_at_character(f: LaurentPoly, lam) -> CyclotomicNumber:
    """Value of f at the finite-order character t = exp(2 pi i lam).

    The result lives in Q(zeta_m) with m the lcm of the denominators of lam.
    """
    if isinstance(lam, TorsionCharacter):
        values = lam.values
    else:
        values = TorsionCharacter(vec(lam)).values
    if len(values) != f.num_vars:
        raise ValueError("character length mismatch")
    m = 1
    for x in values:
        m = m * x.denominator // math.gcd(m, x.denominator)
    total = CyclotomicNumber.zero(m)
    for e, c in f.terms.items():
        phase = sum((Fraction(k) * x for k, x in zip(e, values)), Fraction(0))
        k = int(phase * m) % m
        total = total + CyclotomicNumber.zeta_power(m, k) * c
    return total


def restriction_lattice_basis(direction) -> tuple[tuple[int, ...], ...]:
    """HNF basis of the saturated lattice (direction meet Z^n)."""
    return saturated_integer_points(direction).basis


def restrict_to_translated_torus(f: LaurentPoly, torus: TranslatedTorus
                                 ) -> CycloLaurentPoly:
    """Restrict f to the coset rho.T: substitute t_i = rho_i prod_j u_j^B[j][i].

    B is the HNF basis of the saturated lattice spanned by the direction, so
    distinct lattice characters of T stay distinct monomials and the result
    is zero iff f vanishes identically on the coset.  The output has
    k = dim T variables and coefficients in Q(zeta_m), m the order of the
    translate.
    """
    if f.num_vars != torus.ambient_dim:
        raise ValueError("variable count does not match the ambient torus")
    basis = restriction_lattice_basis(torus.direction)
    k = len(basis)
    m = torus.translate.order
    values = torus.translate.values
    out: dict = {}
    for a, c in f.terms.items():
        e = tuple(sum(basis[j][i] * a[i] for i in range(f.num_vars))
                  for j in range(k))
        phase = sum((Fraction(ai) * x for ai, x in zip(a, values)), Fraction(0))
        coeff = CyclotomicNumber.zeta_power(m, int(phase * m) % m) * c
        out[e] = out[e] + coeff if e in out else coeff
    return CycloLaurentPoly(k, m, out)


# ---------------------------------------------------------------------------
# fraction-free rank of matrices of (cyclotomic) Laurent polynomials
# ---------------------------------------------------------------------------

def bareiss_rank(rows: Sequence[Sequence[CycloLaurentPoly]]) -> int:
    """Rank over the fraction field, by Bareiss elimination.

    Division by the previous pivot is exact (entries of intermediate
    matrices are subdeterminants of the original, up to the unit monomial
    row contents stripped along the way, which never obstruct Laurent
    divisibility).
    """
    work = [list(r) for r in rows]
    if not work:
        return 0
    ncols = len(work[0])
    nvars = work[0][0].num_vars if work[0] else 0
    order = work[0][0].order if work[0] else 1

    def strip(p: CycloLaurentPoly) -> CycloLaurentPoly:
        if p.is_zero():
            return p
        return p.shift(tuple(-x for x in p.monomial_content()))

    work = [[strip(p) for p in r] for r in work]
    prev = CycloLaurentPoly.constant(nvars, order, 1)
    prev_is_one = True
    rank = 0
    active_cols = list(range(ncols))
    row_at = rank
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
            new_row = [CycloLaurentPoly.zero(nvars, order)] * ncols
            for c, val in zip(active_cols, row):
                new_row[c] = val.divide_exact(prev) if not prev_is_one else val
            work[i] = new_row
        prev = pivot
        prev_is_one = False
        rank += 1
        row_at += 1
    return rank
