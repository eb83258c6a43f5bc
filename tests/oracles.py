"""Independent oracles for cross-checking the library.

Everything in this module is deliberately naive and self-contained: nothing
here imports from ``jumploci``.  Expected values frozen into the test suite
were produced by these functions (or by hand, where noted in the tests), so
that the library and its reference results cannot share a bug.

Conventions match the library's *inputs* only: vectors are tuples of
``Fraction``, matrices are sequences of such rows, free-group letters are
``(generator_index >= 1, sign)`` pairs.
"""

from __future__ import annotations

import cmath
import itertools
import math
import re
import sys
from fractions import Fraction

TAU = 2 * math.pi


# ---------------------------------------------------------------------------
# naive exact linear algebra (row operations only, no canonical forms)
# ---------------------------------------------------------------------------

def frac_rows(rows):
    return [[Fraction(x) for x in row] for row in rows]


def naive_rank(rows):
    """Rank over Q by plain Gaussian elimination."""
    m = [row[:] for row in frac_rows(rows)]
    rank = 0
    cols = len(m[0]) if m else 0
    for col in range(cols):
        piv = None
        for i in range(rank, len(m)):
            if m[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def naive_nullspace(rows, n):
    """Basis (list of length-n Fraction rows) of {x : rows @ x = 0} over Q."""
    m = [row[:] for row in frac_rows(rows)]
    pivots = []
    rank = 0
    for col in range(n):
        piv = None
        for i in range(rank, len(m)):
            if m[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        pivots.append(col)
        rank += 1
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -m[i][fc]
        basis.append(v)
    return basis


def span_contains(big_rows, small_rows):
    """Is span(small) a subset of span(big)?  (Over Q.)"""
    big = frac_rows(big_rows)
    r = naive_rank(big)
    for row in frac_rows(small_rows):
        if naive_rank(big + [row]) != r:
            return False
    return True


def spans_equal(a_rows, b_rows):
    return span_contains(a_rows, b_rows) and span_contains(b_rows, a_rows)


def naive_det(rows):
    """Determinant over Q by cofactor expansion (tiny matrices only)."""
    k = len(rows)
    if k == 0:
        return Fraction(1)
    if k == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for j in range(k):
        if rows[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in rows[1:]]
        sign = -1 if j % 2 else 1
        total += sign * Fraction(rows[0][j]) * naive_det(minor)
    return total


def naive_solve(a_rows, b):
    """One rational solution x of A x = b, or None (A square or not)."""
    m = [row[:] + [bv] for row, bv in zip(frac_rows(a_rows), [Fraction(x) for x in b])]
    n = len(a_rows[0]) if a_rows else 0
    pivots = []
    rank = 0
    for col in range(n):
        piv = None
        for i in range(rank, len(m)):
            if m[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col] != 0:
                f = m[i][col]
                m[i] = [p - f * q for p, q in zip(m[i], m[rank])]
        pivots.append(col)
        rank += 1
    for i in range(rank, len(m)):
        if m[i][n] != 0:
            return None
    x = [Fraction(0)] * n
    for i, pc in enumerate(pivots):
        x[pc] = m[i][n]
    return x


# ---------------------------------------------------------------------------
# determinantal divisors: invariant factors / integer linear systems
# ---------------------------------------------------------------------------

def _int_minors_gcd(rows, k):
    """gcd of absolute values of all k x k minors of an integer matrix."""
    m = len(rows)
    n = len(rows[0]) if rows else 0
    if k == 0:
        return 1
    if k > min(m, n):
        return 0
    g = 0
    for rsel in itertools.combinations(range(m), k):
        for csel in itertools.combinations(range(n), k):
            sub = [[rows[i][j] for j in csel] for i in rsel]
            d = naive_det(sub)
            assert d.denominator == 1
            g = math.gcd(g, abs(int(d)))
    return g


def oracle_invariant_factors(rows):
    """Nonzero invariant factors of an integer matrix, via d_k/d_{k-1}."""
    rows = [[int(x) for x in row] for row in rows]
    r = naive_rank(rows)
    factors = []
    prev = 1
    for k in range(1, r + 1):
        dk = _int_minors_gcd(rows, k)
        factors.append(dk // prev)
        prev = dk
    return factors


def oracle_integer_system_solvable(a_rows, b):
    """Does A x = b (A, b integral) admit an *integer* solution?

    Classical determinantal-divisor criterion: ranks agree over Q and
    d_k(A) = d_k([A|b]) for every k up to the rank.
    """
    a_rows = [[int(x) for x in row] for row in a_rows]
    b = [int(x) for x in b]
    aug = [row + [bv] for row, bv in zip(a_rows, b)]
    r = naive_rank(a_rows)
    if naive_rank(aug) != r:
        return False
    for k in range(1, r + 1):
        if _int_minors_gcd(a_rows, k) != _int_minors_gcd(aug, k):
            return False
    return True


def oracle_lattice_membership(lam, basis_rows, n):
    """Is lam in span_Q(basis) + Z^n ?

    Reduces to an integer linear system W m = W lam for an integral matrix W
    with row span equal to the perp of the basis span, then applies the
    determinantal-divisor solvability criterion.  Independent of any Hermite
    normal form code.
    """
    lam = [Fraction(x) for x in lam]
    basis = frac_rows(basis_rows)
    perp = naive_nullspace(basis, n) if basis else [
        [Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)
    ]
    if not perp:
        return True  # the span is everything
    w_rows = []
    for row in perp:
        den = 1
        for x in row:
            den = den * x.denominator // math.gcd(den, x.denominator)
        w_rows.append([int(x * den) for x in row])
    b = []
    for row in w_rows:
        val = sum(Fraction(c) * l for c, l in zip(row, lam))
        if val.denominator != 1:
            return False
        b.append(int(val))
    return oracle_integer_system_solvable(w_rows, b)


def oracle_sigma_rho_membership(lam, plane_rows, direction_rows, n):
    """The translated incidence test read from its definition: P meets L in
    a nonzero vector (their ranks add up to more than the rank of both row
    sets together) and lam lies in P + L + Z^n."""
    plane_rows, direction_rows = list(plane_rows), list(direction_rows)
    both = plane_rows + direction_rows
    if naive_rank(plane_rows) + naive_rank(direction_rows) == naive_rank(both):
        return False
    return oracle_lattice_membership(lam, both, n)


# ---------------------------------------------------------------------------
# set partitions and exponential tangent cones
# ---------------------------------------------------------------------------

def set_partitions(items):
    """All partitions of a list (Bell-number many)."""
    items = list(items)
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[head] + part[i]] + part[i + 1:]
        yield [[head]] + part


def oracle_tangent_cone(terms, n):
    """Maximal subspaces L(p) over admissible partitions, by brute force.

    ``terms`` is a dict mapping integer exponent tuples to nonzero rational
    coefficients.  Returns a list of basis-row lists (one per maximal
    subspace, unordered, non-canonical); empty list means the cone is empty.
    """
    support = sorted(terms)
    if sum(terms.values()) != 0:
        return []
    spans = []
    for part in set_partitions(support):
        if any(sum(terms[a] for a in block) != 0 for block in part):
            continue
        constraints = []
        for block in part:
            base = block[0]
            for other in block[1:]:
                constraints.append([Fraction(x - y) for x, y in zip(other, base)])
        basis = naive_nullspace(constraints, n)
        spans.append(basis)
    maximal = []
    for cand in spans:
        if any(span_contains(other, cand) and not spans_equal(other, cand)
               for other in spans):
            continue
        if any(spans_equal(kept, cand) for kept in maximal):
            continue
        maximal.append(cand)
    return maximal


# ---------------------------------------------------------------------------
# rational JSON entries, one Fraction each
# ---------------------------------------------------------------------------

def _json_fault(text, error):
    """What is wrong with a text ``Fraction`` refused with ``error``."""
    if isinstance(error, ZeroDivisionError):
        return "has a zero denominator"
    if (isinstance(error, OverflowError)
            or str(error).startswith("Exceeds the limit")):  # int()'s limit
        return (f"has a number of more than {sys.get_int_max_str_digits()} "
                "digits")
    shown = text if len(text) <= 40 else text[:40] + "..."
    return f"is not a rational number ('p' or 'p/q'): {shown!r}"


def rational(text):
    """``Fraction(text.strip())``, except that a decimal with an exponent
    above ``int()``'s digit limit is an OverflowError, raised before
    Fraction would build the power of ten.  The text is such a decimal when
    Fraction reads it with every digit after its last e or E made 0."""
    text = text.strip()
    tail = re.search(r"[eE]([^eE]*)\Z", text)
    if tail:
        digits = "".join(c for c in tail.group(1) if c.isdecimal())
        limit = sys.get_int_max_str_digits()
        zeroed = text[:tail.start(1)] + re.sub(r"\d", "0", tail.group(1))
        if len(digits) <= limit < int(digits or 0):
            try:
                Fraction(zeroed)
            except ValueError:
                pass
            else:
                shown = text if len(text) <= 40 else text[:40] + "..."
                raise OverflowError(
                    f"{shown} written out is a number of more than {limit} "
                    "digits")
    return Fraction(text)


def json_rational(value, what):
    """:func:`rational` of ``str(value)``, or a ValueError naming the JSON
    entry ``what`` and its fault: the library's reader of one rational
    before it read JSON on integers."""
    text = str(value)
    try:
        return rational(text)
    except (ValueError, ArithmeticError) as error:
        raise ValueError(f"{what} {_json_fault(text, error)}") from None


def json_rationals(values, what):
    """:func:`json_rational` of each entry of a JSON array ``what``; the
    error names the entry by its index."""
    return [json_rational(x, f"{what} entry {i}") for i, x in enumerate(values)]


def json_rational_rows(rows, what):
    """:func:`json_rationals` of each row of a JSON array of arrays."""
    return [json_rationals(row, f"{what} row {i}") for i, row in enumerate(rows)]


# ---------------------------------------------------------------------------
# Laurent polynomial text, token by token
# ---------------------------------------------------------------------------

def oracle_parse_poly(text, num_vars=None):
    """Reference parser for the ``t1^2*t2^-1 - 3/2*t3 + 1`` text form.

    A character tokenizer (a ``Fraction`` per number token) and a
    recursive-descent term parser: the library's parser before its
    term-level scan, kept as the specification of the accepted language and
    of every error message.  Number tokens are runs of decimal digits
    (``str.isdecimal``), so another digit such as ``²`` is an unexpected
    character, and a zero denominator or a number longer than ``int()``
    reads is a ValueError with its position.
    Returns ``(num_vars, terms)``, terms a dict from exponent tuples to
    nonzero Fractions in order of first appearance; bad input raises the
    ValueError the library must raise.
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
    if any(len(e) != num_vars for e in padded):
        raise ValueError("exponent arity mismatch")
    return num_vars, {e: c for e, c in padded.items() if c != 0}


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
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            if j < n and text[j] == "/":
                k = j + 1
                while k < n and text[k].isdecimal():
                    k += 1
                if k == j + 1:
                    raise ValueError(f"bad rational at position {i}")
                num, den = _int_at(text[i:j], i), _int_at(text[j + 1:k], i)
                if not den:
                    raise ValueError(f"zero denominator at position {i}")
                tokens.append(("num", Fraction(num, den), i))
                i = k
            else:
                tokens.append(("num", Fraction(_int_at(text[i:j], i)), i))
                i = j
            continue
        if ch == "t" and i + 1 < n and text[i + 1].isdecimal():
            j = i + 1
            while j < n and text[j].isdecimal():
                j += 1
            index = _int_at(text[i + 1:j], i)
            if index < 1:
                raise ValueError(f"variables are numbered from t1, at position {i}")
            tokens.append(("var", index, i))
            i = j
            continue
        raise ValueError(f"unexpected character {ch!r} at position {i}")
    return tokens


def _int_at(digits, at):
    """int(digits); a run longer than int() reads is a ValueError that gives
    the position ``at`` of its token."""
    try:
        return int(digits)
    except ValueError:
        raise ValueError(f"a number of more than {sys.get_int_max_str_digits()}"
                         f" digits at position {at}") from None


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
# free calculus on words, letter by letter
# ---------------------------------------------------------------------------

def oracle_fox_derivative(letters, j, projection):
    """Abelianized Fox derivative d w / d x_j as {exponent tuple: int}.

    ``letters``: list of (generator >= 1, +-1); ``projection``: q x n integer
    matrix sending generator exponent columns to free-abelianization
    exponents.  Left convention: d(uv) = du + ab(u) dv.
    """
    q = len(projection)
    n = len(projection[0]) if q else 0
    prefix = [0] * q
    out: dict[tuple, int] = {}

    def add(sign, expvec):
        key = tuple(sum(projection[g][k] * expvec[g] for g in range(q)) for k in range(n))
        out[key] = out.get(key, 0) + sign
        if out[key] == 0:
            del out[key]

    for g, s in letters:
        gi = g - 1
        if s == 1:
            if g == j:
                add(+1, prefix)
            prefix[gi] += 1
        else:
            prefix[gi] -= 1
            if g == j:
                add(-1, prefix)
    return out


def fundamental_identity_holds(matrix):
    """Fox's fundamental identity sum_j M_ij (t^{a_j} - 1) = 0 on every row
    of an Alexander matrix, a_j the image of generator j: each entry's terms
    (exponent tuple -> coefficient) are added at their exponent shifted by
    a_j and subtracted at their own."""
    projection = matrix.abelianization.projection
    for row in matrix.entries:
        total = {}
        for entry, a in zip(row, projection):
            for e, c in entry.terms.items():
                shifted = tuple(x + y for x, y in zip(e, a))
                total[shifted] = total.get(shifted, 0) + c
                total[e] = total.get(e, 0) - c
        if any(total.values()):
            return False
    return True


def word_letters(syllables):
    """Expand ((gen, exp), ...) syllables into single letters."""
    letters = []
    for g, e in syllables:
        s = 1 if e > 0 else -1
        letters.extend([(g, s)] * abs(e))
    return letters


# ---------------------------------------------------------------------------
# Grassmann-Pluecker exchange relations
# ---------------------------------------------------------------------------

def signed_lookup(coords, subset_index, indices):
    """p_{indices} with sign of sorting; 0 on repeated indices."""
    if len(set(indices)) != len(indices):
        return Fraction(0)
    perm = sorted(range(len(indices)), key=lambda i: indices[i])
    inversions = sum(
        1
        for a in range(len(perm))
        for b in range(a + 1, len(perm))
        if perm[a] > perm[b]
    )
    key = tuple(sorted(indices))
    val = coords[subset_index[key]]
    return -val if inversions % 2 else val


def plucker_relation_residuals(coords, r, n):
    """All one-term exchange relation values; zero vector iff decomposable.

    coords: sequence indexed by r-subsets of range(n) in lexicographic order.
    """
    subsets = list(itertools.combinations(range(n), r))
    index = {s: i for i, s in enumerate(subsets)}
    residuals = []
    for left in itertools.combinations(range(n), r - 1):
        for right in itertools.combinations(range(n), r + 1):
            total = Fraction(0)
            for k, jk in enumerate(right):
                sign = -1 if k % 2 else 1
                a = signed_lookup(coords, index, left + (jk,))
                rest = right[:k] + right[k + 1:]
                b = signed_lookup(coords, index, rest)
                total += sign * a * b
            residuals.append(total)
    return residuals


def oracle_schubert_equations(basis, n, r):
    """The Schubert incidence forms of span(basis) against r-planes in Q^n.

    One Laplace expansion per (r + s)-subset of columns, s = len(basis):
    the minor of the stacked matrix (basis on top, an r-plane below) on
    those columns, expanded along the plane's rows, with every cofactor an
    s x s ``naive_det`` of the basis.  Coefficient tuples are indexed by the
    r-subsets of range(n) in lexicographic order; forms with no nonzero
    coefficient are dropped, and r + s > n gives no forms.
    """
    s = len(basis)
    if r + s > n:
        return []
    subsets = list(itertools.combinations(range(n), r))
    index = {sub: i for i, sub in enumerate(subsets)}
    forms = []
    for cset in itertools.combinations(range(n), r + s):
        coeffs = [Fraction(0)] * len(subsets)
        for j_subset in itertools.combinations(cset, r):
            rest = [c for c in cset if c not in j_subset]
            minor = naive_det([[row[c] for c in rest] for row in basis])
            # the plane's rows sit at rows s+1..s+r, its columns at the
            # positions of j_subset in cset (both 1-based)
            places = sum(range(s + 1, s + r + 1)) + sum(
                cset.index(j) + 1 for j in j_subset)
            coeffs[index[j_subset]] = -minor if places % 2 else minor
        if any(coeffs):
            forms.append(tuple(coeffs))
    return forms


# ---------------------------------------------------------------------------
# numerics (sanity checks only)
# ---------------------------------------------------------------------------

def unit_root(q):
    """exp(2 pi i q) for rational q."""
    q = Fraction(q)
    return cmath.exp(1j * TAU * float(q))


def eval_laurent_complex(terms, point):
    """Evaluate {exponents: Fraction} at a tuple of nonzero complex numbers."""
    total = 0j
    for exps, coeff in terms.items():
        val = complex(coeff)
        for e, t in zip(exps, point):
            val *= t ** e
        total += val
    return total


def complex_rank(rows, tol=1e-9):
    """Rank of a complex matrix by Gaussian elimination with pivot threshold."""
    m = [list(map(complex, row)) for row in rows]
    if not m:
        return 0
    rank = 0
    ncols = len(m[0])
    for col in range(ncols):
        piv, best = None, tol
        for i in range(rank, len(m)):
            if abs(m[i][col]) > best:
                piv, best = i, abs(m[i][col])
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(len(m)):
            if i != rank and abs(m[i][col]) > tol:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def minor_rank(entries, add, mul, neg, is_zero, zero, one):
    """Rank as the largest k with a nonvanishing k x k minor.

    Generic over a commutative ring given by callables; used as the second
    code path for rank computations over cyclotomic fields.
    """
    m = len(entries)
    n = len(entries[0]) if m else 0

    def det(rsel, csel):
        if not rsel:
            return one
        r0 = rsel[0]
        total = zero
        for pos, c in enumerate(csel):
            a = entries[r0][c]
            if is_zero(a):
                continue
            sub = det(rsel[1:], csel[:pos] + csel[pos + 1:])
            term = mul(a, sub)
            total = add(total, neg(term) if pos % 2 else term)
        return total

    for k in range(min(m, n), 0, -1):
        for rsel in itertools.combinations(range(m), k):
            for csel in itertools.combinations(range(n), k):
                if not is_zero(det(list(rsel), list(csel))):
                    return k
    return 0


# ---------------------------------------------------------------------------
# Q(zeta_m) with Fraction coefficients, schoolbook throughout
# ---------------------------------------------------------------------------

def _poly_divmod(a, b):
    """Quotient and remainder of Fraction polynomials (ascending, b[-1] != 0)."""
    r = [Fraction(x) for x in a]
    q = [Fraction(0)] * max(1, len(r) - len(b) + 1)
    while len(r) >= len(b):
        f = r[-1] / b[-1]
        shift = len(r) - len(b)
        q[shift] = f
        for i, c in enumerate(b):
            r[shift + i] -= f * c
        r.pop()
    return q, r


def oracle_cyclotomic_polynomial(m):
    """Phi_m (Fractions, ascending): x^m - 1 divided by Phi_d, d | m, d < m."""
    num = [Fraction(-1)] + [Fraction(0)] * (m - 1) + [Fraction(1)]
    for d in range(1, m):
        if m % d == 0:
            num, rest = _poly_divmod(num, oracle_cyclotomic_polynomial(d))
            assert not any(rest)
    return num


def cyclo_reduce(coeffs, phi_poly):
    """coeffs mod phi_poly, padded to deg(phi_poly) Fractions."""
    deg = len(phi_poly) - 1
    r = _poly_divmod(coeffs, phi_poly)[1] if len(coeffs) > deg else \
        [Fraction(x) for x in coeffs]
    return r + [Fraction(0)] * (deg - len(r))


def cyclo_mul(a, b, phi_poly):
    """Schoolbook product of two elements of Q[x]/phi_poly."""
    conv = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            conv[i + j] += x * y
    return cyclo_reduce(conv, phi_poly)


def cyclo_inverse(a, phi_poly):
    """a^-1 in Q[x]/phi_poly, by solving (multiplication by a) y = 1 over Q."""
    deg = len(phi_poly) - 1
    columns = [cyclo_mul(a, [Fraction(0)] * j + [Fraction(1)], phi_poly)
               for j in range(deg)]
    rows = [[columns[j][i] for j in range(deg)] for i in range(deg)]
    return naive_solve(rows, [1] + [0] * (deg - 1))


def oracle_character_value(terms, lam):
    """The value of the polynomial {exponents: coefficient} at the character
    exp(2 pi i lam), as (m, v): m the order of lam (the lcm of its
    denominators) and v its Fraction coefficients in the basis 1, zeta_m,
    ..., zeta_m^(phi(m)-1)."""
    lam = [Fraction(x) for x in lam]
    m = math.lcm(*(x.denominator for x in lam))
    v = [Fraction(0)] * m
    for exps, coeff in terms.items():
        k = sum(a * x for a, x in zip(exps, lam)) * m
        v[int(k) % m] += Fraction(coeff)
    return m, cyclo_reduce(v, oracle_cyclotomic_polynomial(m))


def oracle_cyclotomic_rank(entries, m):
    """Rank over Q(zeta_m) of a matrix whose entries are {k: Fraction}
    dicts, standing for sum(c * zeta_m^k), by Gaussian elimination with
    each pivot row scaled to a leading 1."""
    phi_poly = oracle_cyclotomic_polynomial(m)

    def element(terms):
        v = [Fraction(0)] * m
        for k, c in terms.items():
            v[k % m] += Fraction(c)
        return cyclo_reduce(v, phi_poly)

    rows = [[element(t) for t in row] for row in entries]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if any(rows[i][col])),
                   None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = cyclo_inverse(rows[rank][col], phi_poly)
        rows[rank] = [cyclo_mul(x, inv, phi_poly) for x in rows[rank]]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col]
            if any(f):
                rows[i] = [[p - q for p, q in
                            zip(x, cyclo_mul(f, y, phi_poly))]
                           for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank
