"""Independent oracles used by the test suite.

These deliberately avoid the library's own decision procedures: signs
are checked against outward-rounded interval arithmetic on a numeric
embedding, rational Hilbert symbols against a bounded Hensel-valid
solution search on the associated ternary form, tower arithmetic
against a slow re-implementation that canonicalises every Laurent value
by the full strip, gcd and normalize, quaternion arithmetic against
the basis multiplication table applied bilinearly (and the product of
library values against all sixteen coordinate products, central factors
included), symmetric Gram matrices against plain congruence
diagonalization over the field,
integer invariant factors against the determinantal divisors, the
zero-on-nil sublattice and its 2-power exponents against a left kernel
and a capped floor-division membership search, and the split model of a
certificate and the transport along it against the dense sum over every
coordinate and matrix entry, with one product by G per Gram entry, the
split model's matrices and involution datum against all sixteen
products b_s * (b_t e) and all sixteen datum equations, invertibility
by the reduced norm against computing the inverse, the piecewise
assembly of references and of h0 against scaling each piece first by
its one-ordering Pfister form and then by its padding, the
entry-by-entry reading of diagonal forms' route values against transport
and elimination of every form, the signature image built one field
probe at a time against every Pfister form times every hermitian probe,
and a report's two exactness rules, read off the ordering count of a
prefix tower and off the local types, against re-signing each radicand
at every ordering of its base and against the signs of the quaternion
parameters and, over Q, their Hilbert symbols.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from itertools import combinations

from hermstab.algebras import morita_flatten
from hermstab.fields import FieldElement, FieldTower, MismatchError, Ordering
from hermstab.lattices import hnf
from hermstab.quadratic import QuadraticForm, SingularFormError, hilbert_symbol, pfister
from hermstab.signatures import ReferenceForm, total_signature
from hermstab.stability import (
    NilAwareSpace,
    Probes,
    _division_certain,
    _field_patterns_complete,
    _field_probes,
    _probe_signatures,
    _value_groups_attained,
)


class Interval:
    """A closed rational interval; all operations round outward exactly."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        self.lo = Fraction(lo)
        self.hi = Fraction(hi)
        if self.lo > self.hi:
            raise ValueError("empty interval")

    @staticmethod
    def point(x) -> "Interval":
        return Interval(x, x)

    def __add__(self, other):
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def __neg__(self):
        return Interval(-self.hi, -self.lo)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        products = [
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        ]
        return Interval(min(products), max(products))

    def contains_zero(self) -> bool:
        return self.lo <= 0 <= self.hi

    def inverse(self):
        if self.contains_zero():
            raise ZeroDivisionError("interval straddles zero")
        return Interval(1 / self.hi, 1 / self.lo)

    def sqrt(self, digits: int) -> "Interval":
        if self.lo < 0:
            raise ValueError("interval must be nonnegative")
        scale = 10**digits

        def low(f):
            return Fraction(
                math.isqrt(f.numerator * scale * scale // f.denominator), scale
            )

        def high(f):
            r = math.isqrt(f.numerator * scale * scale // f.denominator)
            return Fraction(r + 1, scale)

        return Interval(low(self.lo), high(self.hi))

    def sign(self):
        if self.lo > 0:
            return 1
        if self.hi < 0:
            return -1
        return None


def _interval(tower: FieldTower, level, value, path, subs, digits):
    if level == 0:
        return Interval.point(value)
    step = tower.steps[level]
    if step[0] == "qext":
        u, v = value
        iu = _interval(tower, level - 1, u, path, subs, digits)
        iv = _interval(tower, level - 1, v, path, subs, digits)
        idd = _interval(tower, level - 1, step[1], path, subs, digits)
        root = idd.sqrt(digits)
        if path[level - 1] < 0:
            root = -root
        return iu + iv * root
    k, p, q = value
    t = subs[level]
    if path[level - 1] < 0:
        t = -t

    def poly(coeffs, base):
        acc = Interval.point(0)
        for i, c in enumerate(coeffs):
            ci = _interval(tower, level - 1, c, path, subs, digits)
            acc = acc + ci * Interval.point(t ** (base + i))
        return acc

    if p == ():
        return Interval.point(0)
    num = poly(p, k)
    den = poly(q, 0)
    return num * den.inverse()


def interval_sign(e: FieldElement, P: Ordering) -> int:
    """Sign by refining a numeric embedding until the interval commits."""
    if e.is_zero():
        return 0
    tower = e.tower
    for digits, exp in ((40, 9), (80, 18), (160, 36), (320, 72)):
        subs = {}
        scale = 1
        for level, step in enumerate(tower.steps):
            if step[0] == "laurent":
                scale += 1
                subs[level] = Fraction(1, 10 ** (exp * scale))
        try:
            s = _interval(
                tower, tower.depth - 1, e.value, P.path, subs, digits
            ).sign()
        except ZeroDivisionError:
            continue
        if s is not None:
            return s
    raise RuntimeError(f"interval oracle failed to commit on {e}")


# ---------------------------------------------------------------------------
# rational Hilbert symbol by bounded search
# ---------------------------------------------------------------------------


def _strip_squares(n: int, p: int) -> int:
    while n % (p * p) == 0:
        n //= p * p
    return n


def _ternary_isotropic_mod(c, p: int) -> bool:
    """Whether c1 x^2 + c2 y^2 + c3 z^2 = 0 has a nontrivial p-adic zero,
    by searching Hensel-valid primitive solutions mod p^k."""
    c = [_strip_squares(ci, p) for ci in c]
    ramified = 1 if any(ci % p == 0 for ci in c) else 0
    tau = (1 if p == 2 else 0) + ramified
    k = 2 * tau + 1
    if p == 2:
        k += 2  # slack for the unit squares mod 8
    mod = p**k
    by_value: dict[int, list[int]] = {}
    for z in range(mod):
        by_value.setdefault((c[2] * z * z) % mod, []).append(z)
    for x in range(mod):
        t1 = c[0] * x * x
        for y in range(mod):
            r = (-(t1 + c[1] * y * y)) % mod
            for z in by_value.get(r, ()):
                if x % p == 0 and y % p == 0 and z % p == 0:
                    continue
                grads = (2 * c[0] * x, 2 * c[1] * y, 2 * c[2] * z)
                t = min(_vp_int(g, p, k) for g in grads)
                if 2 * t < k:
                    return True
    return False


def _vp_int(n: int, p: int, cap: int) -> int:
    if n == 0:
        return cap
    v = 0
    while n % p == 0 and v < cap:
        n //= p
        v += 1
    return v


def hilbert_oracle(a, b, place) -> int:
    """(a, b) at a place, decided by search instead of formulas."""
    a = Fraction(a)
    b = Fraction(b)
    if place == math.inf:
        return -1 if a < 0 and b < 0 else 1
    p = int(place)
    an = a.numerator * a.denominator
    bn = b.numerator * b.denominator
    return 1 if _ternary_isotropic_mod([an, bn, -1], p) else -1


# ---------------------------------------------------------------------------
# tower arithmetic, canonicalised the slow way
# ---------------------------------------------------------------------------


class SlowTower:
    """Field arithmetic on the library's value tuples (Fraction; (u, v) for
    u + v*sqrt(d); (shift, p, q) for x**shift * p/q), written apart from
    the library.  Every Laurent result goes through ``canon``: strip the
    x-powers, divide p and q by their monic gcd, scale so that q[0] == 1.
    No operation takes a shortcut, so its output is the canonical form."""

    def __init__(self, tower: FieldTower):
        self.steps = tower.steps

    def kind(self, level):
        return self.steps[level][0]

    def rat(self, level, f):
        if level == 0:
            return Fraction(f)
        if self.kind(level) == "qext":
            return (self.rat(level - 1, f), self.rat(level - 1, 0))
        if f == 0:
            return (0, (), (self.rat(level - 1, 1),))
        return (0, (self.rat(level - 1, f),), (self.rat(level - 1, 1),))

    def is_zero(self, level, x):
        if level == 0:
            return x == 0
        if self.kind(level) == "qext":
            return all(self.is_zero(level - 1, c) for c in x)
        return x[1] == ()

    def neg(self, level, x):
        if level == 0:
            return -x
        if self.kind(level) == "qext":
            return tuple(self.neg(level - 1, c) for c in x)
        k, p, q = x
        return (k, tuple(self.neg(level - 1, c) for c in p), q)

    def add(self, level, x, y):
        if level == 0:
            return x + y
        if self.kind(level) == "qext":
            return (self.add(level - 1, x[0], y[0]), self.add(level - 1, x[1], y[1]))
        if self.is_zero(level, x):
            return y
        if self.is_zero(level, y):
            return x
        (kx, px, qx), (ky, py, qy) = x, y
        k = min(kx, ky)
        zero = self.rat(level - 1, 0)
        num = self.p_add(
            level,
            self.p_mul(level, (zero,) * (kx - k) + px, qy),
            self.p_mul(level, (zero,) * (ky - k) + py, qx),
        )
        return self.canon(level, k, num, self.p_mul(level, qx, qy))

    def mul(self, level, x, y):
        if level == 0:
            return x * y
        if self.kind(level) == "qext":
            d = self.steps[level][1]
            (u1, v1), (u2, v2) = x, y
            m = lambda a, b: self.mul(level - 1, a, b)  # noqa: E731
            return (
                self.add(level - 1, m(u1, u2), m(d, m(v1, v2))),
                self.add(level - 1, m(u1, v2), m(v1, u2)),
            )
        if self.is_zero(level, x) or self.is_zero(level, y):
            return self.rat(level, 0)
        (kx, px, qx), (ky, py, qy) = x, y
        return self.canon(
            level, kx + ky, self.p_mul(level, px, py), self.p_mul(level, qx, qy)
        )

    def inv(self, level, x):
        if level == 0:
            return 1 / x
        if self.kind(level) == "qext":
            d = self.steps[level][1]
            u, v = x
            lower = level - 1
            norm = self.add(
                lower,
                self.mul(lower, u, u),
                self.neg(lower, self.mul(lower, d, self.mul(lower, v, v))),
            )
            n_inv = self.inv(lower, norm)
            return (
                self.mul(lower, u, n_inv),
                self.neg(lower, self.mul(lower, v, n_inv)),
            )
        k, p, q = x
        return self.canon(level, -k, q, p)

    def div(self, level, x, y):
        return self.mul(level, x, self.inv(level, y))

    # dense polynomials with coefficients one level down

    def trim(self, level, p):
        out = list(p)
        while out and self.is_zero(level - 1, out[-1]):
            out.pop()
        return tuple(out)

    def p_add(self, level, p, q):
        zero = self.rat(level - 1, 0)
        n = max(len(p), len(q))
        p, q = p + (zero,) * (n - len(p)), q + (zero,) * (n - len(q))
        return self.trim(level, tuple(self.add(level - 1, a, b) for a, b in zip(p, q)))

    def p_mul(self, level, p, q):
        if not p or not q:
            return ()
        out = [self.rat(level - 1, 0)] * (len(p) + len(q) - 1)
        for i, a in enumerate(p):
            if self.is_zero(level - 1, a):
                continue
            for j, b in enumerate(q):
                out[i + j] = self.add(level - 1, out[i + j], self.mul(level - 1, a, b))
        return self.trim(level, out)

    def p_scale(self, level, p, c):
        return self.trim(level, tuple(self.mul(level - 1, a, c) for a in p))

    def p_divmod(self, level, p, q):
        lower = level - 1
        rem = list(p)
        quo = [self.rat(lower, 0)] * max(0, len(p) - len(q) + 1)
        lead_inv = self.inv(lower, q[-1])
        for i in range(len(p) - len(q), -1, -1):
            c = self.mul(lower, rem[i + len(q) - 1], lead_inv)
            quo[i] = c
            for j, b in enumerate(q):
                cb = self.neg(lower, self.mul(lower, c, b))
                rem[i + j] = self.add(lower, rem[i + j], cb)
        return self.trim(level, quo), self.trim(level, rem)

    def p_gcd(self, level, p, q):
        """The monic gcd, by the Euclidean algorithm."""
        a, b = p, q
        while b:
            a, b = b, self.p_divmod(level, a, b)[1]
        return self.p_scale(level, a, self.inv(level - 1, a[-1]))

    def canon(self, level, shift, p, q):
        """The full canonicalisation: strip, gcd, normalize."""
        p, q = self.trim(level, p), self.trim(level, q)
        if not q:
            raise ZeroDivisionError("Laurent denominator is zero")
        if not p:
            return self.rat(level, 0)
        i = next(n for n, c in enumerate(p) if not self.is_zero(level - 1, c))
        j = next(n for n, c in enumerate(q) if not self.is_zero(level - 1, c))
        p, q = p[i:], q[j:]
        g = self.p_gcd(level, p, q)
        p, q = self.p_divmod(level, p, g)[0], self.p_divmod(level, q, g)[0]
        c = self.inv(level - 1, q[0])
        return (shift + i - j, self.p_scale(level, p, c), self.p_scale(level, q, c))

    def is_canonical(self, level, x) -> bool:
        """Every Laurent level of x has p[0] != 0 (or p == () for zero),
        q[0] == 1, no trailing zeros and gcd(p, q) == 1."""
        if level == 0:
            return isinstance(x, Fraction)
        if self.kind(level) == "qext":
            return all(self.is_canonical(level - 1, c) for c in x)
        k, p, q = x
        one = self.rat(level - 1, 1)
        if not all(self.is_canonical(level - 1, c) for c in p + q):
            return False
        if p == ():
            return k == 0 and q == (one,)
        return (
            not self.is_zero(level - 1, p[0])
            and q[0] == one
            and self.trim(level, p) == p
            and self.trim(level, q) == q
            and len(self.p_gcd(level, p, q)) == 1
        )


def eager_reference_candidates(A):
    """Every rank-one reference candidate, built eagerly in the documented
    order: <1>, the symmetric basis, then the pairwise sums and
    differences of basis elements, each followed by its negative, keeping
    the invertible ones and dropping repeats."""
    from hermstab.algebras import HermitianForm, sym_basis

    basis = sym_basis(A)
    raw = [A.elem(A.one()), *basis]
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            raw += [basis[i] + basis[j], basis[i] - basis[j]]
    kept = []
    for s in raw:
        for cand in (s, -s):
            if cand.is_invertible() and all(cand != t for t in kept):
                kept.append(cand)
    return [HermitianForm.diagonal(A, [c]) for c in kept]


def eager_reference_scan(A, candidates, budget=50):
    """(form, deltas) of the first candidate whose raw signature is nonzero
    at every non-nil ordering, or None when there is none."""
    from hermstab.signatures import nil_set, raw_signature

    targets = [P for P in A.field.orderings() if P not in nil_set(A)]
    for cand in candidates:
        raws = [raw_signature(A, cand, P, budget) for P in targets]
        if all(raws):
            return cand, {P.path: (1 if r > 0 else -1) for P, r in zip(targets, raws)}
    return None


def full_walk_h0(A, ref, budget=50):
    """(form, k) of the first form of the reference and every candidate
    of ``eager_reference_candidates``, negatives included, with constant
    total signature 2^k on the non-nil orderings and the least such k,
    reading every one; None when no form is constant."""
    from hermstab.signatures import nil_set

    nil = nil_set(A)
    best = None
    for cand in [ref.form, *eager_reference_candidates(A)]:
        vec = total_signature(A, cand, ref, budget)
        values = {v for P, v in zip(A.field.orderings(), vec.values) if P not in nil}
        if len(values) == 1:
            (v,) = values
            if v > 0 and v & (v - 1) == 0:
                k = v.bit_length() - 1
                if best is None or k < best[1]:
                    best = (cand, k)
    return best


# ---------------------------------------------------------------------------
# quaternion arithmetic from the basis multiplication table
# ---------------------------------------------------------------------------

# e_r * e_s = c * e_t on the basis 1, i, j, k with i^2 = a, j^2 = b,
# ij = -ji = k; the entry is (t, c) with c a function of (a, b).
_QUAT_TABLE = {
    (1, 1): (0, lambda a, b: a),
    (1, 2): (3, lambda a, b: 1),
    (1, 3): (2, lambda a, b: a),
    (2, 1): (3, lambda a, b: -1),
    (2, 2): (0, lambda a, b: b),
    (2, 3): (1, lambda a, b: -b),
    (3, 1): (2, lambda a, b: -a),
    (3, 2): (1, lambda a, b: b),
    (3, 3): (0, lambda a, b: -a * b),
}


def dense_quaternion_mul(A, x, y):
    """The product of two values of a quaternion kind (tuples of four
    centre values) as the sum of all sixteen terms x_r * y_s * (e_r e_s)
    over the table above, in the library's centre arithmetic, with no
    shortcut for a central factor."""
    C = A.centre
    pad = [A.field.zero()] * (C.dim - 1)
    out = [C.zero()] * 4
    for r in range(4):
        for s in range(4):
            if r == 0 or s == 0:
                t, c = r + s, C.one()
            else:
                t, coef = _QUAT_TABLE[(r, s)]
                c = C.from_coords([A.field.coerce(coef(A.a, A.b)), *pad])
            out[t] = C.add(out[t], C.mul(c, C.mul(x[r], y[s])))
    return tuple(out)


class QuaternionOracle:
    """A quaternion kind of the catalogue, recomputed from the table above.

    An element is a list of 4 centre elements; a centre element is a tuple
    of base-field elements: ``(c,)`` over F, ``(u, v)`` = u + v*sqrt(alpha)
    over a unitary centre.  Products expand bilinearly over the table, so
    they share no code with the library's quaternion product."""

    def __init__(self, A):
        self.A = A
        self.field = A.field
        self.alpha = getattr(A, "alpha", None)
        self.cdim = 1 if self.alpha is None else 2

    # -- the centre ---------------------------------------------------------

    def c_scalar(self, f):
        return (f,) + (self.field.zero(),) * (self.cdim - 1)

    def c_add(self, x, y):
        return tuple(p + q for p, q in zip(x, y))

    def c_mul(self, x, y):
        if self.cdim == 1:
            return (x[0] * y[0],)
        return (x[0] * y[0] + self.alpha * x[1] * y[1], x[0] * y[1] + x[1] * y[0])

    def c_conj(self, x):
        return x if self.cdim == 1 else (x[0], -x[1])

    def c_inverse(self, x):
        n = self.c_mul(x, self.c_conj(x))[0]
        return self.c_mul(self.c_conj(x), self.c_scalar(n.inverse()))

    # -- quaternions --------------------------------------------------------

    def from_library(self, value):
        flat = self.A.coords(value)
        d = self.cdim
        return [tuple(flat[d * r : d * r + d]) for r in range(4)]

    def to_library(self, q):
        return self.A.from_coords([c for z in q for c in z])

    def zero(self):
        return [self.c_scalar(self.field.zero())] * 4

    def mul(self, x, y):
        out = self.zero()
        a, b = self.A.a, self.A.b
        for r in range(4):
            for s in range(4):
                if r == 0 or s == 0:
                    t, c = r + s, self.field.one()
                else:
                    t, coef = _QUAT_TABLE[(r, s)]
                    c = self.field.coerce(coef(a, b))
                term = self.c_mul(self.c_mul(x[r], y[s]), self.c_scalar(c))
                out[t] = self.c_add(out[t], term)
        return out

    def gamma(self, x):
        """Quaternion conjugation: x0 - x1 i - x2 j - x3 k."""
        minus = self.c_scalar(self.field.rational(-1))
        return [x[0]] + [self.c_mul(minus, c) for c in x[1:]]

    def nrd(self, x):
        """x * gamma(x), checked to be a centre scalar."""
        n = self.mul(x, self.gamma(x))
        assert all(all(e.is_zero() for e in c) for c in n[1:])
        return n[0]

    def inverse(self, x):
        ninv = self.c_inverse(self.nrd(x))
        return [self.c_mul(c, ninv) for c in self.gamma(x)]

    def involution(self, x):
        """gamma, then the centre's involution on each coefficient; then
        u * (that) * u^-1 for Int(u) o gamma."""
        g = [self.c_conj(c) for c in self.gamma(x)]
        if getattr(self.A, "u", None) is None:
            return g
        u = self.from_library(self.A.u)
        return self.mul(u, self.mul(g, self.inverse(u)))

    def reduced_trace(self, x):
        """Trd = x + gamma(x) = 2 x_0, then the centre's trace down to F."""
        t = self.c_add(x[0], x[0])
        return self.c_add(t, self.c_conj(t))[0] if self.cdim == 2 else t[0]

    def reduced_norm(self, x):
        n = self.nrd(x)
        return self.c_mul(n, self.c_conj(n))[0] if self.cdim == 2 else n[0]


# ---------------------------------------------------------------------------
# congruence diagonalization over the field itself
# ---------------------------------------------------------------------------


def diagonalize_gram(field: FieldTower, gram) -> QuadraticForm:
    """Diagonalize a symmetric Gram matrix by congruence with FieldElement
    arithmetic: symmetric pivoting, and a block with zero diagonal repaired
    by adding row/column j to row/column i (the hyperbolic split)."""
    g = [[field.coerce(x) for x in row] for row in gram]
    n = len(g)
    for row in g:
        if len(row) != n:
            raise SingularFormError("Gram matrix must be square")
    for i in range(n):
        for j in range(i + 1, n):
            if g[i][j] != g[j][i]:
                raise MismatchError("Gram matrix must be symmetric")
    entries = []
    while g:
        n = len(g)
        piv = next((i for i in range(n) if not g[i][i].is_zero()), None)
        if piv is None:
            pair = next(
                (
                    (i, j)
                    for i in range(n)
                    for j in range(i + 1, n)
                    if not g[i][j].is_zero()
                ),
                None,
            )
            if pair is None:
                raise SingularFormError("Gram matrix is singular")
            i, j = pair
            for t in range(n):
                g[i][t] = g[i][t] + g[j][t]
            for t in range(n):
                g[t][i] = g[t][i] + g[t][j]
            piv = i
        if piv != 0:
            g[0], g[piv] = g[piv], g[0]
            for row in g:
                row[0], row[piv] = row[piv], row[0]
        d = g[0][0]
        entries.append(d)
        rest = [
            [g[r][s] - g[r][0] * g[0][s] / d for s in range(1, len(g))]
            for r in range(1, len(g))
        ]
        g = rest
    return QuadraticForm(field, entries)


# ---------------------------------------------------------------------------
# integer invariant factors from determinantal divisors
# ---------------------------------------------------------------------------


def _det(m) -> int:
    """Integer determinant by Laplace expansion along the first row."""
    if len(m) == 1:
        return m[0][0]
    return sum(
        (-1) ** j * m[0][j] * _det([row[:j] + row[j + 1 :] for row in m[1:]])
        for j in range(len(m))
        if m[0][j]
    )


def determinantal_invariants(rows, ambient_dim: int):
    """(torsion factors, free rank) of Z^m modulo the row lattice, by
    s_k = d_k / d_(k-1) with d_k the gcd of all k x k minors (brute force,
    meant for matrices with at most 5 rows and columns)."""
    rows = [list(r) for r in rows]
    divisors = [1]
    for k in range(1, min(len(rows), ambient_dim) + 1):
        d = 0
        for rs in combinations(range(len(rows)), k):
            for cs in combinations(range(ambient_dim), k):
                d = math.gcd(d, _det([[rows[r][c] for c in cs] for r in rs]))
        if d == 0:
            break
        divisors.append(d)
    factors = [b // a for a, b in zip(divisors, divisors[1:])]
    return [s for s in factors if s != 1], ambient_dim - len(factors)


# ---------------------------------------------------------------------------
# zero-on-nil sublattices and 2-power exponents
# ---------------------------------------------------------------------------


def left_kernel(rows, zero_cols):
    """Integer vectors u with (u . rows) vanishing on the given columns:
    the Hermite rows of [rows on zero_cols | I] that vanish on the first
    block, with that block dropped."""
    k = len(rows)
    if not zero_cols:
        return [tuple(int(i == j) for j in range(k)) for i in range(k)]
    aug = [[r[c] for c in zero_cols] + [int(j == i) for j in range(k)] for i, r in enumerate(rows)]
    t = len(zero_cols)
    return [row[t:] for row in hnf(aug) if not any(row[:t])]


def zero_on_nil_vectors(rows, zero_cols):
    """Generators of the row-lattice vectors vanishing on ``zero_cols``:
    the rows recombined by each left-kernel vector."""
    out = []
    for u in left_kernel(rows, zero_cols):
        vec = [0] * len(rows[0])
        for c, r in zip(u, rows):
            vec = [a + c * b for a, b in zip(vec, r)]
        out.append(tuple(vec))
    return out


def floor_member(basis, v) -> bool:
    """Membership in the lattice of an echelon basis by floor-division
    reduction at each pivot."""
    v = list(v)
    for row in basis:
        p = next((i for i, a in enumerate(row) if a != 0), None)
        if p is not None:
            q = v[p] // row[p]
            v = [a - q * b for a, b in zip(v, row)]
    return not any(v)


def capped_two_power_exponent(basis, vectors, cap=40):
    """Least n <= cap with 2^n . v a lattice member for every v (0 if
    there are none), found by trying n = 0, 1, ...; inf past the cap."""
    worst = 0
    for v in vectors:
        for n in range(cap + 1):
            if floor_member(basis, [a * (1 << n) for a in v]):
                break
        else:
            return math.inf
        worst = max(worst, n)
    return worst


# ---------------------------------------------------------------------------
# the split model of a certificate, dense
# ---------------------------------------------------------------------------


def dense_phi(M, matrices, value):
    """Image in the split model M of a quaternion value: every centre
    coordinate times every entry of the images of 1, i, j, k, summed,
    zeros included."""
    C = M.inner
    return reduce(
        M.add,
        (
            tuple(tuple(C.mul(c, e) for e in row) for row in X)
            for c, X in zip(value, matrices)
        ),
    )


def dense_transport_gram(cert, h):
    """The Gram that a proper split certificate carries the +1-hermitian
    form ``h`` to: each entry's coordinates, lifted to the centre over the
    extension, go through ``dense_phi`` and one product by G on the left,
    zero entries included.  Matrix wrappers are flattened first."""
    h = morita_flatten(h)
    centre = cert.algebra.centre
    M = cert.model
    C = M.inner
    k = h.rank
    big = [[C.zero()] * (2 * k) for _ in range(2 * k)]
    for r in range(k):
        for s in range(k):
            val = [centre.lift_value(c, C) for c in h.gram[r][s]]
            block = M.mul(cert.g_datum, dense_phi(M, cert.matrices, val))
            for i in range(2):
                for j in range(2):
                    big[2 * r + i][2 * s + j] = block[i][j]
    return tuple(map(tuple, big))


def dense_datum_holds(cert) -> bool:
    """G . Phi(sigma(b)) == conj-transpose(Phi(b)) . G on the basis
    1, i, j, k of the algebra over the extension, with ``dense_phi``."""
    A_L = cert.algebra.lift_to(cert.extension)
    M = cert.model
    G = cert.g_datum
    z, o = A_L.centre.zero(), A_L.centre.one()
    for b in ((o, z, z, z), (z, o, z, z), (z, z, o, z), (z, z, z, o)):
        lhs = M.mul(G, dense_phi(M, cert.matrices, A_L.involution(b)))
        rhs = M.mul(M.involution(dense_phi(M, cert.matrices, b)), G)
        if lhs != rhs:
            return False
    return True


def slow_split_data(A_L, centre, witness_value, sqm):
    """The images of 1, i, j, k acting on the left ideal (A tensor L) e,
    e = (1 + w / sqrt(m)) / 2, from all sixteen products b_s * (b_t e):
    one reduced row echelon form of their 4 x 16 coordinate matrix over
    the centre, whose first two pivots span the ideal; column 4s + t of
    it, read at the rows of those pivots, gives b_s on the ideal."""
    from hermstab.algebras import _gauss_jordan

    L = A_L.field
    e = A_L.scalar_mul(
        L.rational(1, 2), A_L.add(A_L.one(), A_L.scalar_mul(sqm.inverse(), witness_value))
    )
    assert A_L.mul(e, e) == e
    z, o = A_L.centre.zero(), A_L.centre.one()
    basis = [(o, z, z, z), (z, o, z, z), (z, z, o, z), (z, z, z, o)]
    ideal = [A_L.mul(b, e) for b in basis]
    cols = [A_L.mul(b, v) for b in basis for v in ideal]
    rows, pivots = _gauss_jordan(
        zip(*([centre.elem(c) for c in v] for v in cols))
    )
    assert len(pivots) >= 2 and pivots[1] < 4
    assert all(x.is_zero() for row in rows[2:] for x in row)
    return [
        tuple(tuple(rows[r][4 * s + t].value for t in pivots[:2]) for r in (0, 1))
        for s in range(4)
    ]


def slow_involution_datum(M, matrices, A_L):
    """G with G . Phi(sigma(b)) = ct(Phi(b)) . G from all sixteen
    equations, four per basis element 1, i, j, k (``dense_phi``): the
    first vector of their kernel, made hermitian over a unitary centre by
    c = 1 + lambda, or sqrt(alpha) when lambda = -1, for ct(G) = lambda G."""
    from hermstab.algebras import _nullspace

    C = M.inner
    z, o = A_L.centre.zero(), A_L.centre.one()
    rows = []
    for b in ((o, z, z, z), (z, o, z, z), (z, z, o, z), (z, z, z, o)):
        S = dense_phi(M, matrices, A_L.involution(b))
        T = M.involution(dense_phi(M, matrices, b))
        for i in range(2):
            for j in range(2):
                row = [C.zero()] * 4
                for t in range(2):
                    row[2 * i + t] = C.add(row[2 * i + t], S[t][j])
                    row[2 * t + j] = C.sub(row[2 * t + j], T[i][t])
                rows.append([C.elem(v) for v in row])
    g = [e.value for e in _nullspace(rows, C.elem(C.zero()), C.elem(C.one()))[0]]
    G = ((g[0], g[1]), (g[2], g[3]))
    ct = M.involution(G)
    if ct == G:
        return G
    pi, pj = next((i, j) for i in range(2) for j in range(2) if not C.is_zero(G[i][j]))
    lam = C.mul(ct[pi][pj], C.inverse(G[pi][pj]))
    c = C.basis_values()[1] if lam == C.neg(C.one()) else C.add(C.one(), lam)
    H = tuple(tuple(C.mul(c, e) for e in row) for row in G)
    assert M.involution(H) == H
    return H


def inverts(A, value) -> bool:
    """Whether A.inverse finds an inverse of ``value``, checked on both
    sides; a zero or a zero divisor has none."""
    from hermstab.algebras import ZeroDivisorFound

    try:
        inv = A.inverse(value)
    except (ZeroDivisionError, ZeroDivisorFound):
        return False
    assert A.mul(value, inv) == A.one() == A.mul(inv, value)
    return True


def slow_raw_signature(A, h, P, budget=50):
    """``raw_signature`` by the slow route on every form, diagonal or not:
    flatten a matrix wrapper, carry the form through the certificate on
    the split-certificate route (``transport_form``), run hermitian
    elimination, and count the signs of the fixed-field diagonal, at the
    certificate's chosen ordering on that route.  Nothing is memoised."""
    from hermstab.algebras import SplitWitness, diagonalize_hermitian
    from hermstab.fields import InvariantViolation
    from hermstab.signatures import local_type
    from hermstab.splitting import find_certificate, transport_form

    lt = local_type(A, P)
    if lt.nil:
        return 0
    if A.kind == "matrix":
        A, h = A.inner, morita_flatten(h)
    at = P
    if lt.route == "split-certificate":
        cert = find_certificate(A, P, budget)
        h, _ = transport_form(cert, h)
        at = cert.chosen
    diag = diagonalize_hermitian(h)
    if isinstance(diag, SplitWitness):
        raise InvariantViolation(
            "the algebra is split where it must be division; the nil "
            "computation and the form disagree"
        )
    total = 0
    for e in diag.diagonal_entries():
        head, *rest = e.coords()
        if any(not c.is_zero() for c in rest):
            raise InvariantViolation("diagonal entry escaped the fixed field")
        total += head.sign_at(at)
    return total


# ---------------------------------------------------------------------------
# piecewise assembly
# ---------------------------------------------------------------------------


def stepwise_piecewise_form(field: FieldTower, pieces):
    """The sum over (P, h, pad) of h scaled by the Pfister form on the
    generators signed as at P, then, when pad > 0, by <1, ..., 1> with
    2^pad ones, in the order of ``pieces``."""
    total = None
    for P, h, pad in pieces:
        slots = [g if g.sign_at(P) > 0 else -g for g in field.generators()]
        local = h.module_scale(pfister(field, slots))
        if pad:
            local = local.module_scale(QuadraticForm(field, [field.one()] * (1 << pad)))
        total = local if total is None else total.direct_sum(local)
    return total


# ---------------------------------------------------------------------------
# the signature image from every Pfister form
# ---------------------------------------------------------------------------


def enumerated_image(A, ref, probes=None, budget=50):
    """(Hermite basis, st, n0, exact) of the signature image spanned by
    every hermitian probe vector times the signature of every one of the
    3^m Pfister forms <1, +-a1> x ... over the field probes, in one
    Hermite form.  A matrix wrapper is read on its inner algebra, with the
    flattened reference and probe forms (the documented Morita
    reduction).  st and n0 come from the capped search, n0 against the
    zero-on-nil vectors of the default probes' 3^m forms, found by a left
    kernel."""
    if probes is None:
        probes = Probes.default(A)
    if A.kind == "matrix":
        ref = ReferenceForm(A.inner, morita_flatten(ref.form), ref.deltas)
        probes = Probes(map(morita_flatten, probes.sym_forms), probes.field_elements)
        A = A.inner
    space = NilAwareSpace(A)
    field = A.field
    if not space.dim:
        return [], 0, 0, True
    keep = [i for i in range(len(space.all_orderings)) if i not in space.nil_indices]
    hermitian = [
        space.restrict(total_signature(A, h, ref, budget)) for h in probes.sym_forms
    ]
    signatures = _probe_signatures(field, probes.field_elements, space.all_orderings)
    vectors = [
        tuple(v[i] * h[j] for j, i in enumerate(keep))
        for h in hermitian
        for v, _ in signatures
    ]
    basis = hnf(vectors)
    m = space.dim
    st = capped_two_power_exponent(basis, [[int(i == j) for j in range(m)] for i in range(m)])
    quadratic = [v for v, _ in _probe_signatures(field, _field_probes(field), space.all_orderings)]
    zero_on_nil = zero_on_nil_vectors(quadratic, list(space.nil_indices))
    n0 = capped_two_power_exponent(hnf([[v[i] for i in keep] for v in zero_on_nil]), basis)
    exact = (
        _field_patterns_complete(field)
        and _division_certain(A)
        and _value_groups_attained(A, space, vectors)
    )
    return basis, st, n0, exact


# ---------------------------------------------------------------------------
# the two exactness rules of a report, from explicit signs
# ---------------------------------------------------------------------------


def patterns_complete_by_signs(field: FieldTower) -> bool:
    """Whether each square-root step's radicand, rebuilt over its base and
    signed at every ordering there, is positive at one ordering at most."""
    for level, step in enumerate(field.steps):
        if step[0] == "qext":
            base = field.prefix(level)
            d = FieldElement(base, step[1])
            if sum(d.sign_at(P) > 0 for P in base.orderings()) > 1:
                return False
    return True


def _prime_divisors(n: int) -> set[int]:
    n, p, out = abs(n), 2, set()
    while p * p <= n:
        while n % p == 0:
            out.add(p)
            n //= p
        p += 1
    return out | ({n} if n > 1 else set())


def division_by_signs(A) -> bool:
    """Whether A is certified division: by its kind, or, for a quaternion
    algebra (a, b), when a and b are both negative at some ordering or,
    over Q, when (a, b) is -1 at 2 or at a prime dividing a numerator or
    a denominator."""
    if A.kind in ("field_id", "unitary_quadratic", "exchange"):
        return True
    if A.kind != "quaternion":
        return False
    field = A.field
    if any(A.a.sign_at(P) < 0 and A.b.sign_at(P) < 0 for P in field.orderings()):
        return True
    if field.depth != 1:
        return False
    a, b = A.a.value, A.b.value
    primes = {2}.union(
        *(_prime_divisors(n) for n in (a.numerator, a.denominator, b.numerator, b.denominator))
    )
    return any(hilbert_symbol(a, b, p) == -1 for p in primes)
