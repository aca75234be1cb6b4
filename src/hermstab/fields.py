"""Exact arithmetic in towers of ordered fields built over the rationals.

A tower starts at Q and grows by two kinds of steps: adjoining a square
root of a previously constructed non-square, or adjoining a variable x
that is an infinitesimal (rational functions viewed inside the formal
Laurent series field, so only the two x -> 0+ / x -> 0- orderings
survive per base ordering).  Every field in the grammar carries finitely
many orderings, each encoded as a path of sign choices, and all sign and
squareness questions are decided exactly, without floating point.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

__all__ = [
    "FieldTower",
    "FieldElement",
    "Ordering",
    "MismatchError",
    "InvariantViolation",
    "TowerError",
    "orderings",
    "sign_at",
    "is_square",
    "harrison_set",
]


# Laurent exponents read from JSON lie in [-MAX_LAURENT_EXPONENT,
# MAX_LAURENT_EXPONENT]: polynomials are stored densely, so an unbounded
# exponent would allocate memory in proportion to a number in the input.
MAX_LAURENT_EXPONENT = 1024

# A rational leaf in JSON is a JSON integer or a string "p" or "p/q" of
# ASCII decimal digits, with at most MAX_RATIONAL_DIGITS digits in p and
# in q: Fraction alone would also take "1.5" or "1e20000", and the latter
# builds an integer whose size is a number in the input.
MAX_RATIONAL_DIGITS = 1000
_RATIONAL_LEAF = re.compile(r"-?([0-9]+)(?:/([0-9]+))?")


class TowerError(ValueError):
    """Raised when a tower description is malformed."""


class MismatchError(ValueError):
    """Raised on a caller's error: objects from different fields or
    algebras, a malformed document, or a value outside an operation's
    domain.  The CLI reports it with exit code 2."""


class InvariantViolation(RuntimeError):
    """A certified-exact computation contradicted its own theory."""


# ---------------------------------------------------------------------------
# Internal value representation.  A tower keeps one level object per step
# in FieldTower.levels.  The object of level i does the arithmetic on the
# values of level i, with the operations of level i - 1 bound once, when
# it is built:
#   _Rationals     level 0   : Fraction
#   _SqrtLevel     qext, d   : (u, v)  meaning  u + v*sqrt(d), u/v one level down
#   _LaurentLevel  laurent   : (shift, p, q)  meaning  x**shift * p(x)/q(x)
#                              with p, q dense coefficient tuples one level
#                              down, p == () only for zero, p[0] != 0, no
#                              trailing zero in p or q, q[0] == 1 and
#                              gcd(p, q) == 1.
# Level objects belong to their tower: adjoin_sqrt, adjoin_laurent and
# prefix share the parent's objects and build only the new level.  The
# rarer operations (signs, square roots, heights, rendering and JSON) stay
# on FieldTower and dispatch on the step kind.
# These invariants make the representation canonical (one tuple per
# element; zero is (0, (), (1,))), so a result built without the general
# strip-gcd-normalize of make_laurent is the same tuple whenever it meets
# them.  The Laurent shortcuts rely on them as follows:
#   inv   : q/p is coprime because p/q is; scaling both by 1/p[0] makes
#           the new denominator start with 1 and keeps p[0] != 0 on top.
#   mul   : two denominators of length 1 are both (1,); the numerator
#           product starts with p[0]*p'[0] != 0 and is coprime to 1.
#   add   : over a shared denominator q the sum is num/q, so q*q and the
#           cross products are never formed; make_laurent still reduces.
#   p_mul : a factor with a single coefficient c multiplies the other one
#           coefficient by coefficient, with no sums and no trim: a field
#           has no zero divisors, so c times the nonzero last coefficient
#           is nonzero.  A zero c gives ().
#   make_laurent : once x-powers are stripped, a single-term p or q is a
#           nonzero constant, a unit, so the gcd is 1 and is not computed;
#           when the reduced q[0] is already the lower level's one, p/q is
#           returned as it is, without inverting and scaling by 1.
# Every level-0 value is a Fraction in lowest terms: coprime numerator,
# positive denominator (_from_rat builds them through Fraction, the JSON
# reader divides by the gcd, and the kernel below keeps them so).
# _Rationals runs the kernel _q_* on the _numerator and _denominator slots,
# which splits gcds the classical way (Knuth, TAOCP vol. 2, 4.5.1) and so
# produces a coprime pair by construction; _q_make wraps that pair (or the
# JSON reader's) without normalising it again, and is the only code that
# builds a Fraction from its slots.
# ---------------------------------------------------------------------------


def _q_make(n: int, d: int) -> Fraction:
    """The Fraction n/d for coprime n and d > 0, built without re-reducing."""
    f = object.__new__(Fraction)
    f._numerator = n
    f._denominator = d
    return f


def _q_add(x: Fraction, y: Fraction) -> Fraction:
    na, da = x._numerator, x._denominator
    nb, db = y._numerator, y._denominator
    g = math.gcd(da, db)
    if g == 1:
        return _q_make(na * db + nb * da, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = math.gcd(t, g)
    if g2 == 1:
        return _q_make(t, s * db)
    return _q_make(t // g2, s * (db // g2))


def _q_sub(x: Fraction, y: Fraction) -> Fraction:
    na, da = x._numerator, x._denominator
    nb, db = y._numerator, y._denominator
    g = math.gcd(da, db)
    if g == 1:
        return _q_make(na * db - nb * da, da * db)
    s = da // g
    t = na * (db // g) - nb * s
    g2 = math.gcd(t, g)
    if g2 == 1:
        return _q_make(t, s * db)
    return _q_make(t // g2, s * (db // g2))


def _q_mul(x: Fraction, y: Fraction) -> Fraction:
    na, da = x._numerator, x._denominator
    nb, db = y._numerator, y._denominator
    g1 = math.gcd(na, db)
    if g1 > 1:
        na //= g1
        db //= g1
    g2 = math.gcd(nb, da)
    if g2 > 1:
        nb //= g2
        da //= g2
    return _q_make(na * nb, da * db)


def _q_neg(x: Fraction) -> Fraction:
    return _q_make(-x._numerator, x._denominator)


def _q_inv(x: Fraction) -> Fraction:
    n, d = x._numerator, x._denominator
    if n > 0:
        return _q_make(d, n)
    if n < 0:
        return _q_make(-d, -n)
    raise ZeroDivisionError("inverse of zero field element")


class _Rationals:
    """Level 0: Fractions, through the kernel _q_*."""

    zero, one = Fraction(0), Fraction(1)
    add, sub, neg = staticmethod(_q_add), staticmethod(_q_sub), staticmethod(_q_neg)
    mul, inv = staticmethod(_q_mul), staticmethod(_q_inv)

    @staticmethod
    def is_zero(x) -> bool:
        return not x._numerator


class _SqrtLevel:
    """u + v*sqrt(d), with u, v and d one level down."""

    def __init__(self, lower, d):
        self.lower, self.d = lower, d
        z, o = lower.zero, lower.one
        self.zero, self.one, self.gen = (z, z), (o, z), (z, o)
        self._is_zero, self._add, self._sub = lower.is_zero, lower.add, lower.sub
        self._neg, self._mul, self._inv = lower.neg, lower.mul, lower.inv

    def embed(self, c):
        return (c, self.lower.zero)

    def is_zero(self, x) -> bool:
        is_zero = self._is_zero
        return is_zero(x[0]) and is_zero(x[1])

    def add(self, x, y):
        add = self._add
        return (add(x[0], y[0]), add(x[1], y[1]))

    def sub(self, x, y):
        sub = self._sub
        return (sub(x[0], y[0]), sub(x[1], y[1]))

    def neg(self, x):
        neg = self._neg
        return (neg(x[0]), neg(x[1]))

    def mul(self, x, y):
        mul, is_zero = self._mul, self._is_zero
        u1, v1 = x
        u2, v2 = y
        # a zero sqrt part drops the products it would multiply into
        if is_zero(v1):
            if is_zero(v2):
                return (mul(u1, u2), self.lower.zero)
            return (mul(u1, u2), mul(u1, v2))
        if is_zero(v2):
            return (mul(u1, u2), mul(v1, u2))
        add = self._add
        return (
            add(mul(u1, u2), mul(self.d, mul(v1, v2))),
            add(mul(u1, v2), mul(v1, u2)),
        )

    def norm(self, u, v):
        """u^2 - d v^2, one level down: the norm of u + v sqrt(d)."""
        mul = self._mul
        return self._sub(mul(u, u), mul(self.d, mul(v, v)))

    def inv(self, x):
        u, v = x
        # d is a non-square, so the norm is zero only for x == 0, and then
        # inverting it raises
        ninv = self._inv(self.norm(u, v))
        mul = self._mul
        return (mul(u, ninv), self._neg(mul(v, ninv)))


class _LaurentLevel:
    """x**shift * p(x)/q(x), with the coefficients of p and q one level
    down, and the dense polynomial arithmetic on such coefficient tuples."""

    def __init__(self, lower):
        self.lower = lower
        o = lower.one
        self.zero, self.one, self.gen = (0, (), (o,)), (0, (o,), (o,)), (1, (o,), (o,))
        self._is_zero, self._add, self._sub = lower.is_zero, lower.add, lower.sub
        self._neg, self._mul, self._inv = lower.neg, lower.mul, lower.inv

    def embed(self, c):
        if self._is_zero(c):
            return self.zero
        return (0, (c,), (self.lower.one,))

    def is_zero(self, x) -> bool:
        return not x[1]

    def add(self, x, y):
        kx, px, qx = x
        ky, py, qy = y
        if not px:
            return y
        if not py:
            return x
        if kx != ky:
            pad = (self.lower.zero,) * abs(kx - ky)
            if kx > ky:
                kx, px = ky, pad + px
            else:
                py = pad + py
        if qx == qy:
            return self.make_laurent(kx, self.p_add(px, py), qx)
        p_mul = self.p_mul
        num = self.p_add(p_mul(px, qy), p_mul(py, qx))
        return self.make_laurent(kx, num, p_mul(qx, qy))

    def sub(self, x, y):
        # negating first keeps add's shared-denominator shortcuts
        return self.add(x, self.neg(y))

    def neg(self, x):
        k, p, q = x
        neg = self._neg
        return (k, tuple([neg(c) for c in p]), q)

    def mul(self, x, y):
        kx, px, qx = x
        ky, py, qy = y
        if not px or not py:
            return self.zero
        if len(qx) == 1 and len(qy) == 1:
            return (kx + ky, self.p_mul(px, py), qx)
        return self.make_laurent(kx + ky, self.p_mul(px, py), self.p_mul(qx, qy))

    def inv(self, x):
        k, p, q = x
        if not p:
            raise ZeroDivisionError("inverse of zero field element")
        c = self._inv(p[0])
        return (-k, self.p_scale(q, c), self.p_scale(p, c))

    # -- dense polynomials: coefficient tuples one level down ----------------

    def trim(self, p):
        """The coefficients of ``p`` as a tuple, trailing zeros dropped."""
        is_zero = self._is_zero
        n = len(p)
        while n and is_zero(p[n - 1]):
            n -= 1
        return tuple(p[:n])

    def p_add(self, p, q):
        if len(p) < len(q):
            p, q = q, p
        add = self._add
        return self.trim([add(a, b) for a, b in zip(p, q)] + list(p[len(q):]))

    def p_mul(self, p, q):
        if not p or not q:
            return ()
        if len(q) == 1:
            p, q = q, p
        if len(p) == 1:
            if len(q) == 1:
                c = self._mul(p[0], q[0])
                return () if self._is_zero(c) else (c,)
            return self.p_scale(q, p[0])
        add, mul, is_zero = self._add, self._mul, self._is_zero
        out = [self.lower.zero] * (len(p) + len(q) - 1)
        for i, a in enumerate(p):
            if is_zero(a):
                continue
            for j, b in enumerate(q):
                out[i + j] = add(out[i + j], mul(a, b))
        return self.trim(out)

    def p_scale(self, p, c):
        if self._is_zero(c):
            return ()
        mul = self._mul
        return tuple([mul(a, c) for a in p])

    def p_divmod(self, p, q):
        if not q:
            raise ZeroDivisionError("polynomial division by zero")
        mul, sub, is_zero = self._mul, self._sub, self._is_zero
        rem = list(p)
        quo = [self.lower.zero] * max(0, len(p) - len(q) + 1)
        lead_inv = self._inv(q[-1])
        for i in range(len(p) - len(q), -1, -1):
            c = mul(rem[i + len(q) - 1], lead_inv)
            if is_zero(c):
                continue
            quo[i] = c
            for j, b in enumerate(q):
                rem[i + j] = sub(rem[i + j], mul(c, b))
        return self.trim(quo), self.trim(rem)

    def p_gcd(self, p, q):
        """The gcd of p and q with last coefficient 1, by Euclid."""
        a, b = tuple(p), tuple(q)
        while b:
            a, b = b, self.p_divmod(a, b)[1]
        if a:
            a = self.p_scale(a, self._inv(a[-1]))
        return a

    def make_laurent(self, shift, p, q):
        """Canonical form of x**shift * p/q for trimmed coefficient tuples
        p and q: strip x-powers, reduce by gcd, normalize q[0] = 1."""
        if not q:
            raise ZeroDivisionError("Laurent denominator is zero")
        if not p:
            return self.zero
        is_zero = self._is_zero
        i = 0
        while is_zero(p[i]):
            i += 1
        j = 0
        while is_zero(q[j]):
            j += 1
        if i or j:
            shift += i - j
            p, q = p[i:], q[j:]
        if len(p) > 1 and len(q) > 1:
            g = self.p_gcd(p, q)
            if len(g) > 1:
                p = self.p_divmod(p, g)[0]
                q = self.p_divmod(q, g)[0]
        if q[0] == self.lower.one:
            return (shift, p, q)
        c = self._inv(q[0])
        return (shift, self.p_scale(p, c), self.p_scale(q, c))


def _frac_sqrt(f: Fraction):
    if f < 0:
        return None
    pn, pd = f.numerator, f.denominator
    rn, rd = math.isqrt(pn), math.isqrt(pd)
    if rn * rn == pn and rd * rd == pd:
        return Fraction(rn, rd)
    return None


def _rational_from_json(doc) -> Fraction:
    text = doc if isinstance(doc, str) else str(doc)
    m = _RATIONAL_LEAF.fullmatch(text)
    if m is None:
        raise TowerError(
            f"rational must be 'p' or 'p/q' in decimal digits, got {text[:40]!r}"
        )
    if any(g is not None and len(g) > MAX_RATIONAL_DIGITS for g in m.groups()):
        raise TowerError(
            f"rational {text[:40]!r}... has more than {MAX_RATIONAL_DIGITS} digits"
        )
    p, q = m.groups()
    p = -int(p) if text[0] == "-" else int(p)
    if q is None:
        return _q_make(p, 1)
    q = int(q)
    if q == 0:
        # Fraction's own message for a zero denominator
        raise TowerError(f"invalid rational {text[:40]!r}: Fraction({p}, 0)")
    g = math.gcd(p, q)
    if g != 1:
        p //= g
        q //= g
    return _q_make(p, q)


class FieldTower:
    """A field of the tower grammar together with its finite ordering space."""

    def __init__(self, steps, levels):
        """Build the tower of `steps`, which were already checked, over the
        level objects `levels`: they come from `rationals`, `adjoin_sqrt`,
        `adjoin_laurent` or `prefix`."""
        self.steps = steps
        self.levels = levels
        self._orderings = None

    # -- construction -------------------------------------------------------

    @staticmethod
    def rationals() -> FieldTower:
        return FieldTower((("base",),), (_Rationals(),))

    def adjoin_sqrt(self, d) -> FieldTower:
        """F(sqrt d) for d nonzero, non-square and positive at some ordering."""
        d = self.coerce(d)
        level = self.depth - 1
        if d.is_zero():
            raise TowerError("square-root step needs a nonzero element")
        if self._is_square(level, d.value):
            raise TowerError("square-root step needs a non-square")
        if all(self._sign(level, d.value, P.path) < 0 for P in self.orderings()):
            raise TowerError("square-root step needs an element positive somewhere")
        return FieldTower(
            self.steps + (("qext", d.value),),
            self.levels + (_SqrtLevel(self.levels[-1], d.value),),
        )

    def adjoin_laurent(self) -> FieldTower:
        return FieldTower(
            self.steps + (("laurent",),), self.levels + (_LaurentLevel(self.levels[-1]),)
        )

    @property
    def depth(self) -> int:
        return len(self.steps)

    def prefix(self, depth: int) -> FieldTower:
        return FieldTower(self.steps[:depth], self.levels[:depth])

    def extends(self, other: FieldTower) -> bool:
        return self.steps[: len(other.steps)] == other.steps

    def __eq__(self, other):
        return isinstance(other, FieldTower) and self.steps == other.steps

    def __hash__(self):
        return hash(self.steps)

    def __repr__(self):
        return f"FieldTower({self.describe()})"

    def describe(self) -> str:
        name = "Q"
        for level, step in enumerate(self.steps[1:], start=1):
            if step[0] == "qext":
                name += f"(sqrt({self._str(level - 1, step[1])}))"
            else:
                name += f"(({self._variable_name(level)}))"
        return name

    def _variable_name(self, level: int) -> str:
        n = sum(1 for s in self.steps[1 : level + 1] if s[0] == "laurent")
        total = sum(1 for s in self.steps[1:] if s[0] == "laurent")
        return "x" if total <= 1 else f"x{n}"

    # -- scalars ------------------------------------------------------------

    def zero(self) -> FieldElement:
        return FieldElement(self, self.levels[-1].zero)

    def one(self) -> FieldElement:
        return FieldElement(self, self.levels[-1].one)

    def rational(self, p, q=1) -> FieldElement:
        return FieldElement(self, self._from_rat(self.depth - 1, Fraction(p, q)))

    def _from_rat(self, level, f: Fraction):
        if level == 0:
            return f
        return self.levels[level].embed(self._from_rat(level - 1, f))

    def coerce(self, x) -> FieldElement:
        if isinstance(x, FieldElement):
            if x.tower == self:
                return x
            if self.extends(x.tower):
                return x.lift_to(self)
            raise MismatchError("element does not live in this tower")
        if isinstance(x, (int, Fraction)):
            return self.rational(Fraction(x))
        raise TypeError(f"cannot coerce {x!r} into a field element")

    def generator(self, level: int | None = None) -> FieldElement:
        """The element adjoined at ``level`` (sqrt(d) or x), lifted to the top."""
        if level is None:
            level = self.depth - 1
        if level <= 0 or level >= self.depth:
            raise MismatchError("no generator at this level")
        val = self.levels[level].gen
        for lvl in range(level + 1, self.depth):
            val = self.levels[lvl].embed(val)
        return FieldElement(self, val)

    def generators(self) -> list[FieldElement]:
        return [self.generator(level) for level in range(1, self.depth)]

    # -- orderings ------------------------------------------------------------

    def orderings(self) -> tuple[Ordering, ...]:
        """All orderings, depth first, + before - at every choice."""
        if self._orderings is None:
            paths = [()]
            for level, step in enumerate(self.steps[1:], start=1):
                new_paths = []
                for path in paths:
                    if step[0] == "qext":
                        if self._sign(level - 1, step[1], path) > 0:
                            new_paths.append(path + (1,))
                            new_paths.append(path + (-1,))
                    else:
                        new_paths.append(path + (1,))
                        new_paths.append(path + (-1,))
                paths = new_paths
            self._orderings = tuple(Ordering(self, p) for p in paths)
        return self._orderings

    def _sign(self, level, x, path) -> int:
        if level == 0:
            n = x.numerator
            return (n > 0) - (n < 0)
        step = self.steps[level]
        if step[0] == "qext":
            s = path[level - 1]
            u, v = x
            su = self._sign(level - 1, u, path)
            sv = s * self._sign(level - 1, v, path)
            if su == 0:
                return sv
            if sv == 0 or su == sv:
                return su
            return su * self._sign(level - 1, self.levels[level].norm(u, v), path)
        s = path[level - 1]
        k, p, q = x
        if p == ():
            return 0
        low = self._sign(level - 1, p[0], path)
        return low * (s if k % 2 else 1)

    # -- squares ----------------------------------------------------------------

    def _sqrt(self, level, x):
        """An explicit square root at this level, or None."""
        if level == 0:
            return _frac_sqrt(x)
        if self.steps[level][0] == "qext":
            K = self.levels[level - 1]
            u, v = x
            if K.is_zero(v):
                r = self._sqrt(level - 1, u)
                if r is not None:
                    return (r, K.zero)
                if not K.is_zero(u):
                    r = self._sqrt(level - 1, K.mul(u, K.inv(self.steps[level][1])))
                    if r is not None:
                        return (K.zero, r)
                return None
            m = self._sqrt(level - 1, self.levels[level].norm(u, v))
            if m is None:
                return None
            half = self._from_rat(level - 1, Fraction(1, 2))
            for mm in (m, K.neg(m)):
                s = self._sqrt(level - 1, K.mul(K.add(u, mm), half))
                if s is not None and not K.is_zero(s):
                    return (s, K.mul(v, K.inv(K.add(s, s))))
            return None
        k, p, q = x
        if p == ():
            return x
        if k % 2:
            return None
        pr = self._poly_sqrt(level, p)
        if pr is None:
            return None
        qr = self._poly_sqrt(level, q)
        if qr is None:
            return None
        return (k // 2, pr, qr)

    def _poly_sqrt(self, level, p):
        L, K = self.levels[level], self.levels[level - 1]
        if not p:
            return ()
        if (len(p) - 1) % 2:
            return None
        r0 = self._sqrt(level - 1, p[0])
        if r0 is None or K.is_zero(r0):
            return None
        half = len(p) // 2
        r = [r0]
        inv2r0 = K.inv(K.add(r0, r0))
        for i in range(1, half + 1):
            acc = p[i] if i < len(p) else K.zero
            for j in range(1, i):
                if j <= half and i - j <= half:
                    acc = K.sub(acc, K.mul(r[j], r[i - j]))
            r.append(K.mul(acc, inv2r0))
        rt = L.trim(r)
        if L.p_mul(rt, rt) == tuple(p):
            return rt
        return None

    def _is_square(self, level, x) -> bool:
        if self.levels[level].is_zero(x):
            raise MismatchError("squareness of zero is not defined here")
        if level == 0:
            return _frac_sqrt(x) is not None
        if self.steps[level][0] == "qext":
            return self._sqrt(level, x) is not None
        # Laurent level: decided in the ambient formal series field; the
        # unit 1 + x*(...) is always a square there, so only the valuation
        # parity and the lowest coefficient matter.
        k, p, q = x
        return k % 2 == 0 and self._is_square(level - 1, p[0])

    # -- heights and rendering ---------------------------------------------------

    def _height(self, level, x) -> int:
        if level == 0:
            return max(abs(x.numerator), x.denominator)
        if self.steps[level][0] == "qext":
            return max(self._height(level - 1, x[0]), self._height(level - 1, x[1]))
        k, p, q = x
        h = max(1, abs(k))
        for c in p + q:
            h = max(h, self._height(level - 1, c))
        return h

    def _str(self, level, x) -> str:
        if level == 0:
            return str(x)
        if self.steps[level][0] == "qext":
            u, v = x
            d = self.steps[level][1]
            root = f"sqrt({self._str(level - 1, d)})"
            is_zero = self.levels[level - 1].is_zero
            if is_zero(v):
                return self._str(level - 1, u)
            coeff = self._str(level - 1, v)
            vs = root if coeff == "1" else f"-{root}" if coeff == "-1" else f"{coeff}*{root}"
            if is_zero(u):
                return vs
            return f"({self._str(level - 1, u)} + {vs})"
        k, p, q = x
        if p == ():
            return "0"
        var = self._variable_name(level)
        is_zero = self.levels[level - 1].is_zero

        def poly_str(coeffs, base):
            terms = []
            for i, c in enumerate(coeffs):
                if is_zero(c):
                    continue
                e = base + i
                cs = self._str(level - 1, c)
                if e == 0:
                    terms.append(cs)
                else:
                    xs = var if e == 1 else f"{var}^{e}"
                    terms.append(xs if cs == "1" else f"{cs}*{xs}")
            return " + ".join(terms)

        num = poly_str(p, k)
        if len(q) == 1:
            return num if len(p) == 1 else f"({num})"
        return f"({num})/({poly_str(q, 0)})"

    # -- JSON ----------------------------------------------------------------

    def to_json(self) -> dict:
        tower = []
        for level, step in enumerate(self.steps):
            if step[0] == "base":
                tower.append({"kind": "base"})
            elif step[0] == "qext":
                tower.append(
                    {"kind": "qext", "d": self._value_to_json(level - 1, step[1])}
                )
            else:
                tower.append({"kind": "laurent"})
        return {"tower": tower}

    @staticmethod
    def from_json(doc: dict) -> FieldTower:
        if not isinstance(doc, dict) or set(doc) != {"tower"} or not (
            isinstance(doc["tower"], list) and doc["tower"]
        ):
            raise TowerError("field document must be {'tower': [...]}")
        tower = FieldTower.rationals()
        for i, entry in enumerate(doc["tower"]):
            if not isinstance(entry, dict) or "kind" not in entry:
                raise TowerError("tower steps need a 'kind'")
            kind = entry["kind"]
            if i == 0:
                if kind != "base" or set(entry) != {"kind"}:
                    raise TowerError("first tower step must be {'kind': 'base'}")
                continue
            if kind == "qext":
                if set(entry) != {"kind", "d"}:
                    raise TowerError("qext step takes exactly the key 'd'")
                d = tower.element_from_json(entry["d"])
                tower = tower.adjoin_sqrt(d)
            elif kind == "laurent":
                if set(entry) != {"kind"}:
                    raise TowerError("laurent step takes no extra keys")
                tower = tower.adjoin_laurent()
            else:
                raise TowerError(f"unknown tower step kind {kind!r}")
        return tower

    def _value_to_json(self, level, x):
        if level == 0:
            if x.denominator == 1:
                return str(x.numerator)
            return f"{x.numerator}/{x.denominator}"
        if self.steps[level][0] == "qext":
            return {
                "u": self._value_to_json(level - 1, x[0]),
                "v": self._value_to_json(level - 1, x[1]),
            }
        k, p, q = x
        is_zero = self.levels[level - 1].is_zero
        return {
            "num": [
                [k + i, self._value_to_json(level - 1, c)]
                for i, c in enumerate(p)
                if not is_zero(c)
            ],
            "den": [
                [i, self._value_to_json(level - 1, c)]
                for i, c in enumerate(q)
                if not is_zero(c)
            ],
        }

    def _value_from_json(self, level, doc):
        if isinstance(doc, str) or (
            isinstance(doc, int) and not isinstance(doc, bool)
        ):
            # rationals are accepted at any level and embedded; "0" is the
            # most common leaf by far
            if doc == "0":
                return self.levels[level].zero
            return self._from_rat(level, _rational_from_json(doc))
        if level == 0:
            raise TowerError(f"rational must be a 'p/q' string, got {doc!r}")
        if self.steps[level][0] == "qext":
            if not isinstance(doc, dict) or set(doc) != {"u", "v"}:
                raise TowerError("square-root level element takes keys 'u', 'v'")
            return (
                self._value_from_json(level - 1, doc["u"]),
                self._value_from_json(level - 1, doc["v"]),
            )
        if not isinstance(doc, dict) or set(doc) != {"num", "den"}:
            raise TowerError("Laurent level element takes keys 'num', 'den'")
        L, K = self.levels[level], self.levels[level - 1]

        def build(pairs):
            if not isinstance(pairs, list):
                raise TowerError("Laurent 'num' and 'den' are lists of terms")
            for term in pairs:
                if not isinstance(term, list) or len(term) != 2:
                    raise TowerError(f"Laurent term must be [exp, coeff], got {term!r}")
                e = term[0]
                if not isinstance(e, int) or isinstance(e, bool):
                    raise TowerError(f"Laurent exponent must be an integer, got {e!r}")
                if abs(e) > MAX_LAURENT_EXPONENT:
                    raise TowerError(
                        f"Laurent exponent {e} exceeds the bound {MAX_LAURENT_EXPONENT}"
                    )
            if not pairs:
                return 0, ()
            exps = [e for e, _ in pairs]
            base = min(exps)
            coeffs = [K.zero] * (max(exps) - base + 1)
            for e, c in pairs:
                coeffs[e - base] = K.add(coeffs[e - base], self._value_from_json(level - 1, c))
            return base, L.trim(coeffs)

        kn, num = build(doc["num"])
        kd, den = build(doc["den"])
        if not den:
            raise TowerError("Laurent denominator must be nonzero")
        return L.make_laurent(kn - kd, num, den)

    def element_from_json(self, doc) -> FieldElement:
        return FieldElement(self, self._value_from_json(self.depth - 1, doc))


class FieldElement:
    """An exact element of a tower field.  Immutable."""

    __slots__ = ("tower", "value")

    def __init__(self, tower: FieldTower, value):
        self.tower = tower
        self.value = value

    def _level(self) -> int:
        return self.tower.depth - 1

    def _coerced(self, other) -> FieldElement:
        return self.tower.coerce(other)

    def __add__(self, other):
        o = self._coerced(other)
        return FieldElement(self.tower, self.tower.levels[-1].add(self.value, o.value))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerced(other)
        return FieldElement(self.tower, self.tower.levels[-1].sub(self.value, o.value))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return FieldElement(self.tower, self.tower.levels[-1].neg(self.value))

    def __mul__(self, other):
        o = self._coerced(other)
        return FieldElement(self.tower, self.tower.levels[-1].mul(self.value, o.value))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerced(other)
        K = self.tower.levels[-1]
        return FieldElement(self.tower, K.mul(self.value, K.inv(o.value)))

    def __rtruediv__(self, other):
        return self._coerced(other) / self

    def __pow__(self, n: int):
        if n < 0:
            return (self.tower.one() / self) ** (-n)
        out = self.tower.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def inverse(self) -> FieldElement:
        return FieldElement(self.tower, self.tower.levels[-1].inv(self.value))

    def is_zero(self) -> bool:
        return self.tower.levels[-1].is_zero(self.value)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.tower.coerce(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.tower == other.tower and self.value == other.value

    def __hash__(self):
        return hash((self.tower, self.value))

    def __repr__(self):
        return f"<{self}>"

    def __str__(self):
        return self.tower._str(self._level(), self.value)

    def sign_at(self, ordering: Ordering) -> int:
        if ordering.tower != self.tower:
            raise MismatchError("ordering belongs to a different field")
        return self.tower._sign(self._level(), self.value, ordering.path)

    def is_square(self) -> bool:
        if self.is_zero():
            raise MismatchError("squareness of zero is not defined here")
        return self.tower._is_square(self._level(), self.value)

    def sqrt(self) -> FieldElement | None:
        """An explicit square root in the same field, when one exists."""
        if self.is_zero():
            return self.tower.zero()
        r = self.tower._sqrt(self._level(), self.value)
        if r is None:
            return None
        return FieldElement(self.tower, r)

    def height(self) -> int:
        return self.tower._height(self._level(), self.value)

    def lift_to(self, tower: FieldTower) -> FieldElement:
        if not tower.extends(self.tower):
            raise MismatchError("target tower does not extend this one")
        val = self.value
        for level in range(self.tower.depth, tower.depth):
            val = tower.levels[level].embed(val)
        return FieldElement(tower, val)

    def restrict_to(self, tower: FieldTower) -> FieldElement:
        """Inverse of lift_to for elements that actually live lower down."""
        if not self.tower.extends(tower):
            raise MismatchError("target tower is not a prefix of this one")
        val = self.value
        for level in range(self.tower.depth - 1, tower.depth - 1, -1):
            step = self.tower.steps[level]
            if step[0] == "qext":
                u, v = val
                if not self.tower.levels[level - 1].is_zero(v):
                    raise MismatchError("element does not come from the subfield")
                val = u
            else:
                k, p, q = val
                if p == ():
                    val = self.tower.levels[level - 1].zero
                elif k == 0 and len(p) == 1 and len(q) == 1:
                    val = p[0]
                else:
                    raise MismatchError("element does not come from the subfield")
        return FieldElement(tower, val)

    def to_json(self):
        return self.tower._value_to_json(self._level(), self.value)


class Ordering:
    """One ordering of a tower field: a sign path through the tower."""

    __slots__ = ("tower", "path")

    def __init__(self, tower: FieldTower, path: tuple[int, ...]):
        self.tower = tower
        self.path = tuple(path)
        if len(self.path) != tower.depth - 1:
            raise MismatchError("ordering path length does not match the tower")

    def __eq__(self, other):
        return (
            isinstance(other, Ordering)
            and self.tower == other.tower
            and self.path == other.path
        )

    def __hash__(self):
        return hash((self.tower, self.path))

    def __repr__(self):
        return f"Ordering({self.name()})"

    def name(self) -> str:
        if not self.path:
            return "Q"
        parts = []
        for level, s in enumerate(self.path, start=1):
            step = self.tower.steps[level]
            if step[0] == "qext":
                d = self.tower._str(level - 1, step[1])
                parts.append(f"sqrt({d}){'>' if s > 0 else '<'}0")
            else:
                var = self.tower._variable_name(level)
                parts.append(f"{var}->0{'+' if s > 0 else '-'}")
        return ", ".join(parts)

    def restrict(self, depth: int) -> Ordering:
        return Ordering(self.tower.prefix(depth), self.path[: depth - 1])

    def extends(self, other: Ordering) -> bool:
        return (
            self.tower.extends(other.tower)
            and self.path[: len(other.path)] == other.path
        )

    def to_json(self) -> list:
        out = []
        for level, s in enumerate(self.path, start=1):
            step = self.tower.steps[level]
            key = "sqrt_sign" if step[0] == "qext" else "x_sign"
            out.append({key: "+" if s > 0 else "-"})
        return out

    @staticmethod
    def from_json(tower: FieldTower, doc) -> Ordering:
        if not isinstance(doc, list) or len(doc) != tower.depth - 1:
            raise MismatchError("ordering path length does not match the tower")
        path = []
        for level, entry in enumerate(doc, start=1):
            step = tower.steps[level]
            key = "sqrt_sign" if step[0] == "qext" else "x_sign"
            if not isinstance(entry, dict) or set(entry) != {key}:
                raise MismatchError(f"ordering entry at level {level} needs {key!r}")
            if entry[key] not in ("+", "-"):
                raise MismatchError("ordering signs must be '+' or '-'")
            path.append(1 if entry[key] == "+" else -1)
        ordering = Ordering(tower, tuple(path))
        if ordering not in tower.orderings():
            raise MismatchError("sign path does not denote an ordering of this field")
        return ordering


def orderings(field: FieldTower) -> tuple[Ordering, ...]:
    return field.orderings()


def sign_at(e: FieldElement, P: Ordering) -> int:
    return e.sign_at(P)


def is_square(e: FieldElement) -> bool:
    return e.is_square()


def harrison_set(a: FieldElement, field: FieldTower | None = None) -> set[Ordering]:
    """The orderings at which ``a`` is positive."""
    if field is None:
        field = a.tower
    a = field.coerce(a)
    if a.is_zero():
        raise MismatchError("the positivity set of zero is not defined")
    return {P for P in field.orderings() if a.sign_at(P) > 0}
