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
# Internal value representation, indexed by tower level:
#   level 0                : Fraction
#   qext level (d = steps) : (u, v)  meaning  u + v*sqrt(d), u/v one level down
#   laurent level          : (shift, p, q)  meaning  x**shift * p(x)/q(x)
#                            with p, q dense coefficient tuples one level
#                            down, p == () only for zero, p[0] != 0,
#                            q[0] == 1 and gcd(p, q) == 1.
# These invariants make the representation canonical (one tuple per
# element; zero is (0, (), (1,))), so a result built without the general
# strip-gcd-normalize of _make_laurent is the same tuple whenever it meets
# them.  The Laurent shortcuts rely on them as follows:
#   _inv  : q/p is coprime because p/q is; scaling both by 1/p[0] makes
#           the new denominator start with 1 and keeps p[0] != 0 on top.
#   _mul  : two denominators of length 1 are both (1,); the numerator
#           product starts with p[0]*p'[0] != 0 and is coprime to 1.
#   _add  : over a shared denominator q the sum is num/q, so q*q and the
#           cross products are never formed; _make_laurent still reduces.
#   _make_laurent : once x-powers are stripped, a single-term p or q is a
#           nonzero constant, a unit, so the gcd is 1 and is not computed.
# Every level-0 value is a Fraction in lowest terms: coprime numerator,
# positive denominator (_from_rat and the JSON reader build them through
# Fraction, and the kernel below keeps them so).  The level-0 branches of
# _add, _sub, _neg, _mul, _inv, _is_zero and _sign run the kernel _q_* on
# numerator and denominator, which splits gcds the classical way (Knuth,
# TAOCP vol. 2, 4.5.1) and so produces a coprime pair by construction;
# _q_make wraps that pair without normalising it again, and is the only
# code that builds a Fraction from its internal slots.
# ---------------------------------------------------------------------------


def _q_make(n: int, d: int) -> Fraction:
    """The Fraction n/d for coprime n and d > 0, built without re-reducing."""
    f = object.__new__(Fraction)
    f._numerator = n
    f._denominator = d
    return f


def _q_add(x: Fraction, y: Fraction) -> Fraction:
    na, da = x.numerator, x.denominator
    nb, db = y.numerator, y.denominator
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
    na, da = x.numerator, x.denominator
    nb, db = y.numerator, y.denominator
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
    na, da = x.numerator, x.denominator
    nb, db = y.numerator, y.denominator
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
    return _q_make(-x.numerator, x.denominator)


def _q_inv(x: Fraction) -> Fraction:
    n, d = x.numerator, x.denominator
    if n > 0:
        return _q_make(d, n)
    if n < 0:
        return _q_make(-d, -n)
    raise ZeroDivisionError("inverse of zero field element")


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
        return Fraction(p)
    try:
        return Fraction(p, int(q))
    except ZeroDivisionError as exc:
        raise TowerError(f"invalid rational {text[:40]!r}: {exc}") from exc


class FieldTower:
    """A field of the tower grammar together with its finite ordering space."""

    def __init__(self, steps):
        """Build the tower of `steps`, which were already checked: they come
        from `rationals`, `adjoin_sqrt`, `adjoin_laurent` or `prefix`."""
        self.steps = tuple(steps)
        self._orderings = None
        # the zero and one of every level, built once: values are immutable
        z, o = Fraction(0), Fraction(1)
        self._zeros, self._ones = [z], [o]
        for step in self.steps[1:]:
            qext = step[0] == "qext"
            z, o = ((z, z), (o, z)) if qext else ((0, (), (o,)), (0, (o,), (o,)))
            self._zeros.append(z)
            self._ones.append(o)

    # -- construction -------------------------------------------------------

    @staticmethod
    def rationals() -> FieldTower:
        return FieldTower((("base",),))

    def adjoin_sqrt(self, d) -> FieldTower:
        """F(sqrt d) for d nonzero, non-square and positive at some ordering."""
        d = self.coerce(d)
        level = self.depth - 1
        if self._is_zero(level, d.value):
            raise TowerError("square-root step needs a nonzero element")
        if self._is_square(level, d.value):
            raise TowerError("square-root step needs a non-square")
        if all(self._sign(level, d.value, P.path) < 0 for P in self.orderings()):
            raise TowerError("square-root step needs an element positive somewhere")
        return FieldTower(self.steps + (("qext", d.value),))

    def adjoin_laurent(self) -> FieldTower:
        return FieldTower(self.steps + (("laurent",),))

    @property
    def depth(self) -> int:
        return len(self.steps)

    def prefix(self, depth: int) -> FieldTower:
        return FieldTower(self.steps[:depth])

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
        return FieldElement(self, self._zeros[self.depth - 1])

    def one(self) -> FieldElement:
        return FieldElement(self, self._ones[self.depth - 1])

    def rational(self, p, q=1) -> FieldElement:
        return FieldElement(self, self._from_rat(self.depth - 1, Fraction(p, q)))

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
        step = self.steps[level]
        lower_zero = self._zeros[level - 1]
        lower_one = self._ones[level - 1]
        if step[0] == "qext":
            val = (lower_zero, lower_one)
        else:
            val = (1, (lower_one,), (lower_one,))
        for lvl in range(level + 1, self.depth):
            val = self._embed(lvl, val)
        return FieldElement(self, val)

    def generators(self) -> list[FieldElement]:
        return [self.generator(level) for level in range(1, self.depth)]

    # -- raw arithmetic, indexed by level ------------------------------------

    def _from_rat(self, level, f: Fraction):
        if f == 0:
            return self._zeros[level]
        if f == 1:
            return self._ones[level]
        if level == 0:
            return f
        below = self._from_rat(level - 1, f)
        if self.steps[level][0] == "qext":
            return (below, self._zeros[level - 1])
        return (0, (below,), (self._ones[level - 1],))

    def _embed(self, level, lower_value):
        """Wrap a level-1 value as a value at ``level``."""
        if self.steps[level][0] == "qext":
            return (lower_value, self._zeros[level - 1])
        if self._is_zero(level - 1, lower_value):
            return self._zeros[level]
        return (0, (lower_value,), (self._ones[level - 1],))

    def _is_zero(self, level, x) -> bool:
        if level == 0:
            return x.numerator == 0
        if self.steps[level][0] == "qext":
            return self._is_zero(level - 1, x[0]) and self._is_zero(level - 1, x[1])
        return x[1] == ()

    def _add(self, level, x, y):
        if level == 0:
            return _q_add(x, y)
        if self.steps[level][0] == "qext":
            return (
                self._add(level - 1, x[0], y[0]),
                self._add(level - 1, x[1], y[1]),
            )
        kx, px, qx = x
        ky, py, qy = y
        if px == ():
            return y
        if py == ():
            return x
        k = min(kx, ky)
        num_x = self._p_shift(level, px, kx - k)
        num_y = self._p_shift(level, py, ky - k)
        if qx == qy:
            return self._make_laurent(level, k, self._p_add(level, num_x, num_y), qx)
        num = self._p_add(
            level, self._p_mul(level, num_x, qy), self._p_mul(level, num_y, qx)
        )
        den = self._p_mul(level, qx, qy)
        return self._make_laurent(level, k, num, den)

    def _neg(self, level, x):
        if level == 0:
            return _q_neg(x)
        if self.steps[level][0] == "qext":
            return (self._neg(level - 1, x[0]), self._neg(level - 1, x[1]))
        k, p, q = x
        return (k, tuple(self._neg(level - 1, c) for c in p), q)

    def _sub(self, level, x, y):
        if level == 0:
            return _q_sub(x, y)
        if self.steps[level][0] == "qext":
            return (
                self._sub(level - 1, x[0], y[0]),
                self._sub(level - 1, x[1], y[1]),
            )
        # Laurent: negating first keeps _add's shared-denominator shortcuts
        return self._add(level, x, self._neg(level, y))

    def _mul(self, level, x, y):
        if level == 0:
            return _q_mul(x, y)
        if self.steps[level][0] == "qext":
            lower = level - 1
            u1, v1 = x
            u2, v2 = y
            # a zero sqrt part drops the products it would multiply into
            if self._is_zero(lower, v1):
                if self._is_zero(lower, v2):
                    return (self._mul(lower, u1, u2), self._zeros[lower])
                return (self._mul(lower, u1, u2), self._mul(lower, u1, v2))
            if self._is_zero(lower, v2):
                return (self._mul(lower, u1, u2), self._mul(lower, v1, u2))
            d = self.steps[level][1]
            uu = self._mul(lower, u1, u2)
            vv = self._mul(lower, v1, v2)
            uv = self._mul(lower, u1, v2)
            vu = self._mul(lower, v1, u2)
            return (
                self._add(lower, uu, self._mul(lower, d, vv)),
                self._add(lower, uv, vu),
            )
        kx, px, qx = x
        ky, py, qy = y
        if px == () or py == ():
            return self._zeros[level]
        if len(qx) == 1 and len(qy) == 1:
            return (kx + ky, self._p_mul(level, px, py), qx)
        return self._make_laurent(
            level, kx + ky, self._p_mul(level, px, py), self._p_mul(level, qx, qy)
        )

    def _inv(self, level, x):
        if level == 0:
            return _q_inv(x)
        if self._is_zero(level, x):
            raise ZeroDivisionError("inverse of zero field element")
        if self.steps[level][0] == "qext":
            u, v = x
            ninv = self._inv(level - 1, self._qext_norm(level, u, v))
            return (
                self._mul(level - 1, u, ninv),
                self._neg(level - 1, self._mul(level - 1, v, ninv)),
            )
        k, p, q = x
        c = self._inv(level - 1, p[0])
        return (-k, self._p_scale(level, q, c), self._p_scale(level, p, c))

    def _div(self, level, x, y):
        return self._mul(level, x, self._inv(level, y))

    def _qext_norm(self, level, u, v):
        """u^2 - d v^2, one level down: the norm of u + v sqrt(d) at the
        square-root level ``level``."""
        lower = level - 1
        d = self.steps[level][1]
        return self._sub(
            lower, self._mul(lower, u, u), self._mul(lower, d, self._mul(lower, v, v))
        )

    # -- dense polynomial helpers (coefficients live one level down) ---------

    def _p_add(self, level, p, q):
        lower = level - 1
        n = max(len(p), len(q))
        out = []
        zero = self._zeros[lower]
        for i in range(n):
            a = p[i] if i < len(p) else zero
            b = q[i] if i < len(q) else zero
            out.append(self._add(lower, a, b))
        return self._p_trim_level(level, out)

    def _p_mul(self, level, p, q):
        lower = level - 1
        if not p or not q:
            return ()
        zero = self._zeros[lower]
        out = [zero] * (len(p) + len(q) - 1)
        for i, a in enumerate(p):
            if self._is_zero(lower, a):
                continue
            for j, b in enumerate(q):
                out[i + j] = self._add(lower, out[i + j], self._mul(lower, a, b))
        return self._p_trim_level(level, out)

    def _p_scale(self, level, p, c):
        lower = level - 1
        if self._is_zero(lower, c):
            return ()
        return tuple(self._mul(lower, a, c) for a in p)

    def _p_shift(self, level, p, n):
        if not p or n == 0:
            return tuple(p)
        zero = self._zeros[level - 1]
        return (zero,) * n + tuple(p)

    def _p_divmod(self, level, p, q):
        lower = level - 1
        if not q:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(p)
        quo = [self._zeros[lower]] * max(0, len(p) - len(q) + 1)
        lead_inv = self._inv(lower, q[-1])
        for i in range(len(p) - len(q), -1, -1):
            c = self._mul(lower, rem[i + len(q) - 1], lead_inv)
            if self._is_zero(lower, c):
                continue
            quo[i] = c
            for j, b in enumerate(q):
                rem[i + j] = self._sub(lower, rem[i + j], self._mul(lower, c, b))
        return self._p_trim_level(level, quo), self._p_trim_level(level, rem)

    def _p_gcd(self, level, p, q):
        lower = level - 1
        a, b = tuple(p), tuple(q)
        while b:
            _, r = self._p_divmod(level, a, b)
            a, b = b, r
        if a:
            a = self._p_scale(level, a, self._inv(lower, a[-1]))
        return a

    def _make_laurent(self, level, shift, p, q):
        """Canonical form: strip x-powers, reduce by gcd, normalize q[0] = 1."""
        lower = level - 1
        p = tuple(p)
        q = tuple(q)
        if not q:
            raise ZeroDivisionError("Laurent denominator is zero")
        if not p:
            return self._zeros[level]
        i = 0
        while self._is_zero(lower, p[i]):
            i += 1
        j = 0
        while self._is_zero(lower, q[j]):
            j += 1
        shift += i - j
        p = p[i:]
        q = q[j:]
        if len(p) > 1 and len(q) > 1:
            g = self._p_gcd(level, p, q)
            if len(g) > 1:
                p, _ = self._p_divmod(level, p, g)
                q, _ = self._p_divmod(level, q, g)
        c = self._inv(lower, q[0])
        p = self._p_scale(level, p, c)
        q = self._p_scale(level, q, c)
        return (shift, p, q)

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
            return su * self._sign(level - 1, self._qext_norm(level, u, v), path)
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
            d = self.steps[level][1]
            u, v = x
            zero = self._zeros[level - 1]
            if self._is_zero(level - 1, v):
                r = self._sqrt(level - 1, u)
                if r is not None:
                    return (r, zero)
                if not self._is_zero(level - 1, u):
                    r = self._sqrt(level - 1, self._div(level - 1, u, d))
                    if r is not None:
                        return (zero, r)
                return None
            m = self._sqrt(level - 1, self._qext_norm(level, u, v))
            if m is None:
                return None
            half = self._from_rat(level - 1, Fraction(1, 2))
            for mm in (m, self._neg(level - 1, m)):
                s2 = self._mul(level - 1, self._add(level - 1, u, mm), half)
                s = self._sqrt(level - 1, s2)
                if s is not None and not self._is_zero(level - 1, s):
                    t = self._div(
                        level - 1, v, self._add(level - 1, s, s)
                    )
                    return (s, t)
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
        lower = level - 1
        if not p:
            return ()
        if (len(p) - 1) % 2:
            return None
        r0 = self._sqrt(lower, p[0])
        if r0 is None or self._is_zero(lower, r0):
            return None
        half = len(p) // 2
        r = [r0]
        inv2r0 = self._inv(lower, self._add(lower, r0, r0))
        zero = self._zeros[lower]
        for i in range(1, half + 1):
            acc = p[i] if i < len(p) else zero
            for j in range(1, i):
                if j <= half and i - j <= half:
                    acc = self._sub(lower, acc, self._mul(lower, r[j], r[i - j]))
            r.append(self._mul(lower, acc, inv2r0))
        rt = self._p_trim_level(level, tuple(r))
        if self._p_mul(level, rt, rt) == tuple(p):
            return rt
        return None

    def _p_trim_level(self, level, p):
        """The coefficients of ``p`` as a tuple, trailing zeros dropped."""
        lower = level - 1
        n = len(p)
        while n and self._is_zero(lower, p[n - 1]):
            n -= 1
        return tuple(p[:n])

    def _is_square(self, level, x) -> bool:
        if self._is_zero(level, x):
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
            if self._is_zero(level - 1, v):
                return self._str(level - 1, u)
            coeff = self._str(level - 1, v)
            vs = root if coeff == "1" else f"-{root}" if coeff == "-1" else f"{coeff}*{root}"
            if self._is_zero(level - 1, u):
                return vs
            return f"({self._str(level - 1, u)} + {vs})"
        k, p, q = x
        if p == ():
            return "0"
        var = self._variable_name(level)

        def poly_str(coeffs, base):
            terms = []
            for i, c in enumerate(coeffs):
                if self._is_zero(level - 1, c):
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
        return {
            "num": [
                [k + i, self._value_to_json(level - 1, c)]
                for i, c in enumerate(p)
                if not self._is_zero(level - 1, c)
            ],
            "den": [
                [i, self._value_to_json(level - 1, c)]
                for i, c in enumerate(q)
                if not self._is_zero(level - 1, c)
            ],
        }

    def _value_from_json(self, level, doc):
        if isinstance(doc, str) or (
            isinstance(doc, int) and not isinstance(doc, bool)
        ):
            # rationals are accepted at any level and embedded
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
            coeffs = [self._zeros[level - 1]] * (max(exps) - base + 1)
            for e, c in pairs:
                coeffs[e - base] = self._add(
                    level - 1,
                    coeffs[e - base],
                    self._value_from_json(level - 1, c),
                )
            return base, tuple(coeffs)

        kn, num = build(doc["num"])
        kd, den = build(doc["den"])
        if not self._p_trim_level(level, den):
            raise TowerError("Laurent denominator must be nonzero")
        num = self._p_trim_level(level, num)
        if not num:
            return self._zeros[level]
        return self._make_laurent(level, kn - kd, num, self._p_trim_level(level, den))

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
        return FieldElement(
            self.tower, self.tower._add(self._level(), self.value, o.value)
        )

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerced(other)
        return FieldElement(
            self.tower, self.tower._sub(self._level(), self.value, o.value)
        )

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return FieldElement(self.tower, self.tower._neg(self._level(), self.value))

    def __mul__(self, other):
        o = self._coerced(other)
        return FieldElement(
            self.tower, self.tower._mul(self._level(), self.value, o.value)
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerced(other)
        return FieldElement(
            self.tower, self.tower._div(self._level(), self.value, o.value)
        )

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
        return FieldElement(self.tower, self.tower._inv(self._level(), self.value))

    def is_zero(self) -> bool:
        return self.tower._is_zero(self._level(), self.value)

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
            val = tower._embed(level, val)
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
                if not self.tower._is_zero(level - 1, v):
                    raise MismatchError("element does not come from the subfield")
                val = u
            else:
                k, p, q = val
                if p == ():
                    val = self.tower._zeros[level - 1]
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
