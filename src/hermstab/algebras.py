"""Algebras with involution over tower fields, and hermitian forms on them.

The catalogue covers the degree <= 2 building blocks: the base field with
the identity, the split double field with the exchange involution,
quadratic extensions with conjugation, quaternion algebras with their
symplectic (conjugation) or orthogonal involutions, quaternion algebras
over a quadratic extension with the tensor-product unitary involution,
and matrix wrappers carrying the adjoint involution of a diagonal
hermitian scaling.

Gram matrices of epsilon-hermitian forms are diagonalized by hermitian
elimination; a nonzero non-invertible pivot is not an error but returns
an explicit zero divisor (the algebra cannot be division), which callers
use to reroute.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, reduce

from .fields import FieldElement, FieldTower, InvariantViolation, MismatchError
from .fields import _SqrtLevel
from .quadratic import QuadraticForm, SingularFormError, diagonalize_gram

__all__ = [
    "Algebra",
    "FieldAlgebra",
    "ExchangeAlgebra",
    "UnitaryQuadraticAlgebra",
    "QuaternionAlgebra",
    "UnitaryQuaternionAlgebra",
    "MatrixAlgebra",
    "AlgebraElement",
    "HermitianForm",
    "SplitWitness",
    "ZeroDivisorFound",
    "algebra_from_json",
    "sym_basis",
    "reduced_trace",
    "reduced_norm",
    "diagonalize_hermitian",
    "morita_flatten",
    "twist",
    "rho_form",
    "trace_form",
]


class ZeroDivisorFound(ArithmeticError):
    """Inversion hit a nonzero zero divisor; carries the witness value."""

    def __init__(self, algebra, value):
        super().__init__("nonzero element is not invertible")
        self.algebra = algebra
        self.value = value


class SplitWitness:
    """An explicit zero divisor: proof that the algebra is not division."""

    def __init__(self, algebra: Algebra, element: AlgebraElement):
        self.algebra = algebra
        self.element = element

    def __repr__(self):
        return f"SplitWitness({self.element})"


# ---------------------------------------------------------------------------
# the algebra catalogue
# ---------------------------------------------------------------------------


def _frozen(doc):
    """A hashable copy of a JSON document; ``dict`` tags objects so that an
    object never equals a list of pairs."""
    if isinstance(doc, dict):
        return (dict, tuple(sorted((k, _frozen(v)) for k, v in doc.items())))
    if isinstance(doc, list):
        return tuple(_frozen(v) for v in doc)
    return doc


class Algebra:
    """Common interface of the catalogue; concrete kinds subclass this."""

    kind: str
    field: FieldTower

    # dimension over the base field
    dim: int

    def one(self):
        raise NotImplementedError

    def zero(self):
        raise NotImplementedError

    def add(self, x, y):
        raise NotImplementedError

    def neg(self, x):
        raise NotImplementedError

    def mul(self, x, y):
        raise NotImplementedError

    def involution(self, x):
        raise NotImplementedError

    def inverse(self, x):
        raise NotImplementedError

    def is_invertible(self, x) -> bool:
        """Whether ``x`` has an inverse; here by computing it."""
        if self.is_zero(x):
            return False
        try:
            self.inverse(x)
            return True
        except ZeroDivisorFound:
            return False

    def is_zero(self, x):
        raise NotImplementedError

    def scalar_mul(self, c, x):
        """Multiply by a base-field element."""
        raise NotImplementedError

    def coords(self, x) -> list[FieldElement]:
        raise NotImplementedError

    def from_coords(self, coords) -> object:
        raise NotImplementedError

    def basis_values(self) -> list:
        out = []
        for i in range(self.dim):
            coords = [self.field.zero()] * self.dim
            coords[i] = self.field.one()
            out.append(self.from_coords(coords))
        return out

    def reduced_trace(self, x) -> FieldElement:
        raise NotImplementedError

    def reduced_norm(self, x) -> FieldElement:
        raise NotImplementedError

    def elem(self, value) -> AlgebraElement:
        return AlgebraElement(self, value)

    def from_field(self, c) -> AlgebraElement:
        c = self.field.coerce(c)
        return self.elem(self.scalar_mul(c, self.one()))

    def basis(self) -> list[AlgebraElement]:
        return [self.elem(v) for v in self.basis_values()]

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def lift_to(self, tower: FieldTower) -> Algebra:
        raise NotImplementedError

    def lift_value(self, value, target: Algebra):
        coords = self.coords(value)
        return target.from_coords([c.lift_to(target.field) for c in coords])

    def to_json(self) -> dict:
        raise NotImplementedError

    def value_to_json(self, value):
        raise NotImplementedError

    def value_from_json(self, doc):
        raise NotImplementedError

    @cached_property
    def _key(self):
        """The identity of the algebra: ``to_json()`` made hashable, once."""
        return _frozen(self.to_json())

    @cached_property
    def reference_candidates(self) -> tuple[HermitianForm, ...]:
        """All of ``iter_reference_candidates()``, computed once per instance."""
        return tuple(self.iter_reference_candidates())

    @cached_property
    def symmetric_basis(self) -> tuple[AlgebraElement, ...]:
        """``sym_basis(self)``, computed once per instance: every candidate
        walk past <1> and <-1> reads it."""
        return tuple(sym_basis(self))

    @cached_property
    def reference_pairs(self) -> tuple[HermitianForm, ...]:
        """All of ``iter_reference_pairs()``, computed once per instance."""
        return tuple(self.iter_reference_pairs())

    @cached_property
    def reference_memo(self) -> dict:
        """``signatures.reference_search``'s latest success on this
        algebra, keyed by its budget; it lives and dies with the algebra."""
        return {}

    @cached_property
    def local_type_memo(self) -> dict:
        """``signatures.local_type`` at each ordering, keyed by sign path;
        it lives and dies with the algebra."""
        return {}

    @cached_property
    def certificate_memo(self) -> dict:
        """``splitting.find_certificate``'s success at each ordering, keyed
        by sign path, with its witness height; it lives and dies with the
        algebra."""
        return {}

    @cached_property
    def split_model_memo(self) -> dict:
        """The ordering-free part of each split certificate found on this
        algebra (a ``splitting.SplitModel``: witness, extension, matrices,
        datum, transport images and det G), keyed by the witness's integer
        triple."""
        return {}

    @cached_property
    def _reference_forms(self) -> list:
        """The first member of each +- pair of reference candidates met so
        far, indexed by the pair's position in ``_reference_values``: its
        rank-one form, or None when its value is not invertible or repeats
        1 or -1."""
        return []

    def iter_reference_candidates(self):
        """Rank-one forms on invertible symmetric elements, in this order:
        1, -1, then b_i, -b_i for the symmetric basis b_1, ..., b_r, then
        b_i + b_j, -(b_i + b_j), b_i - b_j, -(b_i - b_j) for i < j: each
        form of ``iter_reference_pairs`` followed by its negative.

        The b_i are independent, so a later candidate can repeat only 1 or
        -1; those repeats are found by value (values are canonical) and
        skipped.  Every walk, and ``reference_candidates``, yields the same
        form objects, so their route memos are shared too."""
        for form in self.iter_reference_pairs():
            yield form
            yield -form

    def iter_reference_pairs(self):
        """The first member h of each +- pair of ``iter_reference_candidates``;
        its partner is -h, which ``HermitianForm.__neg__`` builds when asked
        and keeps.  Lazy: the symmetric basis is only computed once <1> has
        been consumed.  x is invertible exactly when -x is, and repeats 1 or
        -1 exactly when -x does, so a pair is kept or skipped whole; each
        first member's form is built, and its invertibility tested, once
        per algebra."""
        forms = self._reference_forms
        one = self.elem(self.one())
        units = (one.value, (-one).value)
        values = self._reference_values(one)
        # each value is followed by its negative: zip reads one pair a step
        for pos, (x, _) in enumerate(zip(values, values)):
            if pos == len(forms):
                repeat = pos >= 1 and x.value in units
                forms.append(None if repeat else self._rank_one_candidate(x))
            if forms[pos] is not None:
                yield forms[pos]

    def _reference_values(self, one):
        """The values of ``iter_reference_candidates``, in walk order: each
        first member of a +- pair followed by its negative."""
        yield one
        yield -one
        basis = self.symmetric_basis
        for b in basis:
            yield b
            yield -b
        for i, b in enumerate(basis):
            for c in basis[i + 1:]:
                for x in (b + c, b - c):
                    yield x
                    yield -x

    def _rank_one_candidate(self, x: AlgebraElement) -> HermitianForm | None:
        """The rank-one form <x>, or None when x is not invertible."""
        return HermitianForm.diagonal(self, [x]) if x.is_invertible() else None

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Algebra) and self._key == other._key
        )

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"<{self.describe()}>"

    def describe(self) -> str:
        return self.kind


class FieldAlgebra(Algebra):
    """(F, id)."""

    kind = "field_id"

    def __init__(self, field: FieldTower):
        self.field = field
        self.dim = 1
        self._lvl = field.depth - 1
        self._k = field.levels[-1]

    def one(self):
        return self._k.one

    def zero(self):
        return self._k.zero

    def add(self, x, y):
        return self._k.add(x, y)

    def neg(self, x):
        return self._k.neg(x)

    def mul(self, x, y):
        return self._k.mul(x, y)

    def involution(self, x):
        return x

    def inverse(self, x):
        if self.is_zero(x):
            raise ZeroDivisionError("inverse of zero")
        return self._k.inv(x)

    def is_zero(self, x):
        return self._k.is_zero(x)

    def scalar_mul(self, c, x):
        return self._k.mul(c.value, x)

    def coords(self, x):
        return [FieldElement(self.field, x)]

    def from_coords(self, coords):
        return coords[0].value

    def reduced_trace(self, x):
        return FieldElement(self.field, x)

    def reduced_norm(self, x):
        return FieldElement(self.field, x)

    def lift_to(self, tower):
        return FieldAlgebra(tower)

    def to_json(self):
        return {"kind": "field_id", "field": self.field.to_json()}

    def value_to_json(self, value):
        return self.field._value_to_json(self._lvl, value)

    def value_from_json(self, doc):
        return self.field._value_from_json(self._lvl, doc)

    def describe(self):
        return f"({self.field.describe()}, id)"


class _PairAlgebra(Algebra):
    """Values are pairs of base-field values, added and scaled coordinatewise."""

    dim = 2

    def __init__(self, field: FieldTower):
        self.field = field
        self._lvl = field.depth - 1
        self._k = field.levels[-1]

    def zero(self):
        z = self._k.zero
        return (z, z)

    def add(self, x, y):
        K = self._k
        return (K.add(x[0], y[0]), K.add(x[1], y[1]))

    def neg(self, x):
        K = self._k
        return (K.neg(x[0]), K.neg(x[1]))

    def is_zero(self, x):
        K = self._k
        return K.is_zero(x[0]) and K.is_zero(x[1])

    def scalar_mul(self, c, x):
        K = self._k
        return (K.mul(c.value, x[0]), K.mul(c.value, x[1]))

    def coords(self, x):
        return [FieldElement(self.field, x[0]), FieldElement(self.field, x[1])]

    def from_coords(self, coords):
        return (coords[0].value, coords[1].value)


class ExchangeAlgebra(_PairAlgebra):
    """(F x F, exchange)."""

    kind = "exchange"

    def one(self):
        o = self._k.one
        return (o, o)

    def mul(self, x, y):
        K = self._k
        return (K.mul(x[0], y[0]), K.mul(x[1], y[1]))

    def involution(self, x):
        return (x[1], x[0])

    def inverse(self, x):
        K = self._k
        if self.is_zero(x):
            raise ZeroDivisionError("inverse of zero")
        if K.is_zero(x[0]) or K.is_zero(x[1]):
            raise ZeroDivisorFound(self, x)
        return (K.inv(x[0]), K.inv(x[1]))

    def reduced_trace(self, x):
        return FieldElement(self.field, self._k.add(x[0], x[1]))

    def reduced_norm(self, x):
        return FieldElement(self.field, self._k.mul(x[0], x[1]))

    def lift_to(self, tower):
        return ExchangeAlgebra(tower)

    def to_json(self):
        return {"kind": "exchange", "field": self.field.to_json()}

    def value_to_json(self, value):
        j = self.field._value_to_json
        return {"left": j(self._lvl, value[0]), "right": j(self._lvl, value[1])}

    def value_from_json(self, doc):
        if not isinstance(doc, dict) or set(doc) != {"left", "right"}:
            raise MismatchError("exchange element takes keys 'left', 'right'")
        f = self.field._value_from_json
        return (f(self._lvl, doc["left"]), f(self._lvl, doc["right"]))

    def describe(self):
        return f"({self.field.describe()} x {self.field.describe()}, exchange)"


class UnitaryQuadraticAlgebra(_PairAlgebra):
    """(F(sqrt(alpha)), conjugation) for a non-square alpha; a value (u, v)
    is u + v*sqrt(alpha).  Product, inverse and norm are those of the
    square-root level F(sqrt(alpha)) over F's top level (``fields``)."""

    kind = "unitary_quadratic"

    def __init__(self, field: FieldTower, alpha):
        super().__init__(field)
        alpha = field.coerce(alpha)
        if alpha.is_zero() or alpha.is_square():
            raise MismatchError("alpha must be a nonzero non-square")
        self.alpha = alpha
        self._ext = _SqrtLevel(self._k, alpha.value)

    def one(self):
        return self._ext.one

    def mul(self, x, y):
        return self._ext.mul(x, y)

    def involution(self, x):
        return (x[0], self._k.neg(x[1]))

    def inverse(self, x):
        if self.is_zero(x):
            raise ZeroDivisionError("inverse of zero")
        return self._ext.inv(x)

    def reduced_trace(self, x):
        return FieldElement(self.field, self._k.add(x[0], x[0]))

    def reduced_norm(self, x):
        return FieldElement(self.field, self._ext.norm(*x))

    def lift_to(self, tower):
        return UnitaryQuadraticAlgebra(tower, self.alpha.lift_to(tower))

    def to_json(self):
        return {
            "kind": "unitary_quadratic",
            "field": self.field.to_json(),
            "alpha": self.alpha.to_json(),
        }

    def value_to_json(self, value):
        j = self.field._value_to_json
        return {"u": j(self._lvl, value[0]), "v": j(self._lvl, value[1])}

    def value_from_json(self, doc):
        if not isinstance(doc, dict) or set(doc) != {"u", "v"}:
            raise MismatchError("quadratic-extension element takes keys 'u', 'v'")
        f = self.field._value_from_json
        return (f(self._lvl, doc["u"]), f(self._lvl, doc["v"]))

    def describe(self):
        return f"({self.field.describe()}(sqrt({self.alpha})), conj)"


class _QuaternionCore(Algebra):
    """The quaternion algebra (a, b) with a, b in F over a coefficient
    algebra ``centre``: (F, id) for ``quaternion`` and (F(sqrt(alpha)),
    conj) for ``unitary_quaternion``.  A value is the 4-tuple of centre
    values on the basis 1, i, j, k, where i^2 = a, j^2 = b, ij = -ji = k;
    i and j commute with the centre.  The involution is quaternion
    conjugation followed by the centre's involution on each coordinate,
    then, for an orthogonal involution Int(u) o gamma, the matrix
    ``_int_u`` of Int(u) on the basis."""

    _int_u = None

    def __init__(self, centre: Algebra, a, b):
        self.centre = centre
        self.field = field = centre.field
        self.a = field.coerce(a)
        self.b = field.coerce(b)
        if self.a.is_zero() or self.b.is_zero():
            raise MismatchError("quaternion parameters must be nonzero")
        self.dim = 4 * centre.dim
        pad = [field.zero()] * (centre.dim - 1)
        self._a = centre.from_coords([self.a, *pad])
        self._b = centre.from_coords([self.b, *pad])
        self._ab = centre.mul(self._a, self._b)

    def one(self):
        z = self.centre.zero()
        return (self.centre.one(), z, z, z)

    def zero(self):
        z = self.centre.zero()
        return (z, z, z, z)

    def add(self, x, y):
        add = self.centre.add
        return tuple(add(p, q) for p, q in zip(x, y))

    def neg(self, x):
        neg = self.centre.neg
        return tuple(neg(p) for p in x)

    def mul(self, x, y):
        C = self.centre
        add, sub, mul = C.add, C.sub, C.mul
        a, b = self._a, self._b
        x0, x1, x2, x3 = x
        y0, y1, y2, y3 = y
        return (
            add(
                add(mul(x0, y0), mul(a, mul(x1, y1))),
                sub(mul(b, mul(x2, y2)), mul(self._ab, mul(x3, y3))),
            ),
            add(add(mul(x0, y1), mul(x1, y0)), mul(b, sub(mul(x3, y2), mul(x2, y3)))),
            add(add(mul(x0, y2), mul(x2, y0)), mul(a, sub(mul(x1, y3), mul(x3, y1)))),
            add(add(mul(x0, y3), mul(x3, y0)), sub(mul(x1, y2), mul(x2, y1))),
        )

    def _conj(self, x):
        neg = self.centre.neg
        return (x[0], neg(x[1]), neg(x[2]), neg(x[3]))

    def _nrd(self, x):
        """The reduced norm as a centre value."""
        C = self.centre
        sub, mul = C.sub, C.mul
        x0, x1, x2, x3 = x
        return C.add(
            sub(mul(x0, x0), mul(self._a, mul(x1, x1))),
            sub(mul(self._ab, mul(x3, x3)), mul(self._b, mul(x2, x2))),
        )

    def involution(self, x):
        C = self.centre
        g = tuple(C.involution(c) for c in self._conj(x))
        if self._int_u is None:
            return g
        return tuple(
            reduce(C.add, [C.mul(t, g[col]) for col, t in row]) for row in self._int_u
        )

    def inverse(self, x):
        if self.is_zero(x):
            raise ZeroDivisionError("inverse of zero")
        C = self.centre
        n = self._nrd(x)
        if C.is_zero(n):
            raise ZeroDivisorFound(self, x)
        ninv = C.inverse(n)
        return tuple(C.mul(c, ninv) for c in self._conj(x))

    def is_invertible(self, x):
        """x . conj(x) = Nrd(x), and the centre is a field: x is
        invertible exactly when Nrd(x) is nonzero."""
        return not self.is_zero(x) and not self.centre.is_zero(self._nrd(x))

    def _rank_one_candidate(self, x):
        """<x>, or None when Nrd(x) = 0: the norm that decides is kept on
        the form (``HermitianForm.entry_norms``), where the split route
        reads it."""
        form = HermitianForm.diagonal(self, [x])
        try:
            form.entry_norms()
        except SingularFormError:
            return None
        return form

    def is_zero(self, x):
        is_zero = self.centre.is_zero
        return all(is_zero(c) for c in x)

    def scalar_mul(self, c, x):
        scalar_mul = self.centre.scalar_mul
        return tuple(scalar_mul(c, p) for p in x)

    def coords(self, x):
        return [e for c in x for e in self.centre.coords(c)]

    def from_coords(self, coords):
        d = self.centre.dim
        return tuple(
            self.centre.from_coords(coords[d * i : d * i + d]) for i in range(4)
        )

    def reduced_trace(self, x):
        """Trd, composed with the centre's trace down to F."""
        return self.centre.reduced_trace(self.centre.add(x[0], x[0]))

    def reduced_norm(self, x):
        """Nrd, composed with the centre's norm down to F."""
        return self.centre.reduced_norm(self._nrd(x))

    def value_to_json(self, value):
        return [self.centre.value_to_json(c) for c in value]

    def value_from_json(self, doc):
        if not isinstance(doc, list) or len(doc) != 4:
            raise MismatchError(
                "quaternion element is a list of 4 centre coordinates"
            )
        return tuple(self.centre.value_from_json(c) for c in doc)


class QuaternionAlgebra(_QuaternionCore):
    """((a, b)_F, gamma) or ((a, b)_F, Int(u) o gamma) for pure invertible u."""

    kind = "quaternion"

    def __init__(self, field: FieldTower, a, b, involution="conjugation", u=None):
        super().__init__(FieldAlgebra(field), a, b)
        if involution not in ("conjugation", "orthogonal"):
            raise MismatchError("involution must be conjugation or orthogonal")
        self.involution_type = involution
        self.u = None
        if involution == "conjugation":
            if u is not None:
                raise MismatchError("conjugation takes no twisting element")
            return
        if u is None:
            raise MismatchError("orthogonal involution needs a pure quaternion u")
        C = self.centre
        u = tuple(field.coerce(c).value for c in u)
        if len(u) != 4 or not C.is_zero(u[0]):
            raise MismatchError("u must be a pure quaternion (zero scalar part)")
        # w_r = B(u, e_r) for the polar form B of v -> v^2 on pure
        # quaternions, and u^2 = B(u, u) = -Nrd(u)
        w = [C.mul(self._a, u[1]), C.mul(self._b, u[2]), C.neg(C.mul(self._ab, u[3]))]
        usq = reduce(C.add, map(C.mul, w, u[1:]))
        if C.is_zero(usq):
            raise MismatchError("u must be invertible (nonzero reduced norm)")
        self.u = u
        # Int(u) fixes 1 and maps a pure v to (2 B(u, v) / u^2) u - v; keep
        # the nonzero entries of its matrix on 1, i, j, k by row
        inv = C.inverse(usq)
        c = [C.mul(C.add(inv, inv), wr) for wr in w]
        rows = [((0, C.one()),)]
        for s in (1, 2, 3):
            row = [C.mul(u[s], cr) for cr in c]
            row[s - 1] = C.add(row[s - 1], C.neg(C.one()))
            rows.append(tuple((r, t) for r, t in enumerate(row, 1) if not C.is_zero(t)))
        self._int_u = tuple(rows)

    def lift_to(self, tower):
        u = None
        if self.u is not None:
            u = [FieldElement(self.field, c).lift_to(tower) for c in self.u]
        return QuaternionAlgebra(
            tower,
            self.a.lift_to(tower),
            self.b.lift_to(tower),
            self.involution_type,
            u,
        )

    def to_json(self):
        inv: dict = {"type": self.involution_type}
        if self.u is not None:
            inv["u"] = self.value_to_json(self.u)
        return {
            "kind": "quaternion",
            "field": self.field.to_json(),
            "a": self.a.to_json(),
            "b": self.b.to_json(),
            "involution": inv,
        }

    def describe(self):
        inv = "conj" if self.involution_type == "conjugation" else "Int(u)conj"
        return f"(({self.a}, {self.b})_{self.field.describe()}, {inv})"


class UnitaryQuaternionAlgebra(_QuaternionCore):
    """((a, b) over F(sqrt(alpha)), quaternion conjugation tensor conj).

    a and b stay in F, which keeps the involution of the second kind and
    the arithmetic inside one quaternion layer.
    """

    kind = "unitary_quaternion"

    def __init__(self, field: FieldTower, a, b, alpha):
        super().__init__(UnitaryQuadraticAlgebra(field, alpha), a, b)
        self.alpha = self.centre.alpha

    def lift_to(self, tower):
        return UnitaryQuaternionAlgebra(
            tower,
            self.a.lift_to(tower),
            self.b.lift_to(tower),
            self.alpha.lift_to(tower),
        )

    def to_json(self):
        return {
            "kind": "unitary_quaternion",
            "field": self.field.to_json(),
            "a": self.a.to_json(),
            "b": self.b.to_json(),
            "alpha": self.alpha.to_json(),
        }

    def describe(self):
        return (
            f"(({self.a}, {self.b}) over {self.field.describe()}"
            f"(sqrt({self.alpha})), unitary)"
        )


class MatrixAlgebra(Algebra):
    """(M_n(D), adjoint involution of a diagonal hermitian scaling g)."""

    kind = "matrix"

    def __init__(self, n: int, inner: Algebra, g=None):
        if n < 1:
            raise MismatchError("matrix size must be at least 1")
        if inner.kind in ("matrix", "exchange"):
            raise MismatchError("matrix wrapper takes a non-matrix division kind")
        self.n = n
        self.inner = inner
        self.field = inner.field
        self.dim = n * n * inner.dim
        if g is None:
            g = [inner.elem(inner.one()) for _ in range(n)]
        gv, g_inv = [], []
        for gi in g:
            v = gi.value if isinstance(gi, AlgebraElement) else gi
            if inner.involution(v) != v:
                raise MismatchError("scaling entries must be fixed by the involution")
            try:
                g_inv.append(inner.inverse(v))
            except (ZeroDivisionError, ZeroDivisorFound):
                raise MismatchError("scaling entries must be invertible") from None
            gv.append(v)
        if len(gv) != n:
            raise MismatchError("scaling needs one entry per row")
        self.g = tuple(gv)
        self._g_inv = tuple(g_inv)

    def one(self):
        z = self.inner.zero()
        o = self.inner.one()
        return tuple(
            tuple(o if i == j else z for j in range(self.n)) for i in range(self.n)
        )

    def zero(self):
        z = self.inner.zero()
        return tuple(tuple(z for _ in range(self.n)) for _ in range(self.n))

    def add(self, x, y):
        return tuple(
            tuple(self.inner.add(x[i][j], y[i][j]) for j in range(self.n))
            for i in range(self.n)
        )

    def neg(self, x):
        return tuple(
            tuple(self.inner.neg(x[i][j]) for j in range(self.n))
            for i in range(self.n)
        )

    def mul(self, x, y):
        n = self.n
        out = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = self.inner.zero()
                for t in range(n):
                    acc = self.inner.add(acc, self.inner.mul(x[i][t], y[t][j]))
                row.append(acc)
            out.append(tuple(row))
        return tuple(out)

    def involution(self, x):
        # (sigma X)_{ij} = g_i^-1 theta(X_{ji}) g_j
        n = self.n
        return tuple(
            tuple(
                self.inner.mul(
                    self._g_inv[i],
                    self.inner.mul(self.inner.involution(x[j][i]), self.g[j]),
                )
                for j in range(n)
            )
            for i in range(n)
        )

    def inverse(self, x):
        """Gauss-Jordan on [X | I] over the inner algebra (a division ring
        on the catalogue); a non-invertible pivot gives a witness in M."""
        if self.is_zero(x):
            raise ZeroDivisionError("inverse of zero")
        n = self.n
        D = self.inner
        one = self.one()
        try:
            rows, pivots = _gauss_jordan(
                [[D.elem(v) for v in (*row, *one[i])] for i, row in enumerate(x)]
            )
        except ZeroDivisorFound as zd:
            # the inner witness z in the top-left corner: a zero divisor of M
            corner = tuple(
                tuple(zd.value if i == j == 0 else D.zero() for j in range(n))
                for i in range(n)
            )
            raise ZeroDivisorFound(self, corner) from None
        if pivots[:n] != list(range(n)):
            raise ZeroDivisorFound(self, x)
        return tuple(tuple(e.value for e in row[n:]) for row in rows)

    def _reference_values(self, one):
        # a symmetric basis element touches the rows of one entry pair, so
        # for n >= 5 each b_i and b_i +- b_j has a zero row: stop after +-1
        if self.n < 5:
            yield from super()._reference_values(one)
            return
        yield from (one, -one)

    def is_invertible(self, x) -> bool:
        """A matrix with a zero row is singular without a Gauss-Jordan."""
        if any(all(self.inner.is_zero(v) for v in row) for row in x):
            return False
        return super().is_invertible(x)

    def is_zero(self, x):
        return all(self.inner.is_zero(v) for row in x for v in row)

    def scalar_mul(self, c, x):
        return tuple(
            tuple(self.inner.scalar_mul(c, v) for v in row) for row in x
        )

    def coords(self, x):
        out = []
        for row in x:
            for v in row:
                out.extend(self.inner.coords(v))
        return out

    def from_coords(self, coords):
        d = self.inner.dim
        rows = []
        idx = 0
        for _ in range(self.n):
            row = []
            for _ in range(self.n):
                row.append(self.inner.from_coords(coords[idx : idx + d]))
                idx += d
            rows.append(tuple(row))
        return tuple(rows)

    def reduced_trace(self, x):
        acc = self.field.zero()
        for i in range(self.n):
            acc = acc + self.inner.reduced_trace(x[i][i])
        return acc

    def reduced_norm(self, x):
        raise MismatchError(
            "reduced norms of matrix wrappers are not supported; invert "
            "or flatten instead"
        )

    def lift_to(self, tower):
        inner = self.inner.lift_to(tower)
        g = [inner.elem(self.inner.lift_value(v, inner)) for v in self.g]
        return MatrixAlgebra(self.n, inner, g)

    def to_json(self):
        return {
            "kind": "matrix",
            "n": self.n,
            "inner": self.inner.to_json(),
            "g": [self.inner.value_to_json(v) for v in self.g],
        }

    def value_to_json(self, value):
        return [[self.inner.value_to_json(v) for v in row] for row in value]

    def value_from_json(self, doc):
        if not isinstance(doc, list) or len(doc) != self.n:
            raise MismatchError("matrix element is an n x n nested list")
        rows = []
        for row in doc:
            if not isinstance(row, list) or len(row) != self.n:
                raise MismatchError("matrix element is an n x n nested list")
            rows.append(tuple(self.inner.value_from_json(v) for v in row))
        return tuple(rows)

    def describe(self):
        return f"M_{self.n}({self.inner.describe()})"


def algebra_from_json(doc: dict) -> Algebra:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise MismatchError("algebra document needs a 'kind'")
    kind = doc["kind"]
    if kind == "field_id":
        if set(doc) != {"kind", "field"}:
            raise MismatchError("field_id takes exactly the key 'field'")
        return FieldAlgebra(FieldTower.from_json(doc["field"]))
    if kind == "exchange":
        if set(doc) != {"kind", "field"}:
            raise MismatchError("exchange takes exactly the key 'field'")
        return ExchangeAlgebra(FieldTower.from_json(doc["field"]))
    if kind == "unitary_quadratic":
        if set(doc) != {"kind", "field", "alpha"}:
            raise MismatchError("unitary_quadratic takes keys 'field', 'alpha'")
        field = FieldTower.from_json(doc["field"])
        return UnitaryQuadraticAlgebra(field, field.element_from_json(doc["alpha"]))
    if kind == "quaternion":
        if set(doc) != {"kind", "field", "a", "b", "involution"}:
            raise MismatchError(
                "quaternion takes keys 'field', 'a', 'b', 'involution'"
            )
        field = FieldTower.from_json(doc["field"])
        inv = doc["involution"]
        if not isinstance(inv, dict) or "type" not in inv:
            raise MismatchError("involution needs a 'type'")
        a = field.element_from_json(doc["a"])
        b = field.element_from_json(doc["b"])
        if inv["type"] == "conjugation":
            if set(inv) != {"type"}:
                raise MismatchError("conjugation takes no extra keys")
            return QuaternionAlgebra(field, a, b, "conjugation")
        if inv["type"] == "orthogonal":
            if set(inv) != {"type", "u"} or not isinstance(inv["u"], list):
                raise MismatchError("orthogonal takes the key 'u', a list")
            u = [field.element_from_json(c) for c in inv["u"]]
            return QuaternionAlgebra(field, a, b, "orthogonal", u)
        raise MismatchError(f"unknown involution type {inv['type']!r}")
    if kind == "unitary_quaternion":
        if set(doc) != {"kind", "field", "a", "b", "alpha"}:
            raise MismatchError(
                "unitary_quaternion takes keys 'field', 'a', 'b', 'alpha'"
            )
        field = FieldTower.from_json(doc["field"])
        return UnitaryQuaternionAlgebra(
            field,
            field.element_from_json(doc["a"]),
            field.element_from_json(doc["b"]),
            field.element_from_json(doc["alpha"]),
        )
    if kind == "matrix":
        if set(doc) != {"kind", "n", "inner", "g"}:
            raise MismatchError("matrix takes keys 'n', 'inner', 'g'")
        inner = algebra_from_json(doc["inner"])
        n = doc["n"]
        if not isinstance(n, int) or isinstance(n, bool):
            raise MismatchError("matrix size 'n' must be an integer")
        if not isinstance(doc["g"], list):
            raise MismatchError("matrix scaling 'g' must be a list")
        g = [inner.elem(inner.value_from_json(v)) for v in doc["g"]]
        return MatrixAlgebra(n, inner, g)
    raise MismatchError(f"unknown algebra kind {kind!r}")


class AlgebraElement:
    """An element of a catalogue algebra.  Immutable."""

    __slots__ = ("algebra", "value")

    def __init__(self, algebra: Algebra, value):
        self.algebra = algebra
        self.value = value

    def _coerced(self, other):
        if isinstance(other, AlgebraElement):
            if other.algebra != self.algebra:
                raise MismatchError("elements of different algebras")
            return other
        if isinstance(other, (int, Fraction, FieldElement)):
            return self.algebra.from_field(other)
        raise TypeError(f"cannot coerce {other!r}")

    def __add__(self, other):
        o = self._coerced(other)
        return AlgebraElement(self.algebra, self.algebra.add(self.value, o.value))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerced(other)
        return AlgebraElement(self.algebra, self.algebra.sub(self.value, o.value))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return AlgebraElement(self.algebra, self.algebra.neg(self.value))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, FieldElement)):
            c = self.algebra.field.coerce(other)
            return AlgebraElement(
                self.algebra, self.algebra.scalar_mul(c, self.value)
            )
        o = self._coerced(other)
        return AlgebraElement(self.algebra, self.algebra.mul(self.value, o.value))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, FieldElement)):
            return self.__mul__(other)
        o = self._coerced(other)
        return AlgebraElement(self.algebra, self.algebra.mul(o.value, self.value))

    def involution(self) -> AlgebraElement:
        return AlgebraElement(self.algebra, self.algebra.involution(self.value))

    def inverse(self) -> AlgebraElement:
        return AlgebraElement(self.algebra, self.algebra.inverse(self.value))

    def is_zero(self) -> bool:
        return self.algebra.is_zero(self.value)

    def is_invertible(self) -> bool:
        return self.algebra.is_invertible(self.value)

    def reduced_trace(self) -> FieldElement:
        return self.algebra.reduced_trace(self.value)

    def reduced_norm(self) -> FieldElement:
        return self.algebra.reduced_norm(self.value)

    def coords(self) -> list[FieldElement]:
        return self.algebra.coords(self.value)

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            try:
                other = self._coerced(other)
            except (TypeError, MismatchError):
                return NotImplemented
        # values are canonical (see ``iter_reference_candidates``)
        return self.algebra == other.algebra and self.value == other.value

    def __hash__(self):
        return hash((self.algebra, self.value))

    def __repr__(self):
        return f"AlgebraElement({self.algebra.value_to_json(self.value)})"

    def __str__(self):
        return str(self.algebra.value_to_json(self.value))

    def to_json(self):
        return self.algebra.value_to_json(self.value)

    def lift_to(self, target: Algebra) -> AlgebraElement:
        return AlgebraElement(target, self.algebra.lift_value(self.value, target))


def reduced_trace(A: Algebra, z: AlgebraElement) -> FieldElement:
    if z.algebra != A:
        raise MismatchError("element does not belong to the algebra")
    return z.reduced_trace()


def reduced_norm(A: Algebra, z: AlgebraElement) -> FieldElement:
    if z.algebra != A:
        raise MismatchError("element does not belong to the algebra")
    return z.reduced_norm()


def _gauss_jordan(rows):
    """Reduced row echelon form over a division ring, by row operations
    multiplying on the left; the pivot is the first nonzero entry of its
    column.  Entries need ``*``, ``-``, ``inverse()`` and ``is_zero()``.
    Returns (rows, pivot columns)."""
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next(
            (i for i in range(r, len(rows)) if not rows[i][c].is_zero()), None
        )
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [inv * x for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, pivots


def _nullspace(rows, zero, one):
    """Right-nullspace basis of a matrix, free variables in column order."""
    rows, pivots = _gauss_jordan(rows)
    ncols = len(rows[0]) if rows else 0
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [zero] * ncols
        vec[fc] = one
        for rr, pc in enumerate(pivots):
            vec[pc] = zero - rows[rr][fc]
        basis.append(vec)
    return basis


def _fixed_part(C: Algebra, value) -> FieldElement:
    """``value`` of a catalogue algebra C as an element of its base field:
    the coordinate on 1, all others being zero."""
    head, *rest = C.coords(value)
    if any(not r.is_zero() for r in rest):
        raise InvariantViolation("diagonal entry escaped the fixed field")
    return head


def sym_basis(A: Algebra) -> list[AlgebraElement]:
    """A base-field basis of the symmetric elements of (A, sigma).

    Computed as the kernel of sigma - id on the algebra, with pivots in
    basis order, so simple kinds return their canonical bases.
    """
    cols = [A.coords(A.sub(A.involution(v), v)) for v in A.basis_values()]
    kernel = _nullspace(zip(*cols), A.field.zero(), A.field.one())
    return [A.elem(A.from_coords(coords)) for coords in kernel]


class HermitianForm:
    """An epsilon-hermitian form by its Gram matrix over a catalogue algebra.

    Forms are immutable.  ``route_memo`` is the form's one reading memo,
    filled by ``signatures.raw_signature``: under None the ordering-free
    diagonal it reads (for a form over a matrix wrapper, that of its
    Morita flattening), and under each ordering's sign path the value
    read there.  ``entry_norms`` keeps the diagonal entries' reduced
    norms, and ``-h`` is built once and kept.  All live and die with the
    form."""

    __slots__ = ("algebra", "epsilon", "gram", "route_memo", "_norms", "_negative")

    def __init__(self, algebra: Algebra, gram, epsilon: int = 1):
        if epsilon not in (1, -1):
            raise MismatchError("epsilon must be +1 or -1")
        self.algebra = algebra
        self.epsilon = epsilon
        g = []
        for row in gram:
            g.append(
                tuple(
                    x.value if isinstance(x, AlgebraElement) else x for x in row
                )
            )
        self.gram = tuple(g)
        k = len(self.gram)
        for row in self.gram:
            if len(row) != k:
                raise MismatchError("Gram matrix must be square")
        # sigma(g[j][i]) == eps * g[i][j] for j >= i only: applying sigma,
        # which fixes eps, gives the (j, i) condition, as eps**2 == 1.  A
        # pair of zeros satisfies it, so only pairs with a nonzero entry
        # pay an involution.
        is_zero = algebra.is_zero
        for i in range(k):
            for j in range(i, k):
                rhs, lhs = self.gram[i][j], self.gram[j][i]
                if is_zero(rhs) and is_zero(lhs):
                    continue
                if epsilon == -1:
                    rhs = algebra.neg(rhs)
                if algebra.involution(lhs) != rhs:
                    raise MismatchError("Gram matrix is not epsilon-hermitian")
        self.route_memo = {}
        self._norms = None
        self._negative = None

    def entry_norms(self) -> tuple[FieldElement, ...]:
        """The reduced norm of each diagonal entry as an element of F, for
        a form over a quaternion kind: computed once and kept on the form.
        A zero norm (a zero entry included) makes the form singular:
        SingularFormError, and nothing is kept."""
        norms = self._norms
        if norms is None:
            A = self.algebra
            centre, nrd = A.centre, A._nrd
            norms = tuple(
                _fixed_part(centre, nrd(row[i])) for i, row in enumerate(self.gram)
            )
            if any(n.is_zero() for n in norms):
                raise SingularFormError("hermitian Gram matrix is singular")
            self._norms = norms
        return norms

    @staticmethod
    def diagonal(algebra: Algebra, entries, epsilon: int = 1) -> HermitianForm:
        vals = []
        for e in entries:
            if isinstance(e, AlgebraElement):
                if e.algebra != algebra:
                    raise MismatchError("entry from a different algebra")
                vals.append(e.value)
            elif isinstance(e, (int, Fraction, FieldElement)):
                vals.append(algebra.from_field(e).value)
            else:
                vals.append(e)
        z = algebra.zero()
        gram = [
            [vals[i] if i == j else z for j in range(len(vals))]
            for i in range(len(vals))
        ]
        return HermitianForm(algebra, gram, epsilon)

    @property
    def rank(self) -> int:
        return len(self.gram)

    def entry(self, i: int, j: int) -> AlgebraElement:
        return self.algebra.elem(self.gram[i][j])

    def diagonal_entries(self) -> list[AlgebraElement]:
        if not self.is_diagonal():
            raise MismatchError("form is not diagonal")
        return [self.algebra.elem(self.gram[i][i]) for i in range(self.rank)]

    def is_diagonal(self) -> bool:
        return all(
            self.algebra.is_zero(self.gram[i][j])
            for i in range(self.rank)
            for j in range(self.rank)
            if i != j
        )

    def direct_sum(self, other: HermitianForm) -> HermitianForm:
        if other.algebra != self.algebra or other.epsilon != self.epsilon:
            raise MismatchError("forms are not compatible")
        z = self.algebra.zero()
        k, m = self.rank, other.rank
        gram = []
        for i in range(k):
            gram.append(list(self.gram[i]) + [z] * m)
        for i in range(m):
            gram.append([z] * k + list(other.gram[i]))
        return HermitianForm(self.algebra, gram, self.epsilon)

    def __add__(self, other):
        return self.direct_sum(other)

    def module_scale(self, q: QuadraticForm) -> HermitianForm:
        """The W(F)-module product q . h (block sum of scaled copies)."""
        if q.field != self.algebra.field:
            raise MismatchError("scaling form lives over a different field")
        out = None
        for c in q.entries:
            scaled = self.scale_field(c)
            out = scaled if out is None else out.direct_sum(scaled)
        if out is None:
            out = HermitianForm(self.algebra, [], self.epsilon)
        return out

    def scale_field(self, c) -> HermitianForm:
        c = self.algebra.field.coerce(c)
        return HermitianForm(
            self.algebra,
            [[self.algebra.scalar_mul(c, v) for v in row] for row in self.gram],
            self.epsilon,
        )

    def __neg__(self) -> HermitianForm:
        """-h, built on the first call and kept: -(-h) is h.  The reduced
        norm is quadratic, so -h keeps h's entry norms."""
        neg = self._negative
        if neg is None:
            neg = self._negative = HermitianForm(
                self.algebra,
                [[self.algebra.neg(v) for v in row] for row in self.gram],
                self.epsilon,
            )
            neg._negative, neg._norms = self, self._norms
        return neg

    def lift_to(self, target: Algebra) -> HermitianForm:
        return HermitianForm(
            target,
            [
                [self.algebra.lift_value(v, target) for v in row]
                for row in self.gram
            ],
            self.epsilon,
        )

    def __eq__(self, other):
        return (
            isinstance(other, HermitianForm)
            and self.algebra == other.algebra
            and self.epsilon == other.epsilon
            and self.gram == other.gram
        )

    def __repr__(self):
        if self.is_diagonal():
            inside = ", ".join(str(e) for e in self.diagonal_entries())
            return f"herm<{inside}>"
        return f"HermitianForm(rank={self.rank})"

    def to_json(self) -> dict:
        return {"algebra": self.algebra.to_json(), **self.body_to_json()}

    def body_to_json(self) -> dict:
        """The document without ``algebra``, as ``body_from_json`` reads it."""
        out = {"epsilon": self.epsilon}
        if self.is_diagonal():
            out["diag"] = [
                self.algebra.value_to_json(self.gram[i][i])
                for i in range(self.rank)
            ]
        else:
            out["gram"] = [
                [self.algebra.value_to_json(v) for v in row] for row in self.gram
            ]
        return out

    @staticmethod
    def from_json(doc: dict) -> HermitianForm:
        """A form document that carries its own ``algebra``."""
        if not isinstance(doc, dict) or "algebra" not in doc:
            raise MismatchError("hermitian form document needs an 'algebra'")
        _check_form_keys(set(doc))
        return HermitianForm._body_from_json(algebra_from_json(doc["algebra"]), doc)

    @staticmethod
    def body_from_json(algebra: Algebra, doc: dict) -> HermitianForm:
        """A form document without ``algebra``, read over ``algebra``;
        ``epsilon`` is 1 unless the document says otherwise."""
        doc = {"epsilon": 1, **doc}
        _check_form_keys(set(doc) | {"algebra"})
        return HermitianForm._body_from_json(algebra, doc)

    @staticmethod
    def _body_from_json(algebra: Algebra, doc: dict) -> HermitianForm:
        eps, rows = doc["epsilon"], doc.get("diag", doc.get("gram"))
        if type(eps) is not int:
            raise MismatchError("'epsilon' must be the integer 1 or -1")
        if not isinstance(rows, list) or "gram" in doc and not all(
            isinstance(row, list) for row in rows
        ):
            raise MismatchError("'diag' must be a list and 'gram' a list of lists")
        if "diag" in doc:
            entries = [algebra.value_from_json(v) for v in rows]
            return HermitianForm.diagonal(algebra, entries, eps)
        gram = [[algebra.value_from_json(v) for v in row] for row in rows]
        return HermitianForm(algebra, gram, eps)


def _check_form_keys(keys: set):
    if keys not in ({"algebra", "epsilon", "gram"}, {"algebra", "epsilon", "diag"}):
        raise MismatchError(
            "hermitian form takes keys 'algebra', 'epsilon' and 'gram' or 'diag'"
        )


def morita_flatten(h: HermitianForm) -> HermitianForm:
    """Reduce a form over a matrix wrapper (M_n(D), ad_g) to the inner
    algebra: the nk x nk Gram over D is the blown-up Gram scaled by g."""
    A = h.algebra
    if A.kind != "matrix":
        return h
    inner = A.inner
    n = A.n
    k = h.rank
    gram = [[inner.zero()] * (n * k) for _ in range(n * k)]
    for r in range(k):
        for s in range(k):
            block = h.gram[r][s]
            for i in range(n):
                for j in range(n):
                    if not inner.is_zero(block[i][j]):
                        gram[r * n + i][s * n + j] = inner.mul(A.g[i], block[i][j])
    return HermitianForm(inner, gram, h.epsilon)


def diagonalize_hermitian(h: HermitianForm):
    """Hermitian elimination: a diagonal form Witt-equal to ``h``, or a
    SplitWitness when a nonzero non-invertible pivot shows up."""
    A = h.algebra
    if h.epsilon != 1:
        raise MismatchError("diagonalization expects a +1-hermitian form")
    g = [list(row) for row in h.gram]
    entries = []
    while g:
        n = len(g)
        piv = None
        for i in range(n):
            if not A.is_zero(g[i][i]):
                try:
                    dinv = A.inverse(g[i][i])
                except ZeroDivisorFound as zd:
                    return SplitWitness(A, A.elem(zd.value))
                piv = i
                break
        if piv is None:
            pair = next(
                (
                    (i, j)
                    for i in range(n)
                    for j in range(i + 1, n)
                    if not A.is_zero(g[i][j])
                ),
                None,
            )
            if pair is None:
                raise SingularFormError("hermitian Gram matrix is singular")
            i, j = pair
            try:
                lam = A.inverse(g[i][j])
            except ZeroDivisorFound as zd:
                return SplitWitness(A, A.elem(zd.value))
            # replace e_i by e_i + e_j * lam; new diagonal entry is 2
            for t in range(n):
                g[i][t] = A.add(g[i][t], A.mul(A.involution(lam), g[j][t]))
            for t in range(n):
                g[t][i] = A.add(g[t][i], A.mul(g[t][j], lam))
            piv = i
            dinv = A.inverse(g[i][i])
        if piv != 0:
            g[0], g[piv] = g[piv], g[0]
            for row in g:
                row[0], row[piv] = row[piv], row[0]
        entries.append(g[0][0])
        scaled = [A.mul(dinv, v) for v in g[0][1:]]
        g = [
            [A.sub(v, A.mul(row[0], w)) for v, w in zip(row[1:], scaled)]
            for row in g[1:]
        ]
    return HermitianForm.diagonal(A, entries, 1)


def twist(h: HermitianForm, u: AlgebraElement) -> HermitianForm:
    """Scale a form by an invertible u with sigma(u) = +/- u.

    The Gram matrix becomes u*G and the involution becomes Int(u^-1) o
    sigma; u^2 must be central for this composition, which holds for all
    catalogue twists (pure quaternions and central scalars).
    """
    A = h.algebra
    if u.algebra != A:
        raise MismatchError("twisting element from a different algebra")
    if not u.is_invertible():
        raise MismatchError("twisting element must be invertible")
    su = u.involution()
    if su == u:
        delta = 1
    elif su == -u:
        delta = -1
    else:
        raise MismatchError("twisting element must satisfy sigma(u) = +/- u")
    new_eps = delta * h.epsilon
    new_alg = _twisted_algebra(A, u)
    gram = [[A.mul(u.value, v) for v in row] for row in h.gram]
    return HermitianForm(new_alg, gram, new_eps)


def _twisted_algebra(A: Algebra, u: AlgebraElement) -> Algebra:
    """The algebra carrying Int(u^-1) o sigma, located in the catalogue."""
    uinv = u.inverse()
    if A.kind == "quaternion":
        # compose Int(u^-1) with gamma or Int(w) gamma; the result is
        # Int(c) gamma with c = u^-1 (conjugation) or c = u^-1 w
        if A.involution_type == "conjugation":
            c = uinv
        else:
            c = uinv * A.elem(A.u)
        cval = c.value
        pure = A.centre.is_zero(cval[0])
        scalar = all(A.centre.is_zero(cc) for cc in cval[1:])
        if scalar:
            return QuaternionAlgebra(A.field, A.a, A.b, "conjugation")
        if pure:
            cu = [FieldElement(A.field, cc) for cc in cval]
            return QuaternionAlgebra(A.field, A.a, A.b, "orthogonal", cu)
        raise MismatchError("twist leaves the supported involution catalogue")
    # commutative kinds and central twists keep their involution
    centre = _central(A, u.value)
    if centre:
        return A
    raise MismatchError("twist by a non-central element of this kind")


def _central(A: Algebra, value) -> bool:
    for b in A.basis_values():
        if A.mul(value, b) != A.mul(b, value):
            return False
    return True


def rho_form(h: HermitianForm) -> QuadraticForm:
    """The base-field quadratic form x -> h(x, x) of a diagonal form with
    entries in the base field, for the degree <= 2 division kinds."""
    A = h.algebra
    if h.epsilon != 1:
        raise MismatchError("the diagonal evaluation map expects epsilon = +1")
    if not h.is_diagonal():
        raise MismatchError("form must be diagonal")
    field = A.field
    scalars = []
    for e in h.diagonal_entries():
        coords = e.coords()
        if any(not c.is_zero() for c in coords[1:]):
            raise MismatchError("diagonal entries must lie in the base field")
        scalars.append(coords[0])
    if A.kind == "field_id":
        return QuadraticForm(field, scalars)
    if A.kind == "unitary_quadratic":
        entries = []
        for c in scalars:
            entries.extend([c, -c * A.alpha])
        return QuadraticForm(field, entries)
    if A.kind == "quaternion" and A.involution_type == "conjugation":
        entries = []
        for c in scalars:
            entries.extend([c, -c * A.a, -c * A.b, c * A.a * A.b])
        return QuadraticForm(field, entries)
    raise MismatchError(
        "diagonal evaluation is defined for (F, id), quadratic conjugation "
        "and quaternion conjugation kinds"
    )


def trace_form(h: HermitianForm) -> QuadraticForm:
    """The base-field form Trd(sigma(x) G y) on the module's F-basis."""
    if h.epsilon != 1:
        raise MismatchError("trace form expects a +1-hermitian form")
    A = h.algebra
    field = A.field
    basis = A.basis_values()
    k = h.rank
    size = k * len(basis)
    gram = [[field.zero()] * size for _ in range(size)]
    sig_basis = [A.involution(b) for b in basis]
    for r in range(k):
        for t in range(k):
            G = h.gram[r][t]
            if A.is_zero(G):
                continue
            for s, sb in enumerate(sig_basis):
                left = A.mul(sb, G)
                for uix, bu in enumerate(basis):
                    val = A.reduced_trace(A.mul(left, bu))
                    gram[r * len(basis) + s][t * len(basis) + uix] = (
                        gram[r * len(basis) + s][t * len(basis) + uix] + val
                    )
    return diagonalize_gram(field, gram)
