"""Seeded random builders for towers, elements, algebras and forms."""

from __future__ import annotations

import random
from fractions import Fraction

from hermstab.algebras import (
    ExchangeAlgebra,
    FieldAlgebra,
    HermitianForm,
    MatrixAlgebra,
    QuaternionAlgebra,
    UnitaryQuadraticAlgebra,
    UnitaryQuaternionAlgebra,
    sym_basis,
)
from hermstab.fields import FieldTower

# Randomised tests skip a case only when a builder below gives up
# (SamplingError) or, in tests that need a reference form, when
# reference_search reports SearchExhausted; any other exception fails the
# test.  At most this share of the attempted cases may be skipped.
MAX_SKIP_RATE = 0.1

# the algebra kinds that ``random_algebra`` draws from by default
KINDS = (
    "field_id",
    "exchange",
    "unitary_quadratic",
    "quaternion-conj",
    "quaternion-orth",
    "unitary_quaternion",
)


class SamplingError(RuntimeError):
    """A random builder gave up on drawing a valid object."""


def assert_skip_rate(skipped: int, done: int):
    assert skipped <= MAX_SKIP_RATE * (skipped + done), (
        f"{skipped} of {skipped + done} random cases skipped"
    )


def random_rational(rng, height=9, nonzero=False) -> Fraction:
    while True:
        num = rng.randint(-height, height)
        den = rng.randint(1, height)
        f = Fraction(num, den)
        if not nonzero or f != 0:
            return f


def random_element(rng, field: FieldTower, height=6, nonzero=False, simple=False):
    """A random element built from rationals and tower generators.

    ``simple`` skips the denominator so stress tests on matrix pivoting
    stay affordable (exact elimination on rational-function entries is
    exponential in nesting depth)."""
    while True:
        e = field.rational(random_rational(rng, height))
        for g in field.generators():
            roll = rng.random()
            if roll < 0.45:
                e = e + field.rational(random_rational(rng, height)) * g
            elif roll < 0.55:
                e = e + g * g * field.rational(random_rational(rng, 3))
        if not simple and rng.random() < 0.25:
            d = field.rational(random_rational(rng, height, nonzero=True))
            for g in field.generators():
                if rng.random() < 0.3:
                    d = d + field.rational(random_rational(rng, 3)) * g
            if not d.is_zero():
                e = e / d
        if not nonzero or not e.is_zero():
            return e


def random_tower(rng, max_depth=2) -> FieldTower:
    field = FieldTower.rationals()
    depth = rng.randint(0, max_depth)
    for _ in range(depth):
        if rng.random() < 0.5:
            field = field.adjoin_laurent()
        else:
            for _ in range(40):
                d = random_element(rng, field, height=5, nonzero=True)
                try:
                    if d.is_square():
                        continue
                    if all(d.sign_at(P) < 0 for P in field.orderings()):
                        continue
                    field = field.adjoin_sqrt(d)
                    break
                except ValueError:
                    continue
            else:
                field = field.adjoin_laurent()
    return field


def tower_shapes():
    """A fixed pool covering every supported step combination."""
    Q = FieldTower.rationals()
    F2 = Q.adjoin_sqrt(2)
    Lx = Q.adjoin_laurent()
    return [
        Q,
        F2,
        Q.adjoin_sqrt(3),
        Lx,
        F2.adjoin_laurent(),
        F2.adjoin_sqrt(F2.generator()),  # chain of square roots
        Lx.adjoin_sqrt(Lx.generator()),  # square root of the infinitesimal
    ]


def random_nonsquare(rng, field, positive_somewhere=False):
    for _ in range(100):
        d = random_element(rng, field, height=5, nonzero=True)
        try:
            if d.is_square():
                continue
        except ValueError:
            continue
        if positive_somewhere and all(
            d.sign_at(P) < 0 for P in field.orderings()
        ):
            continue
        return d
    raise SamplingError("could not sample a non-square")


def random_quadratic_extension(rng, field):
    d = random_nonsquare(rng, field, positive_somewhere=True)
    return field.adjoin_sqrt(d)


def orthogonal_quaternion(field, a, b, coords) -> QuaternionAlgebra:
    """(a, b) with the orthogonal involution Int(u) o conjugation, u given
    by ``coords``; SamplingError when that u is not invertible."""
    C = QuaternionAlgebra(field, a, b, "conjugation")
    if not C.elem(C.from_coords(coords)).is_invertible():
        raise SamplingError("the drawn twisting element is not invertible")
    return QuaternionAlgebra(field, a, b, "orthogonal", coords)


def random_algebra(rng, field, kinds=None):
    if kinds is None:
        kinds = KINDS
    kind = rng.choice(kinds)
    if kind == "field_id":
        return FieldAlgebra(field)
    if kind == "exchange":
        return ExchangeAlgebra(field)
    if kind == "unitary_quadratic":
        return UnitaryQuadraticAlgebra(field, random_nonsquare(rng, field))
    if kind == "quaternion-conj":
        a = random_element(rng, field, height=5, nonzero=True)
        b = random_element(rng, field, height=5, nonzero=True)
        return QuaternionAlgebra(field, a, b, "conjugation")
    if kind == "quaternion-orth":
        a = random_element(rng, field, height=5, nonzero=True)
        b = random_element(rng, field, height=5, nonzero=True)
        A = QuaternionAlgebra(field, a, b, "conjugation")
        for _ in range(50):
            coords = [field.zero()] + [
                field.rational(rng.randint(-2, 2)) for _ in range(3)
            ]
            if all(c.is_zero() for c in coords[1:]):
                continue
            u = A.elem(A.from_coords(coords))
            if u.is_invertible():
                return QuaternionAlgebra(field, a, b, "orthogonal", coords)
        raise SamplingError("could not sample an orthogonal twisting element")
    if kind == "unitary_quaternion":
        a = random_element(rng, field, height=4, nonzero=True)
        b = random_element(rng, field, height=4, nonzero=True)
        alpha = random_nonsquare(rng, field)
        return UnitaryQuaternionAlgebra(field, a, b, alpha)
    raise ValueError(kind)


def random_wrapper(rng, D) -> MatrixAlgebra:
    """(M_n(D), ad_g) with 2 <= n <= 4 and each g_i a signed monomial in
    the tower generators, so that the signs of the wrapper's reference
    and of D's can differ at some orderings only."""
    field = D.field
    g = []
    for _ in range(rng.randint(2, 4)):
        c = field.rational(rng.choice((1, -1)))
        for x in field.generators():
            if rng.random() < 0.5:
                c = c * x
        g.append(D.from_field(c))
    return MatrixAlgebra(len(g), D, g)


def catalogue_corpus(prefix: str, count: int):
    """(algebras, skipped): seeded draws random.Random(f"{prefix}-{i}")
    for i < count of each catalogue kind in turn on a random tower of
    depth <= 2 and, for odd i, a ``random_wrapper`` over a non-exchange
    draw.  Only wrappers of size 2 are kept: over a quaternion kind, the
    candidate walk of a larger one runs to hundreds of forms."""
    out, skipped = [], 0
    for i in range(count):
        rng = random.Random(f"{prefix}-{i}")
        try:
            A = random_algebra(rng, random_tower(rng, max_depth=2), (KINDS[i % len(KINDS)],))
        except SamplingError:
            skipped += 1
            continue
        out.append(A)
        if i % 2 and A.kind != "exchange":
            W = random_wrapper(rng, A)
            if W.n == 2:
                out.append(W)
    return out, skipped


def random_sym_element(rng, A, invertible=True):
    basis = sym_basis(A)
    for _ in range(80):
        e = None
        for s in basis:
            c = rng.randint(-2, 2)
            if c == 0:
                continue
            term = s * A.field.rational(c)
            e = term if e is None else e + term
        if e is None or e.is_zero():
            continue
        if not invertible or e.is_invertible():
            return e
    raise SamplingError("could not sample a symmetric element")


def random_hermitian_diagonal(rng, A, rank=None) -> HermitianForm:
    if rank is None:
        rank = rng.randint(1, 3)
    entries = [random_sym_element(rng, A) for _ in range(rank)]
    return HermitianForm.diagonal(A, entries)


def random_quadratic_form(rng, field, dim=None):
    from hermstab.quadratic import QuadraticForm

    if dim is None:
        dim = rng.randint(1, 4)
    return QuadraticForm(
        field,
        [random_element(rng, field, height=6, nonzero=True) for _ in range(dim)],
    )
