"""Normalized signatures of hermitian forms at the orderings of the base
field.

At each non-nil ordering the Witt group of the scalar-extended algebra
maps onto the integers; the value is computed by one of three routes and
normalized by the sign of a fixed reference form, so that it is both
well-defined and additive.  Nil orderings (where that Witt group is
torsion) contribute exactly zero.
"""

from __future__ import annotations

from .algebras import (
    Algebra,
    HermitianForm,
    SplitWitness,
    diagonalize_hermitian,
    morita_flatten,
)
from .fields import FieldTower, InvariantViolation, MismatchError, Ordering
from .quadratic import QuadraticForm, SignatureVector, SingularFormError, pfister
from .splitting import find_certificate, transport_form

__all__ = [
    "LocalType",
    "ReferenceForm",
    "SearchExhausted",
    "nil_set",
    "local_type",
    "raw_signature",
    "reference_signs",
    "reference_search",
    "h_signature",
    "total_signature",
    "going_up_check",
    "lift_reference",
    "piecewise_form",
]


class SearchExhausted(RuntimeError):
    """Diagnostic: no reference candidate had nonzero signature somewhere."""


class LocalType:
    """The Wedderburn shape of the algebra at one ordering and the route
    used to evaluate signatures there."""

    __slots__ = ("ordering", "nil", "n", "l", "route")

    def __init__(self, ordering: Ordering, nil: bool, n: int, l: int, route):
        self.ordering = ordering
        self.nil = nil
        self.n = n
        self.l = l
        self.route = route

    @property
    def lam(self) -> int:
        return self.n * self.l

    def __repr__(self):
        tag = "nil" if self.nil else self.route
        return f"LocalType(n={self.n}, l={self.l}, {tag})"


def nil_set(A: Algebra) -> frozenset[Ordering]:
    """The orderings at which every signature of every form vanishes."""
    return frozenset(P for P in A.field.orderings() if local_type(A, P).nil)


def local_type(A: Algebra, P: Ordering) -> LocalType:
    """The shape of (A tensor F_P, sigma): whether P is nil, n x l, and the
    route that reads signatures there.  This is the only per-kind rule of
    the signature layer; every other fact here is read off it.

    P must be an ordering of A's base field.  The shape depends only on A
    and P, so it is decided once per ordering and kept in
    ``A.local_type_memo`` under P's sign path; a matrix wrapper reads its
    inner algebra's entry."""
    if P.tower is not A.field and P.tower != A.field:
        raise MismatchError("ordering does not belong to the algebra's base field")
    memo = A.local_type_memo
    lt = memo.get(P.path)
    if lt is None:
        lt = memo[P.path] = _local_type(A, P)
    return lt


def _local_type(A: Algebra, P: Ordering) -> LocalType:
    if A.kind == "matrix":
        inner = local_type(A.inner, P)
        return LocalType(P, inner.nil, A.n * inner.n, inner.l, inner.route)
    if A.kind == "field_id":
        return LocalType(P, False, 1, 1, "trace-form")
    if A.kind == "exchange":
        return LocalType(P, True, 1, 1, None)
    if A.kind == "unitary_quadratic":
        if A.alpha.sign_at(P) > 0:
            return LocalType(P, True, 1, 1, None)
        return LocalType(P, False, 1, 2, "diagonal-sum")
    if A.kind in ("quaternion", "unitary_quaternion"):
        division_here = A.a.sign_at(P) < 0 and A.b.sign_at(P) < 0
        n, l = (1, 4) if division_here else (2, 1)
        if A.kind == "unitary_quaternion":
            if A.alpha.sign_at(P) > 0:
                return LocalType(P, True, n, l, None)
            return LocalType(P, False, 2, 2, "split-certificate")
        if A.involution_type == "conjugation":
            return LocalType(P, not division_here, n, l, "diagonal-sum" if division_here else None)
        return LocalType(P, division_here, n, l, None if division_here else "split-certificate")
    raise MismatchError(f"unknown algebra kind {A.kind!r}")


def raw_signature(A: Algebra, h: HermitianForm, P: Ordering, budget: int = 50) -> int:
    """The route value at P: the local signature divided by the local
    division-algebra dimension, before the reference normalization.

    Every form is read from one diagonal over the inner algebra D (A, or
    a matrix wrapper's D after Morita flattening): the flattened Gram
    itself when it is diagonal, else its hermitian elimination over D.
    Elimination is a congruence, so that diagonal does not depend on P.
    ``h.route_memo`` is the form's one reading memo: it keeps that
    diagonal under None, found once per form, and the value read at P
    under P's sign path, so each (form, ordering) pair is read once.  On
    the ``trace-form`` and ``diagonal-sum`` routes the diagonal is kept as
    the entries' fixed-field coordinates, and their signs at P count.  On
    the split-certificate route it is kept as a diagonal form, and each
    entry d goes through the certificate's split model as a 2 x 2 block,
    whose signature two signs fix
    (``SplittingCertificate.diagonal_signature``).

    Elimination over D meets a zero-divisor pivot only when D is split
    over F.  On the split-certificate route the memo then keeps that
    ``SplitWitness``, and that form alone is carried to the split model
    (``transport_form``) and eliminated there; on the other routes it is
    an ``InvariantViolation``.  Failures are not kept.  The budget matters
    only on the split-certificate route, where ``find_certificate``
    decides it before the memo is read or filled."""
    if h.algebra != A:
        raise MismatchError("form does not live over the algebra")
    if h.epsilon != 1:
        raise MismatchError("signatures are defined after twisting to epsilon = +1")
    lt = local_type(A, P)
    if lt.nil:
        return 0
    split = lt.route == "split-certificate"
    cert = find_certificate(A, P, budget) if split else None
    memo = h.route_memo
    value = memo.get(P.path)
    if value is not None:
        return value
    kept = memo.get(None)
    if kept is None:
        kept = memo[None] = _diagonal(A, h, split)
    if not split:
        value = sum(c.sign_at(P) for c in kept)
    elif isinstance(kept, SplitWitness):
        t, _ = transport_form(cert, h)
        d = _fixed_diagonal(diagonalize_hermitian(t))
        value = sum(c.sign_at(cert.chosen) for c in d)
    else:
        value = cert.diagonal_signature(kept)
    memo[P.path] = value
    return value


def _diagonal(A, h, split):
    """h flattened and, unless diagonal, eliminated over the inner
    algebra: on the split-certificate route that diagonal form or the
    elimination's SplitWitness, on the others the diagonal's checked
    fixed-field coordinates."""
    if A.kind == "matrix":
        h = morita_flatten(h)
    d = h if h.is_diagonal() else diagonalize_hermitian(h)
    return d if split else _fixed_diagonal(d)


_SPLIT_HERE = (
    "the algebra is split where it must be division; the nil "
    "computation and the form disagree"
)


def _fixed_diagonal(h):
    """The fixed-field coordinates of a diagonal form's entries; an
    elimination's SplitWitness instead means that D is split where it
    must be division."""
    if isinstance(h, SplitWitness):
        raise InvariantViolation(_SPLIT_HERE)
    A = h.algebra
    entries = [row[i] for i, row in enumerate(h.gram)]
    if any(A.is_zero(d) for d in entries):
        raise SingularFormError("hermitian Gram matrix is singular")
    out = []
    for d in entries:
        head, *rest = A.coords(d)
        if any(not r.is_zero() for r in rest):
            if A.reduced_norm(d).is_zero():
                raise InvariantViolation(_SPLIT_HERE)
            raise InvariantViolation("diagonal entry escaped the fixed field")
        out.append(head)
    return tuple(out)


def reference_signs(A: Algebra, form: HermitianForm, budget: int = 50):
    """The sign of ``form``'s raw signature at each non-nil ordering, keyed
    by sign path; or, when that signature vanishes somewhere, the first
    non-nil ordering where it does (later orderings are not evaluated)."""
    signs = {}
    for P in A.field.orderings():
        if local_type(A, P).nil:
            continue
        r = raw_signature(A, form, P, budget)
        if r == 0:
            return P
        signs[P.path] = 1 if r > 0 else -1
    return signs


class ReferenceForm:
    """A form with nonzero raw signature at every non-nil ordering; its
    signs normalize all signature values."""

    __slots__ = ("algebra", "form", "deltas")

    def __init__(self, algebra: Algebra, form: HermitianForm, deltas: dict):
        self.algebra = algebra
        self.form = form
        self.deltas = dict(deltas)

    def delta(self, P: Ordering) -> int:
        return self.deltas[P.path]

    def __repr__(self):
        return f"ReferenceForm({self.form!r}, deltas={self.deltas})"

    def to_json(self) -> dict:
        return {"form": self.form.to_json(), "deltas": self.deltas_to_json()}

    def deltas_to_json(self) -> dict:
        return {
            "".join("+" if s > 0 else "-" for s in path): d
            for path, d in self.deltas.items()
        }


def reference_search(A: Algebra, budget: int = 50) -> ReferenceForm:
    """The first reference candidate, in the order of
    ``Algebra.iter_reference_candidates``, whose raw signature is nonzero
    at every non-nil ordering (built lazily, so later candidates cost
    nothing); failing that, a sum of pieces cut out by one-ordering
    Pfister multipliers.  Both read only the first member h of each +-
    pair (``Algebra.iter_reference_pairs``): -h has the negated signature
    at every ordering, so the same zero set, and never fits before h.

    The search depends only on A and the budget, so a success is kept in
    ``A.reference_memo`` under its budget; failures are not kept.  Only the
    latest budget's success is kept, so a stream of distinct budgets does
    not grow the memo."""
    memo = A.reference_memo
    ref = memo.get(budget)
    if ref is None:
        ref = _search_reference(A, budget)
        memo.clear()
        memo[budget] = ref
    return ref


def _search_reference(A: Algebra, budget: int) -> ReferenceForm:
    field = A.field
    targets = [P for P in field.orderings() if not local_type(A, P).nil]
    if not targets:
        empty = HermitianForm(A, [], 1)
        return ReferenceForm(A, empty, {})
    for cand in A.iter_reference_pairs():
        signs = reference_signs(A, cand, budget)
        if not isinstance(signs, Ordering):
            return ReferenceForm(A, cand, signs)
    pieces = []
    for P in targets:
        piece = None
        for cand in A.reference_pairs:
            if raw_signature(A, cand, P, budget) != 0:
                piece = cand
                break
        if piece is None:
            raise SearchExhausted(
                f"no diagonal candidate has nonzero signature at {P.name()}"
            )
        pieces.append((P, piece, 0))
    form = piecewise_form(field, pieces)
    signs = reference_signs(A, form, budget)
    if isinstance(signs, Ordering):
        raise SearchExhausted("piecewise reference lost a coordinate")
    return ReferenceForm(A, form, signs)


def piecewise_form(field: FieldTower, pieces) -> HermitianForm:
    """The sum over (P, h, pad) in ``pieces`` of <1, ..., 1> (2^pad ones)
    times a Pfister form of r slots with signature 2^r exactly at P and 0
    elsewhere, times h: its signature at each P of ``pieces`` is
    2^(pad + r) times that of its h there, r the number of generators."""
    total = None
    for P, h, pad in pieces:
        slots = [g if g.sign_at(P) > 0 else -g for g in field.generators()]
        ones = QuadraticForm(field, [field.one()] * (1 << pad))
        local = h.module_scale(ones * pfister(field, slots))
        total = local if total is None else total.direct_sum(local)
    return total


def h_signature(
    A: Algebra,
    h: HermitianForm,
    ref: ReferenceForm,
    P: Ordering,
    budget: int = 50,
) -> int:
    """The normalized signature of h at P: zero on nil orderings, else the
    reference sign times the raw route value."""
    if ref.algebra != A:
        raise MismatchError("reference form belongs to a different algebra")
    if local_type(A, P).nil:
        return 0
    return ref.delta(P) * raw_signature(A, h, P, budget)


def total_signature(
    A: Algebra, h: HermitianForm, ref: ReferenceForm, budget: int = 50
) -> SignatureVector:
    values = [
        h_signature(A, h, ref, P, budget) for P in A.field.orderings()
    ]
    return SignatureVector(A.field, values)


def lift_reference(ref: ReferenceForm, A_L: Algebra, budget: int = 50) -> ReferenceForm:
    """The reference tensored up a field extension, with fresh signs."""
    form_L = ref.form.lift_to(A_L)
    signs = reference_signs(A_L, form_L, budget)
    if isinstance(signs, Ordering):
        raise SearchExhausted("lifted form is not a reference upstairs")
    return ReferenceForm(A_L, form_L, signs)


def going_up_check(
    A: Algebra,
    h: HermitianForm,
    ref: ReferenceForm,
    L: FieldTower,
    Q: Ordering,
    budget: int = 50,
) -> bool:
    """Signatures are preserved along ordered field extensions: the value
    of the lifted form at an extension Q equals the value at its
    restriction, both sides computed independently."""
    F = A.field
    if not L.extends(F) or Q.tower != L:
        raise MismatchError("Q must be an ordering of an extension tower of F")
    P = Q.restrict(F.depth)
    A_L = A.lift_to(L)
    h_L = h.lift_to(A_L)
    ref_L = lift_reference(ref, A_L, budget)
    lhs = h_signature(A_L, h_L, ref_L, Q, budget)
    rhs = h_signature(A, h, ref, P, budget)
    return lhs == rhs
