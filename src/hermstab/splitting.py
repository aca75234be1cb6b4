"""Constructive real splitting certificates.

Given an algebra with involution from the catalogue and an ordering P at
which signatures do not vanish, this module produces explicit,
re-checkable data: an ordered extension (L, Q) of (F, P) generated
inside the algebra, an idempotent-based isomorphism with a 2 x 2 matrix
model over L (or over L(sqrt(alpha)) for the unitary quaternion kind),
and the matrix datum of the transported involution.  Definite symplectic
and commutative cases carry their own degenerate certificate shapes.

The split model is built and checked in closed form, with no elimination
over L: the coordinates of the ideal's vectors by Cramer's rule on two
rows with one inverse, the orthogonal datum as J^-1 adj Phi(u), the
independence of the four images and the invertibility of G as nonzero
determinants.  Only the unitary datum is still solved from its equations.

A certificate depends only on the algebra and the ordering, so each one
found is kept on its algebra (``Algebra.certificate_memo``), next to the
ordering-free ``SplitModel`` of its witness (``Algebra.split_model_memo``).
The certificates of all orderings that take one witness share that split
model, and with it the transport images G . X_b and det G, built once per
split model.  A diagonal form's signature on the split route is read
from its entries' reduced norms (``HermitianForm.entry_norms``) and the
corners B00 of their blocks; ``signatures.raw_signature`` keeps the value
per form and ordering, so each is read once.
Every certificate object is verified once.  Its checks that involve its
ordering or ``chosen`` run per certificate; the others do not depend on
the ordering and run once per split model, which keeps their verdict
(``SplitModel.verified``).  A certificate read from JSON or made with
``dataclasses.replace`` builds its own split model from its fields, so
it meets every check.  The module itself keeps no state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .algebras import (
    Algebra,
    AlgebraElement,
    FieldAlgebra,
    HermitianForm,
    MatrixAlgebra,
    UnitaryQuadraticAlgebra,
    _fixed_part,
    _nullspace,
    algebra_from_json,
    morita_flatten,
)
from .fields import (
    FieldElement,
    FieldTower,
    InvariantViolation,
    MismatchError,
    Ordering,
)

__all__ = [
    "SplittingCertificate",
    "BudgetExhausted",
    "PreconditionNil",
    "find_certificate",
    "verify_certificate",
    "transport_form",
]


class BudgetExhausted(RuntimeError):
    """No witness was found within the height budget; retry with more."""

    def __init__(self, algebra, ordering, budget):
        super().__init__(
            f"no splitting witness of height <= {budget} for {algebra.describe()}"
        )
        self.algebra = algebra
        self.ordering = ordering
        self.budget = budget


class PreconditionNil(ValueError):
    """The requested ordering is nil: signatures vanish, nothing to split."""


def _centre_of(algebra: Algebra, extension: FieldTower, flavor: str) -> Algebra:
    """The split model's scalar domain as a catalogue algebra."""
    if flavor in ("unitary-quaternion-split", "unitary-deg1"):
        if algebra.kind not in ("unitary_quadratic", "unitary_quaternion"):
            raise MismatchError(f"flavor {flavor!r} needs a unitary centre")
        return UnitaryQuadraticAlgebra(extension, algebra.alpha.lift_to(extension))
    return FieldAlgebra(extension)


class SplitModel:
    """The ordering-free part of a proper split certificate: its flavor,
    the witness w with w . w = m, the extension L, the matrix algebra
    ``model`` = M_2(C) over the centre C over L, the images ``matrices`` of
    1, i, j, k in it and the involution datum ``g_datum``.  The
    certificates of every ordering that takes one witness share one split
    model, and so its transport images, det G and the verdict of its
    checks, each built once here.  ``lifted`` is A tensor L when the
    builder has it (a search does) until the checks have read it, else
    None, and the checks lift their own."""

    def __init__(
        self, algebra: Algebra, flavor, witness, m, extension, model, matrices, g_datum,
        lifted=None,
    ):
        self.algebra = algebra
        self.flavor = flavor
        self.witness = witness
        self.m = m
        self.extension = extension
        self.model = model
        self.matrices = matrices  # nested tuples, as a certificate keeps them
        self.g_datum = g_datum
        self.lifted = lifted
        self._verified = None  # set once by verified()

    def verified(self) -> bool:
        """Whether the split model passes the checks of a proper split
        certificate that do not involve its ordering
        (``_check_split_model``): run on the first call, and kept on the
        model for the certificates of every ordering that share it."""
        if self._verified is None:
            self._verified = _check_split_model(self)
            self.lifted = None  # only the checks read it; a warm process keeps the model
        return self._verified

    @cached_property
    def transport_images(self) -> tuple:
        """G . X for the images X of 1, i, j, k: ``transport_form`` sums
        them with each Gram entry's coordinates."""
        M = self.model
        return tuple(M.mul(self.g_datum, X) for X in self.matrices)

    @cached_property
    def det(self) -> FieldElement:
        """det G, an element of L."""
        C = self.model.inner
        (g00, g01), (g10, g11) = self.g_datum
        return _fixed_part(C, C.sub(C.mul(g00, g11), C.mul(g01, g10)))

    def corner(self, value) -> FieldElement:
        """B00 of the block B = G . Phi(d), d the quaternion value
        ``value``: the sum over d's nonzero centre coordinates c_b of
        c_b (G X_b)00, an element of L."""
        centre, C = self.algebra.centre, self.model.inner
        b00 = C.zero()
        for c, GX in zip(value, self.transport_images):
            if not centre.is_zero(c):
                b00 = C.add(b00, C.mul(centre.lift_value(c, C), GX[0][0]))
        return _fixed_part(C, b00)


@dataclass(frozen=True, eq=False)
class SplittingCertificate:
    """Explicit data realizing the split of (A, sigma) at an ordering.

    ``matrices`` (the images of 1, i, j, k) and ``g_datum`` are values of
    ``model``, the catalogue algebra M_2(C) over the centre C, whose
    involution is the conjugate transpose.

    Certificates are immutable: every field is given to the constructor,
    ``matrices`` and ``g_datum`` are stored as tuples, and assigning to an
    attribute raises.  So ``verify_certificate`` checks each certificate
    object once and memoises the result on it; a changed certificate is
    a new object and is checked afresh.  The certificates that a search
    emits share their witness's ``SplitModel``, and with it its transport
    images and the verdict of its ordering-free checks, so such a
    certificate runs only the checks that involve its ordering or
    ``chosen``.  Any other certificate, one read from JSON or made with
    ``dataclasses.replace``, builds its own split model from its fields
    when first asked, and so meets every check."""

    FLAVORS = (
        "orthogonal-split",
        "symplectic-definite",
        "unitary-deg1",
        "unitary-quaternion-split",
        "split-trivial",
    )

    algebra: Algebra
    ordering: Ordering
    flavor: str
    extension: FieldTower
    chosen: Ordering
    witness: AlgebraElement | None = None
    m: FieldElement | None = None
    matrices: tuple | None = None
    g_datum: tuple | None = None
    # symplectic flavor: (d, c, u, v) with u^2 = -d, v^2 = -c
    definite_pair: tuple | None = None
    # set once by verify_certificate
    _verified: bool | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.flavor not in self.FLAVORS:
            raise MismatchError(f"unknown certificate flavor {self.flavor!r}")
        # model values are compared with ==, which needs nested tuples
        if self.matrices is not None:
            matrices = tuple(tuple(map(tuple, X)) for X in self.matrices)
            object.__setattr__(self, "matrices", matrices)
        if self.g_datum is not None:
            object.__setattr__(self, "g_datum", tuple(map(tuple, self.g_datum)))
        if self.definite_pair is not None:
            object.__setattr__(self, "definite_pair", tuple(self.definite_pair))

    def __repr__(self):
        return (
            f"SplittingCertificate({self.flavor} at {self.ordering.name()!r}, "
            f"L = {self.extension.describe()})"
        )

    def centre_algebra(self) -> Algebra:
        """The split model's scalar domain as a catalogue algebra."""
        return _centre_of(self.algebra, self.extension, self.flavor)

    @cached_property
    def model(self) -> MatrixAlgebra:
        """The split model M_2(C), built once per certificate or, for an
        emitted one, once per witness."""
        return MatrixAlgebra(2, self.centre_algebra())

    @cached_property
    def _split(self) -> SplitModel:
        """The witness's split model for an emitted certificate; for any
        other, its own, built from its fields."""
        if self.matrices is None or self.g_datum is None:
            raise MismatchError(f"a {self.flavor} certificate has no split model")
        return SplitModel(
            self.algebra,
            self.flavor,
            self.witness,
            self.m,
            self.extension,
            self.model,
            self.matrices,
            self.g_datum,
        )

    @property
    def transport_images(self) -> tuple:
        """G . X for the images X of 1, i, j, k, built once per split
        model: ``transport_form`` sums them with each Gram entry's
        coordinates."""
        return self._split.transport_images

    @cached_property
    def _det_sign(self) -> int:
        """The sign of det G at ``chosen``, read once per certificate."""
        return self._split.det.sign_at(self.chosen)

    def diagonal_signature(self, h: HermitianForm) -> int:
        """The signature at ``chosen`` of the diagonal form h over the
        certificate's algebra carried through a proper split, without
        transport or elimination.

        Each entry d goes to the block B = G . Phi(d), and det B =
        det G . Nrd(d).  So B counts 0 when det B < 0 and 2 sign(B00) when
        det B > 0, with B00 = sum_b c_b (G X_b)00 over d's centre
        coordinates c_b; Nrd(d) lies in F, so its sign at ``chosen`` is
        its sign at ``ordering``.  Nrd(d) = 0 (d = 0 included) makes the
        form singular.  The norms are kept on the form
        (``HermitianForm.entry_norms``); B00 is built only for the entries
        that count."""
        split, det, P, chosen = self._split, self._det_sign, self.ordering, self.chosen
        return sum(
            2 * split.corner(h.gram[i][i]).sign_at(chosen)
            for i, n in enumerate(h.entry_norms())
            if n.sign_at(P) == det
        )

    def to_json(self) -> dict:
        out = {
            "algebra": self.algebra.to_json(),
            "ordering": self.ordering.to_json(),
            "flavor": self.flavor,
            "extension": self.extension.to_json(),
            "chosen": self.chosen.to_json(),
        }
        if self.witness is not None:
            out["witness"] = self.witness.to_json()
        if self.m is not None:
            out["m"] = self.m.to_json()
        if self.matrices is not None:
            out["matrices"] = [self.model.value_to_json(X) for X in self.matrices]
        if self.g_datum is not None:
            out["g_datum"] = self.model.value_to_json(self.g_datum)
        if self.definite_pair is not None:
            d, c, u, v = self.definite_pair
            out["definite"] = {
                "d": d.to_json(),
                "c": c.to_json(),
                "u": u.to_json(),
                "v": v.to_json(),
            }
        return out

    @staticmethod
    def from_json(doc: dict) -> SplittingCertificate:
        required = {"algebra", "ordering", "flavor", "extension", "chosen"}
        if not isinstance(doc, dict) or not required <= set(doc):
            raise MismatchError("certificate document is missing required keys")
        extra = set(doc) - required - {"witness", "m", "matrices", "g_datum", "definite"}
        if extra:
            raise MismatchError(f"unknown certificate keys {sorted(extra)}")
        algebra = algebra_from_json(doc["algebra"])
        F = algebra.field
        ordering = Ordering.from_json(F, doc["ordering"])
        extension = FieldTower.from_json(doc["extension"])
        chosen = Ordering.from_json(extension, doc["chosen"])
        M = MatrixAlgebra(2, _centre_of(algebra, extension, doc["flavor"]))

        def element(v):
            return algebra.elem(algebra.value_from_json(v))

        matrices = None
        if "matrices" in doc:
            if not isinstance(doc["matrices"], list) or len(doc["matrices"]) != 4:
                raise MismatchError("'matrices' is a list of four 2 x 2 matrices")
            matrices = [M.value_from_json(X) for X in doc["matrices"]]
        definite = None
        if "definite" in doc:
            d = doc["definite"]
            definite = (
                F.element_from_json(d["d"]),
                F.element_from_json(d["c"]),
                element(d["u"]),
                element(d["v"]),
            )
        return SplittingCertificate(
            algebra,
            ordering,
            doc["flavor"],
            extension,
            chosen,
            witness=element(doc["witness"]) if "witness" in doc else None,
            m=F.element_from_json(doc["m"]) if "m" in doc else None,
            matrices=matrices,
            g_datum=M.value_from_json(doc["g_datum"]) if "g_datum" in doc else None,
            definite_pair=definite,
        )


# ---------------------------------------------------------------------------
# the split model of a quaternion kind over its centre
# ---------------------------------------------------------------------------


def _quat_centre_basis(A):
    """Values of 1, i, j, k over the centre."""
    z, o = A.centre.zero(), A.centre.one()
    return [(o, z, z, z), (z, o, z, z), (z, z, o, z), (z, z, z, o)]


def _left_products(A: Algebra, x) -> tuple:
    """The products 1 . x, i . x, j . x, k . x of a quaternion value x, in
    closed form over the centre: with x = (x0, x1, x2, x3),
    i . x = (a x1, x0, a x3, x2), j . x = (b x2, -b x3, x0, -x1) and
    k . x = (-ab x3, b x2, -a x1, x0)."""
    C = A.centre
    mul, neg = C.mul, C.neg
    a, b, ab = A._a, A._b, A._ab
    x0, x1, x2, x3 = x
    return (
        x,
        (mul(a, x1), x0, mul(a, x3), x2),
        (mul(b, x2), neg(mul(b, x3)), x0, neg(x1)),
        (neg(mul(ab, x3)), mul(b, x2), neg(mul(a, x1)), x0),
    )


def _build_split_data(A_L: Algebra, centre: Algebra, witness_value, sqm: FieldElement):
    """Idempotent splitting: matrices of 1, i, j, k acting on (A tensor L) e,
    in the basis v1 = e, v2 = the first of i e, j e, k e that is no centre
    multiple of e (the first two pivot columns of the ideal).  Coordinates
    come from Cramer's rule on two rows where the minor D of (v1, v2) is
    nonzero, with one inverse of D; the other two rows of each vector are
    checked."""
    L = A_L.field
    half = L.rational(1, 2)
    sq_inv = sqm.inverse()
    w_scaled = A_L.scalar_mul(sq_inv, witness_value)
    e = A_L.scalar_mul(half, A_L.add(A_L.one(), w_scaled))
    if A_L.mul(e, e) != e:
        raise InvariantViolation("idempotent construction failed")
    ideal = _left_products(A_L, e)
    pivot = _second_pivot(centre, ideal)
    if pivot is None:
        raise InvariantViolation("ideal is not 2-dimensional over the centre")
    p, r0, r1, D = pivot
    v1, v2 = e, ideal[p]
    d_inv = centre.inverse(D)
    add, mul = centre.add, centre.mul
    others = [r for r in range(4) if r not in (r0, r1)]

    def coordinates(u):
        alpha, beta = _span_coordinates(centre, v1, v2, r0, r1, d_inv, u)
        for r in others:
            if u[r] != add(mul(alpha, v1[r]), mul(beta, v2[r])):
                raise InvariantViolation("vector lies outside the ideal")
        return alpha, beta

    # b_t e for t < p is a multiple of e; the later ones must lie in the
    # span too.  The ideal is a left ideal over the centre, so b_s * b_t e
    # for t not a pivot adds nothing: only the products of v1 and v2 count
    for u in ideal[p + 1:]:
        coordinates(u)
    by_v1, by_v2 = (_left_products(A_L, v)[1:] for v in (v1, v2))
    one, zero = centre.one(), centre.zero()
    out = [((one, zero), (zero, one))]
    for s in range(3):
        (a1, b1), (a2, b2) = coordinates(by_v1[s]), coordinates(by_v2[s])
        out.append(((a1, a2), (b1, b2)))
    return tuple(out)


def _second_pivot(C: Algebra, ideal):
    """(p, r0, r1, D) for the ideal b_t e, t = 0..3, as centre coordinates:
    p is the first of 1, 2, 3 whose b_p e is no centre multiple of e, r0 is
    e's first nonzero coordinate, and r1 the first row on which the 2 x 2
    minor D of (e, b_p e) at rows r0, r1 is nonzero.  These minors are
    zero on every row exactly when b_p e is a multiple of e.  None when
    every b_p e is (or e is zero)."""
    e = ideal[0]
    is_zero, mul, sub = C.is_zero, C.mul, C.sub
    r0 = next((r for r in range(4) if not is_zero(e[r])), None)
    if r0 is None:
        return None
    for p in (1, 2, 3):
        v = ideal[p]
        for r1 in range(4):
            if r1 != r0:
                D = sub(mul(e[r0], v[r1]), mul(v[r0], e[r1]))
                if not is_zero(D):
                    return p, r0, r1, D
    return None


def _span_coordinates(C: Algebra, v1, v2, r0, r1, d_inv, u):
    """(alpha, beta) with u = alpha v1 + beta v2 on rows r0 and r1, by
    Cramer's rule: d_inv is the inverse of the minor D of (v1, v2) there."""
    mul, sub = C.mul, C.sub
    alpha = mul(sub(mul(u[r0], v2[r1]), mul(v2[r0], u[r1])), d_inv)
    beta = mul(sub(mul(v1[r0], u[r1]), mul(u[r0], v1[r1])), d_inv)
    return alpha, beta


def _scale(C: Algebra, c, X):
    """The 2 x 2 value X times the centre value c."""
    return tuple(tuple(C.mul(c, e) for e in row) for row in X)


def _phi(M: MatrixAlgebra, matrices, value):
    """Image in the split model M of a quaternion value: the sum of its
    centre coordinates times the images of 1, i, j, k.  Zero coordinates
    and zero matrix entries add nothing, so they are skipped."""
    C = M.inner
    is_zero, add, mul = C.is_zero, C.add, C.mul
    out = [[None, None], [None, None]]
    for c, X in zip(value, matrices):
        if is_zero(c):
            continue
        for acc, row in zip(out, X):
            for j, e in enumerate(row):
                if not is_zero(e):
                    t = mul(c, e)
                    acc[j] = t if acc[j] is None else add(acc[j], t)
    z = C.zero()
    return tuple(tuple(z if e is None else e for e in acc) for acc in out)


def _solve_involution_datum(M: MatrixAlgebra, matrices, A_L: Algebra):
    """G with Phi(sigma(beta)) = G^-1 * conj-transpose(Phi(beta)) * G: in
    closed form for the orthogonal flavor (``_orthogonal_datum``), from
    the datum equations for the unitary one."""
    C = M.inner
    if C.kind != "unitary_quadratic":
        G = _orthogonal_datum(C, _phi(M, matrices, A_L.u))
        if G is None:
            raise InvariantViolation("no involution datum exists")
        if M.involution(G) != G:
            raise InvariantViolation(
                "involution datum came out skew for an orthogonal type"
            )
        return G
    rows = []
    # unknowns: G00, G01, G10, G11; equations G*Phi(sigma b) - ct(Phi b)*G = 0
    # for b = i, j: those for b = 1 are zero, and those for b = k = ij
    # follow, as sigma(ij) = sigma(j) sigma(i) and ct(XY) = ct(Y) ct(X)
    for b in _quat_centre_basis(A_L)[1:3]:
        S = _phi(M, matrices, A_L.involution(b))
        T = M.involution(_phi(M, matrices, b))
        for i in range(2):
            for j in range(2):
                row = [C.zero()] * 4
                # (G S)_{ij} = sum_t G_{it} S_{tj}
                for t in range(2):
                    row[2 * i + t] = C.add(row[2 * i + t], S[t][j])
                # (T G)_{ij} = sum_t T_{it} G_{tj}
                for t in range(2):
                    row[2 * t + j] = C.sub(row[2 * t + j], T[i][t])
                rows.append([C.elem(v) for v in row])
    sols = _nullspace(rows, C.elem(C.zero()), C.elem(C.one()))
    if not sols:
        raise InvariantViolation("no involution datum exists")
    g = [e.value for e in sols[0]]
    G = ((g[0], g[1]), (g[2], g[3]))
    ct = M.involution(G)
    if ct == G:
        return G
    # ct(G) = lambda * G with lambda of norm 1; rescale hermitian via
    # c/conj(c) = lambda, taking c = 1 + lambda (or sqrt(alpha) if lambda = -1)
    pi, pj = next((i, j) for i in range(2) for j in range(2) if not C.is_zero(G[i][j]))
    lam = C.mul(ct[pi][pj], C.inverse(G[pi][pj]))
    if ct == _scale(C, lam, G):
        c = C.basis_values()[1] if lam == C.neg(C.one()) else C.add(C.one(), lam)
        H = _scale(C, c, G)
        if M.involution(H) == H:
            return H
    raise InvariantViolation("involution datum cannot be normalized")


def _orthogonal_datum(C: Algebra, U):
    """The datum of sigma = Int(u) o gamma on M_2(L) from U = Phi(u), or
    None when U is zero.  Phi(gamma x) = J Phi(x)^T J^-1 with
    J = [[0, 1], [-1, 0]], so G is proportional to J^-1 adj U =
    [[U10, -U00], [U11, -U01]]; it is scaled so that its last nonzero
    entry, in the order G00, G01, G10, G11, is 1, as ``_nullspace``
    normalises a 1-dimensional kernel (Knus, Merkurjev, Rost and Tignol,
    The Book of Involutions, section 4)."""
    (u00, u01), (u10, u11) = U
    g = [u10, C.neg(u00), u11, C.neg(u01)]
    last = next((c for c in reversed(g) if not C.is_zero(c)), None)
    if last is None:
        return None
    inv = C.inverse(last)
    g = [C.mul(c, inv) for c in g]
    return ((g[0], g[1]), (g[2], g[3]))


# ---------------------------------------------------------------------------
# the search
# ---------------------------------------------------------------------------

def _spiral(budget: int):
    """Integer triples ordered by increasing height; within one height,
    0 before positive before negative in each coordinate, x outermost."""
    def seq(h):
        out = [0]
        for t in range(1, h + 1):
            out.extend((t, -t))
        return out

    for h in range(1, budget + 1):
        s = seq(h)
        for x in s:
            for y in s:
                for z in s:
                    if max(abs(x), abs(y), abs(z)) == h:
                        yield (x, y, z)


def find_certificate(A: Algebra, P: Ordering, budget: int = 50) -> SplittingCertificate:
    """Search for and verify a splitting certificate for (A, sigma) at P.

    Deterministic: the witness minimal in the spiral enumeration wins.  A
    certificate depends only on (A, sigma) and P; the budget only bounds
    the witness height the search may reach.  So the first success at P
    is kept in ``A.certificate_memo`` with its witness height (0 for the
    degenerate shapes) and answers every later budget: the spiral is
    ordered by height, so a search at budget b finds that certificate
    when its height is at most b (a negative b reaches what 0 reaches),
    and nothing otherwise.  Failures are
    not kept.  A matrix wrapper (M_n(D), ad_g) splits exactly as D does
    (Morita equivalence), so its certificate is D's: searched, verified
    and kept once, on D."""
    from .signatures import local_type

    D = A.inner if A.kind == "matrix" else A
    if P.tower != D.field:
        raise MismatchError("ordering does not belong to the algebra's base field")
    hit = D.certificate_memo.get(P.path)
    if hit is None:  # a kept certificate shows that P is not nil
        if local_type(D, P).nil:
            raise PreconditionNil(
                f"{A.describe()} has vanishing signatures at {P.name()}"
            )
        cert = next(_certificates(D, P, budget), None)
        if cert is None:
            raise BudgetExhausted(D, P, budget)
        if not verify_certificate(cert):
            raise InvariantViolation("emitted certificate fails verification")
        hit = D.certificate_memo[P.path] = (cert, _witness_height(cert))
    cert, height = hit
    if height > max(budget, 0):
        raise BudgetExhausted(D, P, budget)
    return cert


def _witness_height(cert: SplittingCertificate) -> int:
    """The spiral height max(|x|, |y|, |z|) of a split certificate's
    witness, read as the largest height of its integer coordinates; 0 for
    the degenerate shapes, which have no witness."""
    if cert.witness is None:
        return 0
    return max(c.height() for c in cert.witness.coords())


def _certificates(A, P, budget):
    """The certificates of a non-matrix (A, sigma) at a non-nil P in search
    order: the one degenerate shape of ``field_id``, ``unitary_quadratic``
    and conjugation quaternions, or one per valid spiral witness of height
    <= budget for the split kinds.  Unverified."""
    F = A.field
    if A.kind == "field_id":
        yield SplittingCertificate(A, P, "split-trivial", F, P)
    elif A.kind == "unitary_quadratic":
        yield SplittingCertificate(A, P, "unitary-deg1", F, P)
    elif A.kind == "quaternion" and A.involution_type == "conjugation":
        basis = A.basis()
        yield SplittingCertificate(
            A,
            P,
            "symplectic-definite",
            F,
            P,
            definite_pair=(-A.a, -A.b, basis[1], basis[2]),
        )
    else:  # orthogonal quaternion or unitary quaternion
        unitary = A.kind == "unitary_quaternion"
        a, b = A.a, A.b
        for (x, y, z) in _spiral(budget):
            xe, ye, ze = F.rational(x), F.rational(y), F.rational(z)
            m = a * xe * xe + b * ye * ye - a * b * ze * ze
            if unitary:
                m = A.alpha * m
            if m.is_zero():
                continue
            if m.sign_at(P) != 1:
                continue
            sqm = m.sqrt()
            if sqm is None and m.is_square():
                # a square in the ambient series field without an explicit
                # rational-function root: not usable as a tower step
                continue
            yield _emit_split_certificate(A, P, (x, y, z), m, sqm, unitary)


def _emit_split_certificate(A, P, xyz, m, sqm, unitary):
    flavor = "unitary-quaternion-split" if unitary else "orthogonal-split"
    split = _split_model(A, xyz, m, sqm, flavor)
    L = split.extension
    Q = P if sqm is not None else Ordering(L, P.path + (1,))
    cert = SplittingCertificate(
        A,
        P,
        flavor,
        L,
        Q,
        witness=split.witness,
        m=m,
        matrices=split.matrices,
        g_datum=split.g_datum,
    )
    # shared with the certificates of the witness's other orderings
    object.__setattr__(cert, "_split", split)
    object.__setattr__(cert, "model", split.model)
    return cert


def _split_model(A, xyz, m, sqm, flavor):
    """The ``SplitModel`` of the witness ``xyz``: the part of a split
    certificate that does not depend on the ordering, built once per
    witness and kept in ``A.split_model_memo``."""
    split = A.split_model_memo.get(xyz)
    if split is not None:
        return split
    F = A.field
    x, y, z = (F.rational(t) for t in xyz)
    coords = [F.zero(), x, y, z]
    if flavor == "unitary-quaternion-split":  # sqrt(alpha) * (x i + y j + z k)
        coords = [c for t in coords for c in (F.zero(), t)]
    w_value = A.from_coords(coords)
    if sqm is not None:
        L, sq_elem = F, sqm
    else:
        L = F.adjoin_sqrt(m)
        sq_elem = L.generator()
    A_L = A.lift_to(L)
    M = MatrixAlgebra(2, _centre_of(A, L, flavor))
    matrices = _build_split_data(A_L, M.inner, A.lift_value(w_value, A_L), sq_elem)
    datum = _solve_involution_datum(M, matrices, A_L)
    split = A.split_model_memo[xyz] = SplitModel(
        A, flavor, A.elem(w_value), m, L, M, matrices, datum, A_L
    )
    return split


# ---------------------------------------------------------------------------
# verification and transport
# ---------------------------------------------------------------------------


def verify_certificate(cert: SplittingCertificate) -> bool:
    """Check every certificate invariant by exact arithmetic.

    Memoised per certificate object: the check runs on the first call and
    its result is stored on the certificate, which is immutable, so later
    calls return it without recomputation.  The checks of a proper split
    that do not involve the ordering run once per split model
    (``SplitModel.verified``)."""
    if cert._verified is None:
        try:
            ok = _verify_impl(cert)
        except (MismatchError, ValueError, ZeroDivisionError, ArithmeticError):
            ok = False
        object.__setattr__(cert, "_verified", ok)
    return cert._verified


def _verify_impl(cert: SplittingCertificate) -> bool:
    A = cert.algebra
    F = A.field
    P = cert.ordering
    if P not in F.orderings():
        return False
    if cert.flavor == "split-trivial":
        return A.kind == "field_id" and cert.extension == F
    if cert.flavor == "unitary-deg1":
        return (
            A.kind == "unitary_quadratic"
            and cert.extension == F
            and A.alpha.sign_at(P) == -1
        )
    if cert.flavor == "symplectic-definite":
        if A.kind != "quaternion" or A.involution_type != "conjugation":
            return False
        if cert.definite_pair is None:
            return False
        d, c, u, v = cert.definite_pair
        if d.sign_at(P) != 1 or c.sign_at(P) != 1:
            return False
        if not (u * u == A.from_field(-d) and v * v == A.from_field(-c)):
            return False
        if not (u * v == -(v * u)):
            return False
        if not (u.coords()[0].is_zero() and v.coords()[0].is_zero()):
            return False
        return True
    # proper split flavors: the checks that involve P or ``chosen`` run
    # here, the others once per split model
    if cert.witness is None or cert.m is None or cert.matrices is None:
        return False
    if cert.g_datum is None:
        return False
    if cert.m.sign_at(P) != 1:
        return False
    if not cert.chosen.extends(P) or cert.chosen.tower != cert.extension:
        return False
    if not cert._split.verified():
        return False
    # a unitary split needs alpha < 0 at P: where alpha > 0, P is nil, and
    # no signature splits off there
    return cert.flavor == "orthogonal-split" or A.alpha.sign_at(P) == -1


def _check_split_model(split: SplitModel) -> bool:
    """The checks of a proper split certificate that do not involve its
    ordering: the witness's kind and shape and w . w = m, the steps of L,
    X_1 = 1 and the quaternion relations, independence of the four
    images, and G invertible, hermitian and carrying the involution on
    1, i, j, k."""
    A, m, L, w = split.algebra, split.m, split.extension, split.witness
    F = A.field
    if L == F:
        if m.sqrt() is None:
            return False
    else:
        if L.steps != F.steps + (("qext", m.value),):
            return False
    if split.flavor == "orthogonal-split":
        if A.kind != "quaternion" or A.involution_type != "orthogonal":
            return False
        if not w.coords()[0].is_zero():
            return False
    else:
        if A.kind != "unitary_quaternion":
            return False
        if not (w.involution() == w):
            return False
        if any(not c.is_zero() for c in w.coords()[:2]):
            # the scalar centre coordinate must vanish: w is not central
            return False
    if not (w * w == A.from_field(m)):
        return False
    A_L = A.lift_to(L) if split.lifted is None else split.lifted
    M = split.model
    C = M.inner
    one = M.one()
    X1, Xi, Xj, Xk = split.matrices
    if X1 != one:
        return False
    if M.mul(Xi, Xi) != M.scalar_mul(A.a.lift_to(L), one):
        return False
    if M.mul(Xj, Xj) != M.scalar_mul(A.b.lift_to(L), one):
        return False
    ij = M.mul(Xi, Xj)
    if ij != M.neg(M.mul(Xj, Xi)) or ij != Xk:
        return False
    # full 4-dimensional image: the four matrices are independent over C
    entries = [[X[i][j] for X in split.matrices] for i in range(2) for j in range(2)]
    if C.is_zero(_det4(C, entries)):
        return False
    # G reproduces the involution on the basis; C is commutative, so G is
    # invertible exactly when its determinant is nonzero
    G = split.g_datum
    (g00, g01), (g10, g11) = G
    if C.is_zero(C.sub(C.mul(g00, g11), C.mul(g01, g10))):
        return False
    if M.involution(G) != G:
        return False
    for bval in _quat_centre_basis(A_L):
        lhs = M.mul(G, _phi(M, split.matrices, A_L.involution(bval)))
        rhs = M.mul(M.involution(_phi(M, split.matrices, bval)), G)
        if lhs != rhs:
            return False
    return True


# (columns of the top minor, complementary columns, sign) for ``_det4``
_LAPLACE_PAIRS = (
    ((0, 1), (2, 3), 1),
    ((0, 2), (1, 3), -1),
    ((0, 3), (1, 2), 1),
    ((1, 2), (0, 3), 1),
    ((1, 3), (0, 2), -1),
    ((2, 3), (0, 1), 1),
)


def _det4(C: Algebra, rows):
    """The determinant of a 4 x 4 matrix over the commutative C, by Laplace
    expansion along its first two rows: no inverses."""
    mul, sub = C.mul, C.sub
    top, bottom = rows[:2], rows[2:]

    def minor(two, a, b):
        return sub(mul(two[0][a], two[1][b]), mul(two[0][b], two[1][a]))

    det = C.zero()
    for (a, b), (c, d), sign in _LAPLACE_PAIRS:
        term = mul(minor(top, a, b), minor(bottom, c, d))
        det = C.add(det, term) if sign > 0 else sub(det, term)
    return det


def transport_form(cert: SplittingCertificate, h: HermitianForm):
    """Carry a +1-hermitian form through the certificate's splitting.

    Returns (form over the split target, involution datum): a quadratic
    Gram over L for the orthogonal flavor, a conjugation-hermitian Gram
    over L(sqrt(alpha)) for the unitary flavors, the flattened Gram over
    F for the trivial split of matrix-over-field kinds.

    The 2 x 2 block of an entry with centre coordinates c_b is
    G . Phi(entry) = sum_b c_b (G X_b), exact because the c_b are
    central; the G X_b are the certificate's ``transport_images``.  A
    zero entry gives a zero block, and zero coordinates add nothing."""
    if h.epsilon != 1:
        raise MismatchError("transport expects a +1-hermitian form")
    if h.algebra.kind == "matrix":
        if h.algebra.inner != cert.algebra:
            raise MismatchError("certificate does not match the inner algebra")
        h = morita_flatten(h)
    if h.algebra != cert.algebra:
        raise MismatchError("form and certificate algebras differ")
    if cert.flavor == "symplectic-definite":
        raise MismatchError(
            "definite symplectic certificates do not transport; use the "
            "diagonal route"
        )
    if cert.flavor in ("split-trivial", "unitary-deg1"):
        target = cert.centre_algebra()
        gram = [[target.elem(v) for v in row] for row in h.gram]
        return HermitianForm(target, gram, 1), None
    if not verify_certificate(cert):
        raise MismatchError("refusing to transport along an unverified certificate")
    centre = cert.algebra.centre
    M = cert.model
    C = M.inner
    images = cert.transport_images
    k = h.rank
    z = C.zero()
    big = [[z] * (2 * k) for _ in range(2 * k)]
    for r, row in enumerate(h.gram):
        for s, entry in enumerate(row):
            zeros = [centre.is_zero(c) for c in entry]
            if all(zeros):
                continue
            # the entry's coefficients on 1, i, j, k, lifted to the centre over L
            val = [z if o else centre.lift_value(c, C) for c, o in zip(entry, zeros)]
            block = _phi(M, images, val)
            for i in range(2):
                big[2 * r + i][2 * s : 2 * s + 2] = block[i]
    return HermitianForm(C, big, 1), cert.g_datum
