import random
from fractions import Fraction

import pytest

from hermstab.algebras import (
    Algebra,
    ExchangeAlgebra,
    FieldAlgebra,
    HermitianForm,
    MatrixAlgebra,
    QuaternionAlgebra,
    SplitWitness,
    UnitaryQuadraticAlgebra,
    UnitaryQuaternionAlgebra,
    algebra_from_json,
    diagonalize_hermitian,
    morita_flatten,
    reduced_norm,
    reduced_trace,
    rho_form,
    sym_basis,
    trace_form,
    twist,
)
from hermstab.fields import FieldTower, MismatchError
from hermstab.quadratic import QuadraticForm
from oracles import QuaternionOracle, dense_quaternion_mul

from corpus import (
    SamplingError,
    assert_skip_rate,
    random_algebra,
    random_element,
    random_rational,
    random_hermitian_diagonal,
    random_sym_element,
    random_tower,
)

Q = FieldTower.rationals()
F2 = Q.adjoin_sqrt(2)
LX = Q.adjoin_laurent()
P0 = Q.orderings()[0]

HAM = QuaternionAlgebra(Q, -1, -1)
ORTH = QuaternionAlgebra(LX, LX.generator(), -1, "orthogonal", [0, 0, 1, 0])


def _rand_full_elem(rng, A):
    coords = [
        random_element(rng, A.field, height=4, simple=True) for _ in range(A.dim)
    ]
    return A.elem(A.from_coords(coords))


def test_involution_examples():
    one, i, j, k = HAM.basis()
    z = one + 2 * i - 3 * j + k
    assert z.involution() == one - 2 * i + 3 * j - k
    E = ExchangeAlgebra(Q)
    p = E.elem((Q.rational(2).value, Q.rational(5).value))
    assert p.involution().value == (Q.rational(5).value, Q.rational(2).value)
    # Int(j) gamma on (x, -1) fixes 1, i, k and negates j
    o, ia, ja, ka = ORTH.basis()
    assert o.involution() == o
    assert ia.involution() == ia
    assert ja.involution() == -ja
    assert ka.involution() == ka


def test_involution_is_anti_automorphism():
    rng = random.Random(41)
    kinds = (
        "field_id",
        "exchange",
        "unitary_quadratic",
        "quaternion-conj",
        "quaternion-orth",
        "unitary_quaternion",
    )
    skipped = 0
    for kind in kinds:
        per_kind = 0
        algebras = []
        while len(algebras) < 8:
            field = random_tower(rng, max_depth=1)
            try:
                algebras.append(random_algebra(rng, field, kinds=(kind,)))
            except SamplingError:
                skipped += 1
                continue
        while per_kind < 500:
            A = algebras[per_kind % len(algebras)]
            z = _rand_full_elem(rng, A)
            w = _rand_full_elem(rng, A)
            assert z.involution().involution() == z
            assert (z * w).involution() == w.involution() * z.involution()
            assert (z + w).involution() == z.involution() + w.involution()
            c = A.field.rational(3, 2)
            assert A.from_field(c).involution() == A.from_field(c)
            per_kind += 1
    assert_skip_rate(skipped, 8 * len(kinds))


@pytest.mark.parametrize(
    "kind", ["quaternion-conj", "quaternion-orth", "unitary_quaternion"]
)
def test_quaternion_kinds_match_table_oracle(kind):
    rng = random.Random(7)
    done = skipped = 0
    while done < 6:
        try:
            A = random_algebra(rng, random_tower(rng, max_depth=2), kinds=(kind,))
        except SamplingError:
            skipped += 1
            continue
        O = QuaternionOracle(A)
        for _ in range(5):
            x, y = _rand_full_elem(rng, A), _rand_full_elem(rng, A)
            ox, oy = O.from_library(x.value), O.from_library(y.value)
            assert A.coords(A.from_coords(x.coords())) == x.coords()
            assert O.to_library(O.mul(ox, oy)) == (x * y).value
            assert O.to_library(O.involution(ox)) == x.involution().value
            assert O.reduced_trace(ox) == x.reduced_trace()
            assert O.reduced_norm(ox) == x.reduced_norm()
            if x.reduced_norm().is_zero():
                assert not x.is_invertible()
            else:
                assert O.to_library(O.inverse(ox)) == x.inverse().value
        done += 1
    assert_skip_rate(skipped, done)


_EQUALITY_TOWERS = [Q, F2, LX, F2.adjoin_laurent().adjoin_laurent()]
# (a, generator) over each tower of _EQUALITY_TOWERS, and two unitary
# quaternion algebras, whose centre is F(sqrt(alpha))
_PRODUCT_ALGEBRAS = [
    QuaternionAlgebra(T, -1, T.generator() if T.depth > 1 else 3) for T in _EQUALITY_TOWERS
] + [
    UnitaryQuaternionAlgebra(Q, -1, -1, -1),
    UnitaryQuaternionAlgebra(F2, 3, F2.generator(), -1),
]


@pytest.mark.parametrize(
    "A", _PRODUCT_ALGEBRAS, ids=[A.describe() for A in _PRODUCT_ALGEBRAS]
)
def test_quaternion_product_matches_dense_product(A):
    """On seeded pairs with a central factor (coordinates 1-3 zero) on
    the left, on the right, on both sides and on neither, the product
    equals the dense sixteen-term one in value and in JSON."""
    rng = random.Random(25)
    pad = [A.field.zero()] * (3 * A.centre.dim)

    def central():
        return A.from_coords(
            [random_element(rng, A.field, height=4, simple=True) for _ in range(A.centre.dim)]
            + pad
        )

    def general():
        return _rand_full_elem(rng, A).value

    sides = ((central, general), (general, central), (central, central), (general, general))
    for left, right in sides:
        for _ in range(6):
            x, y = left(), right()
            got, want = A.mul(x, y), dense_quaternion_mul(A, x, y)
            assert got == want
            assert A.value_to_json(got) == A.value_to_json(want)


@pytest.mark.parametrize(
    "field", _EQUALITY_TOWERS, ids=[F.describe() for F in _EQUALITY_TOWERS]
)
def test_value_equality_agrees_with_subtraction(field):
    """Algebra.equal compares values; on canonical values that must agree
    with the subtracting test, also when x - t cancels leading terms."""
    rng = random.Random(11)
    deep = field.depth > 2
    top = field.generators()[-1] if field.steps[-1][0] == "laurent" else None

    def rand(nonzero=False, simple=True):
        return random_element(rng, field, height=4, nonzero=nonzero, simple=simple)

    def near(c):
        # c plus a term of higher order (or another value when there is no
        # Laurent level), so that c - near(c) cancels c's leading terms
        roll = rng.random()
        if roll < 0.3:
            return c
        e = field.rational(random_rational(rng, 5))
        if top is not None and roll < 0.8:
            e = e * top * top * top
        return c + e

    a, b = rand(nonzero=True), rand(nonzero=True)
    u = [0, 1, 1, 0] if not (a + b).is_zero() else [0, 1, 0, 0]
    H = QuaternionAlgebra(field, a, b)
    algebras = [
        FieldAlgebra(field),
        ExchangeAlgebra(field),
        UnitaryQuadraticAlgebra(field, -3),
        H,
        QuaternionAlgebra(field, a, b, "orthogonal", u),
        UnitaryQuaternionAlgebra(field, a, b, -1),
        MatrixAlgebra(2, FieldAlgebra(field)),
        MatrixAlgebra(2, H),
    ]
    for A in algebras:
        zero = A.elem(A.zero())
        for _ in range(6):
            # denominators only where products stay cheap (Laurent gcds of
            # dense rational functions grow fast): commutative kinds below
            # depth 3; quaternion values are tuples of the same field values
            simple = deep or A.dim > 2
            x = A.elem(A.from_coords([rand(simple=simple) for _ in range(A.dim)]))
            t = A.elem(A.from_coords([near(c) for c in x.coords()]))
            d = x - t
            pairs = [(x, t), (t + d, x), (d, zero), (x - x, zero), (x * t, t * x)]
            if not simple and t.is_invertible():
                pairs.append(((x * t) * t.inverse(), x))
            for p, q in pairs:
                same = p.value == q.value
                assert same == A.is_zero(A.sub(p.value, q.value)), (A, p, q)
                assert (p == q) == same
                if same:
                    assert hash(p) == hash(q)


@pytest.mark.parametrize(
    "kind",
    ["field_id", "unitary_quadratic", "quaternion-conj", "quaternion-orth", "unitary_quaternion"],
)
def test_matrix_zero_rows_are_singular(kind):
    """The zero-row shortcut of MatrixAlgebra.is_invertible agrees with the
    Gauss-Jordan verdict, on matrices with and without a zero row.  The
    towers have no Laurent step and the entries rational coordinates,
    which keeps the elimination cheap."""
    rng = random.Random(f"zero-row-{kind}")
    skipped = done = 0
    verdicts = set()
    while done < 24:
        try:
            D = random_algebra(rng, rng.choice([Q, F2, Q.adjoin_sqrt(3)]), kinds=(kind,))
        except SamplingError:
            skipped += 1
            continue
        n = rng.randint(2, 3)
        M = MatrixAlgebra(n, D)
        x = [
            [D.from_coords([D.field.rational(random_rational(rng, 5)) for _ in range(D.dim)])
             for _ in range(n)]
            for _ in range(n)
        ]
        zero_row = done % 2 == 1
        if zero_row:
            x[rng.randrange(n)] = [D.zero()] * n
        elif done % 4 == 2:
            x[1] = x[0]
        x = tuple(tuple(row) for row in x)
        verdict = M.is_invertible(x)
        assert verdict == Algebra.is_invertible(M, x)
        assert not (zero_row and verdict)
        verdicts.add(verdict)
        done += 1
    assert verdicts == {True, False}
    assert_skip_rate(skipped, done)


def test_matrix_involution_properties():
    rng = random.Random(42)
    for inner in (FieldAlgebra(Q), HAM, UnitaryQuadraticAlgebra(Q, -1)):
        g = [inner.elem(inner.one()), inner.from_field(Q.rational(-2))]
        M = MatrixAlgebra(2, inner, g)
        for _ in range(25):
            z = _rand_full_elem(rng, M)
            w = _rand_full_elem(rng, M)
            assert z.involution().involution() == z
            assert (z * w).involution() == w.involution() * z.involution()


def test_sym_basis_counts():
    assert len(sym_basis(HAM)) == 1
    assert len(sym_basis(ORTH)) == 3
    assert len(sym_basis(UnitaryQuadraticAlgebra(Q, -1))) == 1
    assert len(sym_basis(ExchangeAlgebra(Q))) == 1
    assert len(sym_basis(UnitaryQuaternionAlgebra(Q, -1, -1, -1))) == 4
    # orthogonal sym basis is {1, i, k} for u = j
    names = [s.coords() for s in sym_basis(ORTH)]
    nonzero_positions = [
        [idx for idx, c in enumerate(co) if not c.is_zero()] for co in names
    ]
    assert nonzero_positions == [[0], [1], [3]]


def test_sym_basis_is_symmetric_and_spans():
    rng = random.Random(43)
    skipped = 0
    for _ in range(25):
        field = random_tower(rng, max_depth=1)
        try:
            A = random_algebra(rng, field)
        except SamplingError:
            skipped += 1
            continue
        basis = sym_basis(A)
        for s in basis:
            assert s.involution() == s
        z = _rand_full_elem(rng, A)
        sym_part = (z + z.involution()) * Fraction(1, 2)
        # the symmetric part must be reachable from the basis: solve by
        # re-symmetrizing coordinates
        assert sym_part.involution() == sym_part
    assert_skip_rate(skipped, 25 - skipped)


def test_reduced_trace_and_norm():
    one, i, j, k = HAM.basis()
    assert reduced_trace(HAM, one) == Q.rational(2)
    assert reduced_norm(HAM, i) == Q.rational(1)  # -a = 1
    A = QuaternionAlgebra(Q, 3, 5)
    oneA, iA, jA, kA = A.basis()
    assert reduced_norm(A, iA) == Q.rational(-3)
    rng = random.Random(44)
    for _ in range(200):
        z = _rand_full_elem(rng, A)
        w = _rand_full_elem(rng, A)
        assert reduced_norm(A, z * w) == reduced_norm(A, z) * reduced_norm(A, w)
        assert reduced_trace(A, z.involution()) == reduced_trace(A, z)


def test_reduced_norm_multiplicative_all_kinds():
    rng = random.Random(45)
    skipped = 0
    for kind in ("field_id", "exchange", "unitary_quadratic", "unitary_quaternion"):
        done = 0
        while done < 30:
            field = random_tower(rng, max_depth=1)
            try:
                A = random_algebra(rng, field, kinds=(kind,))
            except SamplingError:
                skipped += 1
                continue
            z = _rand_full_elem(rng, A)
            w = _rand_full_elem(rng, A)
            assert reduced_norm(A, z * w) == reduced_norm(A, z) * reduced_norm(A, w)
            done += 1
    assert_skip_rate(skipped, 4 * 30)


def test_diagonalize_hermitian_examples():
    one, i, j, k = HAM.basis()
    G = [[one, j], [-j, HAM.from_field(2)]]
    d = diagonalize_hermitian(HermitianForm(HAM, G))
    assert [e.coords()[0] for e in d.diagonal_entries()] == [Q.one(), Q.one()]
    # already diagonal: unchanged
    h = HermitianForm.diagonal(HAM, [one, HAM.from_field(-3)])
    d2 = diagonalize_hermitian(h)
    assert d2 == h
    # hyperbolic plane over (Q, id)
    FQ = FieldAlgebra(Q)
    hyp = HermitianForm(FQ, [[FQ.zero(), FQ.one()], [FQ.one(), FQ.zero()]])
    dh = diagonalize_hermitian(hyp)
    signs = [e.coords()[0].sign_at(P0) for e in dh.diagonal_entries()]
    assert sorted(signs) == [-1, 1]


def test_diagonalize_split_witness():
    E = ExchangeAlgebra(Q)
    e10 = E.elem((Q.one().value, Q.zero().value))
    h = HermitianForm(E, [[E.zero(), e10.value], [e10.involution().value, E.zero()]])
    res = diagonalize_hermitian(h)
    assert isinstance(res, SplitWitness)
    w = res.element
    assert not w.is_zero()
    assert not w.is_invertible()


def test_matrix_split_witness_is_an_element_of_the_wrapper():
    """A zero divisor met inside the inner algebra of M_2(D) surfaces as a
    zero divisor of M_2(D): the inner witness in the top-left corner."""
    D = QuaternionAlgebra(Q, 1, 1, "orthogonal", [0, 1, 0, 0])
    M = MatrixAlgebra(2, D)
    _, _, j, k = D.basis()
    z = D.zero()
    entry = M.elem((((j + k).value, z), (z, D.one())))
    res = diagonalize_hermitian(HermitianForm.diagonal(M, [entry]))
    assert isinstance(res, SplitWitness)
    w = res.element
    assert w.algebra == M and not w.is_zero()
    assert len(w.coords()) == M.dim
    assert not w.is_invertible()


def test_diagonalize_hermitian_forms_each_row_product_once(monkeypatch):
    """A Schur-complement step on an n x n Gram makes (n-1) + (n-1)^2
    products: 40 on a 5 x 5 Gram with nonzero pivots, where forming
    dinv * g[0][s] once per entry made 2 (n-1)^2 per step, 60 in all."""
    L = F2.adjoin_laurent()
    A = FieldAlgebra(L)
    s2 = L.coerce(F2.generator())
    x = L.generator()
    gram = [
        [(4 + s2 * x if r == c else (r + c) * x + s2 * x * x).value for c in range(5)]
        for r in range(5)
    ]
    h = HermitianForm(A, gram)
    calls = []
    real = FieldAlgebra.mul

    def counted(self, a, b):
        calls.append(1)
        return real(self, a, b)

    monkeypatch.setattr(FieldAlgebra, "mul", counted)
    d = diagonalize_hermitian(h)
    assert d.rank == 5 and len(calls) == 40


def test_diagonalize_preserves_trace_signature():
    rng = random.Random(46)
    done = skipped = 0
    while done < 25:
        field = random_tower(rng, max_depth=1)
        try:
            A = random_algebra(
                rng, field, kinds=("quaternion-conj", "quaternion-orth")
            )
        except SamplingError:
            skipped += 1
            continue
        h = random_hermitian_diagonal(rng, A, rank=2)
        s = random_sym_element(rng, A)
        gram = [list(row) for row in h.gram]
        # congruence: add (second basis vector) * s to the first
        gram[0][0] = A.add(
            gram[0][0],
            A.add(
                A.mul(A.involution(s.value), gram[1][0]),
                A.add(
                    A.mul(gram[0][1], s.value),
                    A.mul(
                        A.involution(s.value), A.mul(gram[1][1], s.value)
                    ),
                ),
            ),
        )
        gram[0][1] = A.add(gram[0][1], A.mul(A.involution(s.value), gram[1][1]))
        gram[1][0] = A.add(gram[1][0], A.mul(gram[1][1], s.value))
        moved = HermitianForm(A, gram)
        d = diagonalize_hermitian(moved)
        if isinstance(d, SplitWitness):
            continue
        t1 = trace_form(h).signature_vector()
        t2 = trace_form(d).signature_vector()
        assert t1.values == t2.values
        done += 1
    assert_skip_rate(skipped, done)


def test_twist_examples():
    o, ia, ja, ka = ORTH.basis()
    h = HermitianForm.diagonal(ORTH, [o])
    t = twist(h, ja)
    assert t.epsilon == -1
    assert t.algebra.kind == "quaternion"
    assert t.algebra.involution_type == "conjugation"
    back = twist(t, t.algebra.elem(ja.value).inverse())
    assert back.epsilon == 1
    assert back.algebra == ORTH
    assert back == h
    # identity twist
    assert twist(h, o) == h


def test_twist_on_other_kinds_needs_a_central_element():
    """Outside ``quaternion`` a twist keeps the algebra, which holds only
    for central elements: 2 over (Q, id) doubles the Gram, while j over the
    unitary quaternions and diag(1, 2) over M_2(Q) are refused."""
    FQ = FieldAlgebra(Q)
    h = HermitianForm.diagonal(FQ, [1, 3])
    t = twist(h, FQ.from_field(2))
    assert t.algebra is FQ and t.epsilon == 1
    assert t == HermitianForm.diagonal(FQ, [2, 6])
    UQ = UnitaryQuaternionAlgebra(Q, -1, -1, -1)
    j = UQ.basis()[4]
    with pytest.raises(MismatchError, match="twist by a non-central element"):
        twist(HermitianForm.diagonal(UQ, [1]), j)
    M = MatrixAlgebra(2, FQ)
    u = M.elem(((Fraction(1), Fraction(0)), (Fraction(0), Fraction(2))))
    with pytest.raises(MismatchError, match="twist by a non-central element"):
        twist(HermitianForm.diagonal(M, [M.elem(M.one())]), u)


def test_twist_round_trip_random():
    rng = random.Random(47)
    done = skipped = 0
    while done < 30:
        field = random_tower(rng, max_depth=1)
        try:
            A = random_algebra(rng, field, kinds=("quaternion-conj", "quaternion-orth"))
        except SamplingError:
            skipped += 1
            continue
        h = random_hermitian_diagonal(rng, A, rank=2)
        if A.involution_type == "conjugation":
            # any invertible pure quaternion is skew under conjugation
            coords = [field.zero()] + [
                field.rational(rng.randint(-2, 2)) for _ in range(3)
            ]
            if all(c.is_zero() for c in coords[1:]):
                continue
            u = A.elem(A.from_coords(coords))
        else:
            # symmetric pure elements, or the twisting quaternion itself
            pures = [s for s in sym_basis(A) if s.coords()[0].is_zero()]
            pures.append(A.elem(A.u))
            u = rng.choice(pures)
        if not u.is_invertible():
            continue
        t = twist(h, u)
        back = twist(t, t.algebra.elem(u.value).inverse())
        assert back.algebra == A and back.epsilon == 1
        assert back == h
        done += 1
    assert_skip_rate(skipped, done)


@pytest.mark.parametrize(
    "field, alpha", [(Q, -3), (F2, F2.generator()), (LX, LX.generator())],
    ids=["Q", "Q(sqrt 2)", "Q((x))"],
)
def test_unitary_quadratic_arithmetic_matches_closed_formulas(field, alpha):
    """Product, inverse and reduced norm of u + v sqrt(alpha) on random
    values, v = 0 among them, against the closed formulas written out
    here: (u1 u2 + alpha v1 v2, u1 v2 + v1 u2), (u, -v) / n and
    n = u^2 - alpha v^2."""
    A = UnitaryQuadraticAlgebra(field, alpha)
    alpha = A.alpha
    assert any(alpha.sign_at(P) < 0 for P in field.orderings())
    rng = random.Random(f"unitary {field.describe()}")

    def draw():
        u, v = (random_element(rng, field, height=4) for _ in range(2))
        roll = rng.random()
        if roll < 0.3:
            v = field.zero()
        elif roll < 0.45:
            u = field.zero()
        return u, v

    real = 0
    for _ in range(40):
        (u1, v1), (u2, v2) = draw(), draw()
        real += v1.is_zero()
        x, y = A.from_coords([u1, v1]), A.from_coords([u2, v2])
        prod = (u1 * u2 + alpha * v1 * v2, u1 * v2 + v1 * u2)
        assert A.mul(x, y) == A.from_coords(prod)
        n = u1 * u1 - alpha * v1 * v1
        assert A.reduced_norm(x) == n
        if A.is_zero(x):
            with pytest.raises(ZeroDivisionError):
                A.inverse(x)
        else:
            assert A.inverse(x) == A.from_coords([u1 / n, -v1 / n])
    assert real >= 5


def test_rho_form_examples():
    FQ = FieldAlgebra(Q)
    c = Q.rational(5)
    assert rho_form(HermitianForm.diagonal(FQ, [c])).entries == (c,)
    UQ = UnitaryQuadraticAlgebra(Q, -1)
    assert rho_form(
        HermitianForm.diagonal(UQ, [UQ.from_field(1)])
    ).entries == QuadraticForm(Q, [1, 1]).entries
    got = rho_form(HermitianForm.diagonal(HAM, [HAM.from_field(c)]))
    assert got.entries == QuadraticForm(Q, [5, 5, 5, 5]).entries


def test_rho_form_additive():
    rng = random.Random(48)
    done = skipped = 0
    while done < 30:
        field = random_tower(rng, max_depth=1)
        try:
            A = random_algebra(
                rng, field, kinds=("field_id", "unitary_quadratic", "quaternion-conj")
            )
        except SamplingError:
            skipped += 1
            continue
        if A.kind == "quaternion" and A.involution_type != "conjugation":
            continue
        h1 = random_hermitian_diagonal(rng, A, rank=1)
        h2 = random_hermitian_diagonal(rng, A, rank=2)
        lhs = rho_form(h1.direct_sum(h2))
        rhs = rho_form(h1) + rho_form(h2)
        assert lhs.entries == rhs.entries
        done += 1
    assert_skip_rate(skipped, done)


def test_trace_form_examples():
    M = MatrixAlgebra(2, FieldAlgebra(Q))
    tf = trace_form(HermitianForm.diagonal(M, [M.elem(M.one())]))
    assert tf.entries == QuadraticForm(Q, [1, 1, 1, 1]).entries
    tf2 = trace_form(HermitianForm.diagonal(HAM, [HAM.basis()[0]]))
    assert tf2.entries == QuadraticForm(Q, [2, 2, 2, 2]).entries
    tf3 = trace_form(HermitianForm.diagonal(ORTH, [ORTH.basis()[0]]))
    x = LX.generator()
    assert tf3.entries == QuadraticForm(LX, [2, 2 * x, 2, 2 * x]).entries
    assert tf3.signature(LX.orderings()[0]) == 4


def test_trace_form_scaling_law():
    """For diagonal forms over conjugation-type kinds the trace-form
    signature is dim(D) times the sum of entry signs, off the nil set."""
    rng = random.Random(49)
    done = skipped = 0
    while done < 40:
        field = random_tower(rng, max_depth=1)
        try:
            A = random_algebra(
                rng, field, kinds=("field_id", "unitary_quadratic", "quaternion-conj")
            )
        except SamplingError:
            skipped += 1
            continue
        from hermstab.signatures import nil_set

        h = random_hermitian_diagonal(rng, A, rank=rng.randint(1, 2))
        tf = trace_form(h)
        lam = A.dim
        nil = nil_set(A)
        for P in field.orderings():
            if P in nil:
                continue
            total = sum(
                e.coords()[0].sign_at(P) for e in h.diagonal_entries()
            )
            assert tf.signature(P) == lam * total
        done += 1
    assert_skip_rate(skipped, done)


def test_morita_flatten_shapes():
    rng = random.Random(50)
    for inner in (FieldAlgebra(Q), HAM):
        g = [inner.elem(inner.one()), inner.from_field(Q.rational(3))]
        M = MatrixAlgebra(2, inner, g)
        h = HermitianForm.diagonal(M, [M.elem(M.one())])
        flat = morita_flatten(h)
        assert flat.algebra == inner
        assert flat.rank == 2
        d = diagonalize_hermitian(flat)
        assert not isinstance(d, SplitWitness)


def test_hermitian_gram_validation():
    one, i, j, k = HAM.basis()
    with pytest.raises(MismatchError):
        HermitianForm(HAM, [[i]])  # i is skew, not symmetric
    with pytest.raises(MismatchError):
        HermitianForm(HAM, [[one, j], [j, one]])  # needs -j below


def _symmetric_and_skew(z):
    return z + z.involution(), z - z.involution()


def test_hermitian_check_catches_every_single_entry_error():
    """Only the entries on and above the diagonal are compared with the
    involution of their mirror, yet a wrong entry on either side of the
    diagonal is rejected, for epsilon = +1 and -1."""
    rng = random.Random(51)
    U = UnitaryQuadraticAlgebra(Q, -1)
    for A in (HAM, ORTH, U, ExchangeAlgebra(Q), UnitaryQuaternionAlgebra(Q, -1, -1, -1)):
        for eps in (1, -1):
            z = [_rand_full_elem(rng, A) for _ in range(6)]
            diag = [_symmetric_and_skew(w)[0 if eps == 1 else 1] for w in z[:3]]
            gram = [[None] * 3 for _ in range(3)]
            for i in range(3):
                gram[i][i] = diag[i]
                for j in range(i + 1, 3):
                    gram[i][j] = z[3 + i + j - 1]
                    gram[j][i] = gram[i][j].involution() * eps
            HermitianForm(A, gram, eps)
            sym_c, skew_c = _symmetric_and_skew(z[0] + A.elem(A.one()))
            assert not sym_c.is_zero() and not skew_c.is_zero()
            for i in range(3):
                for j in range(3):
                    # off the diagonal any nonzero change breaks the mirror;
                    # on it, only a change of the wrong parity does
                    c = skew_c if (i == j) == (eps == 1) else sym_c
                    bad = [list(row) for row in gram]
                    bad[i][j] = bad[i][j] + c
                    with pytest.raises(MismatchError):
                        HermitianForm(A, bad, eps)


def test_zero_pairs_skip_the_involution_but_half_zero_pairs_fail(monkeypatch):
    """A Gram pays one involution per pair (i <= j) with a nonzero entry,
    so a diagonal form pays one per diagonal entry; a pair with 0 on one
    side and a nonzero entry on the other is still rejected, whichever
    side holds the zero, for epsilon = +1 and -1."""
    M = MatrixAlgebra(2, HAM, [HAM.elem(HAM.one()), HAM.from_field(-2)])
    for A in (HAM, ORTH, UnitaryQuaternionAlgebra(Q, -1, -1, -1), M):
        sym = A.elem(A.one())
        calls = []
        involution = type(A).involution

        def counted(self, x):
            calls.append(x)
            return involution(self, x)

        monkeypatch.setattr(type(A), "involution", counted)
        HermitianForm.diagonal(A, [sym, sym, sym])
        assert len(calls) == 3
        monkeypatch.undo()
        z = A.elem(A.zero())
        for eps in (1, -1):
            for i, j in ((0, 1), (1, 0), (0, 2), (2, 1)):
                gram = [[z] * 3 for _ in range(3)]
                gram[i][j] = sym
                with pytest.raises(MismatchError, match="not epsilon-hermitian"):
                    HermitianForm(A, gram, eps)


def test_skew_hermitian_entries():
    one, i, j, k = HAM.basis()
    HermitianForm(HAM, [[i, j], [j, k]], -1)
    HermitianForm.diagonal(HAM, [i], epsilon=-1)
    with pytest.raises(MismatchError):
        HermitianForm.diagonal(HAM, [one], epsilon=-1)  # symmetric, nonzero
    with pytest.raises(MismatchError):
        HermitianForm(HAM, [[i, j], [-j, k]], -1)  # hermitian mirror
    o, ia, ja, ka = ORTH.basis()
    HermitianForm.diagonal(ORTH, [ja], epsilon=-1)  # j is skew for Int(j)conj
    with pytest.raises(MismatchError):
        HermitianForm.diagonal(ORTH, [ia], epsilon=-1)


def test_algebra_json_round_trips():
    rng = random.Random(51)
    algebras = [
        FieldAlgebra(F2),
        ExchangeAlgebra(LX),
        UnitaryQuadraticAlgebra(Q, -1),
        HAM,
        ORTH,
        UnitaryQuaternionAlgebra(Q, -1, -1, -1),
        MatrixAlgebra(2, HAM),
    ]
    for A in algebras:
        assert algebra_from_json(A.to_json()) == A
        assert hash(algebra_from_json(A.to_json())) == hash(A)
        h = random_hermitian_diagonal(rng, A, rank=2)
        assert HermitianForm.from_json(h.to_json()) == h


def test_unknown_json_keys_rejected():
    doc = HAM.to_json()
    doc["extra"] = 1
    with pytest.raises(MismatchError):
        algebra_from_json(doc)


def test_matrix_scaling_inverts_each_entry_once(monkeypatch):
    """The inverse of each scaling entry is computed once, kept for the
    involution, and is what shows the entry invertible."""
    D = QuaternionAlgebra(Q, -1, -1)
    calls = []
    real = QuaternionAlgebra.inverse

    def counted(self, x):
        calls.append(x)
        return real(self, x)

    monkeypatch.setattr(QuaternionAlgebra, "inverse", counted)
    g = [D.from_field(1), D.from_field(-2)]
    M = MatrixAlgebra(2, D, g)
    assert calls == [e.value for e in g]
    assert M._g_inv == (D.one(), D.from_field(Fraction(-1, 2)).value)


@pytest.mark.parametrize("entry", [[0, 0, 0, 0], [1, 1, 0, 0]], ids=["zero", "zero_divisor"])
def test_matrix_scaling_must_be_invertible(entry):
    """Over the split (1, 1)_Q with Int(j)conj, 1 + i is symmetric with
    reduced norm 0: like 0, it is refused as a scaling entry."""
    D = QuaternionAlgebra(Q, 1, 1, "orthogonal", [0, 0, 1, 0])
    e = D.elem(D.from_coords([Q.rational(c) for c in entry]))
    assert e.involution() == e
    with pytest.raises(MismatchError, match="^scaling entries must be invertible$"):
        MatrixAlgebra(2, D, [D.elem(D.one()), e])


@pytest.mark.parametrize(
    "inner, n",
    [(FieldAlgebra(Q), 5), (FieldAlgebra(Q), 6), (FieldAlgebra(Q), 7), (HAM, 5)],
    ids=["Q-id-5", "Q-id-6", "Q-id-7", "H-conj-5"],
)
def test_large_wrappers_skip_pairwise_candidates(inner, n, monkeypatch):
    """For n >= 5 the walk stops after +-1 and +-b_i, since each b_i +- b_j
    has a zero row: it keeps what the full walk of ``Algebra`` keeps once
    filtered by invertibility (and by the repeats of 1 and -1), and it
    computes the symmetric basis only after +-1 are consumed."""
    g = [inner.elem(inner.one())] * (n - 1) + [inner.from_field(-2)]
    M = MatrixAlgebra(n, inner, g)
    one = M.elem(M.one())
    units = (one.value, (-one).value)
    full = [
        x.value
        for pos, x in enumerate(Algebra._reference_values(M, one))
        if not (pos >= 2 and x.value in units) and x.is_invertible()
    ]
    assert [h.gram[0][0] for h in M.reference_candidates] == full
    fresh = MatrixAlgebra(n, inner, g)
    walk = fresh.iter_reference_candidates()
    with monkeypatch.context() as m:
        m.setattr("hermstab.algebras.sym_basis", None)
        assert [next(walk).gram[0][0] for _ in range(2)] == list(units)


def test_cold_report_builds_the_symmetric_basis_once(monkeypatch):
    """Every candidate walk past <1> and <-1> reads the algebra's one
    symmetric basis, ``Algebra.symmetric_basis``: a cold stability report
    on ((1, sqrt 2)_Q(sqrt 2), Int(i)conj), whose reference is not <1>,
    walks the candidates in the reference search and again for the
    probes, and computes the basis once."""
    import hermstab.algebras as algebras
    from hermstab.signatures import reference_search
    from hermstab.stability import stability_report

    calls = []
    real = algebras.sym_basis

    def counted(A):
        calls.append(A)
        return real(A)

    monkeypatch.setattr(algebras, "sym_basis", counted)
    A = QuaternionAlgebra(F2, 1, F2.generator(), "orthogonal", [0, 1, 0, 0])
    stability_report(A)
    assert calls == [A]
    assert reference_search(A).form.gram != ((A.one(),),)
    assert A.symmetric_basis == tuple(real(A))
