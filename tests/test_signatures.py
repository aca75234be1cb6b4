import random
from fractions import Fraction

import pytest

from hermstab.algebras import (
    ExchangeAlgebra,
    FieldAlgebra,
    HermitianForm,
    MatrixAlgebra,
    QuaternionAlgebra,
    UnitaryQuadraticAlgebra,
    UnitaryQuaternionAlgebra,
    rho_form,
    trace_form,
)
from hermstab.fields import FieldTower, MismatchError, harrison_set
from hermstab.signatures import (
    ReferenceForm,
    SearchExhausted,
    going_up_check,
    h_signature,
    local_type,
    nil_set,
    raw_signature,
    reference_search,
    total_signature,
)

from corpus import (
    SamplingError,
    orthogonal_quaternion,
    assert_skip_rate,
    catalogue_corpus,
    random_algebra,
    random_element,
    random_hermitian_diagonal,
    random_nonsquare,
    random_quadratic_extension,
    random_quadratic_form,
    random_sym_element,
    random_tower,
    tower_shapes,
)
from oracles import (
    eager_reference_candidates,
    eager_reference_scan,
    slow_raw_signature,
    stepwise_piecewise_form,
)

Q = FieldTower.rationals()
F2 = Q.adjoin_sqrt(2)
LX = Q.adjoin_laurent()
P0 = Q.orderings()[0]

HAM = QuaternionAlgebra(Q, -1, -1)
ORTH_X = QuaternionAlgebra(LX, LX.generator(), -1, "orthogonal", [0, 0, 1, 0])
A3 = QuaternionAlgebra(F2, -1, -F2.generator())


def test_nil_set_case_table():
    assert nil_set(FieldAlgebra(F2)) == frozenset()
    assert nil_set(ExchangeAlgebra(F2)) == frozenset(F2.orderings())
    assert nil_set(HAM) == frozenset()
    orth = QuaternionAlgebra(Q, -1, -1, "orthogonal", [0, 1, 0, 0])
    assert nil_set(orth) == frozenset(Q.orderings())
    assert nil_set(A3) == frozenset({F2.orderings()[1]})
    assert nil_set(ORTH_X) == frozenset({LX.orderings()[1]})
    uq = UnitaryQuadraticAlgebra(Q, -1)
    assert nil_set(uq) == frozenset()
    assert nil_set(MatrixAlgebra(2, A3)) == nil_set(A3)


def test_nil_equals_harrison_set_for_unitary_kinds():
    """For both unitary kinds, nil orderings are exactly where the centre
    discriminant is positive."""
    rng = random.Random(71)
    done = skipped = 0
    while done < 20:
        field = rng.choice(tower_shapes()[:6])
        if field.depth - 1 > 2:
            continue
        try:
            alpha = random_nonsquare(rng, field)
        except SamplingError:
            skipped += 1
            continue
        if done % 2 == 0:
            A = UnitaryQuadraticAlgebra(field, alpha)
        else:
            a = random_element(rng, field, height=5, nonzero=True, simple=True)
            b = random_element(rng, field, height=5, nonzero=True, simple=True)
            A = UnitaryQuaternionAlgebra(field, a, b, alpha)
        assert nil_set(A) == frozenset(harrison_set(alpha, field))
        done += 1
    assert_skip_rate(skipped, done)


def test_local_types():
    lt = local_type(HAM, P0)
    assert (lt.n, lt.l, lt.nil, lt.route) == (1, 4, False, "diagonal-sum")
    Pp, Pm = LX.orderings()
    lt2 = local_type(ORTH_X, Pp)
    assert (lt2.n, lt2.l, lt2.nil, lt2.route) == (2, 1, False, "split-certificate")
    lt3 = local_type(ORTH_X, Pm)
    assert (lt3.n, lt3.l, lt3.nil) == (1, 4, True)
    lt4 = local_type(ExchangeAlgebra(Q), P0)
    assert lt4.nil
    ltm = local_type(MatrixAlgebra(3, HAM), P0)
    assert (ltm.n, ltm.l) == (3, 4)
    uh = UnitaryQuaternionAlgebra(Q, -1, -1, -1)
    ltu = local_type(uh, P0)
    assert (ltu.n, ltu.l, ltu.nil, ltu.route) == (2, 2, False, "split-certificate")


@pytest.mark.parametrize(
    "A",
    [
        FieldAlgebra(Q),
        ExchangeAlgebra(Q),
        UnitaryQuadraticAlgebra(Q, -1),
        QuaternionAlgebra(Q, -1, -1),
        QuaternionAlgebra(Q, -1, 3, "orthogonal", [0, 0, 1, 0]),
        UnitaryQuaternionAlgebra(Q, -1, -1, -1),
        MatrixAlgebra(2, FieldAlgebra(Q)),
        MatrixAlgebra(2, QuaternionAlgebra(Q, -1, -1)),
    ],
    ids=lambda A: A.kind + ("-" + A.inner.kind if A.kind == "matrix" else ""),
)
def test_local_type_rejects_an_ordering_of_another_field(A):
    """Every kind raises MismatchError for an ordering of Q(sqrt 2) over
    Q, before its memo is read or filled."""
    for P in F2.orderings():
        with pytest.raises(MismatchError):
            local_type(A, P)
    assert A.local_type_memo == {}
    assert local_type(A, P0) is local_type(A, P0)
    assert list(A.local_type_memo) == [P0.path]


def test_local_type_is_decided_once_per_algebra_and_ordering(monkeypatch):
    """A local type is kept on its algebra under the ordering's sign path;
    a matrix wrapper reads its inner algebra's entry, and an equal
    ordering object finds the kept one."""
    import hermstab.signatures as signatures

    decided = []
    real = signatures._local_type

    def counted(A, P):
        decided.append((A.kind, P.path))
        return real(A, P)

    monkeypatch.setattr(signatures, "_local_type", counted)
    D = QuaternionAlgebra(LX, LX.generator(), -1, "orthogonal", [0, 0, 1, 0])
    M = MatrixAlgebra(3, D)
    for _ in range(3):
        for P in FieldTower.from_json(LX.to_json()).orderings():
            inner, outer = local_type(D, P), local_type(M, P)
            assert (outer.nil, outer.n, outer.l, outer.route) == (
                inner.nil, 3 * inner.n, inner.l, inner.route
            )
    paths = [P.path for P in LX.orderings()]
    assert decided == [("quaternion", paths[0]), ("matrix", paths[0]),
                       ("quaternion", paths[1]), ("matrix", paths[1])]


def test_reference_search_examples():
    ref = reference_search(HAM)
    assert ref.form.rank == 1
    assert ref.form.diagonal_entries()[0] == HAM.elem(HAM.one())
    assert ref.deltas == {(): 1}
    ref4 = reference_search(ORTH_X)
    assert ref4.form.diagonal_entries()[0] == ORTH_X.elem(ORTH_X.one())
    refu = reference_search(UnitaryQuadraticAlgebra(Q, -1))
    assert refu.form.diagonal_entries()[0].coords()[0] == Q.one()


def test_h_signature_examples():
    ref = reference_search(HAM)
    h = HermitianForm.diagonal(HAM, [1, 1])
    assert h_signature(HAM, h, ref, P0) == 2
    # cross-check by the trace form with lambda = 4
    assert trace_form(h).signature(P0) == 8
    uq = UnitaryQuadraticAlgebra(Q, -1)
    refu = reference_search(uq)
    hu = HermitianForm.diagonal(uq, [1, -2])
    assert h_signature(uq, hu, refu, P0) == 0
    ref4 = reference_search(ORTH_X)
    h1 = HermitianForm.diagonal(ORTH_X, [ORTH_X.elem(ORTH_X.one())])
    assert h_signature(ORTH_X, h1, ref4, LX.orderings()[0]) == 2
    assert total_signature(ORTH_X, h1, ref4).values == (2, 0)


def test_total_signature_examples():
    ref3 = reference_search(A3)
    h3 = HermitianForm.diagonal(A3, [A3.elem(A3.one())])
    assert total_signature(A3, h3, ref3).values == (1, 0)
    E = ExchangeAlgebra(F2)
    one = E.elem(E.one())
    refe = reference_search(E)
    he = HermitianForm.diagonal(E, [one, one])
    assert total_signature(E, he, refe).values == (0, 0)
    v = total_signature(A3, h3.direct_sum(h3), ref3).values
    assert v == (2, 0)


def test_signature_vanishes_on_nil():
    rng = random.Random(72)
    done = skipped = 0
    while done < 30:
        field = random_tower(rng, max_depth=1)
        try:
            A = random_algebra(rng, field)
            ref = reference_search(A)
            h = random_hermitian_diagonal(rng, A, rank=2)
        except (SamplingError, SearchExhausted):
            skipped += 1
            continue
        vec = total_signature(A, h, ref)
        for P, v in zip(field.orderings(), vec.values):
            if P in nil_set(A):
                assert v == 0
        done += 1
    assert_skip_rate(skipped, done)


def test_jacobson_identity():
    """dim(D) times the normalized signature equals the signature of the
    diagonal evaluation form, with reference <1>, for the division kinds."""
    rng = random.Random(73)
    done = skipped = 0
    while done < 200:
        field = random_tower(rng, max_depth=1)
        try:
            A = random_algebra(
                rng,
                field,
                kinds=("field_id", "unitary_quadratic", "quaternion-conj"),
            )
        except SamplingError:
            skipped += 1
            continue
        one_form = HermitianForm.diagonal(A, [A.elem(A.one())])
        nil = nil_set(A)
        deltas = {P.path: 1 for P in field.orderings() if P not in nil}
        ref = ReferenceForm(A, one_form, deltas)
        h = random_hermitian_diagonal(rng, A, rank=rng.randint(1, 3))
        rho = rho_form(h)
        ell = A.dim
        for P in field.orderings():
            if P in nil:
                continue
            assert ell * h_signature(A, h, ref, P) == rho.signature(P)
        done += 1
    assert_skip_rate(skipped, done)


def test_w_f_linearity():
    rng = random.Random(74)
    done = skipped = 0
    while done < 200:
        field = random_tower(rng, max_depth=1)
        try:
            A = random_algebra(
                rng,
                field,
                kinds=(
                    "field_id",
                    "unitary_quadratic",
                    "quaternion-conj",
                    "quaternion-orth",
                ),
            )
            ref = reference_search(A)
            h = random_hermitian_diagonal(rng, A, rank=rng.randint(1, 2))
        except (SamplingError, SearchExhausted):
            skipped += 1
            continue
        q = random_quadratic_form(rng, field, dim=rng.randint(1, 2))
        qh = h.module_scale(q)
        for P in field.orderings():
            assert h_signature(A, qh, ref, P) == q.signature(P) * h_signature(
                A, h, ref, P
            )
        done += 1
    assert_skip_rate(skipped, done)


def test_additivity():
    rng = random.Random(75)
    done = skipped = 0
    while done < 60:
        field = random_tower(rng, max_depth=1)
        try:
            A = random_algebra(rng, field)
            ref = reference_search(A)
            h1 = random_hermitian_diagonal(rng, A, rank=1)
            h2 = random_hermitian_diagonal(rng, A, rank=2)
        except (SamplingError, SearchExhausted):
            skipped += 1
            continue
        v1 = total_signature(A, h1, ref)
        v2 = total_signature(A, h2, ref)
        v12 = total_signature(A, h1.direct_sum(h2), ref)
        assert v12.values == tuple(a + b for a, b in zip(v1.values, v2.values))
        done += 1
    assert_skip_rate(skipped, done)


def test_reference_change_law():
    """Two references differ by a sign function recovered from the
    signature of one reference against the other."""
    rng = random.Random(76)
    done = skipped = 0
    while done < 40:
        field = random_tower(rng, max_depth=1)
        try:
            A = random_algebra(
                rng,
                field,
                kinds=(
                    "field_id",
                    "unitary_quadratic",
                    "quaternion-conj",
                    "quaternion-orth",
                ),
            )
            ref0 = reference_search(A)
        except (SamplingError, SearchExhausted):
            skipped += 1
            continue
        if not ref0.deltas:
            continue
        # a second reference: scale by a unit with varying signs
        c = random_element(rng, field, height=4, nonzero=True, simple=True)
        form1 = ref0.form.scale_field(c)
        nil = nil_set(A)
        deltas1 = {}
        ok = True
        for P in field.orderings():
            if P in nil:
                continue
            r = raw_signature(A, form1, P)
            if r == 0:
                ok = False
                break
            deltas1[P.path] = 1 if r > 0 else -1
        if not ok:
            continue
        ref1 = ReferenceForm(A, form1, deltas1)
        h = random_hermitian_diagonal(rng, A, rank=2)
        for P in field.orderings():
            if P in nil:
                continue
            s0 = h_signature(A, h, ref0, P)
            s1 = h_signature(A, h, ref1, P)
            dd = ref0.delta(P) * ref1.delta(P)
            assert s0 == dd * s1
            s_ref = h_signature(A, ref1.form, ref0, P)
            assert s_ref != 0
            assert dd == (1 if s_ref > 0 else -1)
        done += 1
    assert_skip_rate(skipped, done)


def test_unit_form_signature_is_unit_on_real_division_kinds():
    """The rank-one unit form has signature +-1 wherever the algebra is
    locally real division (with reference <1> it is exactly +1)."""
    rng = random.Random(77)
    done = skipped = 0
    while done < 60:
        field = random_tower(rng, max_depth=1)
        try:
            A = random_algebra(
                rng,
                field,
                kinds=("field_id", "unitary_quadratic", "quaternion-conj"),
            )
            ref = reference_search(A)
        except (SamplingError, SearchExhausted):
            skipped += 1
            continue
        one_form = HermitianForm.diagonal(A, [A.elem(A.one())])
        for P in field.orderings():
            if P in nil_set(A):
                continue
            assert h_signature(A, one_form, ref, P) in (-1, 1)
        done += 1
    assert_skip_rate(skipped, done)


def test_route_independence_diagonal_vs_trace():
    """Where the diagonal route applies, the trace form divided by the
    local scaling gives the same signature."""
    rng = random.Random(78)
    done = skipped = 0
    while done < 60:
        field = random_tower(rng, max_depth=1)
        try:
            A = random_algebra(
                rng,
                field,
                kinds=("field_id", "unitary_quadratic", "quaternion-conj"),
            )
            ref = reference_search(A)
            h = random_hermitian_diagonal(rng, A, rank=rng.randint(1, 2))
        except (SamplingError, SearchExhausted):
            skipped += 1
            continue
        tf = trace_form(h)
        for P in field.orderings():
            lt = local_type(A, P)
            if lt.nil:
                continue
            assert h_signature(A, h, ref, P) == ref.delta(P) * (
                tf.signature(P) // lt.lam
            )
        done += 1
    assert_skip_rate(skipped, done)


def test_going_up_examples():
    ref = reference_search(HAM)
    h = HermitianForm.diagonal(HAM, [1, 1])
    for Qo in F2.orderings():
        assert going_up_check(HAM, h, ref, F2, Qo)
    # hyperbolic form: both sides vanish
    s = HAM.from_field(Q.rational(3))
    hyp = HermitianForm.diagonal(HAM, [s, -s])
    assert going_up_check(HAM, hyp, ref, F2, F2.orderings()[0])
    # the reference itself
    assert going_up_check(HAM, ref.form, ref, F2, F2.orderings()[1])


def test_going_up_on_a_matrix_wrapper():
    """``MatrixAlgebra.lift_to`` lifts the inner algebra and the scaling:
    over (M_2(D), ad_g), D = ((x, -1)_Q((x)), Int(j)conj), g = diag(1, -2),
    every reference candidate and the reference keep their signatures at
    each extension of each ordering to Q((x))(sqrt 2)."""
    M = MatrixAlgebra(2, ORTH_X, [ORTH_X.elem(ORTH_X.one()), ORTH_X.from_field(-2)])
    L = LX.adjoin_sqrt(2)
    lifted = M.lift_to(L)
    assert lifted.kind == "matrix" and lifted.n == 2 and lifted.field == L
    assert lifted.inner == ORTH_X.lift_to(L)
    assert lifted.g == tuple(ORTH_X.lift_value(v, lifted.inner) for v in M.g)
    ref = reference_search(M)
    first, second = M.reference_pairs[:2]
    forms = [ref.form, first, -first, second]
    for h in forms:
        for Qo in L.orderings():
            assert going_up_check(M, h, ref, L, Qo)


def test_going_up_random():
    rng = random.Random(79)
    done = skipped = 0
    while done < 100:
        field = random_tower(rng, max_depth=1)
        try:
            A = random_algebra(
                rng,
                field,
                kinds=(
                    "field_id",
                    "unitary_quadratic",
                    "quaternion-conj",
                    "quaternion-orth",
                ),
            )
            ref = reference_search(A)
            h = random_hermitian_diagonal(rng, A, rank=rng.randint(1, 2))
            L = random_quadratic_extension(rng, field)
        except (SamplingError, SearchExhausted):
            skipped += 1
            continue
        ups = [Qo for Qo in L.orderings()]
        if not ups:
            continue
        Qo = rng.choice(ups)
        assert going_up_check(A, h, ref, L, Qo)
        done += 1
    assert_skip_rate(skipped, done)


def test_piecewise_reference_assembly():
    """(1, sqrt(2)) with the Int(i) involution: every rank-one candidate
    has a vanishing signature at one of the two split orderings, so the
    reference is assembled from one-ordering Pfister pieces."""
    A = QuaternionAlgebra(F2, 1, F2.generator(), "orthogonal", [0, 1, 0, 0])
    targets = [P for P in F2.orderings() if P not in nil_set(A)]
    assert len(targets) == 2
    for h in A.reference_pairs:
        for cand in (h, -h):
            assert any(raw_signature(A, cand, P) == 0 for P in targets)
    ref = reference_search(A)
    assert ref.form.rank == 4
    for P in targets:
        assert raw_signature(A, ref.form, P) != 0
        assert h_signature(A, ref.form, ref, P) > 0


@pytest.mark.parametrize(
    "A",
    [
        QuaternionAlgebra(LX, LX.generator(), 1, "orthogonal", [0, 0, 1, 0]),
        QuaternionAlgebra(F2, 1, F2.generator(), "orthogonal", [0, 1, 0, 0]),
    ],
    ids=["x_1_int_j", "1_sqrt2_int_i"],
)
def test_piecewise_reference_matches_stepwise_assembly(monkeypatch, A):
    """The reference fallback's one assembly gives the form that scaling
    each piece by its Pfister form and summing gives."""
    import hermstab.signatures as signatures

    calls = []
    real = signatures.piecewise_form

    def recording(field, pieces):
        out = real(field, pieces)
        calls.append((field, list(pieces), out))
        return out

    monkeypatch.setattr(signatures, "piecewise_form", recording)
    ref = reference_search(A)
    [(field, pieces, out)] = calls
    assert ref.form is out and [pad for _, _, pad in pieces] == [0, 0]
    expected = stepwise_piecewise_form(field, pieces)
    assert (out.gram, out.epsilon) == (expected.gram, expected.epsilon)
    assert out.to_json() == expected.to_json()


def _reference_oracle_algebras():
    """Every kind over towers of depth <= 2, plus the M2 and M3 wrappers
    that ``invariance_suite`` builds, with scaling (1, ..., 1, -2)."""
    F2X = F2.adjoin_laurent()
    LXY = LX.adjoin_laurent()
    out = []
    for field in (Q, F2, LX, F2X, LXY):
        t = field.generator() if field.depth > 1 else field.rational(3)
        out += [
            FieldAlgebra(field),
            ExchangeAlgebra(field),
            UnitaryQuadraticAlgebra(field, -1),
            UnitaryQuadraticAlgebra(field, -t),
            QuaternionAlgebra(field, -1, -1),
            QuaternionAlgebra(field, -1, t),
            QuaternionAlgebra(field, t, -1, "orthogonal", [0, 0, 1, 0]),
            QuaternionAlgebra(field, -1, -t, "orthogonal", [0, 1, 0, 0]),
            UnitaryQuaternionAlgebra(field, -1, -1, -1),
        ]
    out.append(QuaternionAlgebra(F2, 1, F2.generator(), "orthogonal", [0, 1, 0, 0]))
    for inner, sizes in ((HAM, (2, 3)), (ORTH_X, (2,)), (FieldAlgebra(F2X), (2, 3))):
        for n in sizes:
            g = [inner.elem(inner.one())] * (n - 1) + [inner.from_field(-2)]
            out.append(MatrixAlgebra(n, inner, g))
    return out


def test_reference_search_matches_eager_scan():
    """The lazy candidate walk picks the same form and deltas as a scan
    over all candidates built eagerly by an independent enumeration, which
    keeps each +- pair whole: the walk is its first members."""
    past_identity = piecewise = 0
    for A in _reference_oracle_algebras():
        candidates = eager_reference_candidates(A)
        assert A.reference_pairs == tuple(candidates[::2]), A.describe()
        ref = reference_search(A)
        if nil_set(A) == frozenset(A.field.orderings()):
            assert (ref.form.rank, ref.deltas) == (0, {})
            continue
        hit = eager_reference_scan(A, candidates)
        if hit is None:
            assert ref.form.rank > 1, A.describe()
            piecewise += 1
            continue
        assert (ref.form, ref.deltas) == hit, A.describe()
        past_identity += candidates.index(hit[0]) > 1
    assert past_identity >= 3 and piecewise >= 1


def test_reference_search_stops_at_the_identity(monkeypatch):
    """When <1> is a reference, the symmetric basis is never computed."""
    import hermstab.algebras as algebras

    def no_basis(A):
        raise AssertionError("sym_basis called")

    monkeypatch.setattr(algebras, "sym_basis", no_basis)
    A = QuaternionAlgebra(Q, -1, -1)
    ref = reference_search(A)
    assert ref.form == HermitianForm.diagonal(A, [A.elem(A.one())])
    with pytest.raises(AssertionError, match="sym_basis called"):
        A.reference_pairs


def test_negative_candidates_have_negated_signatures():
    """For each first member h of a +- pair, -h is the form on the
    negated value, keeps the entry norms that a fresh form computes, and
    its total signature, read on that fresh form with empty memos and on
    -h, is minus h's.  On seeded draws of every catalogue kind and of
    ``random_wrapper``."""
    algebras, skipped = catalogue_corpus("pairs", 30)
    kinds = set()
    for A in algebras:
        try:
            ref = reference_search(A)
        except SearchExhausted:
            skipped += 1
            continue
        for h in A.reference_pairs:
            neg = -h
            (x,) = h.diagonal_entries()
            fresh = HermitianForm.diagonal(A, [-x])
            assert neg.gram == fresh.gram
            if A.kind in ("quaternion", "unitary_quaternion"):
                assert neg.entry_norms() == fresh.entry_norms()
            minus = [-v for v in total_signature(A, h, ref).values]
            assert list(total_signature(A, fresh, ref).values) == minus, A.describe()
            assert list(total_signature(A, neg, ref).values) == minus
        kinds.add(A.kind)
    assert kinds == {
        "field_id", "exchange", "unitary_quadratic", "quaternion", "unitary_quaternion", "matrix"
    }
    assert_skip_rate(skipped, len(algebras))


def test_epsilon_minus_one_rejected():
    one, i, j, k = HAM.basis()
    skew = HermitianForm.diagonal(HAM, [i], epsilon=-1)
    ref = reference_search(HAM)
    with pytest.raises(Exception):
        h_signature(HAM, skew, ref, P0)


def _random_symmetric_gram(rng, field, n, zero_diagonal):
    gram = [[field.zero()] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if i == j and zero_diagonal:
                continue
            gram[i][j] = gram[j][i] = random_element(rng, field, height=4, simple=True)
    return gram


def _singular_grams(rng, field, gram):
    """A zero summand, and a row and column repeating an earlier one."""
    n = len(gram)
    zero = field.zero()
    yield [row + [zero] for row in gram] + [[zero] * (n + 1)]
    t = rng.randrange(n)
    yield [row + [row[t]] for row in gram] + [gram[t] + [gram[t][t]]]


@pytest.mark.parametrize("shape", ["Q", "Q(sqrt 2)", "Q((x))", "Q(sqrt 2)((x))((y))"])
def test_field_id_route_matches_congruence_diagonalization(shape):
    """Over (F, id) the signature route is hermitian elimination; it must
    agree with congruence diagonalization of the symmetric Gram matrix at
    every ordering, and both must refuse the same singular matrices."""
    from hermstab.quadratic import SingularFormError
    from oracles import diagonalize_gram

    field = {
        "Q": Q,
        "Q(sqrt 2)": F2,
        "Q((x))": LX,
        "Q(sqrt 2)((x))((y))": F2.adjoin_laurent().adjoin_laurent(),
    }[shape]
    A = FieldAlgebra(field)
    rng = random.Random(shape)
    max_rank = 2 if field.depth > 2 else 4  # exact elimination grows fast at depth 3
    compared = singular = 0
    for trial in range(12):
        gram = _random_symmetric_gram(
            rng, field, rng.randint(1, max_rank), zero_diagonal=trial % 3 == 0
        )
        grams = [(gram, False)] + [(g, True) for g in _singular_grams(rng, field, gram)]
        for g, must_be_singular in grams:
            h = HermitianForm(A, [[x.value for x in row] for row in g])
            try:
                q = diagonalize_gram(field, g)
            except SingularFormError:
                singular += 1
                for P in field.orderings():
                    with pytest.raises(SingularFormError):
                        raw_signature(A, h, P)
                continue
            assert not must_be_singular
            for P in field.orderings():
                assert raw_signature(A, h, P) == q.signature(P), (shape, P.name())
            compared += 1
    assert compared >= 8 and singular >= 24


def _memo_cases():
    """(algebra, forms) for every catalogue kind and every route: the
    trace-form, diagonal-sum and split-certificate routes, nil orderings,
    matrix wrappers over the diagonal-sum and split-certificate routes,
    and split-certificate kinds over Laurent towers."""
    LXY = LX.adjoin_laurent()
    algebras = [
        FieldAlgebra(F2),
        ExchangeAlgebra(LX),
        UnitaryQuadraticAlgebra(F2, -1),
        A3,
        QuaternionAlgebra(LXY, LXY.generator(1), -1, "orthogonal", [0, 0, 1, 0]),
        UnitaryQuaternionAlgebra(LX, -1, LX.generator(), -1),
        MatrixAlgebra(2, HAM, [HAM.elem(HAM.one()), HAM.from_field(-2)]),
        MatrixAlgebra(2, ORTH_X),
    ]
    rng = random.Random(83)
    for A in algebras:
        forms = [c for h in A.reference_pairs[:2] for c in (h, -h)]
        for rank in (1, 2):
            forms.append(random_hermitian_diagonal(rng, A, rank))
        # a full 2 x 2 Gram [[s, b], [sigma(b), t]], b not symmetric when
        # the algebra allows: b = s1 * s2 - s2 * s1 + s1; not over matrix
        # wrappers, whose forms already flatten to non-diagonal Grams and
        # whose full Grams take seconds to eliminate
        if A.kind != "matrix":
            s, t, s1, s2 = (random_sym_element(rng, A).value for _ in range(4))
            b = A.add(A.sub(A.mul(s1, s2), A.mul(s2, s1)), s1)
            forms.append(HermitianForm(A, [[s, b], [A.involution(b), t]]))
        forms.append(forms[0].direct_sum(forms[-1]))
        yield A, forms


def test_route_memo_matches_fresh_forms():
    """Each form evaluated twice at every ordering (the second pass reads
    the memo) equals a fresh form with the same Gram evaluated once."""
    routes = set()
    for A, forms in _memo_cases():
        orderings = A.field.orderings()
        routes.update(local_type(A, P).route for P in orderings)
        for h in forms:
            want = [
                raw_signature(A, HermitianForm(A, h.gram, h.epsilon), P)
                for P in orderings
            ]
            for _ in range(2):
                assert [raw_signature(A, h, P) for P in orderings] == want, A.describe()
    assert routes == {None, "trace-form", "diagonal-sum", "split-certificate"}


def test_route_memo_keeps_no_failure(monkeypatch):
    """A certificate search that fails once leaves nothing in the memo:
    the next call on the same form object returns the true value and
    keeps the form's diagonal under the ordering-free key and the value
    under the ordering's sign path."""
    import hermstab.signatures as signatures
    from hermstab.splitting import find_certificate

    A = ORTH_X
    P = LX.orderings()[0]
    h = HermitianForm.diagonal(A, [A.one(), A.from_field(3)])
    want = raw_signature(A, HermitianForm(A, h.gram), P)
    failures = []

    def fails_once(*args):
        if not failures:
            failures.append(args)
            raise SearchExhausted("no certificate this time")
        return find_certificate(*args)

    monkeypatch.setattr(signatures, "find_certificate", fails_once)
    with pytest.raises(SearchExhausted):
        raw_signature(A, h, P)
    assert h.route_memo == {} and failures
    assert raw_signature(A, h, P) == want
    assert list(h.route_memo) == [None, P.path]


def _count_calls(monkeypatch, owner, name):
    """Count the calls of ``owner.name`` wherever hermstab imported it."""
    import sys

    fn = getattr(owner, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("hermstab.") and getattr(mod, name, None) is fn:
            monkeypatch.setattr(mod, name, counted)
    return calls


def _deep_algebra(workload):
    """The algebra of a deep perfbench workload: deep_orth's (x, -1) with
    Int(j)conj over Q((x))((y)), or deep_conj's (-1, x) with conjugation
    over Q(sqrt 2)((x))((y))."""
    if workload == "deep_orth":
        F = LX.adjoin_laurent()
        return QuaternionAlgebra(F, F.generator(1), -1, "orthogonal", [0, 0, 1, 0])
    F = F2.adjoin_laurent().adjoin_laurent()
    return QuaternionAlgebra(F, -1, F.generator(2))


@pytest.mark.parametrize("workload, forms", [("deep_orth", 9), ("deep_conj", 1)])
def test_stability_report_eliminates_each_form_once(monkeypatch, workload, forms):
    """A cold stability report fills each form's route memo once, whatever
    the route and however many orderings read it.  The reference search
    and the probes share one form per candidate value, so <1> is read
    from one diagonal, and they read only the first member of each +-
    pair, so no negative is read.  Its probe forms are all diagonal, so
    none is eliminated: the report makes no ``diagonalize_hermitian``
    call."""
    import hermstab.algebras as algebras
    import hermstab.signatures as signatures
    from hermstab.stability import stability_report

    A = _deep_algebra(workload)
    eliminations = _count_calls(monkeypatch, algebras, "diagonalize_hermitian")
    diagonal = signatures._diagonal
    seen = []  # holding each form, so that ids stay unique

    def recorded(A, h, split):
        seen.append(h)
        return diagonal(A, h, split)

    monkeypatch.setattr(signatures, "_diagonal", recorded)
    stability_report(A)
    assert len(seen) == len({id(h) for h in seen}) == forms
    assert eliminations == []


def test_cold_deep_orth_report_reads_each_pair_once(monkeypatch):
    """A cold deep_orth stability report reads each (form, ordering) pair
    once: the reference search, ``image_lattice`` and ``h0_search`` share
    the candidate forms, and the route memo keeps each value read, so
    ``SplittingCertificate.diagonal_signature`` runs 18 times, once per
    pair: nine first members of +- pairs at two orderings."""
    from hermstab.splitting import SplittingCertificate
    from hermstab.stability import stability_report

    real = SplittingCertificate.diagonal_signature
    reads = []  # holding each form, so that ids stay unique

    def recorded(cert, h):
        reads.append((h, cert.ordering.path))
        return real(cert, h)

    monkeypatch.setattr(SplittingCertificate, "diagonal_signature", recorded)
    stability_report(_deep_algebra("deep_orth"))
    assert len(reads) == len({(id(h), path) for h, path in reads}) == 18


def test_dense_form_is_eliminated_once_over_the_algebra(monkeypatch):
    """A dense 2 x 2 Gram over deep_orth's algebra, read at both non-nil
    orderings (twice each), is eliminated once over the algebra and never
    carried to a split model."""
    import hermstab.algebras as algebras
    import hermstab.splitting as splitting

    A = _deep_algebra("deep_orth")
    F = A.field
    x, y = F.generator(1), F.generator(2)
    o, z = F.one(), F.zero()
    s = A.from_coords([o, x, z, -o])
    t = A.from_coords([2 * o, o, z, y])
    b = A.from_coords([o, -o, x, o])
    h = HermitianForm(A, [[s, b], [A.involution(b), t]])
    targets = [P for P in F.orderings() if not local_type(A, P).nil]
    eliminations = _count_calls(monkeypatch, algebras, "diagonalize_hermitian")
    transports = _count_calls(monkeypatch, splitting, "transport_form")
    values = [raw_signature(A, h, P) for P in targets * 2]
    # 4 at both orderings is also what ``slow_raw_signature`` gives, in
    # about 2 s per ordering
    assert len(targets) == 2 and values == [4, 4, 4, 4]
    assert len(eliminations) == 1 and transports == []


def test_found_dense_form_finishes_from_the_cli():
    """``hermstab signature`` on the 2 x 2 form [[s, b], [sigma(b), t]]
    over ((y, -x)_Q((x))((y)), Int(j)conj), with s = 1 + i - 2k,
    t = -1 + i - 2k and b = -2 - i + 4y j - k, exits 0 within 20 s and
    prints 0 at each of its 4 orderings; carried to the split model at
    each ordering, it ran past 30 s in the Laurent gcd.  Its first entry
    <s> alone reads 2, 0 (nil), 0, 0, as the slow route gives."""
    import json
    import os
    import subprocess
    import sys

    F = LX.adjoin_laurent()
    x, y = F.generator(1), F.generator(2)
    A = QuaternionAlgebra(F, y, -x, "orthogonal", [0, 0, 1, 0])
    o, z = F.one(), F.zero()
    s = A.from_coords([o, o, z, -2 * o])
    t = A.from_coords([-o, o, z, -2 * o])
    b = A.from_coords([-2 * o, -o, 4 * y, -o])
    h = HermitianForm(A, [[s, b], [A.involution(b), t]])
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.pathsep.join(
        p for p in (os.path.join(root, "src"), os.environ.get("PYTHONPATH")) if p
    )
    argv = [sys.executable, "-m", "hermstab", "--json", "signature"]
    argv += ["--algebra", json.dumps(A.to_json()), "--form", json.dumps(h.body_to_json())]
    proc = subprocess.run(
        argv, capture_output=True, env={**os.environ, "PYTHONPATH": path}, timeout=20
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert json.loads(proc.stdout)["values"] == [0, 0, 0, 0]
    rank_one = HermitianForm.diagonal(A, [h.entry(0, 0)])
    orderings = A.field.orderings()
    assert [local_type(A, P).nil for P in orderings] == [False, True, False, False]
    values = [raw_signature(A, rank_one, P) for P in orderings]
    assert values == [slow_raw_signature(A, rank_one, P) for P in orderings] == [2, 0, 0, 0]


def test_zero_divisor_pivot_falls_back_to_the_split_model(monkeypatch):
    """Over the split (1, 1)_Q with Int(i)conj, eliminating
    [[-2 - 2j, 1], [1, 0]] meets the zero divisor -2 - 2j as its first
    pivot, so elimination over the algebra gives a SplitWitness.  That
    form alone is carried to the split model: one ``transport_form``
    call per read, and the slow route's value, 0."""
    import hermstab.splitting as splitting
    from hermstab.algebras import SplitWitness, diagonalize_hermitian

    A = QuaternionAlgebra(Q, 1, 1, "orthogonal", [0, 1, 0, 0])
    one = A.one()
    d = A.from_coords([Q.rational(-2), Q.zero(), Q.rational(-2), Q.zero()])
    h = HermitianForm(A, [[d, one], [one, A.zero()]])
    assert isinstance(diagonalize_hermitian(h), SplitWitness)
    transports = _count_calls(monkeypatch, splitting, "transport_form")
    value = raw_signature(A, h, P0)
    assert len(transports) == 1
    assert value == 0 == slow_raw_signature(A, HermitianForm(A, h.gram), P0)


def test_cold_deep_orth_report_does_ordering_free_work_once(monkeypatch):
    """One cold stability report of (x, -1) with Int(j)conj over
    Q((x))((y)) decides 4 local types, one per ordering; tests its
    candidates by reduced norms and inverts no quaternion; takes at most
    36 reduced norms, one per candidate value and one per rank-one form;
    builds one split model, whose transport images and det G are built
    once for both certificates; and still verifies both certificates."""
    from functools import cached_property

    import hermstab.signatures as signatures
    import hermstab.splitting as splitting
    from hermstab.stability import stability_report

    decided = _count_calls(monkeypatch, signatures, "_local_type")
    norms, inverses = _count_norms_and_inverses(monkeypatch)
    built = {"transport_images": [], "det": []}
    for name, calls in built.items():
        real = splitting.SplitModel.__dict__[name].func

        def counted(self, _real=real, _calls=calls):
            _calls.append(self)
            return _real(self)

        prop = cached_property(counted)
        prop.__set_name__(splitting.SplitModel, name)
        monkeypatch.setattr(splitting.SplitModel, name, prop)
    verified = []
    verify = splitting._verify_impl

    def counted_verify(cert):
        verified.append(cert)
        return verify(cert)

    monkeypatch.setattr(splitting, "_verify_impl", counted_verify)
    F = LX.adjoin_laurent()
    A = QuaternionAlgebra(F, F.generator(1), -1, "orthogonal", [0, 0, 1, 0])
    stability_report(A)
    assert len(decided) == len(F.orderings()) == 4
    assert inverses == [] and 0 < len(norms) <= 36
    (model,) = A.split_model_memo.values()
    assert built == {"transport_images": [model], "det": [model]}
    certs = [cert for cert, _ in A.certificate_memo.values()]
    assert len(certs) == 2 and all(cert._split is model for cert in certs)
    assert len(verified) == 2 and set(map(id, verified)) == set(map(id, certs))


def _count_norms_and_inverses(monkeypatch):
    """Record the values whose reduced norm, and whose inverse, a
    quaternion kind computes."""
    from hermstab.algebras import _QuaternionCore

    norms, inverses = [], []
    nrd, inverse = _QuaternionCore._nrd, _QuaternionCore.inverse

    def counted_nrd(self, x):
        norms.append(x)
        return nrd(self, x)

    def counted_inverse(self, x):
        inverses.append(x)
        return inverse(self, x)

    monkeypatch.setattr(_QuaternionCore, "_nrd", counted_nrd)
    monkeypatch.setattr(_QuaternionCore, "inverse", counted_inverse)
    return norms, inverses


def test_reference_search_inverts_each_candidate_once(monkeypatch):
    """Over (-1, -1)_Q the reference search tests each candidate value
    once, by its reduced norm, to see that it is invertible, and inverts
    nothing; reading the rank-one candidate's signature takes no norm."""
    A = QuaternionAlgebra(Q, -1, -1)
    norms, inverses = _count_norms_and_inverses(monkeypatch)
    ref = reference_search(A)
    assert norms == [A.one()] and inverses == []
    assert ref.form.gram == ((A.one(),),)


def test_stability_report_tests_each_candidate_once(monkeypatch):
    """Over (-1, -1)_Q a stability report tests the invertibility of each
    candidate value once: the reference search and the probes walk one
    candidate sequence, so the reduced norm of <1> is taken once, and
    they read only the first member of each +- pair, so that of -1 is not
    taken; nothing is inverted."""
    from hermstab.stability import stability_report

    A = QuaternionAlgebra(Q, -1, -1)
    norms, inverses = _count_norms_and_inverses(monkeypatch)
    stability_report(A)
    assert norms == [A.one()] and inverses == []
    assert A.reference_pairs[0] is reference_search(A).form


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_elimination_inverts_each_pivot_once(monkeypatch, n):
    """An n x n Gram over a field whose diagonal pivots are all invertible
    costs exactly n inverses."""
    from hermstab.algebras import diagonalize_hermitian

    A = FieldAlgebra(LX)
    x = LX.generator()
    gram = [[(1 + x) ** (i + j) + (i == j) for j in range(n)] for i in range(n)]
    h = HermitianForm(A, [[e.value for e in row] for row in gram])
    inverses = []
    inverse = FieldAlgebra.inverse

    def counted(self, v):
        inverses.append(v)
        return inverse(self, v)

    monkeypatch.setattr(FieldAlgebra, "inverse", counted)
    diag = diagonalize_hermitian(h)
    assert diag.rank == n and len(inverses) == n



def _simple(rng, F):
    """A monomial c * g, c = +-1, +-2 or +-1/2 and g a product of tower
    generators: elimination over a square-root extension by such values
    stays cheap on Laurent towers."""
    c = F.rational(rng.choice([1, 2, Fraction(1, 2)]) * rng.choice([1, -1]))
    for g in F.generators():
        if rng.random() < 0.5:
            c = c * g
    return c


def _oracle_kinds(rng, F):
    """Over F, each with its symmetric zero divisor or None: a random
    orthogonal quaternion algebra, a split one, the same for the unitary
    kind, a matrix wrapper of each split one, and one algebra of each
    kind read on the ``trace-form`` and ``diagonal-sum`` routes.
    Parameters have no denominators, which keeps Laurent arithmetic
    cheap."""
    while True:
        try:
            orth = orthogonal_quaternion(
                F, _simple(rng, F), _simple(rng, F),
                [F.zero()] + [F.rational(rng.randint(-2, 2)) for _ in range(3)],
            )
            break
        except (SamplingError, MismatchError):
            continue
    alpha = _simple(rng, F)
    while alpha.is_square():
        alpha = _simple(rng, F)
    if all(alpha.sign_at(P) > 0 for P in F.orderings()):
        alpha = -alpha  # negative somewhere, so some ordering is non-nil
    unitary = UnitaryQuaternionAlgebra(F, _simple(rng, F), _simple(rng, F), alpha)
    # (t^2, b) with Int(j)conj: t + i is symmetric with Nrd t^2 - a = 0
    t = F.rational(rng.randint(1, 3))
    split_orth = QuaternionAlgebra(F, t * t, _simple(rng, F), "orthogonal", [0, 0, 1, 0])
    zd_orth = split_orth.elem(split_orth.from_coords([t, F.one(), F.zero(), F.zero()]))
    # (1/alpha, b) over F(sqrt alpha): 1 + sqrt(alpha) i is symmetric with
    # Nrd 1 - alpha / alpha = 0
    split_unitary = UnitaryQuaternionAlgebra(F, alpha.inverse(), _simple(rng, F), alpha)
    z, o = F.zero(), F.one()
    zd_unitary = split_unitary.elem(split_unitary.from_coords([o, z, z, o, z, z, z, z]))
    out = [(orth, None), (unitary, None), (split_orth, zd_orth), (split_unitary, zd_unitary)]
    for D, zd in out[2:]:
        g = [D.elem(D.one()), D.from_field(_simple(rng, F))]
        out.append((MatrixAlgebra(2, D, g), zd))
    m = _simple(rng, F)
    definite = QuaternionAlgebra(F, -m * m, -1)  # division at every ordering
    g = [definite.elem(definite.one()), definite.from_field(_simple(rng, F))]
    out += [
        (FieldAlgebra(F), None),
        (UnitaryQuadraticAlgebra(F, alpha), None),
        (definite, None),
        (MatrixAlgebra(2, definite, g), None),
    ]
    return out


def _oracle_entry(rng, A, zd):
    """A symmetric entry of A: invertible, unrestricted, zero, or the zero
    divisor ``zd``; over a matrix wrapper, a diagonal matrix of such
    entries of the inner algebra."""
    if A.kind == "matrix":
        D = A.inner
        pair = [_oracle_entry(rng, D, zd).value for _ in range(2)]
        return A.elem(((pair[0], D.zero()), (D.zero(), pair[1])))
    roll = rng.random()
    if roll < 0.15:
        return A.elem(A.zero())
    if roll < 0.3 and zd is not None:
        return zd if rng.random() < 0.5 else zd * A.field.rational(-2)
    return random_sym_element(rng, A, invertible=roll < 0.8)


def _outcome(route, A, h, P):
    try:
        return route(A, h, P)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


def _dense_gram(rng, A, zd, k):
    """A k x k hermitian Gram over A that is not diagonal: entries of
    ``_oracle_entry`` on the diagonal; above it such an entry, or the
    product of two, which need not be symmetric."""
    g = [[A.zero()] * k for _ in range(k)]
    for i in range(k):
        g[i][i] = _oracle_entry(rng, A, zd).value
        for j in range(i + 1, k):
            b = _oracle_entry(rng, A, zd)
            if rng.random() < 0.6:
                b = b * _oracle_entry(rng, A, zd)
            g[i][j], g[j][i] = b.value, A.involution(b.value)
    if all(A.is_zero(g[i][j]) for i in range(k) for j in range(k) if i != j):
        g[0][1] = g[1][0] = A.one()
    return HermitianForm(A, g)


@pytest.mark.parametrize(
    "F, batches, dense",
    [
        (Q, 2, (2, 3)),
        (F2, 2, (2, 3)),
        (LX, 2, (2,)),
        (F2.adjoin_laurent(), 2, ()),
        (LX.adjoin_laurent(), 1, ()),
    ],
    ids=["Q", "Q(s2)", "Q((x))", "Q(s2)((x))", "Q((x))((y))"],
)
def test_diagonal_reading_matches_slow_route(F, batches, dense):
    """On diagonal forms of rank 1-3 over every route's kinds (zero and
    zero divisor entries included), reading the Gram entry by entry gives the
    value or the exception, message included, of transport and
    elimination (``oracles.slow_raw_signature``), at every ordering.  Over
    towers of depth <= 2 a full hermitian entry over a matrix wrapper is
    compared too.  Dense k x k Grams, k in ``dense``, read from one
    elimination over the algebra (a zero-divisor pivot falls back to the
    split model) are compared the same way; the sizes stop where the slow
    route still finishes.  Over Q((x))((y)) one batch of algebras is
    drawn: elimination there can stall in the Laurent gcd (ROADMAP item
    2), which the entry-by-entry reading never runs."""
    from hermstab.quadratic import SingularFormError

    rng = random.Random(f"diagonal-oracle-{F.describe()}")
    dense_rng = random.Random(f"dense-oracle-{F.describe()}")
    seen = {"nonzero": 0, "singular": 0, "routes": set(), "dense": set()}
    kinds = [pair for _ in range(batches) for pair in _oracle_kinds(rng, F)]
    for A, zd in kinds:
        forms = [
            HermitianForm.diagonal(
                A, [_oracle_entry(rng, A, zd) for _ in range(rng.randint(1, 3))]
            )
            for _ in range(3)
        ]
        if A.kind == "matrix" and F.depth <= 2:
            forms.append(HermitianForm.diagonal(A, [random_sym_element(rng, A)]))
        forms += [_dense_gram(dense_rng, A, zd, k) for k in dense for _ in range(2)]
        for h in forms:
            for P in F.orderings():
                fast = _outcome(raw_signature, A, h, P)
                assert fast == _outcome(slow_raw_signature, A, h, P), (A, h, P)
                if isinstance(fast, int):
                    seen["nonzero"] += fast != 0
                    seen["routes"].add((A.kind, local_type(A, P).route))
                    if fast != 0 and not h.is_diagonal():
                        seen["dense"].add(local_type(A, P).route)
                else:
                    assert fast[0] is SingularFormError, fast
                    seen["singular"] += 1
    assert seen["nonzero"] and seen["singular"]
    if dense:
        assert seen["dense"] >= {"split-certificate", "diagonal-sum"}, seen["dense"]
    split, diagonal_sum = "split-certificate", "diagonal-sum"
    assert seen["routes"] >= {
        ("field_id", "trace-form"),
        ("unitary_quadratic", diagonal_sum),
        ("quaternion", diagonal_sum),
        ("quaternion", split),
        ("unitary_quaternion", split),
        ("matrix", diagonal_sum),
        ("matrix", split),
    }


def test_wrapper_form_is_flattened_once(monkeypatch):
    """<1> over M_2(D), D deep_orth's (x, -1) with Int(j)conj over
    Q((x))((y)), is flattened once: its reduced norms, 2, are taken once
    for both non-nil orderings, not once per ordering."""
    F = LX.adjoin_laurent()
    D = QuaternionAlgebra(F, F.generator(1), -1, "orthogonal", [0, 0, 1, 0])
    M = MatrixAlgebra(2, D)
    h = HermitianForm.diagonal(M, [M.elem(M.one())])
    norms, _ = _count_norms_and_inverses(monkeypatch)
    targets = [P for P in F.orderings() if not local_type(M, P).nil]
    values = [raw_signature(M, h, P) for P in targets]
    assert len(targets) == 2 and len(norms) == 2
    assert values == [slow_raw_signature(M, h, P) for P in targets]
