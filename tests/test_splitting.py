import random
from dataclasses import replace
from itertools import islice

import pytest

from hermstab.algebras import (
    FieldAlgebra,
    HermitianForm,
    MatrixAlgebra,
    QuaternionAlgebra,
    SplitWitness,
    UnitaryQuaternionAlgebra,
    diagonalize_hermitian,
    morita_flatten,
    trace_form,
)
from hermstab.fields import FieldTower, Ordering
from hermstab.signatures import local_type, nil_set
from hermstab.splitting import (
    BudgetExhausted,
    PreconditionNil,
    SplittingCertificate,
    _certificates,
    _phi,
    find_certificate,
    transport_form,
    verify_certificate,
)

from corpus import (
    SamplingError,
    assert_skip_rate,
    orthogonal_quaternion,
    random_element,
    random_hermitian_diagonal,
    random_nonsquare,
    random_sym_element,
    tower_shapes,
)
from oracles import (
    dense_datum_holds,
    dense_quaternion_mul,
    dense_phi,
    dense_transport_gram,
    inverts,
    slow_involution_datum,
    slow_raw_signature,
    slow_split_data,
)

Q = FieldTower.rationals()
LX = Q.adjoin_laurent()
LXY = LX.adjoin_laurent()
F2 = Q.adjoin_sqrt(2)
P0 = Q.orderings()[0]

ORTH = QuaternionAlgebra(LX, LX.generator(), -1, "orthogonal", [0, 0, 1, 0])


def fresh_orth():
    """ORTH as a new instance, whose memos are empty."""
    return QuaternionAlgebra(LX, LX.generator(), -1, "orthogonal", [0, 0, 1, 0])


def fresh_deep_orth():
    """deep_orth's algebra (x, -1) with Int(j)conj over Q((x))((y)), new."""
    return QuaternionAlgebra(LXY, LXY.generator(1), -1, "orthogonal", [0, 0, 1, 0])


def test_certificate_examples():
    # orthogonal (x, -1) at x -> 0+: witness squares to a positive m
    Pp = LX.orderings()[0]
    cert = find_certificate(ORTH, Pp)
    assert cert.flavor == "orthogonal-split"
    assert cert.m.sign_at(Pp) == 1
    assert cert.witness * cert.witness == ORTH.from_field(cert.m)
    assert verify_certificate(cert)
    # definite quaternion over Q: symplectic flavor with d = c = 1
    H = QuaternionAlgebra(Q, -1, -1)
    certH = find_certificate(H, P0)
    assert certH.flavor == "symplectic-definite"
    d, c, u, v = certH.definite_pair
    assert d == Q.one() and c == Q.one()
    # example (3): d = 1, c = sqrt(2) at the positive ordering
    A3 = QuaternionAlgebra(F2, -1, -F2.generator())
    cert3 = find_certificate(A3, F2.orderings()[0])
    d3, c3, _, _ = cert3.definite_pair
    assert d3 == F2.one() and c3 == F2.generator()


def test_nil_ordering_is_rejected():
    Pm = LX.orderings()[1]
    with pytest.raises(PreconditionNil):
        find_certificate(ORTH, Pm)


def test_budget_exhaustion_raises():
    # height-0 budget cannot find any witness
    Pp = LX.orderings()[0]
    with pytest.raises(BudgetExhausted):
        find_certificate(ORTH, Pp, budget=0)


def test_tampered_certificates_fail():
    Pp = LX.orderings()[0]
    cert = find_certificate(ORTH, Pp)
    negated = SplittingCertificate(
        cert.algebra,
        cert.ordering,
        cert.flavor,
        cert.extension,
        cert.chosen,
        witness=cert.witness,
        m=-cert.m,
        matrices=cert.matrices,
        g_datum=cert.g_datum,
    )
    assert not verify_certificate(negated)
    bumped = [list(map(list, M)) for M in cert.matrices]
    bumped[1][0][0] = cert.centre_algebra().add(bumped[1][0][0], bumped[1][0][1])
    perturbed = SplittingCertificate(
        cert.algebra,
        cert.ordering,
        cert.flavor,
        cert.extension,
        cert.chosen,
        witness=cert.witness,
        m=cert.m,
        matrices=[tuple(map(tuple, M)) for M in bumped],
        g_datum=cert.g_datum,
    )
    assert not verify_certificate(perturbed)


def test_certificates_are_immutable():
    cert = find_certificate(ORTH, LX.orderings()[0])
    for name in ("witness", "m", "matrices", "g_datum", "flavor", "_verified"):
        with pytest.raises(AttributeError):
            setattr(cert, name, None)
    back = SplittingCertificate.from_json(cert.to_json())
    for c in (cert, back):
        assert isinstance(c.matrices, tuple)
        assert all(isinstance(M, tuple) and isinstance(M[0], tuple) for M in c.matrices)
        assert isinstance(c.g_datum, tuple) and isinstance(c.g_datum[0], tuple)


def test_verification_runs_once_per_certificate(monkeypatch):
    import hermstab.splitting as splitting

    checked = []
    real = splitting._verify_impl

    def counting(cert):
        checked.append(cert)
        return real(cert)

    monkeypatch.setattr(splitting, "_verify_impl", counting)
    A = fresh_orth()
    Pp = LX.orderings()[0]
    cert = find_certificate(A, Pp)
    assert find_certificate(A, Pp) is cert
    assert find_certificate(MatrixAlgebra(2, A), Pp) is cert
    h = HermitianForm.diagonal(A, [A.basis()[0]])
    for _ in range(3):
        transport_form(cert, h)
        assert verify_certificate(cert)
    copy = SplittingCertificate.from_json(cert.to_json())
    assert verify_certificate(copy) and verify_certificate(copy)
    assert len(checked) == 2
    assert checked[0] is cert and checked[1] is copy


def test_orderings_sharing_a_witness_share_its_split_model(monkeypatch):
    """On deep_orth's algebra both non-nil orderings take one witness: its
    split model is built once and carried by both certificates, each of
    which is still verified once; each certificate's JSON is a
    cold build's, and a new instance of the algebra builds its own model."""
    import hermstab.splitting as splitting

    A = fresh_deep_orth()
    targets = [P for P in LXY.orderings() if not local_type(A, P).nil]
    builds, checked = [], []
    build, verify = splitting._build_split_data, splitting._verify_impl

    def counted_build(*args):
        builds.append(1)
        return build(*args)

    def counted_verify(cert):
        checked.append(cert)
        return verify(cert)

    monkeypatch.setattr(splitting, "_build_split_data", counted_build)
    monkeypatch.setattr(splitting, "_verify_impl", counted_verify)
    certs = [find_certificate(A, P) for P in targets]
    assert len(certs) == 2 and len(builds) == 1
    first, second = certs
    assert first.witness == second.witness and first.extension == second.extension
    assert first.matrices == second.matrices and first.g_datum == second.g_datum
    assert first.chosen != second.chosen
    assert len(checked) == 2 and checked[0] is first and checked[1] is second
    assert len(A.split_model_memo) == 1 and len(A.certificate_memo) == 2
    cold = [find_certificate(fresh_deep_orth(), P).to_json() for P in targets]
    assert [c.to_json() for c in certs] == cold and len(builds) == 3


def _random_quaternion_instances(rng, count, orthogonal):
    """Quaternion algebras with small parameters over the shape pool."""
    out = []
    skipped = 0
    shapes = tower_shapes()
    while len(out) < count:
        field = rng.choice(shapes)
        a = random_element(rng, field, height=10, nonzero=True, simple=True)
        b = random_element(rng, field, height=10, nonzero=True, simple=True)
        try:
            if orthogonal:
                coords = [field.zero()] + [
                    field.rational(rng.randint(-2, 2)) for _ in range(3)
                ]
                if all(c.is_zero() for c in coords[1:]):
                    continue
                A = orthogonal_quaternion(field, a, b, coords)
            else:
                A = QuaternionAlgebra(field, a, b, "conjugation")
        except SamplingError:
            skipped += 1
            continue
        out.append(A)
    assert_skip_rate(skipped, len(out))
    return out


def test_certificates_on_random_corpus():
    """Every non-nil ordering of random quaternion instances yields a
    verified certificate within the default budget."""
    rng = random.Random(61)
    for A in _random_quaternion_instances(rng, 12, orthogonal=True):
        nil = nil_set(A)
        for P in A.field.orderings():
            if P in nil:
                continue
            cert = find_certificate(A, P, budget=50)
            assert verify_certificate(cert)
            assert cert.m.sign_at(P) == 1
    for A in _random_quaternion_instances(rng, 12, orthogonal=False):
        nil = nil_set(A)
        for P in A.field.orderings():
            if P in nil:
                continue
            cert = find_certificate(A, P, budget=50)
            assert verify_certificate(cert)
            d, c, _, _ = cert.definite_pair
            assert d.sign_at(P) == 1 and c.sign_at(P) == 1


def test_unitary_quaternion_certificates():
    rng = random.Random(62)
    done = 0
    while done < 8:
        field = rng.choice([Q, F2, LX])
        a = random_element(rng, field, height=6, nonzero=True, simple=True)
        b = random_element(rng, field, height=6, nonzero=True, simple=True)
        alpha = random_element(rng, field, height=6, nonzero=True, simple=True)
        if alpha.is_square():
            continue
        A = UnitaryQuaternionAlgebra(field, a, b, alpha)
        nil = nil_set(A)
        for P in field.orderings():
            if P in nil:
                continue
            cert = find_certificate(A, P)
            assert cert.flavor == "unitary-quaternion-split"
            assert verify_certificate(cert)
            assert cert.m.sign_at(P) == 1
            # the witness is a symmetric non-central square root of m
            w = cert.witness
            assert w.involution() == w
            assert w * w == A.from_field(cert.m)
        done += 1


def test_transport_trivial_matrix_case():
    """Forms over (M_2(Q), transpose) transport by plain flattening."""
    M = MatrixAlgebra(2, FieldAlgebra(Q))
    X = M.elem(((Q.one().value, Q.zero().value), (Q.zero().value, (-Q.one()).value)))
    h = HermitianForm.diagonal(M, [X])
    cert = find_certificate(M, P0)
    assert cert.flavor == "split-trivial"
    target, datum = transport_form(cert, h)
    assert datum is None
    d = diagonalize_hermitian(target)
    signs = sorted(e.coords()[0].sign_at(P0) for e in d.diagonal_entries())
    assert signs == [-1, 1]


def test_transport_matches_trace_form_normalization():
    """|signature| of the transported form at the chosen ordering equals
    the trace-form signature divided by the local scaling."""
    Pp = LX.orderings()[0]
    h = HermitianForm.diagonal(ORTH, [ORTH.basis()[0]])
    cert = find_certificate(ORTH, Pp)
    target, _ = transport_form(cert, h)
    d = diagonalize_hermitian(target)
    sig = sum(e.coords()[0].sign_at(cert.chosen) for e in d.diagonal_entries())
    lam = local_type(ORTH, Pp).lam
    assert abs(sig) == abs(trace_form(h).signature(Pp)) // lam
    assert abs(sig) == 2


def test_transport_witt_invariance():
    """Adding a hyperbolic plane does not change the transported signature."""
    rng = random.Random(63)
    Pp = LX.orderings()[0]
    cert = find_certificate(ORTH, Pp)
    for _ in range(6):
        h = random_hermitian_diagonal(rng, ORTH, rank=rng.randint(1, 2))
        s = h.diagonal_entries()[0]
        hyp = HermitianForm.diagonal(ORTH, [s, -s])
        t1, _ = transport_form(cert, h)
        t2, _ = transport_form(cert, h.direct_sum(hyp))
        d1 = diagonalize_hermitian(t1)
        d2 = diagonalize_hermitian(t2)
        s1 = sum(e.coords()[0].sign_at(cert.chosen) for e in d1.diagonal_entries())
        s2 = sum(e.coords()[0].sign_at(cert.chosen) for e in d2.diagonal_entries())
        assert s1 == s2


def test_transport_additive():
    rng = random.Random(64)
    Pp = LX.orderings()[0]
    cert = find_certificate(ORTH, Pp)

    def tsig(form):
        t, _ = transport_form(cert, form)
        d = diagonalize_hermitian(t)
        return sum(
            e.coords()[0].sign_at(cert.chosen) for e in d.diagonal_entries()
        )

    for _ in range(6):
        h1 = random_hermitian_diagonal(rng, ORTH, rank=1)
        h2 = random_hermitian_diagonal(rng, ORTH, rank=2)
        assert tsig(h1.direct_sum(h2)) == tsig(h1) + tsig(h2)


def test_independent_certificates_agree_in_absolute_value():
    rng = random.Random(65)
    instances = _random_quaternion_instances(rng, 6, orthogonal=True)
    for A in instances:
        nil = nil_set(A)
        for P in A.field.orderings():
            if P in nil:
                continue
            c0 = find_certificate(A, P)
            # the second certificate in search order, if there is one
            c1 = next(islice(_certificates(A, P, 50), 1, None), None)
            if c1 is None:
                continue
            assert verify_certificate(c1)
            h = random_hermitian_diagonal(rng, A, rank=2)

            def tsig(cert, form):
                t, _ = transport_form(cert, form)
                d = diagonalize_hermitian(t)
                if isinstance(d, SplitWitness):
                    return None
                return sum(
                    e.coords()[0].sign_at(cert.chosen)
                    for e in d.diagonal_entries()
                )

            s0 = tsig(c0, h)
            s1 = tsig(c1, h)
            if s0 is None or s1 is None:
                continue
            assert abs(s0) == abs(s1), (A.describe(), P.name())


def test_certificate_json_round_trip():
    Pp = LX.orderings()[0]
    for A, P in (
        (ORTH, Pp),
        (QuaternionAlgebra(Q, -1, -1), P0),
        (UnitaryQuaternionAlgebra(Q, -1, -1, -1), P0),
    ):
        cert = find_certificate(A, P)
        doc = cert.to_json()
        back = SplittingCertificate.from_json(doc)
        assert verify_certificate(back)
        assert back.to_json() == doc


@pytest.mark.parametrize("flavor", ["unitary-deg1", "unitary-quaternion-split"])
def test_unitary_flavor_on_non_unitary_algebra_rejected(flavor):
    from hermstab.fields import MismatchError

    cert = find_certificate(QuaternionAlgebra(Q, -1, -1), P0)
    doc = dict(cert.to_json(), flavor=flavor)
    with pytest.raises(MismatchError, match="unitary centre"):
        SplittingCertificate.from_json(doc)


@pytest.mark.parametrize(
    "key, malformed",
    [
        ("matrices", lambda d: [[row[:1]] for row in d["matrices"]]),
        ("g_datum", lambda d: [d["g_datum"][0], d["g_datum"][1][:1]]),
        ("g_datum", lambda d: 5),
        ("matrices", lambda d: 5),
        ("matrices", lambda d: d["matrices"][:3]),
    ],
    ids=["matrix-1x1", "short-g-row", "g-number", "matrices-number", "three-matrices"],
)
def test_malformed_certificate_documents_rejected(key, malformed):
    from hermstab.fields import MismatchError

    doc = find_certificate(ORTH, LX.orderings()[0]).to_json()
    doc[key] = malformed(doc)
    with pytest.raises(MismatchError):
        SplittingCertificate.from_json(doc)


def test_certificate_memo_keeps_one_entry_per_ordering():
    """Distinct budgets do not grow an algebra's memos: each ordering keeps
    one certificate, returned at every budget that reaches its witness,
    and the orderings that share a witness share one split model."""
    A = fresh_deep_orth()
    targets = [P for P in LXY.orderings() if not local_type(A, P).nil]
    first = {P.path: find_certificate(A, P, 1) for P in targets}
    for budget in range(2, 1101):
        for P in targets:
            assert find_certificate(A, P, budget) is first[P.path]
    assert set(A.certificate_memo) == set(first) and len(targets) == 2
    assert len(A.split_model_memo) == 1
    for P in targets:
        with pytest.raises(BudgetExhausted):
            find_certificate(A, P, 0)
    assert len(A.certificate_memo) == 2


def test_kept_certificate_answers_small_budgets_as_a_cold_search():
    """Over (9(1 + x), 16(1 + 2x)) with Int(j)conj every height-one value
    of m is negative or a square with no root in Q((x)), so the witness
    i + 2j has height 2: after a search at budget 50, budgets 0 and 1
    raise BudgetExhausted and budgets 2 and 3 return the kept
    certificate, as searches on new instances do."""
    x = LX.generator()

    def algebra():
        a, b = 9 * (1 + x), 16 * (1 + 2 * x)
        return QuaternionAlgebra(LX, a, b, "orthogonal", [0, 0, 1, 0])

    def answer(A, P, budget):
        try:
            return find_certificate(A, P, budget).to_json()
        except BudgetExhausted as exc:
            return ("exhausted", exc.budget, exc.ordering)

    A = algebra()
    for P in LX.orderings():
        kept = find_certificate(A, P, 50)
        assert A.certificate_memo[P.path] == (kept, 2)
        for budget in range(4):
            assert answer(A, P, budget) == answer(algebra(), P, budget), budget
        assert answer(A, P, 1)[0] == "exhausted"
        assert find_certificate(A, P, 2) is kept


def test_certificate_memo_under_threads():
    """Six threads sharing one algebra at budgets 0-7 get what a cold search
    gets at each budget: the same certificate JSON, or BudgetExhausted."""
    import sys
    import threading

    budgets = range(8)
    P = LX.orderings()[0]

    def answer(A, budget):
        try:
            return find_certificate(A, P, budget)
        except BudgetExhausted as exc:
            return ("exhausted", exc.budget)

    def as_json(result):
        return result if isinstance(result, tuple) else result.to_json()

    cold = {b: as_json(answer(fresh_orth(), b)) for b in budgets}
    assert cold[0] == ("exhausted", 0) and "witness" in cold[1]
    A = fresh_orth()
    results, errors = [], []

    def work(offset):
        try:
            for i in range(400):
                budget = (i + offset) % len(budgets)
                results.append((budget, answer(A, budget)))
        except Exception as exc:  # reported by the main thread below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == [] and len(results) == 6 * 400
    distinct = {(b, id(r)): r for b, r in results}
    for (budget, _), result in distinct.items():
        assert as_json(result) == cold[budget], budget
    assert list(A.certificate_memo) == [P.path]


@pytest.mark.parametrize("shift", [0, 1])
def test_unitary_datum_rescaling(monkeypatch, shift):
    """A datum solution G with ct(G) = lambda * G, lambda != 1, is rescaled
    to a hermitian one: scaling the first solution of the datum system by
    sqrt(alpha) gives lambda = -1 and the result alpha * G; scaling it by
    1 + sqrt(alpha) gives the 1 + lambda path and the result 2 * G.  Each
    search runs on a new instance of the algebra, whose memos are empty."""
    import hermstab.splitting as splitting

    def algebra():
        return UnitaryQuaternionAlgebra(F2, -1, -1, -F2.generator())

    P = F2.orderings()[0]

    def g_datum(cert):
        C = cert.centre_algebra()
        rows = cert.to_json()["g_datum"]
        return C, [[C.value_from_json(e) for e in row] for row in rows]

    C, plain = g_datum(find_certificate(algebra(), P))
    root = C.basis()[1]
    factor = root + 1 if shift else root
    expected = C.from_field(2) if shift else C.elem(C.mul(root.value, root.value))
    real = splitting._nullspace

    def skewed(rows, zero, one):
        rows = list(rows)
        sols = real(rows, zero, one)
        if len(rows) == 8:  # the datum system: i and j x 4 entries
            sols[0] = [factor * e for e in sols[0]]
        return sols

    monkeypatch.setattr(splitting, "_nullspace", skewed)
    cert = find_certificate(algebra(), P)
    assert verify_certificate(cert)
    C, G = g_datum(cert)
    for i in range(2):
        for j in range(2):
            assert C.involution(G[j][i]) == G[i][j]
            assert G[i][j] == C.mul(expected.value, plain[i][j])


def _split_model_algebras():
    """An orthogonal and a unitary quaternion algebra over each of Q,
    Q(sqrt 2), Q((x)) and Q((x))((y)), each with a non-nil ordering, and
    2 x 2 wrappers with scaling (1, -2) of those over Q and Q((x))."""
    s2, x, y = F2.generator(), LX.generator(), LXY.generator()
    x2 = LXY.generator(1)
    j = [0, 0, 1, 0]
    out = [
        orthogonal_quaternion(Q, -1, 3, [Q.rational(c) for c in j]),
        orthogonal_quaternion(F2, -1, s2, [F2.rational(c) for c in j]),
        ORTH,
        orthogonal_quaternion(LXY, y, -x2, [LXY.rational(c) for c in j]),
        UnitaryQuaternionAlgebra(Q, -1, -1, -1),
        UnitaryQuaternionAlgebra(F2, -1, s2, -1),
        UnitaryQuaternionAlgebra(LX, x, -1, -1),
        UnitaryQuaternionAlgebra(LXY, y, -1, -x2),
    ]
    for A in (out[0], out[2], out[4], out[6]):
        out.append(MatrixAlgebra(2, A, [A.one(), A.from_field(A.field.rational(-2)).value]))
    return out


def _sparse_element(rng, A):
    """An element of A whose base-field coordinates are each zero with
    probability 1/2."""
    F = A.field
    return A.elem(
        A.from_coords(
            [
                random_element(rng, F, height=3, simple=True)
                if rng.random() < 0.5
                else F.zero()
                for _ in range(A.dim)
            ]
        )
    )


def _full_gram(rng, A, rank=3):
    """A +1-hermitian Gram with sparse entries everywhere and a zero
    entry at (0, rank - 1) and (rank - 1, 0)."""
    gram = [[None] * rank for _ in range(rank)]
    for r in range(rank):
        d = _sparse_element(rng, A)
        gram[r][r] = d + d.involution()
        for s in range(r + 1, rank):
            b = _sparse_element(rng, A)
            if (r, s) == (0, rank - 1):
                b = A.elem(A.zero())
            gram[r][s], gram[s][r] = b, b.involution()
    return HermitianForm(A, gram)


def _proper_certificates():
    for A in _split_model_algebras():
        nil = nil_set(A)
        non_nil = [P for P in A.field.orderings() if P not in nil]
        assert non_nil
        for P in non_nil:
            cert = find_certificate(A, P)
            assert cert.flavor in ("orthogonal-split", "unitary-quaternion-split")
            yield A, cert


def test_sparse_split_model_matches_dense_oracle():
    """The split model skips zero coordinates and zero matrix entries, and
    transport sums the certificate's G . X images: on full Grams with
    zero entries and zero coordinates, over every proper split kind and
    Q, Q(sqrt 2), Q((x)) and Q((x))((y)), the images and the transported
    Gram are those of the dense oracle."""
    rng = random.Random(67)
    seen = set()
    for A, cert in _proper_certificates():
        seen.add((A.kind, cert.flavor, A.field.depth))
        M = cert.model
        C = M.inner
        centre = cert.algebra.centre
        for rank in (1, 3):
            h = _full_gram(rng, A, rank)
            target, datum = transport_form(cert, h)
            assert datum == cert.g_datum
            assert target.algebra == C
            assert target.gram == dense_transport_gram(cert, h)
            flat = morita_flatten(h)
            for entry in (e for row in flat.gram for e in row):
                val = [centre.lift_value(c, C) for c in entry]
                assert _phi(M, cert.matrices, val) == dense_phi(M, cert.matrices, val)
                assert _phi(M, cert.transport_images, val) == M.mul(
                    cert.g_datum, dense_phi(M, cert.matrices, val)
                )
    kinds = {(k, f) for k, f, _ in seen}
    assert kinds == {
        ("quaternion", "orthogonal-split"),
        ("unitary_quaternion", "unitary-quaternion-split"),
        ("matrix", "orthogonal-split"),
        ("matrix", "unitary-quaternion-split"),
    }
    assert {d for _, _, d in seen} == {1, 2, 3}


def _witness_certificates(A, per_ordering=4):
    """The first ``per_ordering`` unverified certificates of the spiral
    search at each non-nil ordering of A, one per valid witness."""
    for P in A.field.orderings():
        if not local_type(A, P).nil:
            yield from islice(_certificates(A, P, 2), per_ordering)


def _random_split_kinds(rng, count):
    """Orthogonal and unitary quaternion algebras, alternately, over Q,
    Q(sqrt 2), Q((x)), Q(sqrt 2)((x)) and Q((x))((y)) in turn (so ten
    draws take each flavor over each tower once), each with a non-nil
    ordering.  About half take b a square, times alpha for the unitary
    kind: the witness j then has m a square, and L = F."""
    fields = [Q, F2, LX, F2.adjoin_laurent(), LXY]
    out, skipped = [], 0
    while len(out) < count:
        unitary = len(out) % 2 == 1
        field = fields[len(out) % len(fields)]
        a = random_element(rng, field, height=4, nonzero=True, simple=True)
        b = random_element(rng, field, height=4, nonzero=True, simple=True)
        square = rng.random() < 0.5
        try:
            if unitary:
                alpha = random_nonsquare(rng, field)
                if square:
                    b = alpha * b * b
                A = UnitaryQuaternionAlgebra(field, a, b, alpha)
            else:
                if square:
                    b = b * b
                coords = [field.zero()] + [
                    field.rational(rng.randint(-2, 2)) for _ in range(3)
                ]
                if all(c.is_zero() for c in coords[1:]):
                    coords[2] = field.one()
                A = orthogonal_quaternion(field, a, b, coords)
        except SamplingError:
            skipped += 1
            continue
        if all(local_type(A, P).nil for P in field.orderings()):
            skipped += 1
            continue
        out.append(A)
    assert_skip_rate(skipped, len(out))
    return out


def test_split_model_matches_sixteen_column_oracle():
    """The split model reads its coordinates by Cramer's rule on two rows
    of the ideal and takes the orthogonal datum in closed form: on every
    proper split kind of the corpus (orthogonal and unitary, over Q,
    Q(sqrt 2), Q((x)) and Q((x))((y)), plus random ones), on a seeded
    draw of both flavors over towers up to Q(sqrt 2)((x)) and
    Q((x))((y)), and on several witnesses each, its matrices and datum are
    those of one elimination of all sixteen products and of the kernel of
    all sixteen equations."""
    rng = random.Random(73)
    algebras = [A for A in _split_model_algebras() if A.kind != "matrix"]
    for A in _random_quaternion_instances(rng, 4, orthogonal=True):
        algebras.append(A)
    drawn = _random_split_kinds(random.Random(79), 10)
    seen, witnesses = set(), 0
    for A in algebras + drawn:
        F = A.field
        for cert in _witness_certificates(A):
            L = cert.extension
            A_L = A.lift_to(L)
            sqm = cert.m.sqrt() if L == F else L.generator()
            w = A.lift_value(cert.witness.value, A_L)
            matrices = slow_split_data(A_L, cert.model.inner, w, sqm)
            assert cert.matrices == tuple(map(tuple, matrices))
            assert cert.g_datum == slow_involution_datum(cert.model, matrices, A_L)
            seen.add((A.kind, L == F, A in drawn, F.describe()))
            witnesses += 1
    assert {kind for kind, *_ in seen} == {"quaternion", "unitary_quaternion"}
    assert {same for _, same, *_ in seen} == {True, False}
    in_draw = {(kind, same) for kind, same, d, _ in seen if d}
    assert in_draw == {
        (kind, same) for kind in ("quaternion", "unitary_quaternion") for same in (True, False)
    }
    towers = {(kind, field) for kind, _, d, field in seen if d}
    for field in (F2.adjoin_laurent(), LXY):
        for kind in ("quaternion", "unitary_quaternion"):
            assert (kind, field.describe()) in towers
    assert witnesses > 2 * len(algebras + drawn)


def test_left_products_match_the_quaternion_product():
    """The closed-form products 1 . x, i . x, j . x, k . x that build a
    split model equal ``_QuaternionCore.mul`` by 1, i, j, k and the
    sixteen-term table product, over a field centre and a unitary centre,
    on random values and on the basis itself."""
    from hermstab.algebras import _QuaternionCore
    from hermstab.splitting import _left_products, _quat_centre_basis

    rng = random.Random(2929)
    x, r2 = LX.generator(), F2.generator()
    algebras = [
        QuaternionAlgebra(LX, x, -1, "orthogonal", [0, 0, 1, 0]),
        QuaternionAlgebra(F2, -3, r2),
        UnitaryQuaternionAlgebra(F2, 2, -r2, -1),
        UnitaryQuaternionAlgebra(LX, x, 3, -x),
    ]
    for A in algebras:
        basis = _quat_centre_basis(A)
        values = basis + [
            A.from_coords([random_element(rng, A.field, height=4) for _ in range(A.dim)])
            for _ in range(6)
        ]
        for v in values:
            expected = [_QuaternionCore.mul(A, b, v) for b in basis]
            assert list(_left_products(A, v)) == expected, A.describe()
            assert expected == [dense_quaternion_mul(A, b, v) for b in basis]
    assert {A.centre.kind for A in algebras} == {"field_id", "unitary_quadratic"}


def test_search_reuses_its_lift_and_json_lifts_its_own(monkeypatch):
    """A searched split model keeps the A tensor L that built it until its
    checks have read it, so a cold search and its verification lift A
    once, and a warm process keeps no lift; a certificate read from JSON
    builds its split model without one, so its checks lift A themselves,
    and both pass."""
    import hermstab.splitting as splitting

    lifts, read = [], []
    lift_to, check = QuaternionAlgebra.lift_to, splitting._check_split_model

    def counted_lift(self, tower):
        lifts.append(tower)
        return lift_to(self, tower)

    def recorded_check(split):
        read.append(split.lifted)
        return check(split)

    monkeypatch.setattr(QuaternionAlgebra, "lift_to", counted_lift)
    monkeypatch.setattr(splitting, "_check_split_model", recorded_check)
    A = fresh_deep_orth()
    P = next(P for P in LXY.orderings() if not local_type(A, P).nil)
    cert = find_certificate(A, P)
    assert cert._verified is True and lifts == [cert.extension]
    (lifted,) = read
    assert lifted == lift_to(A, cert.extension) and cert._split.lifted is None
    lifts.clear(), read.clear()
    copy = SplittingCertificate.from_json(cert.to_json())
    assert verify_certificate(copy) and read == [None] and lifts == [copy.extension]


def test_invertibility_by_reduced_norm_matches_inverse():
    """A quaternion kind calls a value invertible when its reduced norm is
    nonzero: that agrees with computing the inverse on small values of
    split (1, 1)_Q, whose zero divisors include 1 + i, of (-1, -1)_Q, of
    (x, -1) over Q((x)), and of the unitary (-1, -1) over Q(sqrt -1),
    whose zero divisors include 1 + sqrt(-1) i."""
    rng = random.Random(74)
    kinds = [
        QuaternionAlgebra(Q, 1, 1),
        QuaternionAlgebra(Q, -1, -1),
        ORTH,
        UnitaryQuaternionAlgebra(Q, -1, -1, -1),
        UnitaryQuaternionAlgebra(LX, LX.generator(), -1, -1),
    ]
    verdicts = set()
    for A in kinds:
        F = A.field
        values = [A.zero(), A.one()]
        if A.kind == "quaternion" and A.a == F.one():
            values.append(A.from_coords([F.one(), F.one(), F.zero(), F.zero()]))
        if A.kind == "unitary_quaternion" and A.a == -F.one():
            coords = [1, 0, 0, 1, 0, 0, 0, 0]  # 1 + sqrt(-1) i
            values.append(A.from_coords([F.rational(c) for c in coords]))
        for _ in range(60):
            coords = [F.rational(rng.randint(-1, 1)) for _ in range(A.dim)]
            values.append(A.from_coords(coords))
        for v in values:
            fast = A.is_invertible(v)
            assert fast == inverts(A, v) == A.elem(v).is_invertible(), (A, v)
            verdicts.add((A.kind, fast, A.is_zero(v)))
    for kind in ("quaternion", "unitary_quaternion"):
        assert {(kind, True, False), (kind, False, False), (kind, False, True)} <= verdicts


def test_rank_one_reading_per_split_model_matches_transport():
    """On deep_orth's algebra both non-nil orderings take one witness, so
    their certificates share one split model.  Diagonal forms (a singular
    one included) are read from their entries' reduced norms, kept once
    per form, and corners B00; at both orderings, in either order, the
    reading equals transport plus elimination, and the form's route memo
    keeps its diagonal and the value at each ordering."""
    from hermstab.quadratic import SingularFormError
    from hermstab.signatures import raw_signature

    rng = random.Random(75)
    for order in (1, -1):
        A = fresh_deep_orth()
        targets = [P for P in LXY.orderings() if not local_type(A, P).nil][::order]
        first, second = (find_certificate(A, P) for P in targets)
        assert first._split is second._split
        forms = [random_hermitian_diagonal(rng, A) for _ in range(6)]
        zero = HermitianForm.diagonal(A, [A.one(), A.zero()])
        for h in forms + [zero]:
            for P in targets:
                if h is zero:
                    with pytest.raises(SingularFormError):
                        raw_signature(A, h, P)
                    with pytest.raises(SingularFormError):
                        slow_raw_signature(A, h, P)
                    continue
                assert raw_signature(A, h, P) == slow_raw_signature(A, h, P)
            if h is not zero:
                assert len(h._norms) == h.rank
                assert list(h.route_memo) == [None] + [P.path for P in targets]
        assert zero._norms is None


def test_verification_matches_dense_oracle():
    """With G replaced by hermitian invertible matrices that may or may
    not carry the involution, verification agrees with the dense check of
    G . Phi(sigma(b)) == ct(Phi(b)) . G, and it accepts and rejects."""
    verdicts = set()
    for A, cert in _proper_certificates():
        if A.kind == "matrix":
            continue
        M = cert.model
        G = cert.g_datum
        two = cert.extension.rational(2)
        swapped = ((G[1][1], G[1][0]), (G[0][1], G[0][0]))
        for datum in (G, M.scalar_mul(two, G), M.one(), swapped):
            assert M.involution(datum) == datum
            tampered = SplittingCertificate(
                cert.algebra,
                cert.ordering,
                cert.flavor,
                cert.extension,
                cert.chosen,
                witness=cert.witness,
                m=cert.m,
                matrices=cert.matrices,
                g_datum=datum,
            )
            ok = dense_datum_holds(tampered)
            assert verify_certificate(tampered) == ok
            verdicts.add(ok)
    assert verdicts == {True, False}


@pytest.mark.parametrize("A", [ORTH, UnitaryQuaternionAlgebra(LX, LX.generator(), -1, -1)],
                         ids=["orthogonal", "unitary"])
def test_transport_makes_no_product_for_zero_entries(monkeypatch, A):
    """Once a certificate has its transport images, a rank-3 diagonal form
    makes no product in M_2(C), and centre products only for the nonzero
    coordinates of its 3 diagonal entries times the nonzero entries of the
    images: its 6 zero entries cost nothing."""
    P = next(P for P in A.field.orderings() if P not in nil_set(A))
    cert = find_certificate(A, P)
    rng = random.Random(68)
    entries = [random_sym_element(rng, A) for _ in range(3)]
    h = HermitianForm.diagonal(A, entries)
    transport_form(cert, h)  # builds the transport images
    C = cert.model.inner
    centre = A.centre
    expected = 0
    for e in entries:
        for c, X in zip(e.value, cert.transport_images):
            if not centre.is_zero(c):
                expected += sum(not C.is_zero(v) for row in X for v in row)
    calls = {"matrix": 0, "centre": 0}
    real_matrix, real_centre = MatrixAlgebra.mul, type(C).mul

    def matrix_mul(self, x, y):
        calls["matrix"] += 1
        return real_matrix(self, x, y)

    def centre_mul(self, x, y):
        calls["centre"] += 1
        return real_centre(self, x, y)

    monkeypatch.setattr(MatrixAlgebra, "mul", matrix_mul)
    monkeypatch.setattr(type(C), "mul", centre_mul)
    target, _ = transport_form(cert, h)
    assert calls == {"matrix": 0, "centre": expected}
    assert 0 < expected < 3 * 4 * 4
    zero = C.zero()
    assert all(
        target.gram[2 * r + i][2 * s + j] == zero
        for r in range(3) for s in range(3) if r != s
        for i in range(2) for j in range(2)
    )


def test_wrapper_certificate_is_the_inner_algebras():
    """(M_2(D), ad_g) splits as D does: its certificate is D's, searched,
    verified and kept once, on D, next to its witness's split model."""
    D = fresh_orth()
    M = MatrixAlgebra(2, D, [D.elem(D.one()), D.from_field(-2)])
    P = LX.orderings()[0]
    cert = find_certificate(M, P)
    assert cert.algebra is D and verify_certificate(cert)
    assert D.certificate_memo == {P.path: (cert, 1)}
    assert len(D.split_model_memo) == 1
    assert find_certificate(D, P) is cert
    assert find_certificate(M, P) is cert
    assert list(D.certificate_memo) == [P.path] and len(D.split_model_memo) == 1
    assert "certificate_memo" not in vars(M) and "split_model_memo" not in vars(M)


# ---------------------------------------------------------------------------
# tampered certificates: each edit breaks one check of ``_verify_impl``
# ---------------------------------------------------------------------------


def _scaled(cert, X, c):
    """The model value X times the base-field rational c."""
    return cert.model.scalar_mul(cert.extension.rational(c), X)


def _orthogonal_cert():
    """(x, -1) with Int(j)conj at x -> 0+: witness k, m = x, L = Q((x))(sqrt x)."""
    return find_certificate(fresh_orth(), LX.orderings()[0])


def _square_m_cert():
    """(1, 4)_Q with Int(j)conj: witness j, m = 4, so L = Q."""
    return find_certificate(QuaternionAlgebra(Q, 1, 4, "orthogonal", [0, 0, 1, 0]), P0)


def _unitary_cert():
    """(-1, -1) over Q(sqrt -1): witness sqrt(-1) k, m = 1, L = Q, G = 1."""
    return find_certificate(UnitaryQuaternionAlgebra(Q, -1, -1, -1), P0)


def _definite_cert():
    """(-1, -1)_Q with conjugation: d = c = 1, u = i, v = j."""
    return find_certificate(QuaternionAlgebra(Q, -1, -1), P0)


def _with_matrices(cert, scale):
    """``cert`` with the image of basis element s scaled by scale[s]."""
    return replace(
        cert,
        matrices=[_scaled(cert, X, c) for X, c in zip(cert.matrices, scale)],
    )


def _tamper_ordering_of_another_field():
    return replace(find_certificate(FieldAlgebra(Q), P0), ordering=F2.orderings()[0])


def _tamper_trivial_extension():
    return replace(find_certificate(FieldAlgebra(Q), P0), extension=F2)


def _tamper_unitary_deg1_alpha_sign():
    from hermstab.algebras import UnitaryQuadraticAlgebra

    A = UnitaryQuadraticAlgebra(F2, F2.generator())
    negative, positive = sorted(F2.orderings(), key=lambda P: A.alpha.sign_at(P))
    return replace(find_certificate(A, negative), ordering=positive)


def _tamper_definite_kind():
    cert = _definite_cert()
    A = QuaternionAlgebra(Q, -1, -1, "orthogonal", [0, 1, 0, 0])
    d, c, _, _ = cert.definite_pair
    _, u, v, _ = A.basis()
    return replace(cert, algebra=A, definite_pair=(d, c, u, v))


def _tamper_definite_missing_pair():
    return replace(_definite_cert(), definite_pair=None)


def _tamper_definite_sign():
    A = QuaternionAlgebra(F2, -1, -F2.generator())
    division, split = sorted(F2.orderings(), key=lambda P: A.b.sign_at(P))
    cert = find_certificate(A, division)
    return replace(cert, ordering=split, chosen=split)


def _tamper_definite_square():
    d, c, u, v = _definite_cert().definite_pair
    return replace(_definite_cert(), definite_pair=(d * 4, c, u, v))


def _tamper_definite_anticommute():
    d, c, u, v = _definite_cert().definite_pair
    return replace(_definite_cert(), definite_pair=(d, c, u, u))


def _tamper_missing_witness():
    return replace(_orthogonal_cert(), witness=None)


def _tamper_missing_datum():
    return replace(_orthogonal_cert(), g_datum=None)


def _tamper_m_sign():
    cert = _orthogonal_cert()
    other = LX.orderings()[1]  # x -> 0-, where m = x is negative
    return replace(
        cert, ordering=other, chosen=Ordering(cert.extension, other.path + (1,))
    )


def _tamper_m_not_square():
    cert = _square_m_cert()
    _, i, j, _ = cert.algebra.basis()
    return replace(cert, witness=i + j, m=Q.rational(5))  # (i + j)^2 = 5


def _tamper_extension_steps():
    cert = _orthogonal_cert()
    return replace(cert, witness=cert.witness * 2, m=cert.m * 4)


def _tamper_chosen():
    cert = _orthogonal_cert()
    return replace(cert, chosen=Ordering(cert.extension, (-1, 1)))


def _tamper_orthogonal_kind():
    return replace(_unitary_cert(), flavor="orthogonal-split")


def _tamper_orthogonal_witness_pure():
    cert = _square_m_cert()
    return replace(cert, witness=cert.algebra.from_field(2))


def _tamper_orthogonal_witness_square():
    cert = _orthogonal_cert()
    return replace(cert, witness=cert.witness * 2)


def _tamper_unitary_kind():
    return replace(_orthogonal_cert(), flavor="unitary-quaternion-split")


def _tamper_unitary_nil_ordering():
    """(-1, -sqrt 2) over Q(sqrt 2)(sqrt(-sqrt 2)): moved from sqrt 2 > 0 to
    sqrt 2 < 0, where alpha = -sqrt 2 is positive, so signatures vanish."""
    A = UnitaryQuaternionAlgebra(F2, -1, -F2.generator(), -F2.generator())
    split, nil = sorted(F2.orderings(), key=lambda P: A.alpha.sign_at(P))
    cert = find_certificate(A, split)
    extra = cert.chosen.path[len(split.path):]
    return replace(cert, ordering=nil, chosen=Ordering(cert.extension, nil.path + extra))


def _tamper_unitary_witness_symmetric():
    """(1 + s) i + (1 - s) j + s k, s = sqrt(-1): pure, squares to 1 = m,
    and sigma(c i) = -conj(c) i does not fix it."""
    cert = _unitary_cert()
    A = cert.algebra
    coords = (0, 0, 1, 1, 1, -1, 0, 1)  # (u, v) for u + v s on 1, i, j, k
    return replace(cert, witness=A.elem(A.from_coords([Q.rational(c) for c in coords])))


def _tamper_unitary_witness_square():
    cert = _unitary_cert()
    return replace(cert, witness=cert.witness * 2)


def _tamper_unitary_witness_central():
    cert = _unitary_cert()
    return replace(cert, witness=cert.algebra.from_field(1))  # m = 1


def _tamper_x1():
    return _with_matrices(_orthogonal_cert(), (2, 1, 1, 1))


def _tamper_xi_square():
    return _with_matrices(_orthogonal_cert(), (1, 2, 1, 2))


def _tamper_xj_square():
    return _with_matrices(_orthogonal_cert(), (1, 1, 2, 2))


def _tamper_xk():
    return _with_matrices(_orthogonal_cert(), (1, 1, 1, 2))


def _tamper_datum_singular():
    cert = _orthogonal_cert()
    return replace(cert, g_datum=cert.model.zero())


def _tamper_datum_singular_nonzero():
    """G = [[1, 1], [1, 1]]: hermitian and nonzero, but not invertible."""
    cert = _orthogonal_cert()
    o = cert.model.inner.one()
    return replace(cert, g_datum=((o, o), (o, o)))


def _tamper_datum_root_determinant():
    """G = diag(1, sqrt(alpha)) over the unitary centre: invertible but not
    hermitian.  det G = sqrt(alpha) lies outside L, so reading it in L
    (``SplitModel.det``) would raise where the check must answer False."""
    cert = _unitary_cert()
    C = cert.model.inner
    return replace(cert, g_datum=((C.one(), C.zero()), (C.zero(), C.basis_values()[1])))


def _tamper_datum_not_hermitian():
    cert = _unitary_cert()
    C = cert.model.inner
    root = C.basis_values()[1]  # sqrt(alpha): ct(root * G) = -root * G
    return replace(
        cert, g_datum=[[C.mul(root, e) for e in row] for row in cert.g_datum]
    )


def _tamper_datum_other_involution():
    cert = _orthogonal_cert()
    M = cert.model
    two = M.inner.from_coords([cert.extension.rational(2)])
    z, o = M.inner.zero(), M.inner.one()
    return replace(cert, g_datum=((o, z), (z, two)))


TAMPERS = {
    name[len("_tamper_"):]: fn
    for name, fn in sorted(globals().items())
    if name.startswith("_tamper_")
}


@pytest.mark.parametrize("name", sorted(TAMPERS))
def test_tampered_certificate_fails_verification(name):
    """Editing one field of a valid certificate breaks one check, and
    ``verify_certificate`` rejects the copy."""
    cert = TAMPERS[name]()
    assert isinstance(cert, SplittingCertificate)
    assert verify_certificate(cert) is False


def test_tampers_start_from_valid_certificates():
    for make in (_orthogonal_cert, _square_m_cert, _unitary_cert, _definite_cert):
        cert = make()
        back = SplittingCertificate.from_json(cert.to_json())
        assert verify_certificate(cert) and verify_certificate(back)
    assert _square_m_cert().extension == Q and _unitary_cert().g_datum == (
        _unitary_cert().model.one()
    )


def test_dependent_images_fail_verification(monkeypatch):
    """The four images must be independent.  No edit of a certificate that
    keeps X1 = 1 and the quaternion relations reaches this check, since
    those relations already force independence, so the test reports a
    zero determinant of the four images' coordinates instead."""
    import hermstab.splitting as splitting

    cert = replace(_orthogonal_cert())
    monkeypatch.setattr(splitting, "_det4", lambda C, rows: C.zero())
    assert verify_certificate(cert) is False


# ---------------------------------------------------------------------------
# split models checked once; certificates that the search did not emit
# ---------------------------------------------------------------------------


def _deep_orth_siblings():
    """A new deep_orth algebra and the certificates of its two non-nil
    orderings, which take one witness and so share one split model."""
    A = fresh_deep_orth()
    targets = [P for P in LXY.orderings() if not local_type(A, P).nil]
    first, second = (find_certificate(A, P) for P in targets)
    assert first._split is second._split
    return A, first, second


def test_cold_deep_orth_split_model_runs_no_elimination(monkeypatch):
    """A cold deep_orth report builds and checks its one orthogonal split
    model in closed form: no ``_gauss_jordan`` or ``_nullspace`` call
    happens inside ``_split_model`` or ``_check_split_model``, while the
    unitary flavor still solves its datum equations by ``_nullspace``."""
    import hermstab.algebras as algebras
    import hermstab.splitting as splitting
    from hermstab.stability import stability_report

    calls, inside = [], []

    def spied(module, name):
        real = getattr(module, name)

        def spy(*args):
            calls.append((name, tuple(inside)))
            return real(*args)

        monkeypatch.setattr(module, name, spy)

    def within(name):
        real = getattr(splitting, name)

        def scoped(*args):
            inside.append(name)
            try:
                return real(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(splitting, name, scoped)

    spied(algebras, "_gauss_jordan")
    spied(algebras, "_nullspace")
    spied(splitting, "_nullspace")
    within("_split_model")
    within("_check_split_model")
    A = fresh_deep_orth()
    stability_report(A)
    assert len(A.split_model_memo) == 1
    (split,) = A.split_model_memo.values()
    assert split.flavor == "orthogonal-split" and split._verified is True
    assert [c for c in calls if c[1]] == []
    calls.clear()
    U = UnitaryQuaternionAlgebra(F2, -1, -1, -F2.generator())
    assert verify_certificate(find_certificate(U, U.field.orderings()[0]))
    assert ("_nullspace", ("_split_model",)) in calls


def test_cold_deep_orth_report_checks_its_split_model_once(monkeypatch):
    """A cold deep_orth stability report runs the ordering-free checks
    once, for its one split model, and still verifies both certificates;
    the reduced norm of the first member of each +- pair of candidates is
    taken once, and no other."""
    import hermstab.splitting as splitting
    from hermstab.algebras import _QuaternionCore
    from hermstab.stability import stability_report

    checked, norms, tested = [], [], []
    check, nrd = splitting._check_split_model, _QuaternionCore._nrd
    candidate = _QuaternionCore._rank_one_candidate

    def counted_check(split):
        checked.append(split)
        return check(split)

    def counted_nrd(self, x):
        norms.append(x)
        return nrd(self, x)

    def counted_candidate(self, x):
        tested.append(x)
        return candidate(self, x)

    monkeypatch.setattr(splitting, "_check_split_model", counted_check)
    monkeypatch.setattr(_QuaternionCore, "_nrd", counted_nrd)
    monkeypatch.setattr(_QuaternionCore, "_rank_one_candidate", counted_candidate)
    A = fresh_deep_orth()
    stability_report(A)
    (model,) = A.split_model_memo.values()
    certs = [cert for cert, _ in A.certificate_memo.values()]
    assert len(certs) == 2 and all(cert._split is model for cert in certs)
    assert all(cert._verified is True and verify_certificate(cert) for cert in certs)
    assert checked == [model] and model._verified is True
    assert len(norms) == len(tested) == 9


def test_certificates_not_emitted_build_their_own_split_model(monkeypatch):
    """A certificate read from JSON, or made with ``dataclasses.replace``,
    builds its own split model from its fields, verifies it in full and
    reads the same diagonal signatures as the emitted certificate."""
    import hermstab.splitting as splitting

    rng = random.Random(21)
    A, first, second = _deep_orth_siblings()
    forms = [random_hermitian_diagonal(rng, A) for _ in range(4)]
    for cert in (first, second):
        copies = [SplittingCertificate.from_json(cert.to_json()), replace(cert)]
        for copy in copies:
            assert "_split" not in vars(copy)
            assert copy._split is not cert._split
            for h in forms:
                fresh = HermitianForm(A, h.gram)
                assert copy.diagonal_signature(fresh) == cert.diagonal_signature(h)
            assert verify_certificate(copy) and copy._split._verified is True
    checks = []
    check = splitting._check_split_model
    monkeypatch.setattr(
        splitting, "_check_split_model", lambda split: checks.append(split) or check(split)
    )
    assert verify_certificate(replace(first))
    assert len(checks) == 1 and checks[0] is not first._split


def test_tampered_sibling_fails_after_its_split_model_is_verified():
    """Once one certificate has verified the shared split model, a
    ``replace`` copy of the other certificate with tampered matrices is
    still rejected: it builds and checks its own split model."""
    _, first, second = _deep_orth_siblings()
    assert verify_certificate(first) and first._split._verified is True
    for scale in ((2, 1, 1, 1), (1, 2, 1, 2), (1, 1, 1, 2)):
        tampered = _with_matrices(second, scale)
        assert tampered._split is not first._split
        assert verify_certificate(tampered) is False
    assert verify_certificate(second)


@pytest.mark.parametrize("case", ["epsilon", "wrapper", "algebra", "definite"])
def test_transport_form_rejects_mismatched_inputs(case):
    """``transport_form`` refuses a skew form, a wrapper over another
    inner algebra, a form over another algebra and a definite symplectic
    certificate, each with MismatchError."""
    from hermstab.fields import MismatchError

    cert = _orthogonal_cert()
    A = cert.algebra
    other = QuaternionAlgebra(LX, LX.generator(), -2, "orthogonal", [0, 0, 1, 0])
    if case == "epsilon":
        skew = next(b for b in A.basis() if b.involution() == -b)
        h, match = HermitianForm.diagonal(A, [skew], epsilon=-1), "expects a"
    elif case == "wrapper":
        M = MatrixAlgebra(2, other)
        h, match = HermitianForm.diagonal(M, [M.elem(M.one())]), "inner algebra"
    elif case == "algebra":
        h, match = HermitianForm.diagonal(other, [other.elem(other.one())]), "algebras differ"
    else:
        cert = _definite_cert()
        h = HermitianForm.diagonal(cert.algebra, [cert.algebra.elem(cert.algebra.one())])
        match = "definite symplectic"
    with pytest.raises(MismatchError, match=match):
        transport_form(cert, h)
