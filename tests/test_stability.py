import hashlib
import json
import math
import random
import time
from itertools import product

import pytest

from hermstab.algebras import (
    FieldAlgebra,
    HermitianForm,
    MatrixAlgebra,
    QuaternionAlgebra,
    UnitaryQuadraticAlgebra,
)
from hermstab.fields import FieldTower, Ordering
from hermstab.lattices import cokernel_invariants, hnf
from hermstab.quadratic import SingularFormError, pfister
from hermstab.signatures import (
    ReferenceForm,
    SearchExhausted,
    reference_search,
    reference_signs,
    total_signature,
)
from hermstab.stability import (
    NilAwareSpace,
    Probes,
    _division_certain,
    _field_patterns_complete,
    _probe_signatures,
    _pfister_witness,
    _quadratic_basis,
    _stability_index,
    _value_groups_attained,
    h0_search,
    image_lattice,
    invariance_suite,
    quadratic_image_lattice,
    relative_stability,
    stability_report,
)

from corpus import (
    SamplingError,
    assert_skip_rate,
    catalogue_corpus,
    random_algebra,
    random_hermitian_diagonal,
    random_tower,
    random_wrapper,
    tower_shapes,
)
from oracles import (
    division_by_signs,
    enumerated_image,
    full_walk_h0,
    patterns_complete_by_signs,
    stepwise_piecewise_form,
)

Q = FieldTower.rationals()
F2 = Q.adjoin_sqrt(2)
LX = Q.adjoin_laurent()

EX1 = QuaternionAlgebra(Q, -1, -1)
EX2 = QuaternionAlgebra(Q, -1, -1, "orthogonal", [0, 1, 0, 0])
EX3 = QuaternionAlgebra(F2, -1, -F2.generator())
EX4 = QuaternionAlgebra(LX, LX.generator(), -1, "orthogonal", [0, 0, 1, 0])


def test_image_lattices_of_the_examples():
    lat1 = image_lattice(EX1)
    assert lat1.basis == [(1,)]
    assert lat1.certified_exact
    lat3 = image_lattice(EX3)
    assert lat3.basis == [(1,)]
    lat4 = image_lattice(EX4)
    assert lat4.basis == [(2,)]
    assert lat4.certified_exact


def test_stability_reports_of_the_examples():
    rep1 = stability_report(EX1)
    assert (rep1.invariant_factors, rep1.st) == ([], 0)
    assert rep1.image_description() == "Z"
    rep2 = stability_report(EX2)
    assert (rep2.invariant_factors, rep2.st) == ([], 0)
    assert rep2.image_description() == "{0}"
    rep3 = stability_report(EX3)
    assert (rep3.invariant_factors, rep3.st) == ([], 0)
    assert rep3.image_description() == "Z x {0}"
    rep4 = stability_report(EX4)
    assert rep4.invariant_factors == [2]
    assert rep4.st == 1
    assert rep4.image_description() == "2Z x {0}"
    assert rep4.group_description() == "Z/2Z"
    for rep in (rep1, rep2, rep3, rep4):
        assert rep.exact


def test_field_stability_indices():
    assert stability_report(FieldAlgebra(Q)).st == 0
    repF2 = stability_report(FieldAlgebra(F2))
    assert repF2.st == 1
    assert repF2.group_description() == "Z/2Z"
    repLX = stability_report(FieldAlgebra(LX))
    assert repLX.st == 1


def test_direct_snf_example():
    """Generators (2,0) and (0,2) inside Z^2 leave cokernel (Z/2)^2."""
    from hermstab.lattices import cokernel_invariants

    factors, free = cokernel_invariants([(2, 0), (0, 2)], 2)
    assert factors == [2, 2] and free == 0


def test_cokernel_invariants_match_determinantal_divisors():
    """Invariant factors from alternating Hermite forms agree with the
    determinantal-divisor rule s_k = d_k / d_(k-1) on 600 seeded integer
    matrices with at most 5 rows and columns, among them matrices with
    zero rows, rank-deficient and non-square ones."""
    from hermstab.lattices import cokernel_invariants
    from oracles import determinantal_invariants

    rng = random.Random(511)
    seen = {"zero row": 0, "rank-deficient": 0, "non-square": 0, "torsion": 0}
    for trial in range(600):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        bound = rng.choice([2, 9, 60])
        rows = [[rng.randint(-bound, bound) for _ in range(m)] for _ in range(n)]
        if trial % 4 == 1:
            rows[rng.randrange(n)] = [0] * m
        if trial % 4 == 2 and n > 2:
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            rows[-1] = [a * u + b * v for u, v in zip(rows[0], rows[1])]
        if trial % 3 == 0:
            c = rng.randint(2, 6)
            rows = [[c * u for u in row] for row in rows]
        expected = determinantal_invariants(rows, m)
        assert cokernel_invariants(rows, m) == expected, rows
        torsion, free = expected
        seen["zero row"] += [0] * m in rows
        seen["rank-deficient"] += m - free < min(n, m)
        seen["non-square"] += n != m
        seen["torsion"] += bool(torsion)
    assert all(seen.values()), seen


def test_cokernel_invariants_of_a_dense_6x5_matrix():
    """A dense 6 x 5 matrix of full rank and trivial cokernel: pivoting on
    the smallest entry with floor division swaps rows and columns here
    without end, alternating Hermite forms finish at once."""
    from hermstab.lattices import cokernel_invariants
    from oracles import determinantal_invariants

    rows = [
        [-63, 0, 51, 97, -28],
        [-94, -9, 94, 0, -97],
        [83, -91, 0, -24, 0],
        [89, 43, 32, -70, 39],
        [-100, -4, 67, -47, 0],
        [-2, 76, 0, -5, -75],
    ]
    assert cokernel_invariants(rows, 5) == determinantal_invariants(rows, 5) == ([], 0)


def test_h0_witnesses():
    ref1 = reference_search(EX1)
    h0, k0 = h0_search(EX1, ref1)
    assert k0 == 0
    assert total_signature(EX1, h0, ref1).values == (1,)
    ref4 = reference_search(EX4)
    h04, k04 = h0_search(EX4, ref4)
    assert k04 == 1
    assert total_signature(EX4, h04, ref4).values == (2, 0)


def test_h0_on_multi_ordering_division_kind():
    A = QuaternionAlgebra(F2, -1, -1)  # definite at both orderings
    ref = reference_search(A)
    h0, k0 = h0_search(A, ref)
    vec = total_signature(A, h0, ref)
    assert set(vec.values) == {1 << k0}


def _h0_corpus():
    """Fresh algebras: the four examples, the deep workloads' two, and
    seeded draws of every catalogue kind and of ``random_wrapper``."""
    L2 = LX.adjoin_laurent()
    F2XY = F2.adjoin_laurent().adjoin_laurent()
    algebras, _ = catalogue_corpus("h0", 24)
    return [
        QuaternionAlgebra(Q, -1, -1),
        QuaternionAlgebra(Q, -1, -1, "orthogonal", [0, 1, 0, 0]),
        QuaternionAlgebra(F2, -1, -F2.generator()),
        QuaternionAlgebra(LX, LX.generator(), -1, "orthogonal", [0, 0, 1, 0]),
        QuaternionAlgebra(L2, L2.generator(1), -1, "orthogonal", [0, 0, 1, 0]),
        QuaternionAlgebra(F2XY, -1, F2XY.generator(2)),
        *algebras,
    ]


def _negated_reference():
    """(-1, -1)_Q read against <-1, -1>, whose sign is -1: the reference
    has total signature 2, and <1> has -1, so h0 is -<1>, the negative of
    the first candidate pair."""
    A = QuaternionAlgebra(Q, -1, -1)
    form = HermitianForm.diagonal(A, [-1, -1])
    ref = ReferenceForm(A, form, reference_signs(A, form))
    assert ref.deltas == {Q.orderings()[0].path: -1}
    return A, ref


def test_h0_search_matches_the_full_walk_and_stops_at_one(monkeypatch):
    """h0_search reads the reference and the first member of each +- pair
    of candidates in walk order, up to and including the first with
    constant signature 1, and picks what a scan of the reference and the
    independently built candidates, negatives included, picks: an equal
    form and the same k0.  A negative is picked once, from a hand-built
    reference."""
    import hermstab.stability as stability

    cases = []
    for A in _h0_corpus():
        try:
            cases.append((A, reference_search(A)))
        except SearchExhausted:
            continue
    cases.append(_negated_reference())
    real = stability.total_signature
    simple = stopped = negatives = 0
    for A, ref in cases:
        space = NilAwareSpace(A)
        if not space.dim:
            continue
        reads = []

        def counted(B, h, reference, budget=50):
            reads.append(h)
            return real(B, h, reference, budget)

        with monkeypatch.context() as patch:
            patch.setattr(stability, "total_signature", counted)
            h0, k0 = h0_search(A, ref)
        candidates = [ref.form, *A.reference_pairs]
        ones = [
            t for t, h in enumerate(candidates)
            if set(space.restrict(real(A, h, ref))) == {1}
        ]
        stop = ones[0] + 1 if ones else len(candidates)
        assert all(r is h for r, h in zip(reads[:stop], candidates[:stop], strict=True))
        expected = full_walk_h0(A, ref)
        if expected is None:
            continue
        assert len(reads) == stop and h0 == expected[0] and k0 == expected[1]
        simple += 1
        stopped += stop < len(candidates)
        negatives += any(h0 == -h for h in A.reference_pairs)
    assert simple >= 15 and stopped >= 8 and negatives == 1


def test_cold_report_builds_only_the_negatives_it_picks(monkeypatch):
    """A cold stability report negates a form (a counted call of
    ``HermitianForm.__neg__``) only to return the negative as h0 or to
    assemble it into a piecewise form; the report against the hand-built
    reference negates exactly once, for its h0."""
    import hermstab.signatures as signatures
    import hermstab.stability as stability

    built, pieces = [], []
    neg = HermitianForm.__neg__

    def counted_neg(h):
        out = neg(h)
        built.append(out)
        return out

    def recorded(module):
        real = module.piecewise_form

        def assemble(field, parts):
            parts = list(parts)
            pieces.extend(h for _, h, _ in parts)
            return real(field, parts)

        return assemble

    monkeypatch.setattr(HermitianForm, "__neg__", counted_neg)
    for module in (signatures, stability):
        monkeypatch.setattr(module, "piecewise_form", recorded(module))
    reports = 0
    for A in _h0_corpus():
        built.clear(), pieces.clear()
        try:
            report = stability_report(A)
        except SearchExhausted:
            continue
        picked = [report.h0, *pieces]
        assert all(any(b is p for p in picked) for b in built), A.describe()
        reports += 1
    assert reports >= 25
    built.clear(), pieces.clear()
    A, ref = _negated_reference()
    report = stability_report(A, ref)
    assert built == [report.h0] and report.k0 == 0


def test_st_bounded_by_field_index_plus_k0():
    for A in (EX1, EX2, EX3, EX4):
        rep = stability_report(A)
        st_f = stability_report(FieldAlgebra(A.field)).st
        if rep.st != math.inf:
            assert rep.st <= st_f + rep.k0


def test_relative_stability_examples():
    ref1 = reference_search(EX1)
    n0, to_quadratic = relative_stability(EX1, ref1)
    assert n0 == 0
    q = to_quadratic(HermitianForm.diagonal(EX1, [EX1.elem(EX1.one())]))
    assert q.signature(Q.orderings()[0]) == 1
    ref4 = reference_search(EX4)
    n04, to_q4 = relative_stability(EX4, ref4)
    assert n04 == 0
    h = HermitianForm.diagonal(EX4, [EX4.elem(EX4.one())])
    q4 = to_q4(h)
    assert [q4.signature(P) for P in LX.orderings()] == [2, 0]


def test_relative_constructor_random():
    rng = random.Random(81)
    ref = reference_search(EX3)
    n0, to_q = relative_stability(EX3, ref)
    for _ in range(8):
        h = random_hermitian_diagonal(rng, EX3, rank=rng.randint(1, 3))
        qh = to_q(h)
        target = total_signature(EX3, h, ref)
        assert [qh.signature(P) for P in F2.orderings()] == [
            v * (1 << n0) for v in target.values
        ]


def test_probe_enlargement_monotone():
    """More probes never shrink the lattice or raise the index."""
    ref = reference_search(EX4)
    base = stability_report(EX4, ref)
    default = Probes.default(EX4)
    extra = Probes(
        default.sym_forms,
        default.field_elements + [LX.rational(3), 1 + LX.generator()],
    )
    bigger = stability_report(EX4, ref, probes=extra)
    assert bigger.st <= base.st
    for row in base.lattice.basis:
        assert bigger.lattice.member(row)


@pytest.mark.parametrize(
    "field",
    [Q, F2, LX, F2.adjoin_laurent()],
    ids=["Q", "Q(s2)", "Q((x))", "Q(s2)((x))"],
)
def test_probe_signatures_match_pfister_forms(field):
    """The sign rule agrees with the signatures of the Pfister forms it
    names, for every probe and every ordering, in the enumeration order
    <1>, then subsets by mask, then sign flips."""
    elements = [field.rational(-1)] + field.generators() + [field.rational(3)]
    if field.depth > 1:
        elements.append(1 + field.generator())
    orderings = field.orderings()
    probes = _probe_signatures(field, elements, orderings)
    expected_slots = [[]]
    for mask in range(1, 1 << len(elements)):
        chosen = [a for i, a in enumerate(elements) if mask >> i & 1]
        for flips in range(1 << len(chosen)):
            expected_slots.append(
                [-a if flips >> j & 1 else a for j, a in enumerate(chosen)]
            )
    assert [slots for _, slots in probes] == expected_slots
    for vector, slots in probes:
        q = pfister(field, slots)
        assert vector == tuple(q.signature(P) for P in orderings), slots


def test_probe_signatures_reject_zero_slots():
    with pytest.raises(SingularFormError, match="Pfister slots must be nonzero"):
        _probe_signatures(LX, [LX.rational(-1), LX.zero()], LX.orderings())


def test_depth_three_conjugation_report():
    """(-1, x) with conjugation over Q(sqrt 2)((x))((y)): 8 orderings."""
    field = F2.adjoin_laurent().adjoin_laurent()
    A = QuaternionAlgebra(field, -1, field.generator(2))
    rep = stability_report(A)
    assert len(field.orderings()) == 8
    assert rep.group_description() == "Z/2Z x Z/2Z x Z/4Z"
    assert rep.st == 2
    assert rep.exact


def test_depth_two_orthogonal_report():
    """(x, -1) with an orthogonal involution over Q((x))((y)): 4 orderings."""
    field = LX.adjoin_laurent()
    A = QuaternionAlgebra(field, field.generator(1), -1, "orthogonal", [0, 0, 1, 0])
    rep = stability_report(A)
    assert len(field.orderings()) == 4
    assert rep.group_description() == "Z/2Z x Z/4Z"
    assert rep.st == 2
    assert rep.exact


def test_lattice_generators_recheck():
    ref = reference_search(EX3)
    lat = image_lattice(EX3, ref)
    for idx in range(0, len(lat.generators), 7):
        assert lat.recheck_generator(idx)


def test_quadratic_lattice_matches_brute_force_over_q():
    """Over (Q, id) the generated lattice equals the set of vectors
    reachable by bounded integer combinations of the probes."""
    gens, basis, transform, exact = quadratic_image_lattice(Q)
    assert exact
    vectors = sorted({v[0] for v, _ in gens})
    reachable = set()
    bound = 8

    def walk(i, acc):
        if i == len(vectors):
            reachable.add(acc)
            return
        for c in range(-bound, bound + 1):
            walk(i + 1, acc + c * vectors[i])

    walk(0, 0)
    from hermstab.lattices import lattice_member

    box = max(abs(v) for v in reachable)
    members = {v for v in range(-box, box + 1) if lattice_member(basis, (v,))}
    assert members == {v for v in reachable if abs(v) <= box}


def test_invariance_suite_example_one():
    suite = invariance_suite(EX1)
    assert suite["ok"], suite


def test_matrix_wrapper_reports_match():
    rep = stability_report(EX3)
    wrapper = MatrixAlgebra(2, EX3)
    wrep = stability_report(wrapper)
    assert wrep.invariant_factors == rep.invariant_factors
    assert wrep.st == rep.st
    assert wrep.free_rank == rep.free_rank


def test_unitary_kind_report():
    A = UnitaryQuadraticAlgebra(F2, -2)  # nil set empty: -2 negative everywhere
    rep = stability_report(A)
    assert rep.st == 1  # same ordering structure as the base field
    assert rep.exact


def test_piecewise_h0_assembly():
    """No rank-one candidate has nonzero signature at both orderings, so
    the reference is the piecewise form, of constant signature 4; h0_search
    takes it from its first loop, and h0 is that rank-4 reference with
    k0 = 2.  (Its own piecewise fallback is not reached here.)"""
    A = QuaternionAlgebra(F2, 1, F2.generator(), "orthogonal", [0, 1, 0, 0])
    ref = reference_search(A)
    h0, k0 = h0_search(A, ref)
    vec = total_signature(A, h0, ref)
    assert set(vec.values) == {1 << k0}
    assert k0 == 2 and h0.rank == 4


def _recorded_h0(monkeypatch, A, ref):
    """h0_search(A, ref) with its one piecewise assembly recorded: the
    form and k0, and the pieces' pads, after checking that the assembly
    is the form that scaling each piece by its Pfister form and then by
    its padding gives."""
    import hermstab.stability as stability

    calls = []
    real = stability.piecewise_form

    def recording(field, pieces):
        out = real(field, pieces)
        calls.append((field, list(pieces), out))
        return out

    with monkeypatch.context() as patch:
        patch.setattr(stability, "piecewise_form", recording)
        h0, k0 = h0_search(A, ref)
    [(field, pieces, out)] = calls
    assert h0 is out
    expected = stepwise_piecewise_form(field, pieces)
    assert (out.gram, out.epsilon) == (expected.gram, expected.epsilon)
    assert out.to_json() == expected.to_json()
    return h0, k0, [pad for _, _, pad in pieces]


def test_piecewise_h0_matches_stepwise_assembly(monkeypatch):
    """h0's fallback pads its pieces with <1, ..., 1> inside the one
    piecewise assembly and gives the form that scaling each piece by its
    Pfister form and then by its padding gives.  It is reached from a
    hand-built reference over (x, 1)_Q((x)) with Int(j)conj, the searched
    one plus its first piece again, so its signature is 8 at one ordering
    and 4 at the other, and from the searched reference <1> over
    (M_4(Q(sqrt 2)), ad_g), g = (1, 1, 1, sqrt 2), whose signature is
    (4, 2): in both, no candidate is constant."""
    A = QuaternionAlgebra(LX, LX.generator(), 1, "orthogonal", [0, 0, 1, 0])
    entries = reference_search(A).form.diagonal_entries()
    form = HermitianForm.diagonal(A, list(entries) + list(entries[:2]))
    ref = ReferenceForm(A, form, reference_signs(A, form))
    assert total_signature(A, form, ref).values == (8, 4)
    h0, k0, pads = _recorded_h0(monkeypatch, A, ref)
    assert pads == [0, 1]
    assert k0 == 4 and set(total_signature(A, h0, ref).values) == {16}

    D = FieldAlgebra(F2)
    one = D.elem(D.one())
    A = MatrixAlgebra(4, D, [one, one, one, D.from_field(F2.generator())])
    ref = reference_search(A)
    assert ref.form is A.reference_pairs[0]
    assert total_signature(A, ref.form, ref).values == (4, 2)
    space = NilAwareSpace(A)
    vectors = {
        space.restrict(total_signature(A, cand, ref))
        for h in A.reference_pairs
        for cand in (h, -h)
    }
    assert vectors == {(4, 2), (-4, -2), (0, 0)}
    h0, k0, pads = _recorded_h0(monkeypatch, A, ref)
    assert pads == [0, 1]
    assert k0 == 3 and h0.rank == 6
    assert set(total_signature(A, h0, ref).values) == {8}
    report = stability_report(A)
    assert (report.group_description(), report.st, report.exact) == ("Z/2Z", 1, True)


def test_split_algebra_reports_are_lower_bounds():
    """A globally split quaternion part caps what Gram-matrix forms can
    realize, so such reports must not claim exactness."""
    A = QuaternionAlgebra(Q, 1, 7, "orthogonal", [0, 0, 1, 0])
    rep = stability_report(A)
    assert not rep.exact
    # the four division examples stay certified
    assert stability_report(EX4).exact


@pytest.mark.parametrize(
    "A, c_p", [(FieldAlgebra(F2), 1), (EX4, 2)], ids=["trace-form", "split-certificate"]
)
def test_value_groups_attained_needs_each_coordinate_to_reach_c_p(A, c_p):
    """Exactness needs every non-nil coordinate to attain exactly c_P Z:
    a coordinate no probe reaches, or one whose gcd is a proper multiple
    of c_P, leaves the lattice unproven."""
    space = NilAwareSpace(A)
    n = space.dim
    assert n >= 1

    def vec(i, v):
        return tuple(v if j == i else c_p for j in range(n))

    assert _value_groups_attained(A, space, [vec(0, c_p), vec(0, 3 * c_p)])
    for i in range(n):
        # coordinate i is zero on every probe
        assert not _value_groups_attained(A, space, [vec(i, 0), vec(i, 0)])
        # coordinate i only reaches 2 c_P Z
        assert not _value_groups_attained(A, space, [vec(i, 2 * c_p), vec(i, -6 * c_p)])


def test_all_nil_report():
    rep = stability_report(EX2)
    assert rep.group_description() == "0"
    assert rep.st == 0
    assert rep.h0.rank == 0 and rep.k0 == 0
    assert rep.n0 == 0


def test_space_restrict_rejects_nonvanishing():
    space = NilAwareSpace(EX3)
    from hermstab.quadratic import SignatureVector

    bad = SignatureVector(F2, (0, 5))
    with pytest.raises(Exception):
        space.restrict(bad)


def test_m12_wrapper_candidates_finish():
    """A symmetric basis element of M_12(Q) has zero rows, so the candidate
    walk of (M_12(Q), ad_g) rejects it without a Gauss-Jordan inverse: the
    reference, the lattice and the whole walk that h0_search reads finish
    in seconds."""
    t0 = time.perf_counter()
    D = FieldAlgebra(Q)
    M = MatrixAlgebra(12, D, [D.elem(D.one())] * 11 + [D.from_field(Q.rational(-1))])
    ref = reference_search(M)
    assert image_lattice(M, ref).basis == [(1,)]
    assert M.reference_pairs
    assert time.perf_counter() - t0 < 5


def test_report_builds_quadratic_basis_once(monkeypatch):
    """A report builds the Hermite basis of the default probes' quadratic
    image once, over every ordering, and never enumerates the Pfister
    forms; the lattice has one generator per hermitian probe and basis
    row, read off its non-nil coordinates, and relative_stability reuses
    the basis.  With other field probes relative_stability builds the
    default basis itself, and n0 does not change."""
    import hermstab.stability as stability

    calls = []
    real = stability._quadratic_basis
    enumeration = stability._probe_signatures

    def counting(field, elements, orderings, recipes=False):
        calls.append((orderings, recipes))
        return real(field, elements, orderings, recipes)

    def refused(*args):
        raise AssertionError("the Pfister forms were enumerated")

    monkeypatch.setattr(stability, "_quadratic_basis", counting)
    monkeypatch.setattr(stability, "_probe_signatures", refused)
    A = EX4
    ref = reference_search(A)
    report = stability_report(A, ref)
    assert calls == [(A.field.orderings(), False)]
    lattice = report.lattice
    space = lattice.space
    assert space.nil_indices
    defaults = [A.field.rational(-1), *A.field.generators()]
    full = enumeration(A.field, defaults, A.field.orderings())
    assert lattice.quadratic_basis == hnf([v for v, _ in full])
    nil = space.nil_indices
    rows = [tuple(v for i, v in enumerate(r) if i not in nil) for r in lattice.quadratic_basis]
    probe = space.restrict(total_signature(A, Probes.default(A).sym_forms[0], ref))
    gens = [v for v, _ in lattice.generators[: len(rows)]]
    assert gens == [tuple(a * b for a, b in zip(r, probe)) for r in rows]
    assert len(lattice.generators) <= len(Probes.default(A).sym_forms) * len(A.field.orderings())
    calls.clear()
    assert relative_stability(A, ref, lattice)[0] == report.n0
    assert calls == []
    probes = Probes(Probes.default(A).sym_forms, [A.field.rational(-1)])
    lattice = image_lattice(A, ref, probes)
    n0, _ = relative_stability(A, ref, lattice)
    assert calls == [(A.field.orderings(), False), (A.field.orderings(), False)]
    assert n0 == report.n0


@pytest.mark.parametrize(
    "field",
    [Q, F2, LX, F2.adjoin_laurent()],
    ids=["Q", "Q(s2)", "Q((x))", "Q(s2)((x))"],
)
def test_quadratic_basis_matches_enumeration(field):
    """The basis built one probe at a time is the Hermite form of every
    Pfister signature, and the recipes replayed with it give each row and
    each sum of rows as the signature of a form; a vector outside the
    span has none."""
    elements = [field.rational(-1)] + field.generators() + [field.rational(3)]
    if field.depth > 1:
        elements.append(1 + field.generator())
    orderings = field.orderings()
    basis = _quadratic_basis(field, elements, orderings)
    assert basis == hnf([v for v, _ in _probe_signatures(field, elements, orderings)])
    assert _quadratic_basis(field, elements, orderings, recipes=True)[0] == basis
    targets = [*basis, tuple(sum(col) for col in zip(*basis))]
    for target in targets:
        q = _pfister_witness(field, elements, orderings, target)
        assert tuple(q.signature(P) for P in orderings) == target
    odd = (1,) + (0,) * (len(orderings) - 1)
    if odd not in set(targets):
        assert _pfister_witness(field, elements, orderings, odd) is None


def _extra_probes(A, count):
    field = A.field
    g = field.generator()
    pairs = [(1, 1), (-3, 1), (1, -1), (0, 3), (2, -5), (5, 0)]
    default = Probes.default(A)
    extra = [field.rational(c) + field.rational(d) * g for c, d in pairs[:count]]
    return Probes(default.sym_forms, default.field_elements + extra)


def _oracle_cases():
    conj_field = F2.adjoin_laurent().adjoin_laurent()
    orth_field = LX.adjoin_laurent()
    deep4 = LX.adjoin_laurent().adjoin_laurent().adjoin_laurent()
    cases = [
        pytest.param(A, None, id=f"ex{i}") for i, A in enumerate((EX1, EX2, EX3, EX4), 1)
    ]
    cases += [
        pytest.param(
            QuaternionAlgebra(conj_field, -1, conj_field.generator(2)), None, id="deep_conj"
        ),
        pytest.param(
            QuaternionAlgebra(orth_field, orth_field.generator(1), -1, "orthogonal", [0, 0, 1, 0]),
            None,
            id="deep_orth",
        ),
        pytest.param(
            QuaternionAlgebra(deep4, deep4.generator(1), -1, "orthogonal", [0, 0, 1, 0]),
            None,
            id="depth4",
        ),
    ]
    for A, name in ((EX3, "Q(s2)"), (EX4, "Q((x))")):
        for count in (4, 6):
            cases.append(pytest.param(A, _extra_probes(A, count), id=f"{name}+{count}"))
    return cases


@pytest.mark.parametrize("A, probes", _oracle_cases())
def test_report_lattice_matches_enumeration(A, probes):
    """The report's lattice, st, n0 and exact equal those of the 3^m
    enumeration of Pfister forms, and every generator rechecks."""
    ref = reference_search(A)
    report = stability_report(A, ref, probes)
    basis, st, n0, exact = enumerated_image(A, ref, probes)
    assert report.lattice.basis == basis
    assert (report.st, report.n0, report.exact) == (st, n0, exact)
    if probes is None and A.field.depth <= 2:
        for idx in range(len(report.lattice.generators)):
            assert report.lattice.recheck_generator(idx)


def test_corpus_lattices_match_enumeration():
    done = skipped = 0
    for i in range(42):
        rng = random.Random(f"lattice-{i}")
        try:
            A = random_algebra(rng, random_tower(rng, max_depth=2))
            ref = reference_search(A)
        except (SamplingError, SearchExhausted):
            skipped += 1
            continue
        report = stability_report(A, ref)
        basis, st, n0, exact = enumerated_image(A, ref)
        assert report.lattice.basis == basis, A
        assert (report.st, report.n0, report.exact) == (st, n0, exact), A
        done += 1
    assert done >= 40
    assert_skip_rate(skipped, done)


def _image_invariants(A, ref):
    """((invariant factors, free rank, st, exact), lattice) of the
    signature image against ``ref``, as ``stability_report`` reads them."""
    lattice = image_lattice(A, ref)
    factors, free = cokernel_invariants(list(lattice.basis), lattice.space.dim)
    return (factors, free, _stability_index(lattice), lattice.certified_exact), lattice


def _assert_read_on_inner(W, ref_W):
    """The wrapper's image has D's invariants, its basis is hnf(eps . D's
    basis) for eps(P) = delta_W(P) delta_D(P), and every generator
    rechecks; returns eps.  The basis check reads D's lattice and the two
    references' signs only, not the wrapper's reduction."""
    ref_D = reference_search(W.inner)
    got, lattice = _image_invariants(W, ref_W)
    expected, inner = _image_invariants(W.inner, ref_D)
    assert got == expected, W.describe()
    eps = [ref_W.delta(P) * ref_D.delta(P) for P in inner.space.coords]
    signed = [tuple(e * v for e, v in zip(eps, row)) for row in inner.basis]
    assert lattice.basis == hnf(signed), W.describe()
    for idx in range(len(lattice.generators)):
        assert lattice.recheck_generator(idx), (W.describe(), idx)
    return eps


def test_wrapper_images_are_read_on_the_inner_algebra():
    """M_3 wrappers over Q((x1))((x2)) whose reference signs differ from
    D's at some orderings only: their image is D's up to those signs, so
    the group, st and exact are D's ((x, -1) orthogonal and the scaling
    (1, 1, x1 x2) are controls)."""
    F = LX.adjoin_laurent()
    x1, x2 = F.generators()
    inners = [
        FieldAlgebra(F),
        QuaternionAlgebra(F, -1, -1),
        UnitaryQuadraticAlgebra(F, -1),
        QuaternionAlgebra(F, x1, -1, "orthogonal", [0, 0, 1, 0]),
    ]
    scalings = [(1, x1, x2), (1, -x1, -x2), (x1, x2, x1 * x2), (1, 1, x1 * x2)]
    mixed = 0
    for D, g in product(inners, scalings):
        W = MatrixAlgebra(3, D, [D.from_field(c) for c in g])
        mixed += len(set(_assert_read_on_inner(W, reference_search(W)))) > 1
    assert mixed == 11


def _scaled_reference(W, ref_D):
    """A reference of W = (M_n(D), ad_g): over each entry d of D's
    diagonal reference, diag(e_1 d, ..., e_n d), for the first signs e
    with a nonzero signature at every non-nil ordering.  It flattens to
    the sum of the e_i g_i times D's reference, so its signs differ from
    D's where those of sum e_i g_i are negative."""
    D, n = W.inner, W.n
    entries = [row[i] for i, row in enumerate(ref_D.form.gram)]
    for signs in product((1, -1), repeat=n):
        diagonals = [
            tuple(
                tuple((d if signs[i] > 0 else D.neg(d)) if i == j else D.zero() for j in range(n))
                for i in range(n)
            )
            for d in entries
        ]
        form = HermitianForm.diagonal(W, [W.elem(x) for x in diagonals])
        deltas = reference_signs(W, form)
        if not isinstance(deltas, Ordering):
            return ReferenceForm(W, form, deltas)
    raise SamplingError("no sign choice keeps a nonzero signature")


def test_corpus_wrappers_are_read_on_the_inner_algebra():
    """The same checks on a seeded corpus of ``random_wrapper`` draws over
    random non-exchange algebras on towers of depth <= 2.  For n = 4 the
    wrapper's own candidate walk finds no reference when the g_i cancel
    at an ordering (every candidate but <1> is singular or hyperbolic
    there), and takes up to half a minute to say so; those wrappers are
    read against ``_scaled_reference``."""
    kinds = (
        "field_id", "unitary_quadratic", "quaternion-conj", "quaternion-orth", "unitary_quaternion"
    )
    done = skipped = mixed = 0
    for i in range(20):
        rng = random.Random(f"morita-{i}")
        try:
            D = random_algebra(rng, random_tower(rng, max_depth=2), kinds)
            W = random_wrapper(rng, D)
            ref_W = reference_search(W) if W.n < 4 else _scaled_reference(W, reference_search(D))
        except (SamplingError, SearchExhausted):
            skipped += 1
            continue
        mixed += len(set(_assert_read_on_inner(W, ref_W))) > 1
        done += 1
    assert mixed >= 3
    assert_skip_rate(skipped, done)


def _sweep_31_algebras():
    """The algebras of the seeded depth-3 corpus sweep: one
    ``random_algebra`` on ``random_tower(max_depth=3)`` per seed 31-i."""
    for i in range(60):
        rng = random.Random(f"31-{i}")
        yield random_algebra(rng, random_tower(rng, max_depth=3))


def test_exactness_rules_match_their_oracles():
    """Pattern completeness, read off the ordering count of each prefix
    tower, agrees with re-signing every radicand at every base ordering;
    division, read off the local types and over Q the Hilbert symbols,
    agrees with the signs of a and b and the Hilbert symbols at every
    prime of the parameters.  Both verdicts of both rules occur."""
    rng = random.Random(2828)
    towers = tower_shapes() + [random_tower(rng, max_depth=3) for _ in range(40)]
    algebras = list(_sweep_31_algebras())
    skipped = 0
    for field in towers:
        for kind in ("quaternion-conj", "quaternion-orth", "unitary_quaternion"):
            try:
                algebras.append(random_algebra(rng, field, kinds=(kind,)))
            except SamplingError:
                skipped += 1
    assert_skip_rate(skipped, len(algebras))
    patterns, division = set(), set()
    for field in towers + [A.field for A in algebras]:
        verdict = _field_patterns_complete(field)
        assert verdict == patterns_complete_by_signs(field), field
        patterns.add(verdict)
    for A in algebras:
        verdict = _division_certain(A)
        assert verdict == division_by_signs(A), A
        division.add((A.field.depth == 1, verdict))
    assert patterns == {True, False}
    assert division == {(True, True), (True, False), (False, True), (False, False)}


def test_deep_report_runs_no_isotropy_search(monkeypatch):
    """The orthogonal (3 + x2, 5 - x2^2) report over Q(sqrt 2)((x1))((x2))
    is definite at no ordering, so its division is left unknown at once:
    Hilbert symbols are consulted only over Q, and no bounded isotropy
    search runs.  The report is the one from before (sha256 of its sorted,
    indented JSON) and finishes in well under a second."""
    import hermstab.stability as stability

    depths = []
    real = stability.is_division_quaternion

    def spy(a, b, field):
        depths.append(field.depth)
        return real(a, b, field)

    monkeypatch.setattr(stability, "is_division_quaternion", spy)
    F = F2.adjoin_laurent().adjoin_laurent()
    x2 = F.generator()
    A = QuaternionAlgebra(F, 3 + x2, 5 - x2 * x2, "orthogonal", [0, 0, 1, 0])
    t0 = time.perf_counter()
    report = stability_report(A)
    assert time.perf_counter() - t0 < 1
    text = json.dumps(report.to_json(), sort_keys=True, indent=2)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "dda0e9a572e7717d9669be3c03d67ca254cf599e0dffda6d991375509bdaee73"
    )
    assert not report.exact
    for A in (EX1, EX3, EX4, QuaternionAlgebra(Q, 3, -1, "orthogonal", [0, 0, 1, 0])):
        stability_report(A)
    assert depths == [1]
