import math
import random
import signal
from fractions import Fraction

import pytest

from hermstab.fields import FieldTower, MismatchError
from hermstab.quadratic import (
    QuadraticForm,
    SingularFormError,
    diagonalize_gram,
    hilbert_symbol,
    is_division_quaternion,
    is_witt_trivial_q,
    knebusch_check,
    pfister,
    relevant_places,
    scharlau_transfer,
)

from corpus import (
    SamplingError,
    assert_skip_rate,
    random_element,
    random_quadratic_extension,
    random_quadratic_form,
    random_tower,
    tower_shapes,
)
from oracles import hilbert_oracle

Q = FieldTower.rationals()
F2 = Q.adjoin_sqrt(2)
LX = Q.adjoin_laurent()
P0 = Q.orderings()[0]


def test_diagonalize_examples():
    assert diagonalize_gram(Q, [[1, 0], [0, -1]]).entries == QuadraticForm(
        Q, [1, -1]
    ).entries
    hyp = diagonalize_gram(Q, [[0, 1], [1, 0]])
    assert hyp.signature(P0) == 0
    prod = hyp.entries[0] * hyp.entries[1]
    assert (-prod).is_square()  # <1, -1> up to squares
    assert diagonalize_gram(Q, [[2, 0], [0, 4]]).entries == QuadraticForm(
        Q, [2, 4]
    ).entries


def test_diagonalize_singular():
    with pytest.raises(SingularFormError):
        diagonalize_gram(Q, [[1, 1], [1, 1]])


def test_diagonalize_congruence_invariance():
    """Congruent Gram matrices diagonalize to forms with equal signatures."""
    rng = random.Random(21)
    for _ in range(40):
        field = random_tower(rng)
        n = rng.randint(1, 3)
        diag = [
            random_element(rng, field, height=4, nonzero=True, simple=True)
            for _ in range(n)
        ]
        gram = [
            [diag[i] if i == j else field.zero() for j in range(n)]
            for i in range(n)
        ]
        # congruence by a random unipotent change of basis
        S = [
            [
                field.one()
                if i == j
                else (
                    field.rational(rng.randint(-2, 2)) if i < j else field.zero()
                )
                for j in range(n)
            ]
            for i in range(n)
        ]
        moved = [
            [
                sum(
                    (S[k][i] * gram[k][t] * S[t][j] for k in range(n) for t in range(n)),
                    field.zero(),
                )
                for j in range(n)
            ]
            for i in range(n)
        ]
        q1 = QuadraticForm(field, diag)
        q2 = diagonalize_gram(field, moved)
        for P in field.orderings():
            assert q1.signature(P) == q2.signature(P)


def test_signature_examples():
    q = QuadraticForm(Q, [1, 1])
    assert q.signature(P0) == 2
    v = QuadraticForm(F2, [F2.one(), -F2.generator()]).signature_vector()
    assert v.values == (0, 2)


def test_signature_ring_morphism():
    rng = random.Random(22)
    for _ in range(40):
        field = random_tower(rng)
        q1 = random_quadratic_form(rng, field)
        q2 = random_quadratic_form(rng, field)
        s1 = q1.signature_vector().values
        s2 = q2.signature_vector().values
        assert (q1 + q2).signature_vector().values == tuple(
            a + b for a, b in zip(s1, s2)
        )
        assert (q1 * q2).signature_vector().values == tuple(
            a * b for a, b in zip(s1, s2)
        )
        c = random_element(rng, field, nonzero=True)
        killer = QuadraticForm(field, [c, -c])
        assert killer.signature_vector().is_zero()


def test_pfister_examples():
    assert pfister(Q, []).entries == QuadraticForm(Q, [1]).entries
    r2 = F2.generator()
    assert pfister(F2, [r2]).signature_vector().values == (2, 0)
    assert pfister(Q, [-1]).signature_vector().is_zero()


def test_pfister_support():
    rng = random.Random(23)
    for _ in range(40):
        field = random_tower(rng)
        r = rng.randint(0, 2)
        slots = [random_element(rng, field, nonzero=True) for _ in range(r)]
        q = pfister(field, slots)
        for P in field.orderings():
            expected = 2**r if all(a.sign_at(P) > 0 for a in slots) else 0
            assert q.signature(P) == expected


def test_transfer_examples():
    tr = scharlau_transfer(F2, QuadraticForm(F2, [1]))
    assert tr.entries == QuadraticForm(Q, [2, 4]).entries
    assert tr.signature(P0) == 2
    tr2 = scharlau_transfer(F2, QuadraticForm(F2, [F2.generator()]))
    assert tr2.signature(P0) == 0
    assert is_witt_trivial_q(tr2)


def test_transfer_zero_signature_on_empty_fibers():
    """Where the radicand is negative, no ordering extends and the
    transferred form has zero signature there, for any form."""
    rng = random.Random(31)
    x = LX.generator()
    L = LX.adjoin_sqrt(x)  # x > 0 only at x -> 0+
    below_minus = LX.orderings()[1]
    assert all(not Qo.extends(below_minus) for Qo in L.orderings())
    for _ in range(10):
        phi = random_quadratic_form(rng, L, dim=rng.randint(1, 3))
        tr = scharlau_transfer(L, phi)
        assert tr.signature(below_minus) == 0


def test_totally_negative_radicands_are_rejected():
    # fields in the grammar stay formally real: a square root of a totally
    # negative element would kill every ordering
    d = -(LX.generator() ** 2) - 1
    assert all(d.sign_at(P) < 0 for P in LX.orderings())
    import hermstab.fields as fields

    with pytest.raises(fields.TowerError):
        LX.adjoin_sqrt(d)


def test_knebusch_on_random_extensions():
    rng = random.Random(24)
    checked = skipped = 0
    while checked < 200:
        base = random_tower(rng, max_depth=1)
        try:
            L = random_quadratic_extension(rng, base)
        except SamplingError:
            skipped += 1
            continue
        phi = random_quadratic_form(rng, L, dim=rng.randint(1, 3))
        assert knebusch_check(L, phi)
        checked += 1
    assert_skip_rate(skipped, checked)


def test_hilbert_symbol_examples():
    assert hilbert_symbol(-1, -1, math.inf) == -1
    assert hilbert_symbol(-1, -1, 2) == -1
    assert hilbert_symbol(2, 3, 5) == 1


def test_hilbert_symbol_bilinear_and_product():
    rng = random.Random(25)
    for _ in range(500):
        a = Fraction(rng.randint(-50, 50))
        b1 = Fraction(rng.randint(-50, 50))
        b2 = Fraction(rng.randint(-50, 50))
        if 0 in (a, b1, b2):
            continue
        places = relevant_places([a, b1, b2])
        for pl in places:
            assert hilbert_symbol(a, b1 * b2, pl) == hilbert_symbol(
                a, b1, pl
            ) * hilbert_symbol(a, b2, pl)
        prod = 1
        for pl in relevant_places([a, b1]):
            prod *= hilbert_symbol(a, b1, pl)
        assert prod == 1


def test_hilbert_symbol_against_search_oracle():
    rng = random.Random(26)
    checked = 0
    while checked < 500:
        a = rng.randint(-40, 40)
        b = rng.randint(-40, 40)
        if a == 0 or b == 0:
            continue
        place = rng.choice([math.inf, 2, 3, 5, 7, 11, 13])
        if place not in (math.inf, 2) and place > 7 and (a * b) % place == 0:
            continue  # keep the search oracle's modulus small
        assert hilbert_symbol(a, b, place) == hilbert_oracle(a, b, place), (
            a,
            b,
            place,
        )
        checked += 1


def test_witt_trivial_examples():
    assert is_witt_trivial_q(QuadraticForm(Q, [1, -1]))
    assert not is_witt_trivial_q(QuadraticForm(Q, [1, 1]))
    assert is_witt_trivial_q(QuadraticForm(Q, [1, 1, -2, -2]))
    assert not is_witt_trivial_q(QuadraticForm(Q, [1, 1, -3, -3]))


def _isotropy_search(q: QuadraticForm, bound: int) -> bool:
    """Brute force rational-point search on the quadric q = 0."""
    entries = [e.value for e in q.entries]
    n = len(entries)
    from itertools import product

    for vec in product(range(-bound, bound + 1), repeat=n):
        if all(v == 0 for v in vec):
            continue
        if sum(c * v * v for c, v in zip(entries, vec)) == 0:
            return True
    return False


def test_witt_trivial_agrees_with_isotropy_search():
    """Hyperbolicity by invariants vs explicit isotropy on small forms.

    A 4-dimensional form is hyperbolic iff it is isotropic with
    isotropic complement; for dimension 2 the criteria coincide with
    -a1*a2 being a square.  We check the implications that a brute
    force search can certify."""
    rng = random.Random(27)
    checked = 0
    while checked < 120:
        dim = rng.choice([2, 4])
        entries = [rng.randint(-20, 20) for _ in range(dim)]
        if any(e == 0 for e in entries):
            continue
        q = QuadraticForm(Q, entries)
        triv = is_witt_trivial_q(q)
        if triv:
            # hyperbolic forms are isotropic: the search must find a vector
            assert _isotropy_search(q, 25), entries
        if dim == 2:
            prod = -Fraction(entries[0]) * Fraction(entries[1])
            num_sq = (
                math.isqrt(prod.numerator) ** 2 == prod.numerator
                if prod > 0
                else False
            )
            den_sq = math.isqrt(prod.denominator) ** 2 == prod.denominator
            assert triv == (prod > 0 and num_sq and den_sq)
        checked += 1


def test_witt_trivial_implies_zero_signature():
    rng = random.Random(28)
    for _ in range(60):
        dim = rng.choice([2, 4, 6])
        entries = [rng.randint(-15, 15) for _ in range(dim)]
        if any(e == 0 for e in entries):
            continue
        q = QuadraticForm(Q, entries)
        if is_witt_trivial_q(q):
            assert q.signature(P0) == 0


def test_division_quaternion():
    assert is_division_quaternion(Q.rational(-1), Q.rational(-1), Q) == "yes"
    assert is_division_quaternion(Q.rational(1), Q.rational(7), Q) == "no"
    r2 = F2.generator()
    assert is_division_quaternion(F2.rational(-1), -r2, F2) == "yes"
    assert is_division_quaternion(F2.one(), r2, F2) == "no"
    x = LX.generator()
    assert is_division_quaternion(x, LX.rational(-1), LX) == "yes"


def test_primality_is_proven_or_left_open():
    """``_is_prime`` agrees with trial division below 5000 and on strong
    pseudoprimes to the first bases, and leaves a prime above 3.3e24
    (2^89 - 1) undecided."""
    from hermstab.quadratic import _is_prime

    for n in range(5000):
        assert _is_prime(n) == (n > 1 and all(n % q for q in range(2, math.isqrt(n) + 1))), n
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert _is_prime(n) is False, n
    assert _is_prime(10**20 + 39) is True
    assert _is_prime(2**89 - 1) is None


def test_large_rational_parameters_get_proven_places():
    """Places come from trial division below 2^16 plus a proven prime
    cofactor; a cofactor that is not proven prime leaves the places, and
    so the verdicts that need them, open, unless a place that is known
    already gives -1: (10^12 + 39)(10^12 + 61) is 3 mod 8, so its symbol
    with -1 at 2 is -1, while (10^12 + 61)(10^12 + 121) is 5 mod 8."""
    p, semiprime = 10**20 + 39, (10**12 + 39) * (10**12 + 61)
    open_semiprime = (10**12 + 61) * (10**12 + 121)
    assert relevant_places([Fraction(3 * p, 5)]) == [math.inf, 2, 3, 5, p]
    assert hilbert_symbol(p, -1, p) == -1
    assert is_division_quaternion(Q.rational(p), Q.rational(-1), Q) == "yes"
    assert relevant_places([semiprime]) is None
    assert hilbert_symbol(semiprime, -1, 2) == -1
    assert is_division_quaternion(Q.rational(semiprime), Q.rational(-1), Q) == "yes"
    assert relevant_places([open_semiprime]) is None
    assert [hilbert_symbol(open_semiprime, -1, v) for v in (math.inf, 2)] == [1, 1]
    assert is_division_quaternion(Q.rational(open_semiprime), Q.rational(-1), Q) == "unknown"
    # a proven small factor still counts: 21 . open_semiprime is 1 mod 8,
    # so its symbols at infinity and 2 are +1, but 3 is 3 mod 4
    small = 21 * open_semiprime
    assert [hilbert_symbol(small, -1, v) for v in (math.inf, 2, 3)] == [1, 1, -1]
    assert is_division_quaternion(Q.rational(small), Q.rational(-1), Q) == "yes"
    with pytest.raises(MismatchError):
        is_witt_trivial_q(QuadraticForm(Q, [semiprime, semiprime, -1, -1]))
    for place in (semiprime, 2**89 - 1):
        with pytest.raises(MismatchError):
            hilbert_symbol(3, -1, place)


def test_places_of_zero_are_rejected_at_once():
    """0 has no places: ``relevant_places`` raises MismatchError before it
    factors anything (halving 0 never ends).  An alarm turns a hang into
    a failure."""

    def hung(signum, frame):
        raise AssertionError("relevant_places did not return on a zero")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(5)
    try:
        for fractions in ([0], [3, Fraction(0, 7)], [Fraction(5, 3), 0]):
            with pytest.raises(MismatchError):
                relevant_places(fractions)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_division_quaternion_rational_matches_norm_form():
    rng = random.Random(29)
    searched = 0
    for _ in range(60):
        a = rng.randint(-20, 20)
        b = rng.randint(-20, 20)
        if a == 0 or b == 0:
            continue
        verdict = is_division_quaternion(Q.rational(a), Q.rational(b), Q)
        norm = QuadraticForm(Q, [1, -a, -b, a * b])
        # split exactly when the norm form is hyperbolic
        assert (verdict == "no") == is_witt_trivial_q(norm)
        if verdict == "yes" and searched < 8:
            searched += 1
            assert not _isotropy_search(norm, 6)


def test_form_json_round_trip():
    rng = random.Random(30)
    for shape in tower_shapes():
        q = random_quadratic_form(rng, shape)
        assert QuadraticForm.from_json(q.to_json()) == q
        v = q.signature_vector()
        doc = v.to_json()
        assert doc["values"] == list(v.values)
