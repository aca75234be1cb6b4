import json
import random
import re
from fractions import Fraction

import pytest

from hermstab import fields
from hermstab.fields import (
    FieldTower,
    MismatchError,
    Ordering,
    MAX_RATIONAL_DIGITS,
    TowerError,
    _q_add,
    _q_inv,
    _q_mul,
    _q_neg,
    _q_sub,
    _rational_from_json,
    harrison_set,
)

from corpus import random_element, random_tower, tower_shapes
from oracles import SlowTower, interval_sign

Q = FieldTower.rationals()
F2 = Q.adjoin_sqrt(2)
LX = Q.adjoin_laurent()
F2X = F2.adjoin_laurent()
LXY = LX.adjoin_laurent()
F2XY = F2X.adjoin_laurent()
# Q((x))((y))(sqrt x), the split extension of (x, -1) over Q((x))((y))
LXY_SX = LXY.adjoin_sqrt(LXY.coerce(LX.generator()))


def test_towers_share_their_parents_level_objects(monkeypatch):
    """adjoin_sqrt, adjoin_laurent, prefix and from_json keep one level
    object per step: a tower reuses its parent's objects, by identity,
    and builds exactly one new level per step."""
    built = []
    for cls in (fields._SqrtLevel, fields._LaurentLevel):

        def init(self, *args, real=cls.__init__):
            built.append(self)
            real(self, *args)

        monkeypatch.setattr(cls, "__init__", init)

    def same_levels(a, b):
        return len(a) == len(b) and all(u is v for u, v in zip(a, b))

    chain = [FieldTower.rationals()]
    chain.append(chain[-1].adjoin_sqrt(2))
    chain.append(chain[-1].adjoin_laurent())
    chain.append(chain[-1].adjoin_laurent())
    chain.append(chain[-1].adjoin_sqrt(chain[-1].generator(2)))
    assert built == [t.levels[-1] for t in chain[1:]]
    for parent, child in zip(chain, chain[1:]):
        assert len(child.levels) == child.depth == parent.depth + 1
        assert same_levels(child.levels[:-1], parent.levels)
        assert child.levels[-1].lower is parent.levels[-1]
    top = chain[-1]
    for depth in range(1, top.depth + 1):
        assert same_levels(top.prefix(depth).levels, chain[depth - 1].levels)
    del built[:]
    read = FieldTower.from_json(top.to_json())
    assert read == top and len(read.levels) == read.depth
    assert built == list(read.levels[1:])
    for lower, level in zip(read.levels, read.levels[1:]):
        assert level.lower is lower
    assert len(built) == 4 and not set(map(id, built)) & set(map(id, top.levels))


def test_ordering_counts():
    assert len(Q.orderings()) == 1
    assert len(F2.orderings()) == 2
    assert len(F2X.orderings()) == 4


def test_ordering_canonical_order():
    names = [P.name() for P in F2X.orderings()]
    assert names == [
        "sqrt(2)>0, x->0+",
        "sqrt(2)>0, x->0-",
        "sqrt(2)<0, x->0+",
        "sqrt(2)<0, x->0-",
    ]


def test_negative_radicand_has_no_extensions():
    with pytest.raises(TowerError):
        Q.adjoin_sqrt(-1)


def test_square_radicand_rejected():
    with pytest.raises(TowerError):
        Q.adjoin_sqrt(Fraction(4, 9))


def test_sign_examples():
    r2 = F2.generator()
    plus, minus = F2.orderings()
    assert r2.sign_at(plus) == 1
    assert r2.sign_at(minus) == -1
    assert (1 - r2).sign_at(plus) == -1
    assert (1 - r2).sign_at(minus) == 1
    x = LX.generator()
    xp, xm = LX.orderings()
    e = x - x * x
    assert e.sign_at(xp) == 1
    assert e.sign_at(xm) == -1


def test_sign_multiplicative_and_additive():
    rng = random.Random(11)
    for _ in range(60):
        field = random_tower(rng)
        if not field.orderings():
            continue
        P = rng.choice(field.orderings())
        e = random_element(rng, field, nonzero=True)
        f = random_element(rng, field, nonzero=True)
        assert (e * f).sign_at(P) == e.sign_at(P) * f.sign_at(P)
        if e.sign_at(P) == 1 and f.sign_at(P) == 1:
            assert (e + f).sign_at(P) == 1
        sq = e * e
        assert sq.sign_at(P) == 1


def test_square_examples():
    assert Q.rational(4, 9).is_square()
    assert not Q.rational(2).is_square()
    t = F2.rational(3) + 2 * F2.generator()
    assert t.is_square()
    assert t.sqrt() ** 2 == t
    x = LX.generator()
    assert (x * x * (1 + x)).is_square()
    assert not (x * (1 + x)).is_square()


def test_square_implies_positive():
    rng = random.Random(12)
    for _ in range(50):
        field = random_tower(rng)
        e = random_element(rng, field, nonzero=True)
        sq = e * e
        assert sq.is_square()
        for P in field.orderings():
            assert sq.sign_at(P) == 1


def test_sqrt_round_trip():
    rng = random.Random(13)
    for _ in range(60):
        field = random_tower(rng)
        e = random_element(rng, field, nonzero=True)
        r = (e * e).sqrt()
        assert r is not None
        assert r * r == e * e


def test_harrison_sets():
    assert harrison_set(F2.rational(-1)) == set()
    r2 = F2.generator()
    assert harrison_set(r2) == {F2.orderings()[0]}
    x = LX.generator()
    assert harrison_set(x) == {LX.orderings()[0]}
    with pytest.raises(ValueError):
        harrison_set(LX.zero())


def test_harrison_complement():
    rng = random.Random(14)
    for _ in range(40):
        field = random_tower(rng)
        a = random_element(rng, field, nonzero=True)
        pos = harrison_set(a)
        neg = harrison_set(-a)
        assert pos & neg == set()
        assert pos | neg == set(field.orderings())


def test_qext_extension_structure():
    """Orderings of F(sqrt d) restrict onto the positivity set of d, twice."""
    rng = random.Random(15)
    for _ in range(20):
        field = random_tower(rng, max_depth=1)
        for _ in range(20):
            d = random_element(rng, field, nonzero=True)
            try:
                if d.is_square():
                    continue
            except ValueError:
                continue
            if all(d.sign_at(P) < 0 for P in field.orderings()):
                continue
            ext = field.adjoin_sqrt(d)
            base_of = [P.restrict(field.depth) for P in ext.orderings()]
            positives = [P for P in field.orderings() if d.sign_at(P) > 0]
            assert base_of == [P for P in positives for _ in range(2)]
            break


def test_field_arithmetic_axioms():
    rng = random.Random(16)
    for shape in tower_shapes():
        for _ in range(12):
            a = random_element(rng, shape)
            b = random_element(rng, shape)
            c = random_element(rng, shape)
            assert (a + b) * c == a * c + b * c
            assert a + (b + c) == (a + b) + c
            assert a * (b * c) == (a * b) * c
            if not b.is_zero():
                assert (a / b) * b == a


def test_interval_oracle_agreement():
    """sign_at agrees with outward-rounded interval arithmetic, at random."""
    rng = random.Random(17)
    checked = 0
    while checked < 1000:
        field = random_tower(rng)
        orderings = field.orderings()
        if not orderings:
            continue
        e = random_element(rng, field, nonzero=True)
        P = rng.choice(orderings)
        assert e.sign_at(P) == interval_sign(e, P), (str(e), P.name())
        checked += 1


def test_element_json_round_trip():
    rng = random.Random(18)
    for shape in tower_shapes():
        assert FieldTower.from_json(shape.to_json()) == shape
        for _ in range(10):
            e = random_element(rng, shape)
            assert shape.element_from_json(e.to_json()) == e


def test_ordering_json_round_trip():
    for shape in tower_shapes():
        for P in shape.orderings():
            assert Ordering.from_json(shape, P.to_json()) == P


def test_ordering_json_rejects_bad_path():
    doc = [{"sqrt_sign": "+"}]
    with pytest.raises(MismatchError):
        Ordering.from_json(Q, doc)
    bad = [{"x_sign": "+"}]
    with pytest.raises(MismatchError):
        Ordering.from_json(F2, bad)


def test_lift_and_restrict():
    """restrict_to undoes lift_to through square-root and Laurent levels,
    maps zero to zero, and refuses elements that need a dropped generator
    and towers that are not a prefix."""
    r2 = F2.generator()
    lifted = r2.lift_to(F2X)
    assert lifted.restrict_to(F2) == r2
    assert F2X.zero().restrict_to(F2) == F2.zero()
    assert F2X.zero().restrict_to(Q) == Q.zero()
    half = Q.rational(-1, 2)
    assert half.lift_to(F2XY).restrict_to(Q) == half
    assert half.lift_to(LXY_SX).restrict_to(Q) == half
    assert half.lift_to(LXY_SX).restrict_to(LXY) == half.lift_to(LXY)
    x = F2X.generator()
    not_from_subfield = [
        (x, F2),  # shift 1
        (1 + x, F2),  # two numerator terms
        (1 / (1 + x), F2),  # two denominator terms
        (r2, Q),  # nonzero sqrt part
        (lifted + x, Q),  # fails at the Laurent level before reaching sqrt 2
        (LXY_SX.generator(), LXY),
    ]
    for e, sub in not_from_subfield:
        with pytest.raises(MismatchError, match="does not come from the subfield"):
            e.restrict_to(sub)
    for e, other in [(r2, LX), (x, LX), (half, F2)]:
        with pytest.raises(MismatchError, match="is not a prefix of this one"):
            e.restrict_to(other)


def test_level_mismatch_errors():
    P = Q.orderings()[0]
    with pytest.raises(MismatchError):
        F2.generator().sign_at(P)


def _laurent_operands(rng, field):
    """Pairs of factors whose product or sum cancels down to 1, pairs over
    one shared nontrivial denominator, and random elements.  ``y`` is the
    top variable and ``x`` the generator below it (3 over Q((x)))."""
    y = field.generator()
    x = field.generator(field.depth - 2) if field.depth > 2 else 3
    d = 1 - y + x * y * y
    out = [
        (1 + y) / (1 - y),
        (1 - y) / (1 + y),
        (x + y) / (1 - x * y),
        (1 - x * y) / (x + y),
        1 / (1 - y),
        -y / (1 - y),
        (2 + x * y) / d,
        (y - x) / d,
        y**3 / d,
        field.rational(-5, 7),
    ]
    out += [random_element(rng, field, height=3) for _ in range(2)]
    return out


@pytest.mark.parametrize("field", [LX, F2X, LXY, F2XY], ids=str)
def test_laurent_fast_paths_match_full_canonicalisation(field):
    """+, -, *, inverse and / give the value tuple of the slow oracle, which
    always strips, divides by the gcd and normalizes, and every result
    meets the canonical invariants p[0] != 0, q[0] == 1, gcd(p, q) == 1."""
    rng = random.Random(19)
    slow = SlowTower(field)
    top = field.depth - 1
    operands = _laurent_operands(rng, field)
    assert (operands[0] * operands[1]).value == field.one().value
    assert (operands[2] * operands[3]).value == field.one().value
    assert (operands[4] + operands[5]).value == field.one().value
    for a in operands:
        assert slow.is_canonical(top, a.value)
        if not a.is_zero():
            inv = a.inverse().value
            assert inv == slow.inv(top, a.value)
            assert slow.is_canonical(top, inv)
    # each operand with itself and its partner (operands come in pairs),
    # then random pairs
    n = len(operands)
    pairs = [(i, i) for i in range(n)] + [(i, i ^ 1) for i in range(n)]
    pairs += [(rng.randrange(n), rng.randrange(n)) for _ in range(4)]
    for i, j in pairs:
        a, b = operands[i], operands[j]
        results = [
            ((a + b).value, slow.add(top, a.value, b.value)),
            ((a - b).value, slow.add(top, a.value, slow.neg(top, b.value))),
            ((a * b).value, slow.mul(top, a.value, b.value)),
        ]
        if not b.is_zero():
            results.append(((a / b).value, slow.div(top, a.value, b.value)))
        for fast, reference in results:
            assert fast == reference
            assert slow.is_canonical(top, fast)


def _zero_part_operands(rng, field):
    """Values of ``field`` whose square-root parts are zero, alone or with
    the rational part, and values with neither part zero.  At a
    square-root top level these are u + v*sqrt(d) with u, v or both zero;
    over Q(sqrt 2)((x)) they are Laurent values whose coefficients are."""
    top = field.depth - 1
    if field.steps[top][0] == "qext":
        below = field.prefix(top)
        zero = below.zero().value
        out = [(zero, zero)]
        for _ in range(3):
            u = random_element(rng, below, height=4, nonzero=True).value
            v = random_element(rng, below, height=4, nonzero=True).value
            out += [(u, zero), (zero, v), (u, v)]
        return out
    s2, x = field.coerce(F2.generator()), field.generator()
    rational = [1 + 3 * x, field.rational(-2, 5) + x * x, (1 - x) / (2 + x)]
    out = [field.zero()] + rational + [s2 * a for a in rational]
    out += [a + s2 * b for a, b in zip(rational, rational[1:])]
    out.append((1 + s2 * x) / (1 - x))
    return [a.value for a in out]


@pytest.mark.parametrize(
    "field", [F2, F2.adjoin_sqrt(3), F2X, LXY.adjoin_sqrt(LXY.generator())], ids=str
)
def test_products_with_a_zero_sqrt_part_match_slow_tower(field):
    """Square-root level products skip the terms of a zero sqrt part; on
    operands with a zero rational part, sqrt part or both they give the
    value tuple of the slow oracle, which forms every product."""
    rng = random.Random(37)
    slow = SlowTower(field)
    top = field.depth - 1
    operands = _zero_part_operands(rng, field)
    for a in operands:
        for b in operands:
            fast = field.levels[top].mul(a, b)
            assert fast == slow.mul(top, a, b)
            assert slow.is_canonical(top, fast)


def _laurent_levels(field):
    return [lvl for lvl in range(1, field.depth) if field.steps[lvl][0] == "laurent"]


def _shortcut_operands(field):
    """Elements of ``field`` that reach the Laurent shortcuts, by family:
    numerators with a single coefficient and with several over the
    denominator (1,), pairs over one shared denominator other than (1,),
    and leading coefficients other than one.  ``y`` is the top Laurent
    variable, ``x`` the one below it and ``s`` the square root."""
    x, y = (field.generator(lvl) for lvl in _laurent_levels(field))
    s = field.generator(next(l for l in range(1, field.depth) if l not in _laurent_levels(field)))
    d = 1 - x * y
    return {
        "single": [3 * y * y, x * y, (1 + x) / (2 - x) / y, (2 + s) * x * y**3, s * y],
        "several": [1 + x * y + y * y, 2 * x - y / x, (3 + s) * y + s * y * y],
        "shared": [(1 + y) / d, (x - y) / d, (s + x * y) / d],
        "lead": [3 * x + y, (2 + s) * x + y * y, 1 / (3 + y), (x + y) / (3 * x + s * y)],
    }


@pytest.mark.parametrize("field", [LXY_SX, F2XY], ids=str)
def test_level_objects_match_slow_tower_on_shortcut_operands(field):
    """The top level object's +, -, *, inverse and / give the value tuple
    of the slow oracle, in canonical form, on products of a single
    coefficient by several, sums over the denominator (1,) and over a
    shared other one, and leading coefficients other than one."""
    slow = SlowTower(field)
    top = field.depth - 1
    K = field.levels[top]
    ops = _shortcut_operands(field)
    single, several = ops["single"], ops["several"]
    pairs = [(a, b) for a in single for b in several]
    # each group's members with the next one, wrapping round
    for group in ops.values():
        pairs += list(zip(group, group[1:] + group[:1]))
    pairs += list(zip(ops["lead"], single))
    for a in sum(ops.values(), []):
        assert slow.is_canonical(top, a.value)
        inv = K.inv(a.value)
        assert inv == slow.inv(top, a.value) and slow.is_canonical(top, inv)
    for a, b in pairs:
        x, y = a.value, b.value
        product = slow.mul(top, x, y)
        for fast, reference in [
            (K.add(x, y), slow.add(top, x, y)),
            (K.sub(x, y), slow.add(top, x, slow.neg(top, y))),
            (K.mul(x, y), product),
            (K.mul(y, x), product),
            ((a / b).value, slow.div(top, x, y)),
        ]:
            assert fast == reference
            assert slow.is_canonical(top, fast)


def _lower_values(field, level):
    """Nonzero values one level below ``level``, one of them the one."""
    T = field.prefix(level)
    g = T.generator() if T.depth > 1 else T.rational(5, 7)
    return [v.value for v in (T.one(), T.rational(-3), 2 + g, (1 - g) / (3 + g), g * g)]


@pytest.mark.parametrize("field", [LXY_SX, F2XY], ids=str)
def test_single_coefficient_polynomial_products_match_slow_tower(field):
    """A polynomial product with a single-coefficient factor skips sums and
    trimming: on either side, and for a zero coefficient, which gives the
    zero polynomial (), it matches the oracle's full product."""
    slow = SlowTower(field)
    for level in _laurent_levels(field):
        L = field.levels[level]
        c = _lower_values(field, level)
        polys = [(c[1],), (c[2], c[3]), (c[4], L.lower.zero, c[0], c[3])]
        for coeff in [L.lower.zero] + c:
            for p in polys:
                want = slow.p_mul(level, (coeff,), p)
                assert L.p_mul((coeff,), p) == want
                assert L.p_mul(p, (coeff,)) == want
        assert L.p_mul((L.lower.zero,), polys[2]) == ()


@pytest.mark.parametrize("field", [LXY_SX, F2XY], ids=str)
def test_unit_denominators_are_not_rescaled(field, monkeypatch):
    """make_laurent returns p/q as it is when the stripped q[0] is already
    the lower level's one: no coefficient is inverted, at either Laurent
    level.  A q[0] other than one is inverted once, and every result is
    the oracle's canonical form."""
    slow = SlowTower(field)
    for level in _laurent_levels(field):
        L = field.levels[level]
        one, zero = L.lower.one, L.lower.zero
        _, c1, c2, c3, c4 = _lower_values(field, level)
        inverted = []

        def counted(c, real=L._inv, inverted=inverted):
            inverted.append(c)
            return real(c)

        monkeypatch.setattr(L, "_inv", counted)
        unit = [
            (0, (c1, c2), (one,)),
            (2, (c1,), (one, c3)),
            (-1, (zero, c4), (zero, one, c2)),
            (1, (zero, c3, c4), (one,)),
        ]
        for shift, p, q in unit:
            assert L.make_laurent(shift, p, q) == slow.canon(level, shift, p, q)
        a, b = (0, (c1, c2), (one,)), (1, (c3,), (one,))
        assert L.add(a, b) == slow.add(level, a, b)
        assert L.sub(a, a) == L.zero
        assert inverted == []
        assert L.make_laurent(0, (c1,), (c3, c2)) == slow.canon(level, 0, (c1,), (c3, c2))
        assert inverted == [c3]


@pytest.mark.parametrize("field", [Q, F2, LX, F2XY], ids=str)
def test_sub_matches_add_of_negation(field):
    """Direct subtraction gives the value tuple of x + (-y): on random
    pairs, on equal pairs, and on pairs whose difference cancels the
    leading Laurent term of the top variable or of the one below it."""
    rng = random.Random(29)
    top = field.depth - 1
    elems = [random_element(rng, field, height=3) for _ in range(6)]
    pairs = [(a, b) for a in elems for b in elems]
    laurent = [g for g, step in zip(field.generators(), field.steps[1:])
               if step[0] == "laurent"]
    for t in laurent:
        for c in elems:
            pairs += [(c + t, c - t * t), (c * (1 + t), c), ((c + t) / (1 - t), c)]
    if len(laurent) == 2:
        x, y = laurent
        pairs += [(1 + x + y, 1 + x * x), ((1 + x) / (1 - y), (1 + x * x) / (1 - y))]
    for a, b in pairs:
        K = field.levels[top]
        want = K.add(a.value, K.neg(b.value))
        assert K.sub(a.value, b.value) == want
        assert (a - b).value == want


def _kernel_operands(rng):
    big = 10**40
    out = [Fraction(n) for n in (0, 1, -1, 2, -3, 12, big)]
    # denominators sharing factors with each other and with numerators
    pairs = [(1, 2), (-1, 2), (3, 4), (5, 6), (-7, 12), (2, 3), (3, 2), (-9, 10),
             (10, 9), (35, 6)]
    out += [Fraction(p, q) for p, q in pairs]
    # 40-digit numerators and denominators, coprime or sharing factors
    out += [Fraction(rng.randrange(big // 10, big) * s, rng.randrange(big // 10, big))
            for s in (1, -1, 1)]
    out += [Fraction(6**51, big), Fraction(1 - big, 2**132)]
    out += [Fraction(rng.randint(-60, 60), rng.randint(1, 60)) for _ in range(40)]
    smooth = [1, 2, 3, 4, 6, 8, 9, 12, 18, 30, 2**20 * 3**12]
    out += [Fraction(rng.choice(smooth) * rng.choice((1, -1)), rng.choice(smooth))
            for _ in range(20)]
    return out


def test_rational_kernel_matches_fraction():
    """Each kernel operation returns a Fraction with the numerator,
    denominator and hash of Fraction's own operator."""

    def same(got, want):
        assert type(got) is Fraction
        assert got == want
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
        assert hash(got) == hash(want)

    rng = random.Random(23)
    ops = _kernel_operands(rng)
    for x in ops:
        same(_q_neg(x), -x)
        if x:
            same(_q_inv(x), 1 / x)
        for y in ops:
            same(_q_add(x, y), x + y)
            same(_q_sub(x, y), x - y)
            same(_q_mul(x, y), x * y)
    with pytest.raises(ZeroDivisionError):
        _q_inv(Fraction(0))
    with pytest.raises(ZeroDivisionError):
        Q.zero().inverse()
    # the tower's level-0 branches run the kernel
    assert [Q._sign(0, x, ()) for x in ops[:4]] == [0, 1, -1, 1]
    assert Q.levels[0].is_zero(Fraction(0)) and not Q.levels[0].is_zero(Fraction(-1, 2))


def _random_leaf(rng):
    """A rational leaf string: a sign, digits with leading zeros, and
    perhaps a denominator, which may be zero."""

    def digits():
        return "0" * rng.choice((0, 0, 1, 3)) + rng.choice(
            ("", "0", str(rng.randint(1, 9)), str(rng.randint(1, 10**rng.randint(1, 40))))
        ) or "0"

    text = rng.choice(("", "-")) + digits()
    if rng.random() < 0.6:
        text += "/" + digits()
    return text


def test_rational_leaves_read_as_fraction():
    """A leaf is read to the Fraction that Fraction(text) gives; where that
    divides by zero, the error carries Fraction's own message."""
    rng = random.Random(2014)
    leaves = [_random_leaf(rng) for _ in range(2000)]
    leaves += ["3/0", "-3/0", "0/0", "-0/0", "-0", "007/0", "-007/010", "0/7", "-0/5"]
    longest = "9" * MAX_RATIONAL_DIGITS  # numerators and denominators up to the limit
    leaves += [longest, "-" + longest, "1/" + longest, longest + "/" + longest[:-1] + "8",
               "6" * MAX_RATIONAL_DIGITS + "/" + "4" * MAX_RATIONAL_DIGITS]
    zero_divisions = 0
    for text in leaves:
        try:
            want = Fraction(text)
        except ZeroDivisionError as exc:
            zero_divisions += 1
            with pytest.raises(TowerError) as info:
                _rational_from_json(text)
            assert str(info.value) == f"invalid rational {text[:40]!r}: {exc}"
            continue
        got = _rational_from_json(text)
        assert type(got) is Fraction and got == want, text
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
        assert type(got._numerator) is int and type(got._denominator) is int
    assert zero_divisions > 50
    for n in (0, -5, 10**30, 10**300):  # JSON integers
        got = _rational_from_json(n)
        assert got == Fraction(n) and type(got._numerator) is int


def _leaf_by_fraction(doc):
    """The rational leaf reader as it was when it built every value with
    ``Fraction``: the same grammar, digit bound, check order and messages."""
    text = doc if isinstance(doc, str) else str(doc)
    m = re.fullmatch(r"-?([0-9]+)(?:/([0-9]+))?", text)
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


def _read_or_message(reader, doc):
    try:
        return reader(doc)
    except TowerError as exc:
        return str(exc)


def test_leaf_reader_matches_the_fraction_reader():
    """The gcd-and-slots reader returns the value and raises the message
    that the Fraction-built reader does, on random leaves up to the digit
    bound and past it, JSON integers, and leaves with a sign, a space, a
    dot, an exponent or other digits, booleans and floats."""
    rng = random.Random(3232)
    leaves = [_random_leaf(rng) for _ in range(1500)]
    for _ in range(200):
        size = rng.choice((1, 2, MAX_RATIONAL_DIGITS - 1, MAX_RATIONAL_DIGITS,
                           MAX_RATIONAL_DIGITS + 1))
        p = str(rng.randint(1, 9)) + "".join(rng.choice("0123456789") for _ in range(size - 1))
        q = "".join(rng.choice("0123456789") for _ in range(rng.choice((1, 3, size))))
        leaves.append(rng.choice(("", "-")) + p + rng.choice(("", "/" + q)))
    leaves += ["0", "-0", "00", "0/5", "-0/5", "0/0", "1/0", "-1/0", "1e5", "+1", " 1",
               "1 ", "1.5", "-", "", "1/2/3", "\u0661", "7" * (MAX_RATIONAL_DIGITS + 1)]
    leaves += [rng.randint(-10**40, 10**40) for _ in range(100)] + [0, -0, 10**999]
    leaves += [True, False, 1.5, 1e5, -0.0, 2.0]
    values = errors = 0
    for doc in leaves:
        want = _read_or_message(_leaf_by_fraction, doc)
        got = _read_or_message(_rational_from_json, doc)
        assert got == want, doc
        if isinstance(want, str):
            errors += 1
        else:
            values += 1
            assert type(got) is Fraction and type(got._numerator) is int
            assert (got._numerator, got._denominator) == (want.numerator, want.denominator)
    assert values > 1000 and errors > 300


def test_zero_leaf_is_the_canonical_zero_at_every_level():
    """The leaf "0" reads to the level's zero, which is the value the
    general path builds from "0", "-0", "0/5" and the JSON integer 0, at
    every level of Q(sqrt 2)((x))((y))."""
    for level in range(F2XY.depth):
        zero = F2XY._value_from_json(level, "0")
        assert zero is F2XY.levels[level].zero
        assert zero == F2XY._from_rat(level, Fraction(0))
        for doc in ("-0", "0/5", "000", 0):
            assert F2XY._value_from_json(level, doc) == zero
    assert F2XY.element_from_json("0") == F2XY.zero()


_REJECTED_LEAVES = [
    ("3/0", "invalid rational '3/0': Fraction(3, 0)"),
    ("-0/00", "invalid rational '-0/00': Fraction(0, 0)"),
    ("-012/0", "invalid rational '-012/0': Fraction(-12, 0)"),
    ("1.5", "rational must be 'p' or 'p/q' in decimal digits, got '1.5'"),
    ("+1", "rational must be 'p' or 'p/q' in decimal digits, got '+1'"),
    (" 1", "rational must be 'p' or 'p/q' in decimal digits, got ' 1'"),
    (True, "rational must be 'p' or 'p/q' in decimal digits, got 'True'"),
    ("1/0", "invalid rational '1/0': Fraction(1, 0)"),
    ("-1/0", "invalid rational '-1/0': Fraction(-1, 0)"),
    *(
        (doc, f"rational must be 'p' or 'p/q' in decimal digits, got {str(doc)!r}")
        for doc in (False, "1 ", "", "-", "/", "1/", "/2", "--1", "1/2/3", "1e5",
                    "\u0661", "\u00b2")
    ),
    (
        "1/" + "7" * (MAX_RATIONAL_DIGITS + 1),
        f"rational '1/{'7' * 38}'... has more than {MAX_RATIONAL_DIGITS} digits",
    ),
    (
        "-" + "7" * (MAX_RATIONAL_DIGITS + 1),
        f"rational '-{'7' * 39}'... has more than {MAX_RATIONAL_DIGITS} digits",
    ),
    (
        "9" * (MAX_RATIONAL_DIGITS + 1),
        f"rational '{'9' * 40}'... has more than {MAX_RATIONAL_DIGITS} digits",
    ),
    (
        "-" + "9" * (MAX_RATIONAL_DIGITS + 1) + "/1",
        f"rational '-{'9' * 39}'... has more than {MAX_RATIONAL_DIGITS} digits",
    ),
]


@pytest.mark.parametrize("doc, message", _REJECTED_LEAVES)
def test_rational_leaf_errors(doc, message):
    with pytest.raises(TowerError) as info:
        _rational_from_json(doc)
    assert str(info.value) == message


@pytest.mark.parametrize("doc, message", _REJECTED_LEAVES)
def test_rejected_leaf_exits_2_through_the_cli(doc, message):
    """A rejected leaf as a tower's radicand and as a form entry exits 2;
    a string leaf with the reader's message (a boolean is refused before
    the reader, as no rational)."""
    from test_golden import call

    field = {"tower": [{"kind": "base"}, {"kind": "qext", "d": doc}]}
    form = {"field": {"tower": [{"kind": "base"}, {"kind": "qext", "d": "2"}]}, "diag": [doc]}
    for argv in (
        ["orderings", "--field", json.dumps(field)],
        ["--json", "transfer-check", "--form", json.dumps(form)],
    ):
        code, out, err = call(argv)
        assert (code, out) == (2, "") and err.startswith("error: ")
        if isinstance(doc, str):
            assert err == f"error: {message}\n"


def test_json_tower_checks_each_square_root_step_once(monkeypatch):
    """Each square-root step is checked when it is adjoined and then
    trusted: a JSON tower with two steps makes two square tests, where
    re-checking every earlier step on each adjoin made three."""
    checked = []
    nesting = [0]
    real = FieldTower._is_square

    def counted(self, level, x):
        if nesting[0] == 0:
            checked.append((level, x))
        nesting[0] += 1
        try:
            return real(self, level, x)
        finally:
            nesting[0] -= 1

    monkeypatch.setattr(FieldTower, "_is_square", counted)
    steps = [{"kind": "base"}, {"kind": "qext", "d": "2"}, {"kind": "laurent"}]
    field = FieldTower.from_json({"tower": steps + [{"kind": "qext", "d": "3"}]})
    # the d of step k + 1 is checked once, at level k
    assert checked == [(0, field.steps[1][1]), (2, field.steps[3][1])]
