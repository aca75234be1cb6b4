"""The integer-lattice layer: one Hermite loop, exact coordinates on its
basis, the zero-on-nil sublattice and 2-power exponents, checked against
the left-kernel and floor-division oracles."""

import hashlib
import json
import math
import random

from hermstab import FieldTower, QuaternionAlgebra
from hermstab import lattices, stability
from hermstab.lattices import hnf, hnf_with_transform, lattice_coefficients
from hermstab.stability import _two_power_exponent, _zero_on_nil_basis, stability_report

from oracles import capped_two_power_exponent, zero_on_nil_vectors

Q = FieldTower.rationals()
LX = Q.adjoin_laurent()
EX4 = QuaternionAlgebra(LX, LX.generator(), -1, "orthogonal", [0, 0, 1, 0])
DEEP = Q.adjoin_sqrt(2).adjoin_laurent().adjoin_laurent()
DEEP_CONJ = QuaternionAlgebra(DEEP, -1, DEEP.generator(2))


def _random_matrix(rng):
    k, m = rng.randint(1, 12), rng.randint(1, 6)
    rows = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(k)]
    if rng.random() < 0.3:
        rows[rng.randrange(k)] = [0] * m
    if k > 1 and rng.random() < 0.3:
        rows[rng.randrange(k)] = list(rows[rng.randrange(k)])
    return rows


def _nil_columns(rng, case, m):
    if case % 3 == 0:
        return ()
    if case % 3 == 1:
        return tuple(range(m))
    return tuple(sorted(rng.sample(range(m), rng.randint(1, m))))


def _expand(coords, nil, m):
    it = iter(coords)
    return tuple(0 if i in nil else next(it) for i in range(m))


def _combine(coeffs, rows):
    return tuple(sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(len(rows[0])))


def test_zero_on_nil_basis_and_exponents_match_the_left_kernel_oracle():
    rng = random.Random(12)
    finite = 0
    for case in range(600):
        rows = _random_matrix(rng)
        m = len(rows[0])
        nil = _nil_columns(rng, case, m)
        basis = _zero_on_nil_basis(rows, nil)
        expected = hnf(zero_on_nil_vectors(rows, nil))
        assert [_expand(r, nil, m) for r in basis] == expected, (rows, nil)

        free = m - len(nil)
        probes = [tuple(int(i == j) for j in range(free)) for i in range(free)]
        probes += [tuple(a // math.gcd(*r) for a in r) for r in basis]
        probes.append(tuple(rng.randint(-4, 4) for _ in range(free)))
        for v in probes:
            got = _two_power_exponent(basis, [v])
            want = capped_two_power_exponent(expected, [_expand(v, nil, m)])
            if want == math.inf:
                assert got == math.inf or got > 40, (rows, nil, v)
            else:
                assert got == want, (rows, nil, v)
                finite += want > 0
    assert finite > 50


def test_transform_rows_combine_the_input_rows_into_the_basis():
    rng = random.Random(13)
    for _ in range(500):
        rows = _random_matrix(rng)
        basis, transform = hnf_with_transform(rows)
        assert basis == hnf(rows)
        assert len(transform) == len(basis)
        for b, t in zip(basis, transform):
            assert _combine(t, rows) == b
        v = _combine([rng.randint(-3, 3) for _ in rows], rows)
        assert _combine(lattice_coefficients(basis, transform, v), rows) == v


def test_two_power_exponent_has_no_cap():
    assert _two_power_exponent([(2**45,)], [(1,)]) == 45
    assert _two_power_exponent([(3,)], [(1,)]) == math.inf
    assert _two_power_exponent([(1, 0)], [(0, 1)]) == math.inf


def test_stability_report_builds_no_transform(monkeypatch):
    def refuse(rows):
        raise AssertionError("a stability report built a Hermite transform")

    monkeypatch.setattr(lattices, "hnf_with_transform", refuse)
    monkeypatch.setattr(stability, "hnf_with_transform", refuse)
    # sha256 of the sorted, indented report JSON before the single loop
    for A, digest in (
        (DEEP_CONJ, "88ad41b938c7690a178d86a20d9b5b77dc7959ef82b6028bf55e032e3874e3b4"),
        (EX4, "01f4f907515fb38a393f1dadc5ba32b90a8d4b53f0f6b7847c95561c24414b88"),
    ):
        text = json.dumps(stability_report(A).to_json(), sort_keys=True, indent=2)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest
