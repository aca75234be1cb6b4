"""The L0 kernel: public FieldElement operations on seeded operands.

Times ``*``, ``inverse()``, ``sign_at()`` and ``sqrt()`` over the four
tower shapes Q, Q(sqrt 2), Q((x)) and Q(sqrt 2)((x))((y)), in microseconds
per operation, and checks every result.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

OPERANDS = 16
MIN_SECONDS = 0.02
REPS = 3


def shapes(FieldTower):
    Q = FieldTower.rationals()
    return {
        "q": Q,
        "q_s2": Q.adjoin_sqrt(2),
        "q_x": Q.adjoin_laurent(),
        "q_s2_x_y": Q.adjoin_sqrt(2).adjoin_laurent().adjoin_laurent(),
    }


def _rational(rng):
    return Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9))


def _element(rng, field):
    """A nonzero affine combination of the generators, divided by a
    binomial in one generator for half of the operands."""
    gens = field.generators()
    while True:
        num = field.rational(_rational(rng))
        for g in gens:
            num = num + field.rational(_rational(rng)) * g
        if gens and rng.random() < 0.5:
            den = field.rational(_rational(rng)) + field.rational(_rational(rng)) * rng.choice(gens)
            if den.is_zero():
                continue
            num = num / den
        if not num.is_zero():
            return num


def operands(seed: int, field):
    rng = random.Random(seed)
    return [_element(rng, field) for _ in range(OPERANDS)]


def _per_op_us(fn, count):
    """Median over REPS of the time per operation, each rep at least
    MIN_SECONDS long."""
    samples = []
    for _ in range(REPS):
        loops = 0
        t0 = time.perf_counter()
        while True:
            fn()
            loops += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= MIN_SECONDS:
                break
        samples.append(elapsed / (loops * count) * 1e6)
    samples.sort()
    return samples[len(samples) // 2]


def run(seed: int, FieldTower):
    """Return (metrics, errors) for the four shapes."""
    metrics = {}
    errors = []
    for name, field in shapes(FieldTower).items():
        xs = operands(seed, field)
        pairs = list(zip(xs, xs[1:] + xs[:1]))
        squares = [x * x for x in xs]
        orderings = field.orderings()
        one = field.one()

        def mul():
            for a, b in pairs:
                a * b

        def inv():
            for a in xs:
                a.inverse()

        def sign():
            for a in xs:
                for P in orderings:
                    a.sign_at(P)

        def sqrt():
            for s in squares:
                s.sqrt()

        metrics[f"fields.mul_us.{name}"] = _per_op_us(mul, len(pairs))
        metrics[f"fields.inv_us.{name}"] = _per_op_us(inv, len(xs))
        metrics[f"fields.sign_us.{name}"] = _per_op_us(sign, len(xs) * len(orderings))
        metrics[f"fields.sqrt_us.{name}"] = _per_op_us(sqrt, len(squares))
        for a, b in pairs:
            if a * b != b * a:
                errors.append(f"{name}: multiplication does not commute")
        for a, s in zip(xs, squares):
            if a * a.inverse() != one:
                errors.append(f"{name}: a * a^-1 != 1")
            r = s.sqrt()
            if r is None or r * r != s:
                errors.append(f"{name}: sqrt of a square failed")
            for P in orderings:
                if s.sign_at(P) != 1 or (-a).sign_at(P) != -a.sign_at(P):
                    errors.append(f"{name}: sign rule broken at {P.name()}")
    return metrics, errors
