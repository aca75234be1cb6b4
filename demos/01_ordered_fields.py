"""Tower fields and their orderings.

Build fields from Q by adjoining square roots and infinitesimals, list
their orderings, and decide signs and squares exactly.
"""

from hermstab import FieldTower, harrison_set

Q = FieldTower.rationals()
F = Q.adjoin_sqrt(2)
L = F.adjoin_laurent()

print("field:", L.describe())
print("orderings:")
for i, P in enumerate(L.orderings()):
    print(f"  [{i}] {P.name()}")

r2 = F.generator().lift_to(L)
x = L.generator()

print()
e = (1 - r2) * x + x * x
print("element:", e)
for P in L.orderings():
    print(f"  sign at {P.name()}: {e.sign_at(P):+d}")

print()
t = F.rational(3) + 2 * F.generator()
print(f"{t} is a square: {t.is_square()}, root = {t.sqrt()}")
u = x * x * (1 + x)
print(f"{u} is a square in the ambient series field: {u.is_square()}")

print()
for name, a in (("x", x), ("-1", L.rational(-1))):
    positive = harrison_set(a)
    # a set has no order of its own: list it in the field's ordering order
    names = [P.name() for P in L.orderings() if P in positive]
    print(f"positivity set of {name}:", names)
