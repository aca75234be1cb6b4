"""Diagonal quadratic forms over tower fields.

Witt-level operations (sum, tensor product, Pfister forms), signature
vectors, the Scharlau trace transfer along one square-root step, and the
rational Hilbert-symbol / Hasse-Minkowski machinery used to decide Witt
triviality over Q and division-ness of rational quaternion algebras.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .fields import FieldElement, FieldTower, MismatchError, Ordering

__all__ = [
    "QuadraticForm",
    "SignatureVector",
    "SingularFormError",
    "diagonalize_gram",
    "pfister",
    "scharlau_transfer",
    "transfer_table",
    "knebusch_check",
    "hilbert_symbol",
    "hasse_invariant",
    "relevant_places",
    "is_division_quaternion",
    "is_witt_trivial_q",
]

INF = math.inf


class SingularFormError(ValueError):
    """Raised when a Gram matrix is singular where regularity is required."""


class QuadraticForm:
    """A regular diagonal quadratic form ⟨a1, ..., an⟩ over a tower field."""

    __slots__ = ("field", "entries")

    def __init__(self, field: FieldTower, entries):
        self.field = field
        self.entries = tuple(field.coerce(e) for e in entries)
        for e in self.entries:
            if e.is_zero():
                raise SingularFormError("diagonal entries must be nonzero")

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __add__(self, other: QuadraticForm) -> QuadraticForm:
        if other.field != self.field:
            raise MismatchError("forms live over different fields")
        return QuadraticForm(self.field, self.entries + other.entries)

    def __mul__(self, other: QuadraticForm) -> QuadraticForm:
        if other.field != self.field:
            raise MismatchError("forms live over different fields")
        return QuadraticForm(
            self.field, [e * f for e in self.entries for f in other.entries]
        )

    def __neg__(self) -> QuadraticForm:
        return QuadraticForm(self.field, [-e for e in self.entries])

    def signature(self, P: Ordering) -> int:
        return sum(e.sign_at(P) for e in self.entries)

    def signature_vector(self) -> SignatureVector:
        return SignatureVector(
            self.field, tuple(self.signature(P) for P in self.field.orderings())
        )

    def lift_to(self, tower: FieldTower) -> QuadraticForm:
        return QuadraticForm(tower, [e.lift_to(tower) for e in self.entries])

    def __eq__(self, other):
        return (
            isinstance(other, QuadraticForm)
            and self.field == other.field
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.field, self.entries))

    def __repr__(self):
        return "<" + ", ".join(str(e) for e in self.entries) + ">"

    def to_json(self) -> dict:
        return {
            "field": self.field.to_json(),
            "diag": [e.to_json() for e in self.entries],
        }

    @staticmethod
    def from_json(doc: dict) -> QuadraticForm:
        if not isinstance(doc, dict) or set(doc) != {"field", "diag"}:
            raise MismatchError("quadratic form document takes keys 'field', 'diag'")
        if not isinstance(doc["diag"], list):
            raise MismatchError("'diag' must be a list")
        field = FieldTower.from_json(doc["field"])
        return QuadraticForm(
            field, [field.element_from_json(e) for e in doc["diag"]]
        )


class SignatureVector:
    """Integer signatures indexed by the orderings in canonical order."""

    __slots__ = ("field", "values")

    def __init__(self, field: FieldTower, values):
        self.field = field
        self.values = tuple(int(v) for v in values)
        if len(self.values) != len(field.orderings()):
            raise MismatchError("signature vector length must match |orderings|")

    def __repr__(self):
        return f"SignatureVector{self.values}"

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values)

    def to_json(self) -> dict:
        return {
            "orderings": [P.to_json() for P in self.field.orderings()],
            "values": list(self.values),
        }


def diagonalize_gram(field: FieldTower, gram) -> QuadraticForm:
    """Diagonalize a symmetric Gram matrix by congruence: the hermitian
    elimination over (F, id)."""
    from .algebras import FieldAlgebra, HermitianForm, diagonalize_hermitian, rho_form

    g = [[field.coerce(x).value for x in row] for row in gram]
    if any(len(row) != len(g) for row in g):
        raise SingularFormError("Gram matrix must be square")
    return rho_form(diagonalize_hermitian(HermitianForm(FieldAlgebra(field), g)))


def pfister(field: FieldTower, elements) -> QuadraticForm:
    """The 2^r-dimensional form ⟨1, a1⟩ ⊗ ... ⊗ ⟨1, ar⟩."""
    q = QuadraticForm(field, [field.one()])
    for a in elements:
        a = field.coerce(a)
        if a.is_zero():
            raise SingularFormError("Pfister slots must be nonzero")
        q = q * QuadraticForm(field, [field.one(), a])
    return q


def scharlau_transfer(L: FieldTower, phi: QuadraticForm) -> QuadraticForm:
    """Trace transfer of a form along a single square-root step L = F(sqrt(e)).

    Each entry c = u + v*sqrt(e) contributes the Gram [[2u, 2ve], [2ve, 2ue]]
    on the basis {1, sqrt(e)}, whose congruence diagonal is
    <2u, 2ue - (2ve)^2/(2u)> when u != 0 and <4ve, -ve> when u = 0.
    """
    if L.steps[-1][0] != "qext":
        raise MismatchError("transfer needs the top tower step to be a square root")
    if phi.field != L:
        raise MismatchError("form does not live over the extension")
    F = L.prefix(L.depth - 1)
    e = FieldElement(F, L.steps[-1][1])
    two = F.rational(2)
    entries = []
    for c in phi.entries:
        u, v = (FieldElement(F, x) for x in c.value)
        ve = v * e
        if u.is_zero():
            entries += [two * two * ve, -ve]
        else:
            u2, ve2 = two * u, two * ve
            entries += [u2, u2 * e - ve2 * ve2 / u2]
    return QuadraticForm(F, entries)


def transfer_table(L: FieldTower, phi: QuadraticForm):
    """The transfer tr(φ) to F and, for each ordering P of F, the triple
    (P, sign_P(tr φ), Σ_{Q over P} sign_Q(φ))."""
    tr = scharlau_transfer(L, phi)
    rows = [
        (
            P,
            tr.signature(P),
            sum(
                phi.signature(Q)
                for Q in L.orderings()
                if Q.path[: len(P.path)] == P.path
            ),
        )
        for P in tr.field.orderings()
    ]
    return tr, rows


def knebusch_check(L: FieldTower, phi: QuadraticForm) -> bool:
    """Transfer signature identity: sign_P(tr φ) = Σ_{Q over P} sign_Q(φ)."""
    return all(a == b for _, a, b in transfer_table(L, phi)[1])


# ---------------------------------------------------------------------------
# Rational Hilbert symbols and Hasse-Minkowski classification over Q
# ---------------------------------------------------------------------------


def _as_fraction(a) -> Fraction:
    if isinstance(a, FieldElement):
        if a.tower.depth != 1:
            raise MismatchError("rational machinery needs elements of Q")
        return a.value
    return Fraction(a)


def _split(f: Fraction, p: int, modulus: int) -> tuple[int, int]:
    """(v, u mod ``modulus``) for f = p^v * u, u a p-adic unit."""
    n, d, v = f.numerator, f.denominator, 0
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v, n * pow(d, -1, modulus) % modulus


def _legendre(u: int, p: int) -> int:
    r = pow(u % p, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def hilbert_symbol(a, b, place) -> int:
    """The Hilbert symbol (a, b) at a rational place (a prime or math.inf)."""
    a = _as_fraction(a)
    b = _as_fraction(b)
    if a == 0 or b == 0:
        raise MismatchError("Hilbert symbol needs nonzero arguments")
    if place == INF or place == "inf":
        return -1 if a < 0 and b < 0 else 1
    p = int(place)
    if not _is_prime(p):
        raise MismatchError(f"place must be a proven prime or infinity, got {place!r}")
    alpha, u = _split(a, p, 8 if p == 2 else p)
    beta, w = _split(b, p, 8 if p == 2 else p)
    alpha, beta = alpha % 2, beta % 2
    if p == 2:
        eps_u, eps_w = (u - 1) // 2, (w - 1) // 2
        om_u, om_w = (u * u - 1) // 8, (w * w - 1) // 8
        return -1 if (eps_u * eps_w + alpha * om_w + beta * om_u) % 2 else 1
    sym = -1 if alpha and beta and p % 4 == 3 else 1
    return sym * _legendre(u, p) ** beta * _legendre(w, p) ** alpha


def _is_prime(n: int) -> bool | None:
    """Whether n is prime, proven: Miller-Rabin on the 13 prime bases up
    to 41 decides every n below 3.3e24 (Sorenson and Webster, 2015).  A
    larger n that no base shows composite gives None."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2 or n in bases:
        return n in bases
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x != 1 and all(pow(x, 2**r, n) != n - 1 for r in range(s)):
            return False
    return True if n < 3317044064679887385961981 else None


def _odd_prime_factors(n: int) -> tuple[set[int], bool]:
    """The proven odd primes dividing the nonzero n, by trial division
    below 2^16 and a primality proof of the cofactor, and whether they are
    all of them (False when the cofactor is not proven prime)."""
    n = abs(n)
    out = set()
    while n % 2 == 0:
        n //= 2
    f = 3
    while f * f <= n and f < 1 << 16:
        while n % f == 0:
            out.add(f)
            n //= f
        f += 2
    if n > 1:
        if f * f <= n and not _is_prime(n):
            return out, False
        out.add(n)
    return out, True


def _known_places(fractions) -> tuple[list, bool]:
    """Infinity, 2 and the proven odd primes meeting any nonzero
    numerator/denominator, and whether those primes are all of them."""
    fractions = [_as_fraction(f) for f in fractions]
    if any(f == 0 for f in fractions):
        raise MismatchError("places are defined for nonzero rationals only")
    primes, complete = set(), True
    for f in fractions:
        for n in (f.numerator, f.denominator):
            found, whole = _odd_prime_factors(n)
            primes |= found
            complete = complete and whole
    return [INF, 2] + sorted(primes), complete


def relevant_places(fractions) -> list | None:
    """Infinity, 2, and the odd primes meeting any numerator/denominator;
    None when one of those cannot be factored into proven primes.  A zero
    has no places: MismatchError."""
    places, complete = _known_places(fractions)
    return places if complete else None


def hasse_invariant(entries, place) -> int:
    """Product over i < j of the Hilbert symbols of the diagonal entries."""
    entries = [_as_fraction(e) for e in entries]
    s = 1
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            s *= hilbert_symbol(entries[i], entries[j], place)
    return s


def is_witt_trivial_q(q: QuadraticForm) -> bool:
    """Whether a form over Q is hyperbolic, by its classifying invariants."""
    if q.field.depth != 1:
        raise MismatchError("Witt triviality test is only available over Q")
    n = q.dim
    if n % 2:
        return False
    if q.signature(q.field.orderings()[0]) != 0:
        return False
    m = n // 2
    entries = [e.value for e in q.entries]
    det = Fraction(1)
    for e in entries:
        det *= e
    # determinant of the hyperbolic form of the same dimension is (-1)^m
    ratio = det * Fraction(-1) ** m
    if ratio < 0:
        return False
    if (
        math.isqrt(ratio.numerator) ** 2 != ratio.numerator
        or math.isqrt(ratio.denominator) ** 2 != ratio.denominator
    ):
        return False
    hyperbolic = [Fraction(1), Fraction(-1)] * m
    places = relevant_places(entries)
    if places is None:
        raise MismatchError("cannot factor the entries into proven primes")
    for place in places:
        if hasse_invariant(entries, place) != hasse_invariant(hyperbolic, place):
            return False
    return True


def is_division_quaternion(a: FieldElement, b: FieldElement, field: FieldTower) -> str:
    """Decide whether (a, b) over ``field`` is a division algebra.

    Exact over Q via Hilbert symbols: 'yes' on a -1 at infinity, 2 or a
    proven prime factor of a parameter, and 'unknown' instead of 'no'
    when a parameter cannot be factored into proven primes.  Over proper
    towers: 'yes' when the norm form is definite at some ordering, 'no'
    when a bounded search finds an isotropic vector, 'unknown' otherwise.
    """
    a = field.coerce(a)
    b = field.coerce(b)
    if a.is_zero() or b.is_zero():
        raise MismatchError("quaternion parameters must be nonzero")
    if field.depth == 1:
        # a -1 at any place that is known proves division
        places, complete = _known_places([a.value, b.value])
        if any(hilbert_symbol(a.value, b.value, p) == -1 for p in places):
            return "yes"
        return "no" if complete else "unknown"
    for P in field.orderings():
        if a.sign_at(P) < 0 and b.sign_at(P) < 0:
            return "yes"
    one = field.one()
    pool = [field.zero(), one, -one]
    for g in field.generators():
        pool.extend([g, -g, one + g, one - g])
    ab = a * b
    for x0 in pool:
        for x1 in pool:
            for x2 in pool:
                for x3 in pool:
                    if x0.is_zero() and x1.is_zero() and x2.is_zero() and x3.is_zero():
                        continue
                    n = x0 * x0 - a * x1 * x1 - b * x2 * x2 + ab * x3 * x3
                    if n.is_zero():
                        return "no"
    return "unknown"
