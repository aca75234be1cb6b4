"""The stability machinery: signature-image lattices, the stability index
and group, constant-signature witnesses, and the comparison between
hermitian and quadratic signature images.

The image of the total signature map is computed as an integer lattice
inside the functions vanishing on nil orderings.  Probe completeness is
tracked honestly: a report is 'certified-exact' only when the field
probes provably generate every quadratic sign pattern of the tower and
the hermitian probes attain a generator of each coordinate's value
group.  Otherwise the lattice is a sublattice of the true image, a
lower bound; the stability group maps onto the true group, a quotient;
the stability index is at least the true one, an upper bound; and the
comparison exponent n0 bounds nothing.
"""

from __future__ import annotations

import math

from .algebras import (
    Algebra,
    HermitianForm,
    MatrixAlgebra,
    morita_flatten,
)
from .fields import FieldTower, InvariantViolation, MismatchError
from .lattices import (
    cokernel_invariants,
    hnf,
    hnf_with_transform,
    lattice_member,
    lattice_solve,
)
from .quadratic import (
    QuadraticForm,
    SignatureVector,
    SingularFormError,
    is_division_quaternion,
    is_witt_trivial_q,
    pfister,
)
from .signatures import (
    ReferenceForm,
    SearchExhausted,
    h_signature,
    local_type,
    nil_set,
    piecewise_form,
    reference_search,
    total_signature,
)

__all__ = [
    "NilAwareSpace",
    "ImageLattice",
    "StabilityReport",
    "InvariantViolation",
    "Probes",
    "image_lattice",
    "quadratic_image_lattice",
    "stability_report",
    "h0_search",
    "relative_stability",
    "invariance_suite",
]


class NilAwareSpace:
    """The integer functions on orderings that vanish on the nil set,
    coordinatized by the non-nil orderings in canonical order."""

    def __init__(self, algebra: Algebra):
        self.algebra = algebra
        self.field = algebra.field
        nil = nil_set(algebra)
        self.all_orderings = self.field.orderings()
        self.coords = tuple(P for P in self.all_orderings if P not in nil)
        self.nil_indices = tuple(
            i for i, P in enumerate(self.all_orderings) if P in nil
        )

    @property
    def dim(self) -> int:
        return len(self.coords)

    def restrict(self, vec: SignatureVector):
        values = vec.values
        for i in self.nil_indices:
            if values[i] != 0:
                raise MismatchError("vector does not vanish on the nil set")
        keep = [v for i, v in enumerate(values) if i not in self.nil_indices]
        return tuple(keep)


class Probes:
    """Hermitian and field probe elements driving the lattice generators."""

    def __init__(self, sym_forms, field_elements):
        self.sym_forms = list(sym_forms)
        self.field_elements = list(field_elements)

    @staticmethod
    def default(A: Algebra) -> Probes:
        """The first member h of each +- pair of reference candidates of D
        (A, or a matrix wrapper's inner algebra, on which ``image_lattice``
        reads it), -1 and the generators.  -h would only add the negated
        vector of h, which leaves the lattice and every |v| as they are."""
        D = A.inner if A.kind == "matrix" else A
        return Probes(D.reference_pairs, _field_probes(A.field))


def _field_probes(field: FieldTower):
    return [field.rational(-1)] + field.generators()


def _sign_table(field: FieldTower, field_elements, orderings):
    """The probe elements over ``field`` and their signs at ``orderings``."""
    elements = [field.coerce(a) for a in field_elements]
    if any(a.is_zero() for a in elements):
        raise SingularFormError("Pfister slots must be nonzero")
    return elements, [[a.sign_at(P) for P in orderings] for a in elements]


def _probe_signatures(field: FieldTower, field_elements, orderings):
    """(signature vector over ``orderings``, slots) for <1> and for every
    Pfister form <1, +-a1> x ... x <1, +-ar> over nonempty subsets of the
    probe elements: masks in order, then sign flips.  Such a form has
    signature prod(1 + sgn_P(ai)) at P (Lam, Introduction to Quadratic
    Forms over Fields), so no form is built.  There are 3^r of them; a
    report reads ``_quadratic_basis`` instead."""
    elements, signs = _sign_table(field, field_elements, orderings)
    negated = [-a for a in elements]
    out = [((1,) * len(orderings), [])]
    n = len(elements)
    for mask in range(1, 1 << n):
        chosen = [i for i in range(n) if mask >> i & 1]
        for flips in range(1 << len(chosen)):
            vector = [1] * len(orderings)
            slots = []
            for j, i in enumerate(chosen):
                s = -1 if flips >> j & 1 else 1
                slots.append(elements[i] if s == 1 else negated[i])
                vector = [v * (1 + s * t) for v, t in zip(vector, signs[i])]
            out.append((tuple(vector), slots))
    return out


def _quadratic_basis(field: FieldTower, field_elements, orderings, recipes=False):
    """Hermite basis over ``orderings`` of the span of the signatures of
    ``_probe_signatures``, one probe at a time: L_0 = Z.(1, ..., 1) and
    L_k = hnf(B, (1 + s_k).B) for the basis B of L_(k-1) and the signs
    s_k of the k-th probe (b.(1 - s) = 2b - b.(1 + s) makes (1 - s_k).B
    redundant), so a step has at most 2|X| rows.  With ``recipes``, also
    each row as {slot indices: coefficient} over the forms <1, ai> x ...
    on those slots, from each step's transform."""
    elements, signs = _sign_table(field, field_elements, orderings)
    basis, books = [(1,) * len(orderings)], [{(): 1}]
    for k, s in enumerate(signs):
        rows = basis + [tuple(b * (1 + t) for b, t in zip(row, s)) for row in basis]
        if not recipes:
            basis = hnf(rows)
            continue
        books += [{(*S, k): c for S, c in book.items()} for book in books]
        basis, transform = hnf_with_transform(rows)
        books = [_combine(books, t) for t in transform]
    return (basis, books) if recipes else basis


def _combine(books, coefficients):
    """The sum of the recipes times their coefficients, zero terms dropped."""
    out = {}
    for c, book in zip(coefficients, books):
        for S, d in book.items():
            out[S] = out.get(S, 0) + c * d
    return {S: d for S, d in out.items() if d}


def _pfister_witness(field: FieldTower, field_elements, orderings, target):
    """A sum of +-Pfister forms over ``field_elements`` with signature
    ``target`` at ``orderings``, or None outside their span: the target's
    coordinates on the quadratic basis times each row's recipe."""
    rows, books = _quadratic_basis(field, field_elements, orderings, recipes=True)
    coords = lattice_solve(rows, target)
    if coords is None or any(c.denominator != 1 for c in coords):
        return None
    entries = []
    for S, c in _combine(books, [int(c) for c in coords]).items():
        q = pfister(field, [field_elements[i] for i in S])
        entries += (q if c > 0 else -q).entries * abs(c)
    return QuadraticForm(field, entries)


def _field_patterns_complete(field: FieldTower) -> bool:
    """Whether {-1} and the tower generators provably span every quadratic
    sign pattern: each square-root step may be positive at no more than
    one ordering of its base (Laurent steps are always fine).  Each such
    ordering extends in two ways, so the prefix tower ending at the step
    has twice as many orderings."""
    return all(
        step[0] != "qext" or len(field.prefix(level + 1).orderings()) <= 2
        for level, step in enumerate(field.steps)
    )


class ImageLattice:
    """The subgroup of Z^m spanned by the total signatures of the probe
    forms times ``quadratic_basis``, the Hermite basis over every ordering
    of the quadratic image of ``field_elements``: W(A, sigma) is a
    W(F)-module.  Every probe is read against the one ``reference`` (for
    a matrix wrapper, the flattened reference over D), and a generator's
    provenance names its probe form and the basis row."""

    def __init__(
        self, space, reference, generators, certified_exact, field_elements=(), quadratic_basis=()
    ):
        self.space = space
        self.reference = reference
        self.generators = list(generators)  # (vector, provenance)
        self.field_elements = list(field_elements)
        self.quadratic_basis = quadratic_basis
        # the Hermite loop is cubic in the row count, so kill duplicate
        # and zero vectors first
        rows = [v for v in dict.fromkeys(tuple(v) for v, _ in self.generators) if any(v)]
        self.basis = hnf(rows)
        self.certified_exact = certified_exact

    @property
    def rank(self) -> int:
        return len(self.basis)

    def member(self, vector) -> bool:
        return lattice_member(self.basis, vector)

    def recheck_generator(self, index: int, budget: int = 50):
        """Recompute one generator from its recorded provenance: the probe
        form times Pfister forms with the signature of its quadratic row,
        read against the lattice's reference."""
        vector, prov = self.generators[index]
        space = self.space
        row = self.quadratic_basis[prov["row"]]
        q = _pfister_witness(space.field, self.field_elements, space.all_orderings, row)
        form = prov["base"].module_scale(q)
        vec = total_signature(form.algebra, form, self.reference, budget)
        return self.space.restrict(vec) == tuple(vector)

    def to_json(self):
        return {
            "coordinates": [P.to_json() for P in self.space.coords],
            "basis": [list(r) for r in self.basis],
            "certified_exact": self.certified_exact,
        }


def image_lattice(
    A: Algebra,
    ref: ReferenceForm | None = None,
    probes: Probes | None = None,
    budget: int = 50,
) -> ImageLattice:
    """Generate the image of the total signature map over probe forms:
    each hermitian probe's restricted signature vector times each row of
    the quadratic image's Hermite basis, so |probes| x |X| rows at most.

    A matrix wrapper (M_n(D), ad_g) is read on D (Morita invariance):
    its reference, with its signs, and its probe forms are flattened
    (``morita_flatten`` keeps every raw signature), and its default
    probes are D's, as Grams over M_n(D) only reach ranks divisible by n.
    """
    if ref is None:
        ref = reference_search(A, budget)
    if probes is None:
        probes = Probes.default(A)
    if A.kind == "matrix":
        ref = ReferenceForm(A.inner, morita_flatten(ref.form), ref.deltas)
        probes = Probes(map(morita_flatten, probes.sym_forms), probes.field_elements)
        A = A.inner
    space = NilAwareSpace(A)
    field = A.field
    if space.dim == 0:
        # every ordering is nil: the image is {0}, whatever the probes
        return ImageLattice(space, ref, [], True)
    quadratic = _quadratic_basis(field, probes.field_elements, space.all_orderings)
    nil = space.nil_indices
    rows = [tuple(v for i, v in enumerate(row) if i not in nil) for row in quadratic]
    generators = []
    for cand in probes.sym_forms:
        vs = space.restrict(total_signature(A, cand, ref, budget))
        generators += [
            (tuple(a * b for a, b in zip(row, vs)), {"row": j, "base": cand})
            for j, row in enumerate(rows)
        ]
    exact = (
        _field_patterns_complete(field)
        and _division_certain(A)
        and _value_groups_attained(A, space, [v for v, _ in generators])
    )
    return ImageLattice(space, ref, generators, exact, probes.field_elements, quadratic)


def _value_groups_attained(A: Algebra, space: NilAwareSpace, vectors) -> bool:
    for i, P in enumerate(space.coords):
        lt = local_type(A, P)
        c_p = 1 if lt.route in ("diagonal-sum", "trace-form") else 2
        values = [abs(v[i]) for v in vectors if v[i] != 0]
        if not values:
            return False
        g = 0
        for v in values:
            g = math.gcd(g, v)
        if g != c_p:
            if g % c_p != 0:
                raise InvariantViolation(
                    f"coordinate {P.name()} attained {g}, finer than the "
                    f"theoretical value group {c_p}Z"
                )
            return False
    return True


def _division_certain(A: Algebra) -> bool:
    """Whether every finitely generated module is provably free, i.e. the
    underlying algebra is certified division (Gram-matrix forms then
    exhaust the Witt group).  A quaternion algebra is division when it is
    division at some ordering, as ``local_type`` records (l == 4); over Q
    the Hilbert symbols at the finite places decide the rest.
    Conservative for the unitary quaternion kind, whose centre is complex
    at every relevant ordering."""
    if A.kind in ("field_id", "unitary_quadratic"):
        return True
    if A.kind == "exchange":
        return True  # no non-nil coordinates exist anyway
    if A.kind != "quaternion":
        return False
    if any(local_type(A, P).l == 4 for P in A.field.orderings()):
        return True
    return A.field.depth == 1 and is_division_quaternion(A.a, A.b, A.field) == "yes"


def quadratic_image_lattice(field: FieldTower):
    """im(sign) over all coordinates, generated by the default probe forms.

    Returns (generators, basis, transform, exact): generators are
    (vector, slots) pairs over the full coordinate list, where the slots
    name the Pfister form pfister(field, slots)."""
    gens = _probe_signatures(field, _field_probes(field), field.orderings())
    basis, transform = hnf_with_transform([v for v, _ in gens])
    return gens, basis, transform, _field_patterns_complete(field)


class StabilityReport:
    """Cokernel invariants of the signature image, the stability index,
    and the constructive witnesses h0/k0 and n0."""

    def __init__(
        self,
        algebra: Algebra,
        reference: ReferenceForm,
        lattice: ImageLattice,
        invariant_factors,
        free_rank: int,
        st,
        h0: HermitianForm,
        k0: int,
        n0,
        exact: bool,
    ):
        self.algebra = algebra
        self.reference = reference
        self.lattice = lattice
        self.invariant_factors = list(invariant_factors)
        self.free_rank = free_rank
        self.st = st
        self.h0 = h0
        self.k0 = k0
        self.n0 = n0
        self.exact = exact

    def group_description(self) -> str:
        parts = [f"Z/{d}Z" for d in self.invariant_factors]
        parts.extend(["Z"] * self.free_rank)
        return " x ".join(parts) if parts else "0"

    def image_description(self) -> str:
        space = self.lattice.space
        total = len(space.field.orderings())
        if total == 0:
            return "0"
        by_coord = {}
        diagonal = True
        for row in self.lattice.basis:
            nz = [i for i, v in enumerate(row) if v != 0]
            if len(nz) != 1:
                diagonal = False
                break
            by_coord[nz[0]] = abs(row[nz[0]])
        if not diagonal:
            return "lattice" + str([list(r) for r in self.lattice.basis])
        cells = []
        j = 0
        for i, P in enumerate(space.all_orderings):
            if i in space.nil_indices:
                cells.append("{0}")
            else:
                d = by_coord.get(j)
                cells.append("{0}" if d is None else ("Z" if d == 1 else f"{d}Z"))
                j += 1
        return " x ".join(cells)

    def to_json(self) -> dict:
        return {
            "invariant_factors": self.invariant_factors,
            "free_rank": self.free_rank,
            "st": "inf" if self.st == math.inf else self.st,
            "exact": self.exact,
            "h0": {"form": self.h0.to_json(), "k0": self.k0},
            "n0": "inf" if self.n0 == math.inf else self.n0,
            "image": self.lattice.to_json(),
            "stability_group": self.group_description(),
        }


def stability_report(
    A: Algebra,
    ref: ReferenceForm | None = None,
    probes: Probes | None = None,
    budget: int = 50,
) -> StabilityReport:
    if ref is None:
        ref = reference_search(A, budget)
    lattice = image_lattice(A, ref, probes, budget)
    space = lattice.space
    factors, free = cokernel_invariants(list(lattice.basis), space.dim)
    st = _stability_index(lattice)
    h0, k0 = h0_search(A, ref, budget)
    n0, _ = relative_stability(A, ref, lattice, budget)
    if lattice.certified_exact:
        if any(d & (d - 1) for d in factors):
            raise InvariantViolation(
                "certified-exact cokernel has a non-2-power invariant factor"
            )
        expected = max(factors).bit_length() - 1 if factors else 0
        if free == 0 and st != expected:
            raise InvariantViolation(
                "stability index disagrees with the cokernel exponent"
            )
    return StabilityReport(
        A, ref, lattice, factors, free, st, h0, k0, n0, lattice.certified_exact
    )


def _two_power_exponent(basis, vectors):
    """Least n with 2^n . v in the lattice spanned by the echelon ``basis``
    for every v in ``vectors`` (0 if there are none): the largest 2-power
    denominator of their coordinates.  An odd factor in a denominator, or
    a vector outside the span, gives inf."""
    worst = 0
    for v in vectors:
        coords = lattice_solve(basis, v)
        if coords is None:
            return math.inf
        for c in coords:
            d = c.denominator
            if d & (d - 1):
                return math.inf
            worst = max(worst, d.bit_length() - 1)
    return worst


def _stability_index(lattice: ImageLattice):
    """Least k with 2^k . (zero-on-nil functions) inside the lattice."""
    m = lattice.space.dim
    units = [[int(i == j) for j in range(m)] for i in range(m)]
    return _two_power_exponent(lattice.basis, units)


def h0_search(A: Algebra, ref: ReferenceForm, budget: int = 50):
    """A form with constant total signature 2^k0 on the non-nil set.

    Simple candidates first: the reference, then the reference candidates
    in walk order, the first with the least k0.  Each +- pair is read on
    its first member h (``Algebra.iter_reference_pairs``): a constant
    -2^k on h picks -h, which is built only then.  A constant 1 (k0 = 0)
    cannot be beaten, so the walk stops there.  Otherwise per-ordering
    pieces cut out by one-ordering Pfister multipliers, equalized to a
    common 2-power."""
    space = NilAwareSpace(A)
    field = A.field
    if space.dim == 0:
        return HermitianForm(A, [], 1), 0
    candidates = [ref.form, *A.reference_pairs]
    best = None
    for cand in candidates:
        vec = space.restrict(total_signature(A, cand, ref, budget))
        vals = set(vec)
        if len(vals) == 1:
            v = abs(vals.pop())
            if v and (v & (v - 1)) == 0:
                k = v.bit_length() - 1
                if best is None or k < best[1]:
                    best = (cand if vec[0] > 0 else -cand, k)
                    if k == 0:
                        break
    if best is not None:
        return best
    pieces = []
    for P in space.coords:
        piece = None
        for cand in candidates:
            v = h_signature(A, cand, ref, P, budget)
            if v != 0:
                av = abs(v)
                if av & (av - 1):
                    continue
                piece = cand if v > 0 else -cand
                local_exp = av.bit_length() - 1
                break
        if piece is None:
            raise SearchExhausted(
                f"no candidate with 2-power signature at {P.name()}"
            )
        pieces.append((P, piece, local_exp))
    # every piece is padded to the largest exponent k0 = local_exp + r
    top = max(e for _, _, e in pieces)
    k0 = top + len(field.generators())
    total = piecewise_form(field, [(P, h, top - e) for P, h, e in pieces])
    vec = space.restrict(total_signature(A, total, ref, budget))
    if any(v != (1 << k0) for v in vec):
        raise SearchExhausted("piecewise constant-signature assembly failed")
    return total, k0


def relative_stability(
    A: Algebra,
    ref: ReferenceForm,
    lattice: ImageLattice | None = None,
    budget: int = 50,
):
    """The least n with 2^n . im(sign^H) inside the zero-on-nil part of
    im(sign), plus a constructor h -> q_h realizing it.

    Returns (n0, to_quadratic) where to_quadratic(h) yields a quadratic
    form whose signature vector is 2^n0 times that of h."""
    if lattice is None:
        lattice = image_lattice(A, ref, budget=budget)
    nil = lattice.space.nil_indices
    field = A.field
    defaults = _field_probes(field)
    quadratic = lattice.quadratic_basis
    if lattice.field_elements != defaults:
        quadratic = _quadratic_basis(field, defaults, field.orderings())
    n0 = _two_power_exponent(_zero_on_nil_basis(quadratic, nil), lattice.basis)

    def to_quadratic(h: HermitianForm) -> QuadraticForm:
        if n0 == math.inf:
            raise SearchExhausted("no uniform quadratic comparison exists")
        vec = total_signature(A, h, ref, budget)
        target = [v * (1 << n0) for v in vec.values]
        q_h = _pfister_witness(field, defaults, field.orderings(), target)
        if q_h is None:
            raise InvariantViolation(
                "a hermitian signature escaped the certified quadratic image"
            )
        got = tuple(q_h.signature(P) for P in field.orderings())
        if got != tuple(target):
            raise InvariantViolation("reconstructed quadratic form missed its target")
        return q_h

    return n0, to_quadratic


def _zero_on_nil_basis(rows, nil_indices):
    """Hermite basis, over the other columns in order, of the vectors of
    the row lattice that vanish on ``nil_indices``: with those columns
    first, the Hermite rows that vanish on them."""
    t = len(nil_indices)
    order = [*nil_indices, *(i for i in range(len(rows[0])) if i not in nil_indices)]
    return [row[t:] for row in hnf([[v[i] for i in order] for v in rows]) if not any(row[:t])]


def invariance_suite(A: Algebra, ref: ReferenceForm | None = None, budget: int = 50):
    """Run the invariance checks and report each outcome.

    (a) a second reference form yields the same cokernel invariants;
    (b) matrix wrappers (n = 2, 3, with a scaled form) yield the same
        group, stability index and exactness as the algebra itself;
    (c) rational forms with zero signature are 2-primary torsion, by the
        hyperbolicity oracle;
    (d) multiplication by h0 and the quadratic comparison map are
        injective at the lattice level.
    """
    if ref is None:
        ref = reference_search(A, budget)
    report = stability_report(A, ref, budget=budget)
    out = {}

    ref2 = ReferenceForm(
        A, -ref.form, {path: -d for path, d in ref.deltas.items()}
    )
    report2 = stability_report(A, ref2, budget=budget)
    out["second_reference"] = {
        "ok": report2.invariant_factors == report.invariant_factors
        and report2.st == report.st
        and report2.free_rank == report.free_rank,
        "factors": report2.invariant_factors,
    }

    if A.kind != "matrix":
        field = A.field
        scale = field.rational(-2)
        for n in (2, 3):
            g = [A.elem(A.one())] * (n - 1) + [A.from_field(scale)]
            wrapper = MatrixAlgebra(n, A, g)
            wref = reference_search(wrapper, budget)
            wreport = stability_report(wrapper, wref, budget=budget)
            out[f"morita_m{n}"] = {
                "ok": wreport.invariant_factors == report.invariant_factors
                and wreport.st == report.st
                and wreport.free_rank == report.free_rank
                and wreport.exact == report.exact,
                "factors": wreport.invariant_factors,
            }

    rational = FieldTower.rationals()
    corpus = [
        QuadraticForm(rational, [1, -1]),
        QuadraticForm(rational, [1, 1, -2, -2]),
        QuadraticForm(rational, [1, 1, -3, -3]),
        QuadraticForm(rational, [1, 5, -2, -10]),
        QuadraticForm(rational, [1, 7, -1, -7]),
    ]
    torsion_ok = True
    for q in corpus:
        if q.signature(rational.orderings()[0]) != 0:
            torsion_ok = False
            break
        doubled = q
        for m in range(4):
            if is_witt_trivial_q(doubled):
                break
            doubled = doubled + doubled
        else:
            torsion_ok = False
    out["rational_torsion"] = {"ok": torsion_ok}

    space = report.lattice.space
    inj_ok = True
    if space.dim and report.n0 != math.inf:
        field = A.field
        qsigs = _probe_signatures(field, _field_probes(field), space.coords)
        for restricted, slots in qsigs:
            q = pfister(field, slots)
            hv = space.restrict(
                total_signature(A, report.h0.module_scale(q), ref, budget)
            )
            if tuple(hv) != tuple(a * (1 << report.k0) for a in restricted):
                inj_ok = False
            if any(restricted) and not any(hv):
                inj_ok = False
        n0, to_quadratic = relative_stability(A, ref, report.lattice, budget)
        for h in A.reference_pairs[:2]:
            for cand in (h, -h):
                q_h = to_quadratic(cand)
                target = total_signature(A, cand, ref, budget)
                got = [q_h.signature(P) for P in field.orderings()]
                if got != [v * (1 << n0) for v in target.values]:
                    inj_ok = False
    out["module_maps_injective"] = {"ok": inj_ok}

    out["ok"] = all(v["ok"] for v in out.values() if isinstance(v, dict))
    return out
