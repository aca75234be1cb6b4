"""The stability machinery: signature-image lattices, the stability index
and group, constant-signature witnesses, and the comparison between
hermitian and quadratic signature images.

The image of the total signature map is computed as an integer lattice
inside the functions vanishing on nil orderings.  Probe completeness is
tracked honestly: a report is 'certified-exact' only when the field
probes provably generate every quadratic sign pattern of the tower and
the hermitian probes attain a generator of each coordinate's value
group; otherwise the lattice (and everything derived from it) is a
lower bound.
"""

from __future__ import annotations

import math

from .algebras import (
    Algebra,
    HermitianForm,
    MatrixAlgebra,
)
from .fields import FieldElement, FieldTower, InvariantViolation, MismatchError
from .lattices import (
    cokernel_invariants,
    hnf_with_transform,
    lattice_coefficients,
    lattice_member,
)
from .quadratic import QuadraticForm, SignatureVector, is_witt_trivial_q, pfister
from .signatures import (
    ReferenceForm,
    SearchExhausted,
    _ordering_indicator,
    _reference_candidates,
    h_signature,
    local_type,
    nil_set,
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

_EXPONENT_CAP = 40


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

    def expand(self, coords):
        out = []
        it = iter(coords)
        for i in range(len(self.all_orderings)):
            out.append(0 if i in self.nil_indices else next(it))
        return tuple(out)


class Probes:
    """Hermitian and field probe elements driving the lattice generators."""

    def __init__(self, sym_forms, field_elements):
        self.sym_forms = list(sym_forms)
        self.field_elements = list(field_elements)

    @staticmethod
    def default(A: Algebra) -> Probes:
        field = A.field
        if A.kind == "matrix":
            sym = [HermitianForm.diagonal(A, [A.elem(A.one())])]
            from .algebras import sym_basis

            for s in sym_basis(A):
                if s.is_invertible():
                    sym.append(HermitianForm.diagonal(A, [s]))
        else:
            sym = _reference_candidates(A)
        fps = [field.rational(-1)] + field.generators()
        return Probes(sym, fps)


def _quadratic_probe_forms(field: FieldTower, field_elements):
    """<1> and all sign-adjusted Pfister forms over probe subsets."""
    out = [(pfister(field, []), {"pfister": []})]
    n = len(field_elements)
    for mask in range(1, 1 << n):
        chosen = [field_elements[i] for i in range(n) if mask >> i & 1]
        for signs in range(1 << len(chosen)):
            slots = [
                c if signs >> i & 1 == 0 else -c for i, c in enumerate(chosen)
            ]
            out.append(
                (
                    pfister(field, slots),
                    {"pfister": [str(s) for s in slots]},
                )
            )
    return out


def _field_patterns_complete(field: FieldTower) -> bool:
    """Whether {-1} and the tower generators provably span every quadratic
    sign pattern: each square-root step may be positive at no more than
    one ordering of its base (Laurent steps are always fine)."""
    for level, step in enumerate(field.steps):
        if step[0] != "qext":
            continue
        base = field.prefix(level)
        d = FieldElement(base, step[1])
        positive = sum(1 for P in base.orderings() if d.sign_at(P) > 0)
        if positive > 1:
            return False
    return True


class ImageLattice:
    """The subgroup of Z^m generated by total signatures of probe forms."""

    def __init__(self, space, generators, certified_exact):
        self.space = space
        self.generators = list(generators)  # (vector, provenance)
        # transform-tracked reduction is cubic in the row count, so kill
        # duplicate and zero vectors first and remember who came first
        seen = {}
        rows = []
        self._first_index = []
        for idx, (v, _) in enumerate(self.generators):
            v = tuple(v)
            if not any(v) or v in seen:
                continue
            seen[v] = len(rows)
            rows.append(v)
            self._first_index.append(idx)
        self.basis, self.transform = hnf_with_transform(rows)
        self.certified_exact = certified_exact

    @property
    def rank(self) -> int:
        return len(self.basis)

    def member(self, vector) -> bool:
        return lattice_member(self.basis, vector)

    def coefficients(self, vector):
        """Integer coefficients over the ORIGINAL generator list."""
        compact = lattice_coefficients(self.basis, self.transform, vector)
        if compact is None:
            return None
        out = [0] * len(self.generators)
        for c, idx in zip(compact, self._first_index):
            out[idx] = c
        return out

    def recheck_generator(self, index: int, ref: ReferenceForm, budget: int = 50):
        """Recompute one generator from its recorded provenance form."""
        vector, prov = self.generators[index]
        form = prov["base"].module_scale(prov["multiplier"])
        algebra = form.algebra
        use_ref = prov.get("reference", ref)
        vec = total_signature(algebra, form, use_ref, budget)
        got = tuple(
            v
            for i, v in enumerate(vec.values)
            if i not in NilAwareSpace(algebra).nil_indices
        )
        return got == tuple(vector)

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
    """Generate the image of the total signature map over probe forms.

    Matrix wrappers also pull in the probes of their inner algebra: Gram
    matrices over M_n(D) only realize module ranks divisible by n, while
    the Witt group (and hence the true image) is that of the inner
    algebra by Morita invariance.
    """
    if ref is None:
        ref = reference_search(A, budget)
    if probes is None:
        probes = Probes.default(A)
    space = NilAwareSpace(A)
    field = A.field
    generators = []
    if space.dim == 0:
        return ImageLattice(space, [], _field_patterns_complete(field))
    qforms = _quadratic_probe_forms(field, probes.field_elements)
    base_vectors = []
    for cand in probes.sym_forms:
        vec = total_signature(A, cand, ref, budget)
        base_vectors.append((space.restrict(vec), cand))
    if A.kind == "matrix":
        inner = A.inner
        inner_ref = reference_search(inner, budget)
        for cand in Probes.default(inner).sym_forms:
            vec = total_signature(inner, cand, inner_ref, budget)
            base_vectors.append((space.restrict(vec), cand))
    qsigs = []
    for q, qprov in qforms:
        qsigs.append(
            (
                tuple(q.signature(P) for P in space.coords),
                q,
                qprov,
            )
        )
    for vs, cand in base_vectors:
        cand_ref = _ref_for(cand, ref, budget)
        for qs, q, qprov in qsigs:
            vector = tuple(a * b for a, b in zip(qs, vs))
            prov = {
                "multiplier": q,
                "multiplier_slots": qprov,
                "base": cand,
                "reference": cand_ref,
            }
            generators.append((vector, prov))
    exact = (
        _field_patterns_complete(field)
        and _division_certain(A)
        and _value_groups_attained(A, space, [v for v, _ in generators])
    )
    return ImageLattice(space, generators, exact)


def _ref_for(cand: HermitianForm, ref: ReferenceForm, budget: int):
    if cand.algebra == ref.algebra:
        return ref
    return reference_search(cand.algebra, budget)


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
    exhaust the Witt group).  Conservative for the unitary quaternion
    kind, whose centre is complex at every relevant ordering."""
    from .quadratic import is_division_quaternion

    if A.kind in ("field_id", "unitary_quadratic"):
        return True
    if A.kind == "exchange":
        return True  # no non-nil coordinates exist anyway
    if A.kind == "quaternion":
        return is_division_quaternion(A.a, A.b, A.field) == "yes"
    if A.kind == "unitary_quaternion":
        return False
    if A.kind == "matrix":
        return _division_certain(A.inner)
    return False


def quadratic_image_lattice(field: FieldTower, field_elements=None):
    """im(sign) over all coordinates, generated by the probe forms.

    Returns (generators, basis, transform, exact): generators are
    (vector, QuadraticForm) pairs over the full coordinate list."""
    if field_elements is None:
        field_elements = [field.rational(-1)] + field.generators()
    orderings = field.orderings()
    gens = []
    for q, _ in _quadratic_probe_forms(field, field_elements):
        vec = tuple(q.signature(P) for P in orderings)
        gens.append((vec, q))
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


def _stability_index(lattice: ImageLattice):
    """Least k with 2^k . (zero-on-nil functions) inside the lattice."""
    m = lattice.space.dim
    if m == 0:
        return 0
    worst = 0
    for i in range(m):
        e = [0] * m
        e[i] = 1
        n = 0
        while n <= _EXPONENT_CAP:
            if lattice.member([v * (1 << n) for v in e]):
                break
            n += 1
        if n > _EXPONENT_CAP:
            return math.inf
        worst = max(worst, n)
    return worst


def h0_search(A: Algebra, ref: ReferenceForm, budget: int = 50):
    """A form with constant total signature 2^k0 on the non-nil set.

    Simple candidates first; otherwise per-ordering pieces cut out by
    one-ordering Pfister multipliers, equalized to a common 2-power."""
    space = NilAwareSpace(A)
    field = A.field
    if space.dim == 0:
        return HermitianForm(A, [], 1), 0
    candidates = [ref.form] + _reference_candidates(A)
    best = None
    for cand in candidates:
        vec = space.restrict(total_signature(A, cand, ref, budget))
        vals = set(vec)
        if len(vals) == 1:
            v = vals.pop()
            if v > 0 and (v & (v - 1)) == 0:
                k = v.bit_length() - 1
                if best is None or k < best[1]:
                    best = (cand, k)
    if best is not None:
        return best
    pieces = []
    exponents = []
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
        indicator = _ordering_indicator(field, P)
        pieces.append(piece.module_scale(indicator))
        exponents.append(local_exp + len(field.generators()))
    k0 = max(exponents)
    total = None
    for piece, e in zip(pieces, exponents):
        pad = k0 - e
        if pad:
            padder = QuadraticForm(field, [field.one()] * (1 << pad))
            piece = piece.module_scale(padder)
        total = piece if total is None else total.direct_sum(piece)
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
    space = lattice.space
    field = A.field
    gens, _, _, _ = quadratic_image_lattice(field)
    rows = [list(v) for v, _ in gens]
    nil_cols = list(space.nil_indices)
    kernel_rows = _left_kernel(rows, nil_cols)
    q0_vectors = []
    q0_combos = []
    for u in kernel_rows:
        vec = [0] * len(field.orderings())
        for c, (gv, _) in zip(u, gens):
            vec = [a + c * b for a, b in zip(vec, gv)]
        q0_vectors.append(tuple(vec))
        q0_combos.append(u)
    q0_basis, q0_transform = hnf_with_transform(q0_vectors)
    n0 = 0
    for v in lattice.basis:
        full = space.expand(v)
        n = 0
        while n <= _EXPONENT_CAP:
            if lattice_member(q0_basis, [a * (1 << n) for a in full]):
                break
            n += 1
        if n > _EXPONENT_CAP:
            n0 = math.inf
            break
        n0 = max(n0, n)

    def to_quadratic(h: HermitianForm) -> QuadraticForm:
        if n0 == math.inf:
            raise SearchExhausted("no uniform quadratic comparison exists")
        vec = total_signature(A, h, ref, budget)
        target = [v * (1 << n0) for v in vec.values]
        coeffs = lattice_coefficients(q0_basis, q0_transform, target)
        if coeffs is None:
            raise InvariantViolation(
                "a hermitian signature escaped the certified quadratic image"
            )
        # coefficients over the kernel rows -> over the original probe forms
        on_probes = [0] * len(gens)
        for c, combo in zip(coeffs, q0_combos):
            for j, u in enumerate(combo):
                on_probes[j] += c * u
        entries = []
        for c, (_, q) in zip(on_probes, gens):
            if c == 0:
                continue
            block = q if c > 0 else -q
            for _ in range(abs(c)):
                entries.extend(block.entries)
        q_h = QuadraticForm(field, entries)
        got = tuple(q_h.signature(P) for P in field.orderings())
        if got != tuple(target):
            raise InvariantViolation("reconstructed quadratic form missed its target")
        return q_h

    return n0, to_quadratic


def _left_kernel(rows, zero_cols):
    """Integer vectors u with (u . rows) vanishing on the given columns."""
    k = len(rows)
    if k == 0:
        return []
    if not zero_cols:
        return [tuple(1 if i == j else 0 for j in range(k)) for i in range(k)]
    aug = []
    for i, r in enumerate(rows):
        aug.append([r[c] for c in zero_cols] + [1 if j == i else 0 for j in range(k)])
    basis, _ = hnf_with_transform(aug)
    t = len(zero_cols)
    out = []
    for row in basis:
        if all(v == 0 for v in row[:t]):
            out.append(tuple(row[t:]))
    return out


def invariance_suite(A: Algebra, ref: ReferenceForm | None = None, budget: int = 50):
    """Run the invariance checks and report each outcome.

    (a) a second reference form yields the same cokernel invariants;
    (b) matrix wrappers (n = 2, 3, with a scaled form) yield the same
        report as the algebra itself;
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
                and wreport.free_rank == report.free_rank,
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
        qprobes = _quadratic_probe_forms(field, Probes.default(A).field_elements)
        for q, _ in qprobes:
            qsig = [q.signature(P) for P in field.orderings()]
            restricted = [
                v for i, v in enumerate(qsig) if i not in space.nil_indices
            ]
            hv = space.restrict(
                total_signature(A, report.h0.module_scale(q), ref, budget)
            )
            if tuple(hv) != tuple(a * (1 << report.k0) for a in restricted):
                inj_ok = False
            if any(restricted) and not any(hv):
                inj_ok = False
        n0, to_quadratic = relative_stability(A, ref, report.lattice, budget)
        for cand in Probes.default(A).sym_forms[:4]:
            q_h = to_quadratic(cand)
            target = total_signature(A, cand, ref, budget)
            got = [q_h.signature(P) for P in field.orderings()]
            if got != [v * (1 << n0) for v in target.values]:
                inj_ok = False
    out["module_maps_injective"] = {"ok": inj_ok}

    out["ok"] = all(v["ok"] for v in out.values() if isinstance(v, dict))
    return out
