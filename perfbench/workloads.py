"""Seeded inputs and independent output checks for the benchmark workloads.

Four workloads exist:

* ``examples``  -- ``hermstab --json examples`` in a fresh worker;
* ``deep_conj`` -- the stability report of (-1, x) with conjugation over
  Q(sqrt 2)((x))((y));
* ``deep_orth`` -- the stability report of (x, -1) with an orthogonal
  involution over Q((x))((y));
* ``queries``   -- seeded rounds of single CLI queries over a pool of
  algebras on towers of depth at most 2, answered by one long-lived worker.

The first three have fixed inputs; their seed only draws the operands of
the field-arithmetic kernel.  Query inputs are JSON documents built here
without calling the library.  Every parameter is a monomial c * m, with
c = +-p/q for p, q in 1..3 and m a product of distinct tower generators,
so its sign at every ordering, and with it the nil set of each algebra,
follows from the sign path alone.  The checks rest on that independent
knowledge; the library is only called to re-verify emitted certificates.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from fractions import Fraction

WORKLOADS = ("examples", "deep_conj", "deep_orth", "queries")
DEFAULT_SEED = 1
# The algebra pool is drawn once, from this seed, whatever --seed is: a
# pool drawn per seed made the cost of a run depend on a handful of
# parameters (job_norm ranged over 15-25 units across seeds).
POOL_SEED = 20140623

# sha256 of the byte-exact --json output of `examples`, of the canonical
# report JSON of each deep workload, and of the first round of queries at
# DEFAULT_SEED, all recorded from the seed library.
DIGESTS = {
    "examples": "dfe24da735fba88d7fa31809b6add90f0564b932c0c108097b0963635d9e9e75",
    "deep_conj": "88ad41b938c7690a178d86a20d9b5b77dc7959ef82b6028bf55e032e3874e3b4",
    "deep_orth": "b0da6f5a6519b252c1c683ca0fbefa8ef593316d2ef8334524f56d5fccd16e5f",
    "queries": "c4b6f926f94c03555a24e1475ec50ad48b2dfb47d69f278dfbbf2025b54318dd",
}

# README table of `hermstab examples`: name, image, S, st, st(F), and the
# tower each example lives over.
EXAMPLES_TABLE = [
    ("(1) (-1,-1) conjugation / Q", "Z", "0", "0", None, "Q"),
    ("(2) (-1,-1) orthogonal / Q", "{0}", "0", "0", None, "Q"),
    ("(3) (-1,-sqrt(2)) conjugation / Q(sqrt(2))", "Z x {0}", "0", "0", "1", "Q(s2)"),
    ("(4) (x,-1) orthogonal / Q((x))", "2Z x {0}", "Z/2Z", "1", "1", "Q((x))"),
]

DEEP_GROUPS = {
    "deep_conj": "Z/2Z x Z/2Z x Z/4Z",
    "deep_orth": "Z/2Z x Z/4Z",
}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# towers and monomial elements
# ---------------------------------------------------------------------------

BASE = {"kind": "base"}
LAURENT = {"kind": "laurent"}

# Every square-root step adjoins a positive rational, so each level doubles
# the orderings and 'sqrt_sign' is the sign of the adjoined root.
TOWERS = {
    "Q": [BASE],
    "Q(s2)": [BASE, {"kind": "qext", "d": "2"}],
    "Q(s3)": [BASE, {"kind": "qext", "d": "3"}],
    "Q((x))": [BASE, LAURENT],
    "Q(s2)((x))": [BASE, {"kind": "qext", "d": "2"}, LAURENT],
    "Q((x))((y))": [BASE, LAURENT, LAURENT],
    "Q(s2)(s3)": [BASE, {"kind": "qext", "d": "2"}, {"kind": "qext", "d": "3"}],
}
SHALLOW = ("Q", "Q(s2)", "Q(s3)", "Q((x))")
ALL_TOWERS = tuple(TOWERS)
TRANSFER_TOWERS = ("Q(s2)", "Q(s3)", "Q(s2)(s3)")


def field_doc(tower: str) -> dict:
    return {"tower": TOWERS[tower]}


def sign_paths(tower: str):
    """The orderings as sign paths, depth first, + before - at every level."""
    return list(itertools.product((1, -1), repeat=len(TOWERS[tower]) - 1))


def ordering_doc(tower: str, path) -> list:
    steps = TOWERS[tower][1:]
    return [
        {("sqrt_sign" if st["kind"] == "qext" else "x_sign"): "+" if s > 0 else "-"}
        for st, s in zip(steps, path)
    ]


def _frac(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


class Mono:
    """c times the product of the generators of the levels flagged in exps."""

    __slots__ = ("tower", "c", "exps")

    def __init__(self, tower: str, c, exps):
        self.tower = tower
        self.c = Fraction(c)
        self.exps = tuple(exps)

    def sign(self, path) -> int:
        s = 1 if self.c > 0 else -1
        for e, p in zip(self.exps, path):
            if e:
                s *= p
        return s

    def doc(self):
        doc = _frac(self.c)
        for step, e in zip(TOWERS[self.tower][1:], self.exps):
            if step["kind"] == "qext":
                doc = {"u": "0", "v": doc} if e else {"u": doc, "v": "0"}
            else:
                doc = {"num": [[e, doc]], "den": [[0, "1"]]}
        return doc


def random_mono(rng: random.Random, tower: str, negative_if_constant=False) -> Mono:
    c = Fraction(rng.randint(1, 3), rng.randint(1, 3)) * rng.choice((1, -1))
    exps = [rng.randint(0, 1) for _ in TOWERS[tower][1:]]
    if negative_if_constant and not any(exps):
        # a constant non-square: negative at every ordering
        c = -abs(c)
    return Mono(tower, c, exps)


def random_nonsquare(rng: random.Random, tower: str) -> Mono:
    """A monomial that is negative at some ordering, hence not a square."""
    return random_mono(rng, tower, negative_if_constant=True)


# ---------------------------------------------------------------------------
# the algebra pool
# ---------------------------------------------------------------------------

MATRIX_INNER = ("field_id", "unitary_quadratic", "quaternion_conj")


class Alg:
    """An algebra document plus what the checks know about it."""

    def __init__(self, kind, tower, doc, nil_paths, entry, zero, oracle):
        self.kind = kind
        self.tower = tower
        self.doc = doc
        self.nil = frozenset(nil_paths)
        self.entry = entry  # rng -> (element doc, sign function or None)
        self.zero = zero
        self.oracle = oracle  # values are the sums of entry signs off nil
        self.signature_ok = True

    @property
    def non_nil(self):
        return [p for p in sign_paths(self.tower) if p not in self.nil]


def _quat_slot(doc, slot, zero="0"):
    out = [zero] * 4
    out[slot] = doc
    return out


def make_algebra(rng: random.Random, kind: str, tower: str) -> Alg:
    paths = sign_paths(tower)
    fdoc = field_doc(tower)

    def scalar(r):
        m = random_mono(r, tower)
        return m.doc(), m.sign

    if kind == "field_id":
        return Alg(kind, tower, {"kind": kind, "field": fdoc}, (), scalar, "0", True)
    if kind == "exchange":

        def entry(r):
            d, _ = scalar(r)
            return {"left": d, "right": d}, None

        return Alg(kind, tower, {"kind": kind, "field": fdoc}, paths, entry,
                   {"left": "0", "right": "0"}, True)
    if kind == "unitary_quadratic":
        alpha = random_nonsquare(rng, tower)

        def entry(r):
            d, s = scalar(r)
            return {"u": d, "v": "0"}, s

        return Alg(kind, tower, {"kind": kind, "field": fdoc, "alpha": alpha.doc()},
                   [p for p in paths if alpha.sign(p) > 0], entry,
                   {"u": "0", "v": "0"}, True)
    if kind in ("quaternion_conj", "quaternion_orth"):
        a = random_mono(rng, tower)
        b = random_mono(rng, tower)
        if kind == "quaternion_conj":
            inv = {"type": "conjugation"}
            nil = [p for p in paths if a.sign(p) > 0 or b.sign(p) > 0]
            slots = (0,)
        else:
            # u = i or j; pure quaternions anticommuting with u are
            # symmetric, and c*i, c*j, c*k have reduced norms -a c^2,
            # -b c^2, ab c^2, so every entry is invertible.
            u_slot = rng.choice((1, 2))
            inv = {"type": "orthogonal", "u": _quat_slot("1", u_slot)}
            nil = [p for p in paths if a.sign(p) < 0 and b.sign(p) < 0]
            slots = (0,) + tuple(t for t in (1, 2, 3) if t != u_slot)

        def entry(r):
            d, s = scalar(r)
            slot = r.choice(slots)
            return _quat_slot(d, slot), (s if slot == 0 else None)

        doc = {"kind": "quaternion", "field": fdoc, "a": a.doc(), "b": b.doc(),
               "involution": inv}
        return Alg(kind, tower, doc, nil, entry, ["0"] * 4,
                   kind == "quaternion_conj")
    if kind == "unitary_quaternion":
        a = random_mono(rng, tower)
        b = random_mono(rng, tower)
        alpha = random_nonsquare(rng, tower)
        z = {"u": "0", "v": "0"}

        def entry(r):
            d, _ = scalar(r)
            if r.random() < 0.5:  # a central scalar of F
                return _quat_slot({"u": d, "v": "0"}, 0, z), None
            # sqrt(alpha) times a pure quaternion is fixed by the involution
            return _quat_slot({"u": "0", "v": d}, r.randint(1, 3), z), None

        doc = {"kind": kind, "field": fdoc, "a": a.doc(), "b": b.doc(),
               "alpha": alpha.doc()}
        return Alg(kind, tower, doc, [p for p in paths if alpha.sign(p) > 0],
                   entry, [z] * 4, False)
    if kind.startswith("matrix"):
        inner_kind = "quaternion_orth" if kind == "matrix_orth" else rng.choice(MATRIX_INNER)
        inner = make_algebra(rng, inner_kind, tower)
        g = [_scaled_one(inner, "1"), _scaled_one(inner, random_mono(rng, "Q").doc())]

        def entry(r):
            d1, _ = inner.entry(r)
            d2, _ = inner.entry(r)
            return [[d1, inner.zero], [inner.zero, d2]], None

        doc = {"kind": "matrix", "n": 2, "inner": inner.doc, "g": g}
        zero = [[inner.zero, inner.zero], [inner.zero, inner.zero]]
        return Alg("matrix", tower, doc, inner.nil, entry, zero, False)
    raise ValueError(kind)


def _scaled_one(inner: Alg, c):
    """The rational c as an element of the inner algebra."""
    if inner.kind == "field_id":
        return c
    if inner.kind == "unitary_quadratic":
        return {"u": c, "v": "0"}
    return _quat_slot(c, 0)


# (kind, towers, signature queries allowed, how many).  Every kind and every
# tower of depth <= 2 appears.  A `signature` query on a split-certificate
# kind re-verifies a certificate per transported form: it takes up to 1.5 s
# over Q((x)) and over 4 s for some Q(s2)((x)) parameters.  Those algebras
# take signature queries only over Q; `split-cert` and `nil` reach every
# tower.
POOL = (
    ("field_id", ALL_TOWERS, True, 4),
    ("exchange", ALL_TOWERS, True, 3),
    ("unitary_quadratic", ALL_TOWERS, True, 5),
    ("quaternion_conj", ALL_TOWERS, True, 5),
    ("quaternion_orth", ("Q",), True, 3),
    ("quaternion_orth", ALL_TOWERS, False, 3),
    ("unitary_quaternion", ("Q",), True, 2),
    ("unitary_quaternion", SHALLOW, False, 3),
    ("matrix", ("Q",), True, 3),
    ("matrix", SHALLOW, False, 2),
    ("matrix_orth", SHALLOW, False, 2),
)


def algebra_pool(rng: random.Random):
    pool = []
    for kind, towers, signature_ok, count in POOL:
        for _ in range(count):
            A = make_algebra(rng, kind, rng.choice(towers))
            A.signature_ok = signature_ok
            pool.append(A)
    return pool


# ---------------------------------------------------------------------------
# the queries
# ---------------------------------------------------------------------------

def _dumps(doc) -> str:
    return json.dumps(doc, separators=(",", ":"))


class Query:
    __slots__ = ("qid", "command", "argv", "expect")

    def __init__(self, qid, command, argv, expect):
        self.qid = qid
        self.command = command
        self.argv = argv
        self.expect = expect


def query_rounds(seed: int):
    """Yield rounds of queries over the fixed pool, endlessly.

    Every round has the same make-up -- a signature query for each algebra
    that takes one, a split-cert query for each algebra with a non-nil
    ordering, a nil query for each algebra, an orderings query for each
    tower and two transfer checks per square-root tower -- so rounds cost
    about the same whatever the seed.  The seed draws the forms, the
    orderings, the transfer forms and the order of the queries.  Form
    ranks cycle through 1, 2, 3 from round to round.
    """
    pool = algebra_pool(random.Random(POOL_SEED))
    rng = random.Random(seed)
    qid = 0
    for rnd in itertools.count():
        specs = []
        for i, A in enumerate(pool):
            specs.append(("nil", A))
            if A.signature_ok:
                specs.append(("signature", A, 1 + (i + rnd) % 3))
            if A.non_nil:
                specs.append(("split-cert", A))
        specs.extend(("orderings", t) for t in ALL_TOWERS)
        specs.extend(("transfer-check", t) for t in TRANSFER_TOWERS for _ in range(2))
        queries = []
        for spec in specs:
            command = spec[0]
            if command == "orderings":
                tower = spec[1]
                argv = ["--json", "orderings", "--field", _dumps(field_doc(tower))]
                expect = {"tower": tower}
            elif command == "nil":
                A = spec[1]
                argv = ["--json", "nil", "--algebra", _dumps(A.doc)]
                expect = {"alg": A}
            elif command == "signature":
                A = spec[1]
                entries = [A.entry(rng) for _ in range(spec[2])]
                form = {"diag": [d for d, _ in entries]}
                argv = ["--json", "signature", "--algebra", _dumps(A.doc),
                        "--form", _dumps(form)]
                expect = {"alg": A, "signs": [sg for _, sg in entries]}
            elif command == "split-cert":
                A = spec[1]
                path = rng.choice(A.non_nil)
                argv = ["--json", "split-cert", "--algebra", _dumps(A.doc),
                        "--ordering", _dumps(ordering_doc(A.tower, path))]
                expect = {"alg": A, "path": path}
            else:
                tower = spec[1]
                monos = [random_mono(rng, tower) for _ in range(rng.randint(1, 3))]
                form = {"field": field_doc(tower), "diag": [m.doc() for m in monos]}
                argv = ["--json", "transfer-check", "--form", _dumps(form)]
                expect = {"tower": tower, "monos": monos}
            queries.append((command, argv, expect))
        rng.shuffle(queries)
        out = []
        for command, argv, expect in queries:
            out.append(Query(qid, command, argv, expect))
            qid += 1
        yield out


# ---------------------------------------------------------------------------
# output checks: each returns None when the output is right, else a reason
# ---------------------------------------------------------------------------


def _image_cells(image: dict, tower: str) -> str:
    """The README's image column, read off a diagonal lattice basis."""
    coords = image["coordinates"]
    steps = {}
    for row in image["basis"]:
        nonzero = [i for i, v in enumerate(row) if v != 0]
        if len(nonzero) != 1:
            return "lattice" + str(image["basis"])
        steps[nonzero[0]] = abs(row[nonzero[0]])
    cells = []
    for path in sign_paths(tower):
        od = ordering_doc(tower, path)
        d = steps.get(coords.index(od)) if od in coords else None
        cells.append("{0}" if d is None else ("Z" if d == 1 else f"{d}Z"))
    return " x ".join(cells)


def check_examples(out: str):
    rows = json.loads(out)["examples"]
    if len(rows) != len(EXAMPLES_TABLE):
        return "wrong number of examples"
    for row, (name, image, group, st, st_f, tower) in zip(rows, EXAMPLES_TABLE):
        rep = row["report"]
        got = (row["name"], _image_cells(rep["image"], tower),
               rep["stability_group"], str(rep["st"]), row["st_of_field"])
        if got != (name, image, group, st, st_f):
            return f"example row {got} differs from the README table"
    if digest(out) != DIGESTS["examples"]:
        return "--json output is not byte-identical to the recorded one"
    return None


def check_deep(workload: str, report_json: str, group: str):
    if group != DEEP_GROUPS[workload]:
        return f"stability group {group!r}, expected {DEEP_GROUPS[workload]!r}"
    if digest(report_json) != DIGESTS[workload]:
        return "report JSON differs from the recorded one"
    return None


def check_query(q: Query, code: int, out: str, verify=None):
    """``verify`` re-checks a split-cert document with the library."""
    if code != 0:
        return f"exit code {code}"
    doc = json.loads(out)
    e = q.expect
    if q.command == "orderings":
        paths = sign_paths(e["tower"])
        got = [o["path"] for o in doc["orderings"]]
        if doc["count"] != len(paths) or got != [ordering_doc(e["tower"], p) for p in paths]:
            return "orderings differ from the sign paths of the tower"
        return None
    if q.command == "nil":
        A = e["alg"]
        paths = sign_paths(A.tower)
        want_nil = [ordering_doc(A.tower, p) for p in paths if p in A.nil]
        want_non = [ordering_doc(A.tower, p) for p in paths if p not in A.nil]
        if doc["nil"] != want_nil or doc["non_nil"] != want_non:
            return "nil set differs from the sign rule"
        return None
    if q.command == "signature":
        A = e["alg"]
        paths = sign_paths(A.tower)
        values = doc["values"]
        if len(values) != len(paths):
            return "signature vector has the wrong length"
        for p, v in zip(paths, values):
            if p in A.nil and v != 0:
                return "nonzero signature at a nil ordering"
            if A.oracle and p not in A.nil:
                want = sum(s(p) for s in e["signs"])
                if v != want:
                    return f"signature {v} at {p}, expected {want}"
        return None
    if q.command == "split-cert":
        A = e["alg"]
        cert = doc["certificate"]
        if doc["verified"] is not True:
            return "certificate reported unverified"
        if cert["ordering"] != ordering_doc(A.tower, e["path"]):
            return "certificate is for another ordering"
        if verify is not None and not verify(cert):
            return "certificate fails re-verification"
        return None
    # transfer-check
    if doc["identity_holds"] is not True:
        return "transfer identity does not hold"
    tower = e["tower"]
    lower = sign_paths(tower)
    rows = doc["per_ordering"]
    base_paths = list(itertools.product((1, -1), repeat=len(TOWERS[tower]) - 2))
    if len(rows) != len(base_paths):
        return "wrong number of transfer rows"
    for row, bp in zip(rows, base_paths):
        want = sum(m.sign(p) for p in lower if p[: len(bp)] == bp for m in e["monos"])
        if row["sum_above"] != want or row["transfer"] != want:
            return f"transfer row {row} expected {want}"
    return None
