"""A warm process answers as a cold one.

The CLI keeps what a long-lived process already knows: each ``--field``
and ``--algebra`` document text is parsed once (``cli._field_from_text``,
``cli._algebra_from_text``), each algebra's reference search succeeds
once per budget (``Algebra.reference_memo``), each field, algebra,
ordering, searched reference and certificate is rendered to JSON once per
process (``cli._rendered``) and re-indented once per depth it is spliced
at, and the worked examples are built once (``cli._example_algebras``).
A ``--json`` query builds only its document, no text table.  These tests check that every
such memo behaves as if it were absent: same exit code, stdout and
stderr, whatever ran before, and that a memo hit skips the work it is
there to skip.  The first round of the benchmark's ``queries`` workload
is pinned here by the digest the benchmark records.
"""

import json
import random

import pytest

from hermstab import cli, signatures
from test_argv import _perfbench_workloads
from test_cli import ORTH_X
from test_golden import COMMANDS, F2, F2X, GOLDEN, LX, Q, S2, X, call, clear_memos, digest

EXAMPLES = ["--json", "examples"]
ONE = ["1", "0", "0", "0"]

# the two piecewise-reference algebras: ((x, 1)_Q((x)), Int(j)conj) and
# ((1, sqrt 2), Int(i)conj)
PIECEWISE = {
    "x_1_int_j": {
        "kind": "quaternion",
        "field": LX,
        "a": X,
        "b": "1",
        "involution": {"type": "orthogonal", "u": ["0", "0", "1", "0"]},
    },
    "1_sqrt2_int_i": {
        "kind": "quaternion",
        "field": F2,
        "a": "1",
        "b": S2,
        "involution": {"type": "orthogonal", "u": ["0", "1", "0", "0"]},
    },
}

# (-1/4, 6)_Q with an orthogonal involution: the reference search gives up
# although the ordering is not nil (exit 3)
NO_REFERENCE = json.dumps(
    {
        "kind": "quaternion",
        "field": Q,
        "a": "-1/4",
        "b": "6",
        "involution": {"type": "orthogonal", "u": ["0", "-1", "2", "2"]},
    }
)

def test_first_query_round_matches_the_benchmark_digest():
    """The first round of the benchmark's ``queries`` workload at its
    default seed, answered in one process from a cold start as its worker
    answers it, prints the bytes whose digest the benchmark records."""
    workloads = _perfbench_workloads()
    batch = next(workloads.query_rounds(workloads.DEFAULT_SEED))
    clear_memos()
    results = [call(q.argv) for q in batch]
    assert [code for code, _, _ in results] == [0] * len(batch)
    text = "".join(out for _, out, _ in results)
    assert workloads.digest(text) == workloads.DIGESTS["queries"]


def test_warm_replay_matches_golden():
    """Every golden command and --json examples, twice each in a seeded
    shuffled order, in one process and with nothing cleared in between."""
    clear_memos()
    expected = {name: GOLDEN[name] for name in COMMANDS}
    expected["examples"] = (0, digest(call(EXAMPLES)[1]))
    argvs = {**COMMANDS, "examples": EXAMPLES}
    order = sorted(argvs) * 2
    random.Random(15).shuffle(order)
    for name in order:
        code, out, _ = call(argvs[name])
        assert (code, digest(out)) == expected[name], name


@pytest.mark.parametrize("name", sorted(PIECEWISE))
@pytest.mark.parametrize(
    "command",
    [
        ["signature", "--form", json.dumps({"diag": [ONE]})],
        ["stability"],
        ["split-cert", "--ordering", "1"],
    ],
    ids=["signature", "stability", "split-cert"],
)
def test_small_budgets_after_a_large_one_answer_as_cold(name, command):
    """The reference candidates of an algebra keep their eliminations across
    budgets; a query at budget 0-3 after one at budget 50 still exits,
    prints and fails as it does in a fresh process."""
    argv = [command[0], "--algebra", json.dumps(PIECEWISE[name]), *command[1:]]
    cold = {}
    for budget in range(4):
        clear_memos()
        cold[budget] = call(["--json", "--budget", str(budget), *argv])
    assert {cold[b][0] for b in cold} == {0, 3}
    clear_memos()
    for budget in range(4):
        assert call(["--json", "--budget", "50", *argv])[0] == 0
        assert call(["--json", "--budget", str(budget), *argv]) == cold[budget]


def test_second_examples_call_searches_no_certificate(monkeypatch):
    """The example algebras are built once per process, so a second
    ``--json examples`` prints the same bytes from the certificates kept
    on them, without building a split model."""
    from hermstab import splitting

    clear_memos()
    first = call(EXAMPLES)
    models = []
    real = splitting._split_model

    def counted(*args):
        models.append(args)
        return real(*args)

    monkeypatch.setattr(splitting, "_split_model", counted)
    assert call(EXAMPLES) == first
    assert first[0] == 0 and models == []
    clear_memos()
    assert call(EXAMPLES) == first
    assert models  # a fresh start does build them


def test_malformed_document_fails_alike_twice():
    bad = '{"kind": "quaternion", "field": ' + json.dumps(LX) + ', "a": "1"}'
    first = call(["nil", "--algebra", bad])
    assert first[0] == 2 and first[2].startswith("error: ")
    assert call(["nil", "--algebra", bad]) == first


def test_failed_reference_search_fails_alike_twice():
    first = call(["stability", "--algebra", NO_REFERENCE])
    assert first == (3, "", "error: no diagonal candidate has nonzero signature at Q\n")
    assert call(["stability", "--algebra", NO_REFERENCE]) == first


def test_rewritten_file_is_read_again(tmp_path):
    path = tmp_path / "algebra.json"
    argv = ["--json", "nil", "--algebra", f"@{path}"]
    answers = []
    for alpha in ("-1", "3"):
        doc = {"kind": "unitary_quadratic", "field": Q, "alpha": alpha}
        path.write_text(json.dumps(doc))
        code, out, _ = call(argv)
        assert code == 0
        answers.append(json.loads(out))
        assert answers[-1]["algebra"]["alpha"] == doc["alpha"]
    assert answers[0]["nil"] == [] and answers[1]["non_nil"] == []


def test_repeated_field_text_is_parsed_once(monkeypatch, tmp_path):
    """A repeated ``orderings --field`` text builds its tower once and
    prints the same bytes; a failing field document fails alike every
    time, and an ``@file`` is read again on every call."""
    from hermstab.fields import FieldTower

    clear_memos()
    parsed = []
    real = FieldTower.from_json

    def counted(doc):
        parsed.append(doc)
        return real(doc)

    monkeypatch.setattr(FieldTower, "from_json", staticmethod(counted))
    argv = ["orderings", "--field", json.dumps(F2X)]
    runs = [call(json_flag + argv) for json_flag in ([], ["--json"], [], ["--json"])]
    assert runs[:2] == runs[2:] and {code for code, _, _ in runs} == {0}
    assert len(parsed) == 1
    bad = json.dumps({"tower": [{"kind": "base"}, {"kind": "qext", "d": "4"}]})
    first = call(["orderings", "--field", bad])
    assert first[0] == 2 and call(["orderings", "--field", bad]) == first
    path = tmp_path / "field.json"
    read = []
    for d in ("2", "3"):
        path.write_text(json.dumps({"tower": [{"kind": "base"}, {"kind": "qext", "d": d}]}))
        code, out, _ = call(["--json", "orderings", "--field", f"@{path}"])
        assert code == 0
        read.append(json.loads(out)["field"]["tower"][1]["d"])
    assert read == ["2", "3"]


def test_kept_rendering_is_reindented_once_per_depth():
    """A kept rendering spliced at depths 1-4 writes what json.dumps writes
    for its document there, and keeps one re-indented text per depth: a
    second splice at a depth adds none."""
    from test_cli import _nest

    clear_memos()
    A = cli._algebra_from_text(ORTH_X, 4)
    rendered = cli._rendered(A)
    assert rendered.at == {}
    doc = A.to_json()
    for depth in range(1, 5):
        expected = json.dumps(_nest(doc, depth), sort_keys=True, indent=2)
        for _ in range(2):
            assert cli._json_text(_nest(rendered, depth)) == expected
        assert len(rendered.at) == depth
    assert cli._rendered(A) is rendered


def test_diagonal_matrix_value_pays_one_inner_involution_per_diagonal_entry(monkeypatch):
    """The adjoint involution of M_3(D) skips zero entries: a diagonal value
    pays 3 involutions of D, not 9, and a dense one 9; both equal the
    entry-by-entry formula g_i^-1 theta(X_ji) g_j."""
    from hermstab.algebras import MatrixAlgebra, QuaternionAlgebra
    from hermstab.fields import FieldTower

    Qf = FieldTower.rationals()
    D = QuaternionAlgebra(Qf, -1, -3, "orthogonal", [0, 1, 1, 0])
    M = MatrixAlgebra(3, D, [D.one(), D.from_field(2).value, D.from_field(-5).value])
    theta = D.involution

    def formula(x):
        return tuple(
            tuple(D.mul(M._g_inv[i], D.mul(theta(x[j][i]), M.g[j])) for j in range(3))
            for i in range(3)
        )

    calls = []

    def counted(x):
        calls.append(x)
        return theta(x)

    rng = random.Random(32)
    values = [D.from_coords([Qf.rational(rng.randint(-4, 4)) for _ in range(4)]) for _ in range(9)]
    diagonal = tuple(
        tuple(values[i] if i == j else D.zero() for j in range(3)) for i in range(3)
    )
    dense = tuple(tuple(values[3 * i + j] for j in range(3)) for i in range(3))
    monkeypatch.setattr(D, "involution", counted)
    for x, paid in ((diagonal, 3), (dense, 9)):
        calls.clear()
        got = M.involution(x)
        assert len(calls) == paid
        assert got == formula(x)


def test_parse_memo_is_bounded():
    clear_memos()
    for k in range(1, 1101):
        doc = {"kind": "unitary_quadratic", "field": Q, "alpha": str(-k)}
        assert call(["nil", "--algebra", json.dumps(doc)])[0] == 0
    assert cli._algebra_from_text.cache_info().currsize <= 1024


def test_reference_memo_keeps_the_latest_budget():
    """A library-built algebra starts cold; a repeated search at one budget
    returns the kept reference, and distinct budgets do not grow the memo."""
    from hermstab import FieldTower, QuaternionAlgebra

    A = QuaternionAlgebra(FieldTower.rationals(), -1, -1)
    assert A.reference_memo == {}
    ref = signatures.reference_search(A, 50)
    assert signatures.reference_search(A, 50) is ref
    for budget in range(10):
        signatures.reference_search(A, budget)
    assert list(A.reference_memo) == [9]
    again = signatures.reference_search(A, 50)
    assert again is not ref and again.to_json() == ref.to_json()


def test_second_signature_query_reuses_parse_reference_and_renderings(monkeypatch):
    """A second signature query on the same --algebra text builds no
    algebra, makes no reference_signs call and renders only its own
    document: the JSON of the algebra (also inside the form), each
    ordering path, its reference and each certificate is reused."""
    import hermstab.algebras as algebras

    clear_memos()
    built, signs, rendered = [], [], []
    for kind in (
        algebras.FieldAlgebra,
        algebras.ExchangeAlgebra,
        algebras.UnitaryQuadraticAlgebra,
        algebras.QuaternionAlgebra,
        algebras.UnitaryQuaternionAlgebra,
        algebras.MatrixAlgebra,
    ):

        def counted(self, *args, _real=kind.__init__, **kwargs):
            built.append(type(self).__name__)
            return _real(self, *args, **kwargs)

        monkeypatch.setattr(kind, "__init__", counted)
    real_signs, real_text = signatures.reference_signs, cli._json_text

    def counted_signs(*args):
        signs.append(args[1])
        return real_signs(*args)

    def counted_text(doc):
        rendered.append(doc)
        return real_text(doc)

    monkeypatch.setattr(signatures, "reference_signs", counted_signs)
    monkeypatch.setattr(cli, "_json_text", counted_text)
    argv = ["--json", "signature", "--algebra", ORTH_X, "--form", json.dumps({"diag": [ONE]})]
    counts, outputs = [], []
    for _ in range(2):
        built.clear(), signs.clear(), rendered.clear()
        code, out, _ = call(argv)
        assert code == 0
        counts.append((len(built), len(signs), len(rendered)))
        outputs.append(out)
    assert outputs[0] == outputs[1]
    details = json.loads(outputs[0])["signatures"]
    certs = sum("certificate" in e for e in details)
    assert certs == 1 and len(details) == 2
    assert counts[0][0] > 0 and counts[0][1] > 0
    # the document, the algebra, the searched reference, each certificate
    # and each ordering path
    assert counts[0][2] == 3 + certs + len(details)
    assert counts[1] == (0, 0, 1)


def _module_state():
    """Every module-level dict, list and set of hermstab (OrderedDict
    included) by a copy of its contents, and every module-level
    functools cache by its size; ``__main__`` runs the CLI on import and
    is left out."""
    import functools
    import importlib
    import pkgutil

    import hermstab

    names = ["hermstab"] + [
        f"hermstab.{info.name}"
        for info in pkgutil.iter_modules(hermstab.__path__)
        if info.name != "__main__"
    ]
    state = {}
    for name in names:
        for attr, value in vars(importlib.import_module(name)).items():
            key = f"{name}.{attr}"
            if isinstance(value, (dict, list, set)) and not attr.startswith("__"):
                state[key] = type(value)(value)
            elif isinstance(value, functools._lru_cache_wrapper):
                state[key] = value.cache_info().currsize
    return state


def test_no_global_state_outside_the_cli_memos():
    """A stability report, a signature query and a split-cert query leave
    every module-level container of hermstab as it was: what they learn
    is kept on the algebra.  Only the CLI's parse and rendering memos
    grow, each within its bound."""
    doc = json.dumps({**PIECEWISE["x_1_int_j"], "a": "3"})  # text no other test uses
    call(["orderings", "--field", json.dumps(Q)])  # one query before the snapshot
    before = _module_state()
    queries = [
        ["--json", "stability", "--algebra", doc],
        ["--json", "signature", "--algebra", doc, "--form", json.dumps({"diag": [ONE]})],
        ["--json", "split-cert", "--algebra", doc, "--ordering", "0"],
    ]
    for argv in queries:
        assert call(argv)[0] == 0, argv
    after = _module_state()
    assert set(after) == set(before)
    changed = {key for key in before if after[key] != before[key]}
    memos = {"hermstab.cli._algebra_from_text", "hermstab.cli._rendered"}
    assert changed <= memos
    assert after["hermstab.cli._algebra_from_text"] == (
        before["hermstab.cli._algebra_from_text"] + 1
    )
    for memo in (cli._field_from_text, cli._algebra_from_text, cli._rendered):
        info = memo.cache_info()
        assert info.currsize <= info.maxsize == 1024
