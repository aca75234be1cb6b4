import json
import random
import subprocess
import sys
import time

import pytest

from hermstab.cli import main

Q_FIELD = '{"tower":[{"kind":"base"}]}'
F2_FIELD = '{"tower":[{"kind":"base"},{"kind":"qext","d":"2"}]}'
LX_FIELD = '{"tower":[{"kind":"base"},{"kind":"laurent"}]}'
HAM = (
    '{"kind":"quaternion","field":' + Q_FIELD + ',"a":"-1","b":"-1",'
    '"involution":{"type":"conjugation"}}'
)
ORTH_X = (
    '{"kind":"quaternion","field":' + LX_FIELD + ","
    '"a":{"num":[[1,"1"]],"den":[[0,"1"]]},"b":"-1",'
    '"involution":{"type":"orthogonal","u":["0","0","1","0"]}}'
)


def run_cli(*argv, capsys=None):
    from io import StringIO
    import contextlib

    out = StringIO()
    err = StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_orderings_command():
    code, out, err = run_cli("orderings", "--field", F2_FIELD)
    assert code == 0
    assert "orderings: 2" in out
    assert "sqrt(2)>0" in out


def test_orderings_json_round_trip():
    code, out, _ = run_cli("--json", "orderings", "--field", F2_FIELD)
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 2
    from hermstab.fields import FieldTower, Ordering

    field = FieldTower.from_json(doc["field"])
    for entry in doc["orderings"]:
        Ordering.from_json(field, entry["path"])


def test_nil_command():
    alg = (
        '{"kind":"quaternion","field":' + F2_FIELD + ',"a":"-1",'
        '"b":{"u":"0","v":"-1"},"involution":{"type":"conjugation"}}'
    )
    code, out, _ = run_cli("nil", "--algebra", alg)
    assert code == 0
    assert "nil: {sqrt(2)<0}" in out


def test_signature_command():
    form = '{"diag":[["1","0","0","0"],["1","0","0","0"],["-1","0","0","0"]]}'
    code, out, _ = run_cli("signature", "--algebra", HAM, "--form", form)
    assert code == 0
    assert out.strip().splitlines()[-1].split()[-1] == "1"


def test_signature_json_includes_certificates():
    form = '{"diag":[[["0","1"],["0","0"],["0","0"],["0","0"]]]}'
    # rank-1 unit form over the orthogonal algebra: use the identity
    form = '{"diag":[["1","0","0","0"]]}'
    code, out, _ = run_cli("--json", "signature", "--algebra", ORTH_X, "--form", form)
    assert code == 0
    doc = json.loads(out)
    routes = [e["route"] for e in doc["signatures"]]
    assert routes == ["split-certificate", "nil"]
    assert "certificate" in doc["signatures"][0]
    assert doc["values"] == [2, 0]


def test_stability_command():
    code, out, _ = run_cli("stability", "--algebra", ORTH_X)
    assert code == 0
    assert "stability group: Z/2Z" in out
    assert "stability index: 1" in out
    assert "exact: True" in out


def test_signature_with_explicit_reference():
    form = '{"diag":[["1","0","0","0"],["1","0","0","0"]]}'
    ref = '{"diag":[["-1","0","0","0"]]}'
    code, out, _ = run_cli(
        "--json", "signature", "--algebra", HAM, "--form", form, "--reference", ref
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["values"] == [-2]  # the negated reference flips the sign


def test_signature_rejects_degenerate_reference():
    form = '{"diag":[["1","0","0","0"]]}'
    ref = '{"diag":[["1","0","0","0"],["-1","0","0","0"]]}'  # signature 0
    code, _, err = run_cli(
        "signature", "--algebra", HAM, "--form", form, "--reference", ref
    )
    assert code == 2
    assert "zero signature" in err


def test_stability_json_reparses():
    code, out, _ = run_cli("--json", "stability", "--algebra", ORTH_X)
    assert code == 0
    doc = json.loads(out)
    from hermstab.algebras import HermitianForm, algebra_from_json

    algebra_from_json(doc["algebra"])
    h0 = HermitianForm.from_json(doc["report"]["h0"]["form"])
    assert h0.rank >= 1
    assert doc["report"]["h0"]["k0"] == 1


# Q(sqrt(5/3))(sqrt(1/2)): sqrt(1/2) is positive at two orderings of its
# base, so the probes' sign patterns are not provably complete
SAP4_FIELD = (
    '{"tower":[{"kind":"base"},{"kind":"qext","d":"5/3"},{"kind":"qext","d":"1/2"}]}'
)


@pytest.mark.parametrize(
    "algebra",
    [
        '{"kind":"exchange","field":' + SAP4_FIELD + "}",
        '{"kind":"unitary_quadratic","field":' + SAP4_FIELD + ',"alpha":"3"}',
    ],
    ids=["exchange", "unitary_quadratic"],
)
def test_all_nil_report_is_exact_on_any_tower(algebra):
    """Every ordering is nil, so image {0}, group 0 and st 0 hold whatever
    the probes: the report is exact although the tower's sign patterns
    are not provably complete."""
    code, out, _ = run_cli("stability", "--algebra", algebra)
    assert code == 0
    assert "image: {0} x {0} x {0} x {0}" in out
    assert "stability index: 0" in out and "exact: True" in out
    code, out, _ = run_cli("--json", "stability", "--algebra", algebra)
    assert code == 0
    report = json.loads(out)["report"]
    assert (report["st"], report["n0"], report["stability_group"]) == (0, 0, "0")
    assert report["exact"] is True and report["image"]["certified_exact"] is True


def test_report_over_incomplete_sign_patterns_is_not_exact():
    """Over the same tower (F, id) has no nil ordering, and its probes may
    miss sign patterns: the report stays a bound, not exact."""
    algebra = '{"kind":"field_id","field":' + SAP4_FIELD + "}"
    code, out, _ = run_cli("stability", "--algebra", algebra)
    assert code == 0 and "exact: False" in out
    code, out, _ = run_cli("--json", "stability", "--algebra", algebra)
    report = json.loads(out)["report"]
    assert report["exact"] is False and report["image"]["certified_exact"] is False


def test_split_cert_json_reparses():
    code, out, _ = run_cli("--json", "split-cert", "--algebra", ORTH_X, "--ordering", "0")
    assert code == 0
    doc = json.loads(out)
    from hermstab.splitting import SplittingCertificate, verify_certificate

    cert = SplittingCertificate.from_json(doc["certificate"])
    assert verify_certificate(cert)


def test_split_cert_command():
    code, out, _ = run_cli("split-cert", "--algebra", ORTH_X, "--ordering", "0")
    assert code == 0
    assert "verified: True" in out
    assert "flavor: orthogonal-split" in out


def test_split_cert_nil_ordering_is_validation_error():
    code, _, err = run_cli("split-cert", "--algebra", ORTH_X, "--ordering", "1")
    assert code == 2
    assert "error" in err


def test_budget_exhausted_exit_code():
    code, _, err = run_cli(
        "--budget", "0", "split-cert", "--algebra", ORTH_X, "--ordering", "0"
    )
    # height-0 budget finds nothing
    assert code == 3


def test_negative_budget_is_validation_error():
    code, _, err = run_cli(
        "--budget", "-1", "split-cert", "--algebra", ORTH_X, "--ordering", "0"
    )
    assert code == 2
    assert "--budget" in err


def test_matrix_size_must_be_an_integer():
    def matrix(n):
        return '{"kind":"matrix","n":%s,"inner":%s,"g":[["1","0","0","0"]]}' % (n, HAM)

    code, _, _ = run_cli("nil", "--algebra", matrix("1"))
    assert code == 0
    for bad in ("1.7", "true"):
        code, _, err = run_cli("nil", "--algebra", matrix(bad))
        assert code == 2, bad
        assert "'n'" in err


def test_search_exhausted_exit_code(monkeypatch):
    import hermstab.cli as cli
    from hermstab.signatures import SearchExhausted

    def exhausted(*args):
        raise SearchExhausted("no reference found")

    monkeypatch.setattr(cli, "reference_search", exhausted)
    form = '{"diag":[["1","0","0","0"]]}'
    code, _, err = run_cli("signature", "--algebra", HAM, "--form", form)
    assert code == 3
    assert "no reference found" in err


def test_wrapper_walk_builds_no_symmetric_basis(monkeypatch):
    """For n >= 5 every symmetric basis element of M_n(D), and every sum or
    difference of two, has a zero row, so the wrapper's candidate walk is
    <1>, <-1> and never builds its symmetric basis: (M_16(Q), ad_g) with
    one -1 entry still exits 3 with the h0 search's message."""
    import hermstab.algebras as algebras
    from test_golden import clear_memos

    real = algebras.sym_basis

    def refuse(A):
        if A.kind == "matrix":
            raise AssertionError("the wrapper's symmetric basis was built")
        return real(A)

    monkeypatch.setattr(algebras, "sym_basis", refuse)
    clear_memos()
    g = ", ".join(['"1"'] * 15 + ['"-1"'])
    algebra = (
        '{"kind":"matrix","n":16,"inner":{"kind":"field_id","field":'
        + Q_FIELD + '},"g":[' + g + "]}"
    )
    code, _, err = run_cli("stability", "--algebra", algebra)
    assert code == 3
    assert err == "error: no candidate with 2-power signature at Q\n"


def _rational_quaternion(a, involution):
    return (
        '{"kind":"quaternion","field":' + Q_FIELD + ',"a":"' + a + '","b":"-1",'
        '"involution":' + involution + "}"
    )


ORTH_J = '{"type":"orthogonal","u":["0","0","1","0"]}'
CONJ = '{"type":"conjugation"}'


@pytest.mark.parametrize(
    "a, twin, involution",
    [
        ("100000000000000000039", "7", ORTH_J),
        ("1000000000100000000002379", "3", ORTH_J),
        ("1000000000182000000007381", None, ORTH_J),
        ("-100000000000000000039", "-7", CONJ),
    ],
    ids=["prime", "semiprime", "semiprime-open", "conjugation"],
)
def test_large_rational_parameters_finish(a, twin, involution):
    """Hilbert-symbol places come from bounded trial division and a proven
    primality test.  10^20 + 39 is prime and 3 mod 4, so its report is
    that of a = 7.  (10^12 + 39)(10^12 + 61) cannot be factored that way,
    but it is 3 mod 8, so its symbol with -1 at 2 is -1, as that of 3 is:
    it is division, and its report is that of a = 3.  (10^12 + 61)(10^12
    + 121) is 5 mod 8 and positive, so its symbols at infinity and 2 are
    +1: its division stays unknown and the report is not exact.  The
    conjugation twin is definite at the ordering of Q, which decides it
    before any place is looked for."""
    keys = ("image", "stability_group", "st", "exact")
    t0 = time.perf_counter()
    code, out, _ = run_cli("--json", "stability", "--algebra", _rational_quaternion(a, involution))
    assert time.perf_counter() - t0 < 1
    assert code == 0
    report = json.loads(out)["report"]
    if twin is None:
        assert report["exact"] is False
        return
    code, out, _ = run_cli(
        "--json", "stability", "--algebra", _rational_quaternion(twin, involution)
    )
    expected = json.loads(out)["report"]
    assert [report[k] for k in keys] == [expected[k] for k in keys]
    assert report["exact"] is True


def test_failed_emitted_certificate_exit_code(monkeypatch):
    import hermstab.splitting as splitting
    from test_golden import clear_memos

    monkeypatch.setattr(splitting, "_verify_impl", lambda cert: False)
    clear_memos()
    code, _, err = run_cli("split-cert", "--algebra", ORTH_X, "--ordering", "0")
    assert code == 4
    assert "internal invariant violation" in err
    assert "Traceback" not in err


# (1, -1)_Q with Int(j)conj is split: 1 + i is symmetric with Nrd 0
SPLIT_Q = (
    '{"kind":"quaternion","field":' + Q_FIELD + ',"a":"1","b":"-1",'
    '"involution":{"type":"orthogonal","u":["0","0","1","0"]}}'
)


def _division_everywhere(A, P):
    """A nil computation that wrongly reads every ordering as division."""
    from hermstab.signatures import LocalType

    return LocalType(P, False, 1, 4, "diagonal-sum")


def _split_route_everywhere(A, P):
    """A local type that wrongly puts every ordering on a split route,
    whose signatures are even."""
    from hermstab.signatures import LocalType, local_type

    lt = local_type(A, P)
    return LocalType(P, lt.nil, lt.n, lt.l, "split-certificate")


def _doubled_root_split_data():
    """``splitting._build_split_data`` given twice the square root of the
    witness's norm, so that its e is no idempotent."""
    from hermstab.splitting import _build_split_data

    return lambda A_L, centre, w, sqm: _build_split_data(A_L, centre, w, sqm + sqm)


def _coordinates_of_e():
    """``splitting._span_coordinates`` reading every vector as the first
    basis vector e of the ideal, so that its coordinates do not reproduce
    the vector on the two rows that Cramer's rule leaves out."""
    from hermstab.splitting import _span_coordinates

    return lambda C, v1, v2, r0, r1, d_inv, u: _span_coordinates(
        C, v1, v2, r0, r1, d_inv, v1
    )


STABILITY_HAM = ("stability", "--algebra", HAM)
SPLIT_CERT_X = ("split-cert", "--algebra", ORTH_X, "--ordering", "0")


@pytest.mark.parametrize(
    "module, name, fake, argv, message",
    [
        (
            "signatures",
            "local_type",
            _division_everywhere,
            ("signature", "--algebra", SPLIT_Q, "--form", '{"diag":[["1","1","0","0"]]}'),
            "split where it must be division",
        ),
        (
            "splitting",
            "_phi",
            # Phi(u) = 0: the closed-form datum J^-1 adj Phi(u) is zero
            lambda M, matrices, value: M.zero(),
            SPLIT_CERT_X,
            "no involution datum exists",
        ),
        (
            "stability",
            "cokernel_invariants",
            lambda basis, dim: ([3], 0),
            STABILITY_HAM,
            "certified-exact cokernel has a non-2-power invariant factor",
        ),
        (
            "stability",
            "_stability_index",
            lambda lattice: 1,
            STABILITY_HAM,
            "stability index disagrees with the cokernel exponent",
        ),
        (
            "stability",
            "local_type",
            _split_route_everywhere,
            STABILITY_HAM,
            "coordinate Q attained 1, finer than the theoretical value group 2Z",
        ),
        (
            "splitting",
            "_build_split_data",
            _doubled_root_split_data(),
            SPLIT_CERT_X,
            "idempotent construction failed",
        ),
        (
            "splitting",
            "_second_pivot",
            # every b_p e read as a multiple of e
            lambda C, ideal: None,
            SPLIT_CERT_X,
            "ideal is not 2-dimensional over the centre",
        ),
        (
            "splitting",
            "_span_coordinates",
            _coordinates_of_e(),
            SPLIT_CERT_X,
            "vector lies outside the ideal",
        ),
    ],
    ids=[
        "diagonal-route",
        "involution-datum",
        "non-2-power-factor",
        "stability-index",
        "value-group",
        "idempotent",
        "ideal-dimension",
        "outside-ideal",
    ],
)
def test_internal_consistency_failures_exit_4(
    monkeypatch, module, name, fake, argv, message
):
    import importlib

    from test_golden import clear_memos

    monkeypatch.setattr(importlib.import_module("hermstab." + module), name, fake)
    clear_memos()
    code, out, err = run_cli(*argv)
    assert code == 4, err
    assert out == "" and err.startswith("internal invariant violation:")
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("exc", [ValueError, KeyError, ZeroDivisionError, TypeError])
def test_unexpected_exceptions_exit_4_in_one_line(monkeypatch, exc):
    import hermstab.cli as cli

    def broken(*args):
        raise exc("injected bug")

    monkeypatch.setattr(cli, "nil_set", broken)
    code, out, err = run_cli("nil", "--algebra", HAM)
    assert code == 4
    assert out == "" and err.count("\n") == 1
    assert err.startswith("internal error: " + exc.__name__)
    assert "injected bug" in err and "Traceback" not in err


def test_transfer_check_command():
    form = '{"field":' + F2_FIELD + ',"diag":[{"u":"0","v":"1"}]}'
    code, out, _ = run_cli("transfer-check", "--form", form)
    assert code == 0
    assert "identity holds: True" in out


def test_examples_command_values():
    code, out, _ = run_cli("--json", "examples")
    assert code == 0
    doc = json.loads(out)
    rows = doc["examples"]
    assert [r["report"]["st"] for r in rows] == [0, 0, 0, 1]
    assert [r["report"]["stability_group"] for r in rows] == [
        "0",
        "0",
        "0",
        "Z/2Z",
    ]
    assert rows[2]["st_of_field"] == "1"
    assert rows[3]["st_of_field"] == "1"


def test_examples_deterministic():
    _, out1, _ = run_cli("examples")
    _, out2, _ = run_cli("examples")
    assert out1 == out2
    _, j1, _ = run_cli("--json", "examples")
    _, j2, _ = run_cli("--json", "examples")
    assert j1 == j2


def test_validation_errors_exit_2():
    code, _, err = run_cli("orderings", "--field", "{not json")
    assert code == 2
    code, _, err = run_cli("orderings", "--field", '{"tower":[{"kind":"nope"}]}')
    assert code == 2
    code, _, err = run_cli(
        "orderings",
        "--field",
        '{"tower":[{"kind":"base"},{"kind":"qext","d":"4"}]}',
    )
    assert code == 2  # square radicand


def test_max_depth_enforced():
    deep = '{"tower":[{"kind":"base"},{"kind":"laurent"},{"kind":"laurent"}]}'
    code, _, err = run_cli("--max-depth", "1", "orderings", "--field", deep)
    assert code == 2
    code, _, _ = run_cli("--max-depth", "2", "orderings", "--field", deep)
    assert code == 0


_LONG_INT = "1" * 5000  # past the 4300 digits int() reads from text


@pytest.mark.parametrize(
    "argv, message",
    [
        (("orderings", "--field", f"[{_LONG_INT}]"), "invalid JSON: an integer has more"),
        (("nil", "--algebra", f'{{"kind": "matrix", "n": {_LONG_INT}}}'), "invalid JSON"),
        (("orderings", "--field", "@latin-1"), "cannot read"),
        (("split-cert", "--algebra", HAM, "--ordering=--5"), "invalid JSON"),
        (("split-cert", "--algebra", HAM, "--ordering", _LONG_INT), "index of 5000 digits"),
    ],
    ids=["long-int-field", "long-int-algebra", "not-utf-8", "double-minus", "long-index"],
)
def test_malformed_input_exits_2_in_one_line(tmp_path, argv, message):
    path = tmp_path / "field.json"
    path.write_bytes('{"tower": [{"kind": "bäse"}]}'.encode("latin-1"))
    argv = [a.replace("@latin-1", "@" + str(path)) for a in argv]
    code, out, err = run_cli(*argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err


def _deep_tower_argvs(steps):
    """One command line per entry point that reads a tower, each naming
    a square-root tower of ``steps`` steps."""
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53][:steps]
    field = {"tower": [{"kind": "base"}] + [{"kind": "qext", "d": str(p)} for p in primes]}
    deep = {"kind": "field_id", "field": field}
    matrix = {"kind": "matrix", "n": 2, "inner": deep, "g": ["1", "1"]}
    form = json.dumps({"algebra": deep, "epsilon": 1, "diag": ["1"]})
    rational = '{"kind": "field_id", "field": ' + Q_FIELD + "}"
    return {
        "field": ["orderings", "--field", json.dumps(field)],
        "algebra": ["nil", "--algebra", json.dumps(deep)],
        "matrix-algebra": ["nil", "--algebra", json.dumps(matrix)],
        "form": ["signature", "--algebra", rational, "--form", form],
        "reference": [
            "signature", "--algebra", rational, "--form", '{"diag": ["1"]}',
            "--reference", form,
        ],
        "transfer-check": [
            "transfer-check", "--form", json.dumps({"field": field, "diag": ["1"]}),
        ],
    }


@pytest.mark.parametrize("entry", list(_deep_tower_argvs(16)))
def test_max_depth_refuses_a_tower_before_building_it(entry):
    """A 16-step square-root tower is refused from its document's length
    at every entry point that reads a tower, inside 5 s: building it
    first enumerates its 2^16 orderings, which runs for minutes."""
    import os

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.pathsep.join(
        p for p in (os.path.join(root, "src"), os.environ.get("PYTHONPATH")) if p
    )
    argv = [sys.executable, "-m", "hermstab", *_deep_tower_argvs(16)[entry]]
    proc = subprocess.run(
        argv, capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=5
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "error: tower depth 16 exceeds --max-depth 4\n"


def test_max_depth_admits_each_entry_point_at_its_bound():
    """The same entry points read the tower of --max-depth steps; a form
    over it then fails only for not living over the rational --algebra."""
    mismatch = {
        "form": "error: form document does not match --algebra\n",
        "reference": "error: form does not live over the algebra\n",
    }
    for entry, argv in _deep_tower_argvs(2).items():
        code, _, err = run_cli("--max-depth", "2", *argv)
        assert (code, err) == ((2, mismatch[entry]) if entry in mismatch else (0, "")), entry
        code, _, err = run_cli("--max-depth", "1", *argv)
        assert (code, err) == (2, "error: tower depth 2 exceeds --max-depth 1\n"), entry


def test_unknown_json_key_rejected():
    bad = '{"tower":[{"kind":"base"}],"evil":1}'
    code, _, err = run_cli("orderings", "--field", bad)
    assert code == 2


def test_file_input(tmp_path):
    p = tmp_path / "field.json"
    p.write_text(F2_FIELD, encoding="utf-8")
    code, out, _ = run_cli("orderings", "--field", "@" + str(p))
    assert code == 0
    assert "orderings: 2" in out


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "hermstab", "orderings", "--field", Q_FIELD],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "orderings: 1" in proc.stdout


def _orth_x_with(a_doc):
    return ORTH_X.replace('{"num":[[1,"1"]],"den":[[0,"1"]]}', a_doc)


@pytest.mark.parametrize(
    "a_doc",
    [
        '{"num":[[1.7,"1"]],"den":[[0,"1"]]}',
        '{"num":[[null,"1"]],"den":[[0,"1"]]}',
        '{"num":[[true,"1"]],"den":[[0,"1"]]}',
        '{"num":[["1","1"]],"den":[[0,"1"]]}',
        '{"num":[[0,true]],"den":[[0,"1"]]}',
        '{"num":[[1,"1",2]],"den":[[0,"1"]]}',
        '{"num":[1],"den":[[0,"1"]]}',
        '{"num":{"1":"1"},"den":[[0,"1"]]}',
        '{"num":[[100000000,"1"]],"den":[[0,"1"]]}',
        '{"num":[[1,"1"]],"den":[[-100000000,"1"]]}',
    ],
)
def test_malformed_laurent_terms_exit_2(a_doc):
    code, out, err = run_cli("--json", "nil", "--algebra", _orth_x_with(a_doc))
    assert code == 2, err
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "leaf",
    ["1.5", "1e5", "1e20000", "1" * 1001],
    ids=["decimal", "exponent", "huge-exponent", "1001-digits"],
)
@pytest.mark.parametrize(
    "a_doc",
    [
        '{"num":[[1,"LEAF"]],"den":[[0,"1"]]}',  # a level-0 coefficient
        '"LEAF"',  # a rational embedded at the Laurent level
    ],
    ids=["level0", "level1"],
)
def test_rational_leaves_are_strict_exit_2(a_doc, leaf):
    code, out, err = run_cli(
        "--json", "nil", "--algebra", _orth_x_with(a_doc.replace("LEAF", leaf))
    )
    assert code == 2, err
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert len(err) < 300


def test_probes_file(tmp_path):
    p = tmp_path / "probes.json"
    p.write_text('{"field": ["0"]}', encoding="utf-8")
    code, _, err = run_cli("stability", "--algebra", ORTH_X, "--probes", str(p))
    assert code == 2
    assert "Pfister slots must be nonzero" in err
    p.write_text('{"field": ["3"]}', encoding="utf-8")
    code, out, _ = run_cli("stability", "--algebra", ORTH_X, "--probes", str(p))
    assert code == 0
    assert "stability group: Z/2Z" in out


def test_many_field_probes_stay_cheap(tmp_path):
    """The lattice grows one field probe at a time, so ten extra field
    elements over Q(sqrt 2) add rows linearly; the certified-exact report
    is the one without them."""
    algebra = _HAM_F2
    p = tmp_path / "probes.json"
    extra = [{"u": str(k), "v": str((-1) ** k)} for k in range(1, 11)]
    p.write_text(json.dumps({"field": extra}), encoding="utf-8")
    t0 = time.perf_counter()
    code, out, err = run_cli("--json", "stability", "--algebra", algebra, "--probes", str(p))
    elapsed = time.perf_counter() - t0
    assert code == 0, err
    assert elapsed < 2, elapsed
    assert out == run_cli("--json", "stability", "--algebra", algebra)[1]


@pytest.mark.parametrize("case", ["superscript-ordering", "probes-sym", "probes-field", "deep-nesting"])
def test_malformed_inputs_exit_2_in_one_line(tmp_path, case):
    path = tmp_path / "doc.json"
    if case == "superscript-ordering":
        argv = ("split-cert", "--algebra", ORTH_X, "--ordering", "\u00b2")
    elif case == "deep-nesting":
        path.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
        argv = ("nil", "--algebra", "@" + str(path))
    else:
        path.write_text(json.dumps({case[len("probes-"):]: 5}), encoding="utf-8")
        argv = ("stability", "--algebra", ORTH_X, "--probes", str(path))
    code, out, err = run_cli(*argv)
    assert code == 2, err
    assert out == "" and err.startswith("error:") and err.count("\n") == 1

_M2_HAM = '{"kind":"matrix","n":2,"inner":' + HAM + ',"g":G}'
FQ = '{"kind":"field_id","field":' + Q_FIELD + "}"
_HAM_F2 = HAM.replace(Q_FIELD, F2_FIELD)
_UQUAT = (
    '{"kind":"unitary_quaternion","field":' + Q_FIELD + ',"a":"-1","b":"-1",'
    '"alpha":"-1"}'
)
_Z = '{"u":"0","v":"0"}'


def _diag(algebra, entry):
    return ("signature", "--algebra", algebra, "--form", '{"diag":[%s]}' % entry)


@pytest.mark.parametrize(
    "argv",
    [
        ("orderings", "--field", '{"tower":1.5}'),
        ("orderings", "--field", '{"tower":[]}'),
        ("nil", "--algebra", ORTH_X.replace('["0","0","1","0"]', "null")),
        ("nil", "--algebra", _M2_HAM.replace("G", "7")),
        ("nil", "--algebra", _M2_HAM.replace("G", '[["1","0","0","0"],["0","0","0","0"]]')),
        ("signature", "--algebra", HAM, "--form", '{"diag":true}'),
        ("signature", "--algebra", FQ, "--form", '{"gram":["1"]}'),
        ("signature", "--algebra", HAM, "--form", '{"epsilon":null,"diag":[]}'),
        ("transfer-check", "--form", '{"field":' + F2_FIELD + ',"diag":-1}'),
        # quaternion elements, with coordinates in Q(sqrt 2) or in Q(sqrt -1)
        _diag(_HAM_F2, '["1","0","0"]'),
        _diag(_HAM_F2, '{"u":"1","v":"0"}'),
        _diag(_HAM_F2, '[{"u":"1","v":"0","w":"0"},"0","0","0"]'),
        _diag(_HAM_F2, '[{"u":"1"},"0","0","0"]'),
        _diag(_HAM_F2, '"1"'),
        _diag(_UQUAT, "[%s,%s,%s]" % (_Z, _Z, _Z)),
        _diag(_UQUAT, '{"u":"1","v":"0"}'),
        _diag(_UQUAT, '[{"u":"1","v":"0","w":"0"},%s,%s,%s]' % (_Z, _Z, _Z)),
        _diag(_UQUAT, '[{"u":"1"},%s,%s,%s]' % (_Z, _Z, _Z)),
        _diag(_UQUAT, '["1",%s,%s,%s]' % (_Z, _Z, _Z)),
    ],
    ids=["tower-float", "tower-empty", "u-null", "g-int", "g-zero", "diag-bool",
         "gram-row-string", "epsilon-null", "quadratic-diag-int"]
    + [
        f"{kind}-{case}"
        for kind in ("quaternion", "unitary_quaternion")
        for case in ("length-3", "non-list", "uv-extra-key", "uv-missing-key", "scalar")
    ],
)
def test_wrongly_typed_json_values_exit_2(argv):
    code, out, err = run_cli(*argv)
    assert code == 2, err
    assert out == "" and err.startswith("error:")


# Seed documents for the mutation test: one valid call per command that
# answers in milliseconds; each mutation edits one JSON argument.
_FUZZ_CALLS = [
    ("orderings", "--field", F2_FIELD),
    ("nil", "--algebra", HAM),
    ("nil", "--algebra", ORTH_X),
    ("split-cert", "--algebra", ORTH_X, "--ordering", "0"),
    ("signature", "--algebra", HAM, "--form", '{"diag":[["1","0","0","0"]]}'),
    (
        "nil",
        "--algebra",
        '{"kind":"matrix","n":2,"inner":' + HAM + ',"g":[["1","0","0","0"],["2","0","0","0"]]}',
    ),
    ("transfer-check", "--form", '{"field":' + F2_FIELD + ',"diag":[{"u":"0","v":"1"}]}'),
]

_WRONG_VALUES = [None, True, 1.5, "x", "", [], {}, [[]], -1, 0, "1/0"]
_HUGE_VALUES = [10**400, -(10**999), 1e308, "9" * 1000, "1/" + "7" * 900, 2**63]
_ARGPARSE_ERRORS = [
    [],
    ["--budget", "abc", "nil", "--algebra", HAM],
    ["--max-depth", "1.5", "nil", "--algebra", HAM],
    ["nil"],
    ["nil", "--algebra"],
    ["nil", "--algebra", HAM, "--bogus"],
    ["no-such-command"],
    ["split-cert", "--algebra", ORTH_X],
]


def _json_paths(doc, path=()):
    yield path
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from _json_paths(v, path + (k,))
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            yield from _json_paths(v, path + (i,))


def _mutate_json(rng, text):
    """One random edit of a JSON document: drop a key or item, swap in a
    wrong type or a huge number, or cut the text short."""
    if rng.random() < 0.15:
        return text[: rng.randrange(len(text))]
    doc = json.loads(text)
    path = rng.choice(list(_json_paths(doc))[1:])
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    roll = rng.random()
    if roll < 0.3:
        del parent[path[-1]]
    elif roll < 0.7:
        parent[path[-1]] = rng.choice(_WRONG_VALUES)
    else:
        parent[path[-1]] = rng.choice(_HUGE_VALUES)
    return json.dumps(doc)


def _run_cli_code(argv):
    try:
        return run_cli(*argv)
    except SystemExit as exc:  # argparse rejects the command line
        return exc.code, "", ""


def test_shared_parser_is_stateless_under_mutated_input():
    rng = random.Random(20140623)
    start = time.monotonic()
    codes = {}
    for _ in range(400):
        if rng.random() < 0.1:
            argv = list(rng.choice(_ARGPARSE_ERRORS))
        else:
            argv = list(rng.choice(_FUZZ_CALLS))
            slot = rng.choice([i for i, a in enumerate(argv) if a[:1] == "{"])
            argv[slot] = _mutate_json(rng, argv[slot])
            if rng.random() < 0.3:
                argv = ["--budget", str(rng.randint(0, 9))] + argv
            if rng.random() < 0.3:
                argv = ["--json"] + argv
        code, _, err = _run_cli_code(argv)
        assert code in (0, 2, 3, 4), (argv, code, err)
        assert "Traceback" not in err, (argv, err)
        codes[code] = codes.get(code, 0) + 1
    assert time.monotonic() - start < 120
    assert codes.get(2, 0) > 100 and codes.get(0, 0) > 10, codes

    # No option of an earlier call may leak into a later one on the shared
    # parser: each later call prints what a fresh process prints.
    argv = ["split-cert", "--algebra", ORTH_X, "--ordering", "0"]
    fresh = subprocess.run(
        [sys.executable, "-m", "hermstab", *argv], capture_output=True, text=True
    )
    assert fresh.returncode == 0
    for earlier in (["--budget", "7", "--json"], ["--budget", "0"], ["--max-depth", "0"]):
        run_cli(*earlier, *argv)
        assert run_cli(*argv) == (fresh.returncode, fresh.stdout, fresh.stderr)


def _random_json_doc(rng, depth=0):
    """A nested document of the types the JSON writer takes, with empty
    and nested-empty containers, tuples, negative and very large ints,
    the three literals and strings that need escaping."""
    pieces = ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", " ", "𝄞", "a", " /"]

    def text():
        return "".join(rng.choice(pieces) for _ in range(rng.randint(0, 4)))

    roll = rng.random()
    if depth >= 4 or roll < 0.3:
        return rng.choice(
            [
                text(),
                rng.randint(-10, 10),
                -(10 ** rng.randint(20, 400)) + rng.randint(0, 9),
                10 ** rng.randint(20, 400),
                True,
                False,
                None,
                {},
                [],
                (),
                {"": {}},
                [[]],
            ]
        )
    n = rng.randint(0, 4)
    items = [_random_json_doc(rng, depth + 1) for _ in range(n)]
    if roll < 0.55:
        return items
    if roll < 0.7:
        return tuple(items)
    return {text() + str(i): v for i, v in enumerate(items)}


def _nest(value, depth):
    """``value`` at nesting depth ``depth``, between siblings, alternating
    list and dict levels."""
    for level in range(depth):
        value = [0, value, "x"] if level % 2 else {"a": 0, "b": value, "c": []}
    return value


def test_json_writer_matches_json_dumps():
    """The --json writer is json.dumps(doc, sort_keys=True, indent=2),
    byte for byte: every golden-table command and --json examples prints
    what json.dumps prints for the document it printed, and on seeded
    random nested documents the writer matches json.dumps and a rendered
    value spliced in at nesting depth k writes what the value does."""
    from hermstab import cli
    from test_golden import COMMANDS, call

    for argv in [*COMMANDS.values(), ["--json", "examples"]]:
        code, out, _ = call(argv)
        if code == 0:
            assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"
    rng = random.Random(71)
    for doc in [_random_json_doc(rng) for _ in range(300)]:
        assert cli._json_text(doc) == json.dumps(doc, sort_keys=True, indent=2)
        rendered = cli._Rendered(cli._json_text(doc))
        for depth in range(5):
            expected = json.dumps(_nest(doc, depth), sort_keys=True, indent=2)
            assert cli._json_text(_nest(rendered, depth)) == expected


@pytest.mark.parametrize(
    "doc",
    [1.5, {"a": [0.0]}, {1, 2}, [frozenset()], {1: "x"}, {"a": {None: 1}}, {("k",): 1}],
    ids=["float", "nested-float", "set", "nested-set", "int-key", "none-key", "tuple-key"],
)
def test_json_writer_rejects_other_types(doc):
    from hermstab.cli import _json_text

    with pytest.raises(TypeError):
        _json_text(doc)


# a valid depth-3 tower Q(sqrt 2)(sqrt 3)(sqrt 5); each bad step replaces one
_SQRT_STEPS = ["2", "3", "5"]


@pytest.mark.parametrize("level", [1, 2, 3])
@pytest.mark.parametrize(
    "d, message",
    [
        ("0", "square-root step needs a nonzero element"),
        ("4", "square-root step needs a non-square"),
        ("-1", "square-root step needs an element positive somewhere"),
    ],
)
def test_bad_square_root_step_at_each_level_exits_2(level, d, message):
    steps = list(_SQRT_STEPS)
    steps[level - 1] = d
    field = {"tower": [{"kind": "base"}] + [{"kind": "qext", "d": e} for e in steps]}
    code, out, err = run_cli("orderings", "--field", json.dumps(field))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_matrix_scaling_that_is_not_invertible_exits_2():
    split = (
        '{"kind":"quaternion","field":' + Q_FIELD + ',"a":"1","b":"1",'
        '"involution":{"type":"orthogonal","u":["0","0","1","0"]}}'
    )
    for g in ('["0","0","0","0"]', '["1","1","0","0"]'):
        alg = '{"kind":"matrix","n":2,"inner":' + split + ',"g":[["1","0","0","0"],' + g + "]}"
        code, out, err = run_cli("nil", "--algebra", alg)
        assert (code, out, err) == (2, "", "error: scaling entries must be invertible\n")


@pytest.mark.parametrize(
    "algebra, form, built",
    [
        (HAM, '{"diag":[["1","0","0","0"]]}', ["QuaternionAlgebra"]),
        (
            '{"kind":"matrix","n":2,"inner":' + HAM + ',"g":[["1","0","0","0"],["-1","0","0","0"]]}',
            '{"diag":[[[["1","0","0","0"],["0","0","0","0"]],[["0","0","0","0"],["-2","0","0","0"]]]]}',
            ["QuaternionAlgebra", "MatrixAlgebra"],
        ),
    ],
    ids=["quaternion", "matrix"],
)
def test_signature_query_builds_each_algebra_once(monkeypatch, algebra, form, built):
    """A ``--form`` document without ``algebra`` is read over the parsed
    ``--algebra``: each kind constructor runs once, where re-reading the
    form over ``A.to_json()`` ran each twice."""
    import hermstab.algebras as algebras
    from test_golden import clear_memos

    clear_memos()
    calls = []
    for name in ("QuaternionAlgebra", "MatrixAlgebra"):
        cls = getattr(algebras, name)
        real = cls.__init__

        def counted(self, *args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    code, _, _ = run_cli("--json", "signature", "--algebra", algebra, "--form", form)
    assert code == 0
    assert sorted(calls) == sorted(built)
