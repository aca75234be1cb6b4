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


def test_failed_emitted_certificate_exit_code(monkeypatch):
    import hermstab.splitting as splitting

    monkeypatch.setattr(splitting, "_verify_impl", lambda cert: False)
    splitting.clear_certificate_cache()
    code, _, err = run_cli("split-cert", "--algebra", ORTH_X, "--ordering", "0")
    assert code == 4
    assert "internal invariant violation" in err
    assert "Traceback" not in err


def _split_witness_of_zero(h):
    from hermstab.algebras import SplitWitness

    return SplitWitness(h.algebra, h.algebra.elem(h.algebra.zero()))


@pytest.mark.parametrize(
    "module, name, fake, argv, message",
    [
        (
            "signatures",
            "diagonalize_hermitian",
            _split_witness_of_zero,
            ("signature", "--algebra", HAM, "--form", '{"diag":[["1","0","0","0"]]}'),
            "split where it must be division",
        ),
        (
            "splitting",
            "_nullspace",
            lambda rows, zero, one: [],
            ("split-cert", "--algebra", ORTH_X, "--ordering", "0"),
            "no involution datum exists",
        ),
    ],
    ids=["diagonal-route", "involution-datum"],
)
def test_internal_consistency_failures_exit_4(
    monkeypatch, module, name, fake, argv, message
):
    import importlib

    import hermstab.splitting as splitting

    monkeypatch.setattr(importlib.import_module("hermstab." + module), name, fake)
    splitting.clear_certificate_cache()
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
