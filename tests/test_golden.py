"""Golden CLI outputs: the sha256 of stdout and the exit code of the
``--json`` commands ``nil``, ``signature``, ``stability`` and ``split-cert``
on one algebra of each catalogue kind (towers of depth <= 1) and on one
2 x 2 matrix wrapper, of ``signature`` and ``split-cert`` on two kinds
over towers of depth 2, whose split certificates extend a Laurent tower,
and of ``stability`` on an orthogonal and a conjugation quaternion algebra
over towers of depth 2, whose reports evaluate the same forms at several
orderings, and on a 3 x 3 matrix wrapper over such a tower, whose image is
read on its inner algebra, and of ``transfer-check`` on forms over Q(sqrt 2), Q(sqrt 3)
and Q(sqrt 2)(sqrt 3), with entries u + v*sqrt(e) both with u = 0 and
with u != 0.  ``signature`` also runs on the other branches of the form
reader, over the orthogonal quaternion algebra and the matrix wrapper: a
form that carries its own ``algebra`` (the same one, or another), a
``gram`` document, an explicit ``epsilon`` and ``--reference`` documents.
``signature``, with and without ``--json``, also runs on two dense Grams
with non-scalar entries: one over an orthogonal quaternion algebra over
Q((x)) that is division over the field but split at x > 0, and one over a
2 x 2 matrix wrapper of an orthogonal quaternion algebra over Q.
``orderings`` runs on Q(sqrt 2)(sqrt 3), and ``examples`` runs as well.
One row of each command (of ``signature`` with and without
``--reference``, of ``split-cert`` on a split and on a definite
certificate) and ``examples`` also run without ``--json``, so their text
tables are pinned byte for byte too.

Any change to the printed bytes or exit codes of these commands fails
here.  To re-record after an intended output change, run this file as a
script with ``src`` on the path: it prints the table below.
"""

import contextlib
import hashlib
import io
import json

import pytest

from hermstab import cli
from hermstab.cli import main

Q = {"tower": [{"kind": "base"}]}
F2 = {"tower": [{"kind": "base"}, {"kind": "qext", "d": "2"}]}
LX = {"tower": [{"kind": "base"}, {"kind": "laurent"}]}
LXY = {"tower": [{"kind": "base"}, {"kind": "laurent"}, {"kind": "laurent"}]}
F2X = {"tower": [{"kind": "base"}, {"kind": "qext", "d": "2"}, {"kind": "laurent"}]}
X = {"num": [[1, "1"]], "den": [[0, "1"]]}
# over Q((x))((y)): the inner generator x and -x, read at the top level
INNER_X = {"num": [[0, X]], "den": [[0, "1"]]}
MINUS_INNER_X = {"num": [[0, {"num": [[1, "-1"]], "den": [[0, "1"]]}]], "den": [[0, "1"]]}
S2 = {"u": "0", "v": "1"}
ZERO3 = ["0", "0", "0"]

HAM = {
    "kind": "quaternion",
    "field": Q,
    "a": "-1",
    "b": "-1",
    "involution": {"type": "conjugation"},
}

# kind -> (algebra document, diagonal form entries, split-cert ordering)
ALGEBRAS = {
    "field_id": (
        {"kind": "field_id", "field": F2},
        [{"u": "1", "v": "1"}, "-3", S2],
        "0",
    ),
    "exchange": (
        {"kind": "exchange", "field": LX},
        [{"left": "2", "right": "2"}],
        "0",
    ),
    "unitary_quadratic": (
        {"kind": "unitary_quadratic", "field": F2, "alpha": {"u": "-1", "v": "1"}},
        [{"u": "1", "v": "0"}, {"u": "-2", "v": "0"}, {"u": "5", "v": "0"}],
        "1",
    ),
    "quaternion_conjugation": (
        {
            "kind": "quaternion",
            "field": F2,
            "a": "-1",
            "b": {"u": "0", "v": "-1"},
            "involution": {"type": "conjugation"},
        },
        [["1", "0", "0", "0"], ["-2", "0", "0", "0"], [S2, "0", "0", "0"]],
        "0",
    ),
    "quaternion_orthogonal": (
        {
            "kind": "quaternion",
            "field": LX,
            "a": X,
            "b": "1",
            "involution": {"type": "orthogonal", "u": ["0", "0", "1", "0"]},
        },
        [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["3", "0", "0", "0"]],
        "0",
    ),
    "unitary_quaternion": (
        {"kind": "unitary_quaternion", "field": Q, "a": "-1", "b": "-1", "alpha": "-1"},
        [[{"u": "1", "v": "0"}] + [{"u": "0", "v": "0"}] * 3],
        "0",
    ),
    "matrix": (
        {"kind": "matrix", "n": 2, "inner": HAM, "g": [["1"] + ZERO3, ["-1"] + ZERO3]},
        [[[["1"] + ZERO3, ["0"] + ZERO3], [["0"] + ZERO3, ["-2"] + ZERO3]]],
        "0",
    ),
}

# depth-2 towers: kind -> (algebra document, diagonal form entries, split-cert
# ordering); only ``signature`` and ``split-cert`` run on these
DEPTH2 = {
    "quaternion_orthogonal_depth2": (
        {
            "kind": "quaternion",
            "field": LXY,
            "a": X,
            "b": MINUS_INNER_X,
            "involution": {"type": "orthogonal", "u": ["0", "0", "1", "0"]},
        },
        [["1", "0", "0", "0"], ["0", "1", "0", "0"], [INNER_X, "0", "0", "0"]],
        "0",
    ),
    "unitary_quaternion_depth2": (
        {
            "kind": "unitary_quaternion",
            "field": F2X,
            "a": "-1",
            "b": {"num": [[1, "-1"]], "den": [[0, "1"]]},
            "alpha": {"num": [[0, {"u": "0", "v": "-1"}]], "den": [[0, "1"]]},
        },
        [[{"u": "1", "v": "0"}] + [{"u": "0", "v": "0"}] * 3,
         [{"u": X, "v": "0"}] + [{"u": "0", "v": "0"}] * 3],
        "0",
    ),
}


# depth-2 towers: name -> algebra document; only ``stability`` runs on these
DEPTH2_REPORTS = {
    # (x, -1) with an orthogonal involution over Q((x))((y))
    "quaternion_orthogonal_depth2_report": {
        "kind": "quaternion",
        "field": LXY,
        "a": INNER_X,
        "b": "-1",
        "involution": {"type": "orthogonal", "u": ["0", "0", "1", "0"]},
    },
    # (-1, x) with conjugation over Q(sqrt 2)((x))
    "quaternion_conjugation_depth2_report": {
        "kind": "quaternion",
        "field": F2X,
        "a": "-1",
        "b": X,
        "involution": {"type": "conjugation"},
    },
    # M_3 of (Q((x))((y)), id) scaled by g = (1, x, y): the wrapper's
    # reference and the inner algebra's differ in sign at one ordering
    "matrix_field_depth2_report": {
        "kind": "matrix",
        "n": 3,
        "inner": {"kind": "field_id", "field": LXY},
        "g": ["1", INNER_X, X],
    },
}


F3 = {"tower": [{"kind": "base"}, {"kind": "qext", "d": "3"}]}
F23 = {"tower": [{"kind": "base"}, {"kind": "qext", "d": "2"}, {"kind": "qext", "d": "3"}]}

# name -> quadratic form document; only ``transfer-check`` runs on these
TRANSFERS = {
    "transfer_q_sqrt2": {
        "field": F2,
        "diag": [{"u": "0", "v": "3"}, {"u": "1", "v": "1"}, "-5", {"u": "2", "v": "-1/3"}],
    },
    "transfer_q_sqrt3": {
        "field": F3,
        "diag": [{"u": "0", "v": "-2"}, {"u": "1/2", "v": "1"}, "7", {"u": "-1", "v": "1"}],
    },
    "transfer_q_sqrt2_sqrt3": {
        "field": F23,
        "diag": [
            {"u": {"u": "1", "v": "1"}, "v": "0"},
            {"u": "0", "v": {"u": "0", "v": "1"}},
            {"u": "-1", "v": {"u": "1", "v": "0"}},
            {"u": {"u": "1", "v": "-1"}, "v": {"u": "2", "v": "1"}},
        ],
    },
}


# the other branches of the ``--form`` / ``--reference`` reader, on an
# orthogonal quaternion algebra and a 2 x 2 matrix wrapper: name ->
# (algebra key in ALGEBRAS, form document, reference document or None)
ONE = ["1", "0", "0", "0"]
TWO = ["2", "0", "0", "0"]
I_ = ["0", "1", "0", "0"]
K_ = ["0", "0", "0", "1"]
XI = ["0", X, "0", "0"]
MINUS_XK = ["0", "0", "0", {"num": [[1, "-1"]], "den": [[0, "1"]]}]
ZERO = ["0"] + ZERO3
M_ONE = [[ONE, ZERO], [ZERO, ONE]]
M_TWO = [[TWO, ZERO], [ZERO, TWO]]
M_G = [[ONE, ZERO], [ZERO, ["-1"] + ZERO3]]
M_G2 = [[TWO, ZERO], [ZERO, ["-1"] + ZERO3]]
FORM_DOCS = {
    "quaternion_orthogonal/form_with_algebra": (
        "quaternion_orthogonal",
        {
            "algebra": ALGEBRAS["quaternion_orthogonal"][0],
            "epsilon": 1,
            "diag": ALGEBRAS["quaternion_orthogonal"][1],
        },
        None,
    ),
    "quaternion_orthogonal/form_other_algebra": (
        "quaternion_orthogonal",
        {"algebra": HAM, "epsilon": 1, "diag": [ONE]},
        None,
    ),
    "quaternion_orthogonal/gram": (
        "quaternion_orthogonal", {"gram": [[ONE, TWO], [TWO, ["3", "0", "0", "0"]]]}, None
    ),
    "quaternion_orthogonal/epsilon": (
        "quaternion_orthogonal", {"epsilon": 1, "diag": [ONE, I_]}, None
    ),
    "quaternion_orthogonal/reference": (
        "quaternion_orthogonal", {"diag": [I_]}, {"diag": [I_, MINUS_XK]}
    ),
    "quaternion_orthogonal/reference_with_algebra": (
        "quaternion_orthogonal",
        {"diag": [I_, K_]},
        {"algebra": ALGEBRAS["quaternion_orthogonal"][0], "epsilon": 1, "diag": [XI, K_]},
    ),
    "matrix/form_with_algebra": (
        "matrix",
        {"algebra": ALGEBRAS["matrix"][0], "epsilon": 1, "diag": ALGEBRAS["matrix"][1]},
        None,
    ),
    "matrix/gram": ("matrix", {"gram": [[M_ONE, M_TWO], [M_TWO, M_ONE]]}, None),
    "matrix/epsilon": ("matrix", {"epsilon": 1, "diag": [M_ONE, M_G]}, None),
    "matrix/reference": ("matrix", {"diag": [M_ONE, M_G]}, {"diag": [M_G2]}),
}


# dense Grams with non-scalar entries: name -> (algebra document, form
# document); ``signature`` runs on these with and without ``--json``
MINUS_X = {"num": [[1, "-1"]], "den": [[0, "1"]]}
HALF_X = {"num": [[1, "1/2"]], "den": [[0, "1"]]}
ORTH_Q = {
    "kind": "quaternion",
    "field": Q,
    "a": "2",
    "b": "-3",
    "involution": {"type": "orthogonal", "u": ["0", "0", "1", "0"]},
}
DENSE_FORMS = {
    # (x, -1) with Int(j)conj over Q((x)): [[2 + k, b], [sigma(b), 3 + i + x/2 k]]
    # with b = 1 - i + x j + k/3
    "quaternion_orthogonal_laurent_dense": (
        {
            "kind": "quaternion",
            "field": LX,
            "a": X,
            "b": "-1",
            "involution": {"type": "orthogonal", "u": ["0", "0", "1", "0"]},
        },
        {
            "gram": [
                [["2", "0", "0", "1"], ["1", "-1", X, "1/3"]],
                [["1", "-1", MINUS_X, "1/3"], ["3", "1", "0", HALF_X]],
            ]
        },
    ),
    # M_2 of (2, -3) with Int(j)conj over Q, scaled by g = (1, -1)
    "matrix_orthogonal_dense": (
        {"kind": "matrix", "n": 2, "inner": ORTH_Q, "g": [["1"] + ZERO3, ["-1"] + ZERO3]},
        {
            "gram": [
                [
                    [[["2", "2", "0", "0"], ["-2", "0", "1", "-1"]],
                     [["2", "0", "1", "1"], ["0", "2", "0", "0"]]],
                    [[["1", "0", "2", "0"], ["0", "1", "0", "0"]],
                     [["0", "0", "0", "-1"], ["3", "0", "0", "0"]]],
                ],
                [
                    [[["1", "0", "-2", "0"], ["0", "0", "0", "1"]],
                     [["0", "-1", "0", "0"], ["3", "0", "0", "0"]]],
                    [[["0", "0", "0", "0"], ["-1", "0", "0", "0"]],
                     [["1", "0", "0", "0"], ["-2", "-2", "0", "0"]]],
                ],
            ]
        },
    ),
}


def _dumps(doc) -> str:
    return json.dumps(doc, separators=(",", ":"))


def _commands():
    for kind, (alg, diag, ordering) in {**ALGEBRAS, **DEPTH2}.items():
        a = _dumps(alg)
        yield kind + "/signature", [
            "--json", "signature", "--algebra", a, "--form", _dumps({"diag": diag})
        ]
        yield kind + "/split-cert", [
            "--json", "split-cert", "--algebra", a, "--ordering", ordering
        ]
        if kind in ALGEBRAS:
            yield kind + "/nil", ["--json", "nil", "--algebra", a]
            yield kind + "/stability", ["--json", "stability", "--algebra", a]
    for name, (kind, form, ref) in FORM_DOCS.items():
        argv = ["--json", "signature", "--algebra", _dumps(ALGEBRAS[kind][0])]
        argv += ["--form", _dumps(form)]
        if ref is not None:
            argv += ["--reference", _dumps(ref)]
        yield name + "/signature", argv
    for name, (alg, form) in DENSE_FORMS.items():
        yield name + "/signature", ["--json"] + _dense_signature(alg, form)
    for name, alg in DEPTH2_REPORTS.items():
        yield name + "/stability", ["--json", "stability", "--algebra", _dumps(alg)]
    for name, form in TRANSFERS.items():
        yield name + "/transfer-check", ["--json", "transfer-check", "--form", _dumps(form)]
    yield "q_sqrt2_sqrt3/orderings", ["--json", "orderings", "--field", _dumps(F23)]
    yield "examples", ["--json", "examples"]


def _dense_signature(alg, form):
    return ["signature", "--algebra", _dumps(alg), "--form", _dumps(form)]


# the ``--json`` commands above
COMMANDS = dict(_commands())
# the ``--json`` rows also printed as text: one of each command, with and
# without ``--reference``, and a split and a definite certificate
TEXT_ROWS = (
    "q_sqrt2_sqrt3/orderings",
    "quaternion_conjugation/nil",
    "quaternion_orthogonal/signature",
    "quaternion_orthogonal/reference_with_algebra/signature",
    "quaternion_orthogonal/stability",
    "quaternion_orthogonal_depth2/split-cert",
    "quaternion_conjugation/split-cert",
    "transfer_q_sqrt2_sqrt3/transfer-check",
)
# commands printed as text: ``<row>/text/<command>`` drops ``--json`` from
# the golden row ``<row>/<command>``
TEXT_COMMANDS = {
    **{
        name + "/text/signature": _dense_signature(alg, form)
        for name, (alg, form) in DENSE_FORMS.items()
    },
    **{
        "{0}/text/{1}".format(*name.rsplit("/", 1)): COMMANDS[name][1:]
        for name in TEXT_ROWS
    },
    "text/examples": ["examples"],
}
ALL_COMMANDS = {**COMMANDS, **TEXT_COMMANDS}


def clear_memos():
    """Forget every parsed algebra, example algebra and rendering, and with
    each algebra its references and certificates, so that the next CLI
    call in this process starts as a fresh process does."""
    cli._algebra_from_text.cache_clear()
    cli._example_algebras.cache_clear()
    cli._rendered.cache_clear()


def call(argv):
    """One CLI call in this process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _run(argv):
    clear_memos()  # each CLI invocation starts cold
    code, out, _ = call(argv)
    return code, digest(out)


# name -> (exit code, sha256 of stdout)
GOLDEN = {
    "examples": (0, "dfe24da735fba88d7fa31809b6add90f0564b932c0c108097b0963635d9e9e75"),
    "exchange/nil": (0, "dd43ed49e4721c287138a416722af303fee24562e827b3367d21c5a2198dfa25"),
    "exchange/signature": (0, "9466d79e9c8bb2e3bac999ce3912a7c9301558124d5926930178677e1d135912"),
    "exchange/split-cert": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "exchange/stability": (0, "780d41f72cf3285edac6d1eff9d8250a14ca538bc908fc2a9d1d05092410443b"),
    "field_id/nil": (0, "5d91132caf0535bd52266cf039d7b5f381bcc50082840687e0508c60c7730ea8"),
    "field_id/signature": (0, "6da18088c92938c2a4998d52dde49c7458626da8fa701ec6673d36eea9cd4ef4"),
    "field_id/split-cert": (0, "5f3044b043525b523f5b7b0095dd3a2e2a857bc4317ce4facdd060a6b3c836de"),
    "field_id/stability": (0, "18979336ffc0014dab2219848fa5fdff91d51ef8880ef8d87b05d78b7fce1487"),
    "matrix/epsilon/signature": (0, "41f635cfff0bb630ff05a1110043dfd04b0d3f831a36f152f43e11ce289852e6"),
    "matrix/form_with_algebra/signature": (0, "4661c052f106a9990b75db9a7f339243ca97ffb40cb855bdb12c737e1585363d"),
    "matrix/gram/signature": (0, "305b3cb676fd95c8d4ab34ba745a55c568d4f16316d950d7eec227304b23676f"),
    "matrix/nil": (0, "3ee6b8962aa8fc1de32590b0a657fb5e7da4e4f81cc3dc519ef05212e797511a"),
    "matrix/reference/signature": (0, "91eaa833f66d98a046c5290966e0a36d0eb150c742ca1c00eef2c82203617597"),
    "matrix/signature": (0, "4661c052f106a9990b75db9a7f339243ca97ffb40cb855bdb12c737e1585363d"),
    "matrix/split-cert": (0, "a5ea08ef4545b1801fb4df214f3a7637d06e24987f25eff7ca3b49bfc2d1ce49"),
    "matrix/stability": (0, "cea8b2b81de8a7ca9540d7c91fa6cfde9d4dd8461044b1c64799c2067293f53e"),
    "matrix_field_depth2_report/stability": (0, "6078b3c25ff3c2bb77548f672e9dbf33d19a93ad786fadd6a08f9adf01854261"),
    "matrix_orthogonal_dense/signature": (0, "4cef74e28a8c05735a118db589b96bc786f5ee3377465b1ade06d941127c4ef0"),
    "matrix_orthogonal_dense/text/signature": (0, "58f53161d87d5bf216028220ae70a5e8e0ff12f7ff40d767a0a1582337062e3a"),
    "q_sqrt2_sqrt3/orderings": (0, "f9868a28ea91051017f195d6daa80c2a96dd9ea72fa8997d43d92e2ce0230cd8"),
    "q_sqrt2_sqrt3/text/orderings": (0, "24337fa2dffd896bc6fabae99bc136b348ae5774fdab4b5712faa3bd783b387e"),
    "quaternion_conjugation/nil": (0, "2f14f7db3092709a04dbbebce3c4137d5a52dd45201a41586f4fd1c2ea059b98"),
    "quaternion_conjugation/signature": (0, "096332c598f68aeb028cff421d8f151c7b7bf67631500b8742ac5415ae5bd7df"),
    "quaternion_conjugation/split-cert": (0, "d11fa51feefec28786864caea9cd45468ca23e0642b848935b298c6bf9efe67b"),
    "quaternion_conjugation/stability": (0, "588e49a42091e65d9e0391b0cd140d02c13ba97f6b2db3a27c742d2450ffa64f"),
    "quaternion_conjugation/text/nil": (0, "ba60d7062fbe9fb06aa5ce373574045ad9ac2ab8ff401ef4b607e32e6372eeda"),
    "quaternion_conjugation/text/split-cert": (0, "21bdfce414cac7edba34648d5b74a160d0c6dd89cb43c7e2f4e89f0ef245da89"),
    "quaternion_conjugation_depth2_report/stability": (0, "73a62ea5e20afa6647a12bfb3015829b6865ee99577f429d1ebdd8ab57c64622"),
    "quaternion_orthogonal/epsilon/signature": (0, "7bc26b6fa89fb15621adffbb22dabd3b0f35fe4a01600505e4f94c75c5766ace"),
    "quaternion_orthogonal/form_other_algebra/signature": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "quaternion_orthogonal/form_with_algebra/signature": (0, "6e94ae812bb5e5b1cced119714b4a91a7a06bdf09d49c929277fa3d7fc354c9c"),
    "quaternion_orthogonal/gram/signature": (0, "fca0d09b393a8b4c3a577c430a088e9731ca4536c4f63ce54906f592bc1fd8ec"),
    "quaternion_orthogonal/nil": (0, "9991308039841d348d7eadc88b910bb21a77bfa23f338ceb31a8fae3482b9ed7"),
    "quaternion_orthogonal/reference/signature": (0, "40ade9bfbbf049e0dbecb63ff3462284c31ea48843576d3f3f7fa3af85db965a"),
    "quaternion_orthogonal/reference_with_algebra/signature": (0, "ca430036b170734fc3c21478f4ba7d83d324239fc08abb663d6f303e0515bb17"),
    "quaternion_orthogonal/reference_with_algebra/text/signature": (0, "af88eef07e61bdbc8199c5db143af84062f2f0b95550bdf0b184a1d02f6cdc61"),
    "quaternion_orthogonal/signature": (0, "6e94ae812bb5e5b1cced119714b4a91a7a06bdf09d49c929277fa3d7fc354c9c"),
    "quaternion_orthogonal/split-cert": (0, "f13405a4ddc8dc57d7b8d73f22eaa9e35695b92194a3db5c862a5defd4b459ca"),
    "quaternion_orthogonal/stability": (0, "0d9ebb565e1f6f703e919925ab029f32dc45da932acf2c4ff90ec5246ca6544a"),
    "quaternion_orthogonal/text/signature": (0, "db8c6a8dc098851995e06865d2eb49a79b26f03a55114b8059c9cafcb5cf4c7d"),
    "quaternion_orthogonal/text/stability": (0, "18be3a4096151167082e4ab0aee006d437b8b397604ae70baf2db692801c4359"),
    "quaternion_orthogonal_depth2/signature": (0, "b0f0f85195fc9c60b9417d79f7a59091fae1269bb15f6e89e17e811ee6ae60f3"),
    "quaternion_orthogonal_depth2/split-cert": (0, "1580f45304ba23d3662760a3f168e0e82e3a3cf32f0c064c2ca241fef4296298"),
    "quaternion_orthogonal_depth2/text/split-cert": (0, "6e14530da40a0d7d235dc547557210026d4172df1a6199e3002ba1fef7c03f3d"),
    "quaternion_orthogonal_depth2_report/stability": (0, "3ef6bd21235cde2057ead415340a991152e799734309841503369357a085cb10"),
    "quaternion_orthogonal_laurent_dense/signature": (0, "1444c2b08bd05bdbc2a887d40b5ec78916939ba7667b513e54a3b2298ed46aa3"),
    "quaternion_orthogonal_laurent_dense/text/signature": (0, "abc242fe6da7e8199bc09ab927391785c053024cb6b382a5ae084ea16ed1c9e7"),
    "text/examples": (0, "028a673c9e91037f751eaed7c66464d0ad82ff2f1f8b6df2e3822f94b811e27f"),
    "transfer_q_sqrt2/transfer-check": (0, "99b51ecfd13944158226e0c9202a834541b8e79614c62dbeb7e4825872052931"),
    "transfer_q_sqrt2_sqrt3/text/transfer-check": (0, "8da7eac30d18ca2047446af3e75822cd341f871485f6b6b93e6657ac51534469"),
    "transfer_q_sqrt2_sqrt3/transfer-check": (0, "8c1312d29fa715759082cc5600e891e9075363f10de55ba70650f316c3b2b3d9"),
    "transfer_q_sqrt3/transfer-check": (0, "d5812d8f37e89530e082782c47079c0f87a2eb1ab6ce90c85555729126cf9284"),
    "unitary_quadratic/nil": (0, "25f06364e01a0febce79a41558083d5e98cda87c631ff9fd7480e41248ff7177"),
    "unitary_quadratic/signature": (0, "0f64f118c2fa7579f186cd0d35f5234ef27276fb369439a19e8f764c8d1d791a"),
    "unitary_quadratic/split-cert": (0, "6d15550afcf4cdef0d9511b9b4241abe17eb7846fc51abf819ef0f078f0b6173"),
    "unitary_quadratic/stability": (0, "81f9776f566001e0245d73921e59cdde508ee216ad70100d98c96d14f4b7a9cd"),
    "unitary_quaternion/nil": (0, "d43f4bc04c75e73ffeade697267dc93cd1a81364fb81377fae47b9612c668760"),
    "unitary_quaternion/signature": (0, "2a31f73aee1e12be207834f15fc260daeace31656dbf4ac0576848aaf7bb8e7d"),
    "unitary_quaternion/split-cert": (0, "0b9f9cdec31e3df7e7946397693d1119b1aa1d2d3fbb899732da9ef1bab21c4e"),
    "unitary_quaternion/stability": (0, "4c6e6a62d60cd4b77bd0b1ce55be8b5625fe88e8eb13a754be6dd501b5081502"),
    "unitary_quaternion_depth2/signature": (0, "0e453e03bc1cb5abd93411919ae6179fb966864704244d36f1f8240692f91dee"),
    "unitary_quaternion_depth2/split-cert": (0, "d681796559b17313e57b4677654db1ccb32e630abd4ed0804d3366888c6036a3"),
}


@pytest.mark.parametrize("name", sorted(ALL_COMMANDS))
def test_golden_stdout(name):
    assert _run(ALL_COMMANDS[name]) == GOLDEN[name]


def test_json_commands_build_no_text(monkeypatch):
    """``--json`` builds only the document it prints: with ``_table`` and
    every algebra and tower ``describe`` raising, each ``--json`` command
    of the table that exits 0 prints the same bytes."""
    from hermstab import algebras, fields

    def refuse(*args):
        raise AssertionError("text built for a --json command")

    monkeypatch.setattr(cli, "_table", refuse)
    monkeypatch.setattr(fields.FieldTower, "describe", refuse)
    for kind in vars(algebras).values():
        if isinstance(kind, type) and "describe" in vars(kind):
            monkeypatch.setattr(kind, "describe", refuse)
    for name, argv in COMMANDS.items():
        if GOLDEN[name][0] == 0:
            assert _run(argv) == GOLDEN[name], name


if __name__ == "__main__":
    for name in sorted(ALL_COMMANDS):
        code, sha = _run(ALL_COMMANDS[name])
        print(f'    "{name}": ({code}, "{sha}"),')
