"""Batch command-line front end.

Subcommands parse field/algebra/form documents (inline JSON or @file),
run the library, and print aligned tables or machine JSON.  All inputs
are explicit; there is no configuration beyond the flags.  Exit codes:
0 success, 2 validation error, 3 search budget exhausted, 4 internal
invariant violation.

The commands and options are declared once, in ``_COMMANDS`` and
``_GLOBAL_OPTIONS``.  ``_read_argv`` reads a well-formed command line
straight from them; every other line (help, abbreviations, usage
errors) goes to the argparse parser that ``build_parser`` builds from
the same tables, so help, usage messages and their exit code 2 are
argparse's.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from json.encoder import encode_basestring_ascii

from .algebras import FieldAlgebra, HermitianForm, QuaternionAlgebra, algebra_from_json
from .fields import FieldTower, InvariantViolation, MismatchError, Ordering, TowerError
from .quadratic import QuadraticForm, SingularFormError, transfer_table
from .signatures import (
    ReferenceForm,
    SearchExhausted,
    local_type,
    nil_set,
    reference_search,
    reference_signs,
    total_signature,
)
from .splitting import (
    BudgetExhausted,
    PreconditionNil,
    find_certificate,
    verify_certificate,
)
from .stability import stability_report, Probes

__all__ = ["main"]


class ValidationFailure(ValueError):
    pass


def _read_text(text: str) -> str:
    """The document's text: ``@path`` is read from the file on every call."""
    if not text.startswith("@"):
        return text
    try:
        with open(text[1:], "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationFailure(f"cannot read {text[1:]!r}: {exc}") from exc


def _load_doc(text: str):
    return _parse_json(_read_text(text))


def _parse_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationFailure(f"invalid JSON: {exc}") from exc
    except ValueError as exc:  # an integer literal longer than int() reads
        raise ValidationFailure(
            f"invalid JSON: an integer has more than {sys.get_int_max_str_digits()} digits"
        ) from exc
    except RecursionError as exc:
        raise ValidationFailure("invalid JSON: nested too deeply") from exc


def _check_depth(doc, max_depth: int):
    """Refuse a field, algebra or form document whose tower is deeper
    than ``max_depth``, read from the length of its tower list before the
    tower is built, as building enumerates its orderings.  The tower lies
    under ``field``, a matrix algebra's ``inner`` or a form's ``algebra``;
    a document without one is left to its reader."""
    while isinstance(doc, dict):
        if "tower" in doc:
            steps = doc["tower"]
            if isinstance(steps, list) and len(steps) - 1 > max_depth:
                raise ValidationFailure(
                    f"tower depth {len(steps) - 1} exceeds --max-depth {max_depth}"
                )
            return
        doc = doc.get("field", doc.get("inner", doc.get("algebra")))


def _parse_field(text: str, max_depth: int) -> FieldTower:
    return _field_from_text(_read_text(text), max_depth)


def _parse_algebra(text: str, max_depth: int):
    return _algebra_from_text(_read_text(text), max_depth)


# Entries kept by each of the three memos below: the bound keeps a
# long-lived process that answers distinct queries from growing without
# limit.
_MEMO_SIZE = 1024


# Fields and algebras are immutable and their documents are read
# deterministically, so a long-lived process parses each document text once
# per depth bound, and what is kept on each field (its orderings) and
# algebra (references, certificates) serves every later query on that text.
# A failing document raises on every call, as lru_cache keeps no exceptions.
@functools.lru_cache(maxsize=_MEMO_SIZE)
def _field_from_text(text: str, max_depth: int) -> FieldTower:
    doc = _parse_json(text)
    _check_depth(doc, max_depth)
    return FieldTower.from_json(doc)


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _algebra_from_text(text: str, max_depth: int):
    doc = _parse_json(text)
    _check_depth(doc, max_depth)
    return algebra_from_json(doc)


class _Rendered(str):
    """A value's JSON text as ``_json_text`` writes it at top level;
    ``_write_json`` splices it in at any depth.  ``at`` keeps the text
    once per newline-and-indent it was spliced after, so a kept rendering
    is re-indented once per depth, not once per document."""

    def __new__(cls, text: str):
        self = super().__new__(cls, text)
        self.at = {}
        return self


# JSON renderings of fields, algebras and orderings (by value), and of
# certificates and searched references (by identity: both are kept, so a
# warm query gets the same object back); all are immutable, so each is
# rendered once per process while it stays in this bound, and every
# ``--json`` document splices the kept text in.
@functools.lru_cache(maxsize=_MEMO_SIZE)
def _rendered(obj) -> _Rendered:
    return _Rendered(_json_text(obj.to_json()))


def _json_text(doc) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2)``, byte for byte, for
    the types the CLI emits: dicts with string keys, lists, tuples,
    strings, ints, booleans and None.  Anything else raises TypeError.
    With ``indent`` set, ``json.dumps`` runs its pure-Python encoder;
    here strings go through the C one."""
    out = []
    _write_json(doc, "\n", out.append)
    return "".join(out)


def _write_json(value, newline, write):
    if isinstance(value, str):
        if type(value) is _Rendered:
            text = value.at.get(newline)
            if text is None:
                # exact: a newline inside a JSON string is escaped, so
                # every newline in the text starts an indented line
                text = value.at[newline] = value.replace("\n", newline)
            write(text)
        else:
            write(encode_basestring_ascii(value))
    elif value is None:
        write("null")
    elif value is True:
        write("true")
    elif value is False:
        write("false")
    elif isinstance(value, int):
        write(int.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            write("[]")
            return
        inner = newline + "  "
        write("[")
        for i, item in enumerate(value):
            write("," + inner if i else inner)
            _write_json(item, inner, write)
        write(newline + "]")
    elif isinstance(value, dict):
        if not value:
            write("{}")
            return
        if not all(isinstance(key, str) for key in value):
            raise TypeError("JSON object keys must be strings")
        inner = newline + "  "
        write("{")
        for i, key in enumerate(sorted(value)):
            write("," + inner if i else inner)
            write(encode_basestring_ascii(key))
            write(": ")
            _write_json(value[key], inner, write)
        write(newline + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit(as_json: bool, document, text_lines):
    """Print the JSON document or the text lines.  Both are functions,
    and only the one printed is called: ``--json`` builds no table and no
    ``describe()`` string, and text output builds no document."""
    if as_json:
        print(_json_text(document()))
    else:
        for line in text_lines():
            print(line)


def _table(rows, headers):
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(str(cell)))
    lines = []
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(str(c).ljust(widths[i]) for i, c in enumerate(row)))
    return lines


def cmd_orderings(args) -> int:
    field = _parse_field(args.field, args.max_depth)
    orderings = field.orderings()
    _emit(
        args.json,
        lambda: {
            "field": _rendered(field),
            "count": len(orderings),
            "orderings": [
                {"index": i, "name": P.name(), "path": _rendered(P)}
                for i, P in enumerate(orderings)
            ],
        },
        lambda: [f"field: {field.describe()}", f"orderings: {len(orderings)}"]
        + _table([(i, P.name()) for i, P in enumerate(orderings)], ["index", "ordering"]),
    )
    return 0


def cmd_nil(args) -> int:
    A = _parse_algebra(args.algebra, args.max_depth)
    nil = nil_set(A)
    orderings = A.field.orderings()
    _emit(
        args.json,
        lambda: {
            "algebra": _rendered(A),
            "nil": [_rendered(P) for P in orderings if P in nil],
            "non_nil": [_rendered(P) for P in orderings if P not in nil],
        },
        lambda: [
            f"algebra: {A.describe()}",
            "nil: {" + ", ".join(P.name() for P in orderings if P in nil) + "}",
            f"non-nil count: {sum(P not in nil for P in orderings)}",
        ],
    )
    return 0


def _parse_form(text: str, A, max_depth: int) -> HermitianForm:
    """A ``--form`` or ``--reference`` document over ``A``; a document
    without an ``algebra`` is read over ``A`` with ``epsilon`` 1 unless it
    says otherwise."""
    doc = _load_doc(text)
    if isinstance(doc, dict) and "algebra" not in doc:
        return HermitianForm.body_from_json(A, doc)
    _check_depth(doc, max_depth)
    return HermitianForm.from_json(doc)


def _form_json(h: HermitianForm) -> dict:
    """``h.to_json()`` with the algebra's kept rendering spliced in."""
    return {"algebra": _rendered(h.algebra), **h.body_to_json()}


def cmd_signature(args) -> int:
    A = _parse_algebra(args.algebra, args.max_depth)
    h = _parse_form(args.form, A, args.max_depth)
    if h.algebra != A:
        raise ValidationFailure("form document does not match --algebra")
    if args.reference:
        ref_form = _parse_form(args.reference, A, args.max_depth)
        signs = reference_signs(A, ref_form, args.budget)
        if isinstance(signs, Ordering):
            raise ValidationFailure(
                "provided reference has zero signature at " + signs.name()
            )
        ref = ReferenceForm(A, ref_form, signs)
    else:
        ref = reference_search(A, args.budget)
    vec = total_signature(A, h, ref, args.budget)
    readings = []  # (ordering, route, value, local type)
    for P, v in zip(A.field.orderings(), vec.values):
        lt = local_type(A, P)
        readings.append((P, "nil" if lt.nil else lt.route, v, lt))

    def document():
        details = []
        for P, route, v, lt in readings:
            entry = {"ordering": _rendered(P), "route": route, "value": v, "n": lt.n, "l": lt.l}
            if route == "split-certificate":
                entry["certificate"] = _rendered(find_certificate(A, P, args.budget))
            details.append(entry)
        return {
            "algebra": _rendered(A),
            "form": _form_json(h),
            "reference": (
                {"form": _form_json(ref.form), "deltas": ref.deltas_to_json()}
                if args.reference
                else _rendered(ref)
            ),
            "signatures": details,
            "values": list(vec.values),
        }

    _emit(
        args.json,
        document,
        lambda: [f"algebra: {A.describe()}"]
        + _table(
            [(P.name(), route, v) for P, route, v, _ in readings],
            ["ordering", "route", "signature"],
        ),
    )
    return 0


def cmd_stability(args) -> int:
    A = _parse_algebra(args.algebra, args.max_depth)
    probes = None
    if args.probes:
        pd = _load_doc("@" + args.probes)
        if not isinstance(pd, dict) or not set(pd) <= {"sym", "field"}:
            raise ValidationFailure("probes file takes keys 'sym' and 'field'")
        if not all(isinstance(v, list) for v in pd.values()):
            raise ValidationFailure("probes 'sym' and 'field' take lists")
        default = Probes.default(A)
        sym = list(default.sym_forms)
        for e in pd.get("sym", []):
            sym.append(
                HermitianForm.diagonal(A, [A.elem(A.value_from_json(e))])
            )
        fields = list(default.field_elements)
        for e in pd.get("field", []):
            fields.append(A.field.element_from_json(e))
        probes = Probes(sym, fields)
    report = stability_report(A, probes=probes, budget=args.budget)
    _emit(
        args.json,
        lambda: {"algebra": _rendered(A), "report": report.to_json()},
        lambda: [
            f"algebra: {A.describe()}",
            f"image: {report.image_description()}",
            f"stability group: {report.group_description()}",
            f"stability index: {'inf' if report.st == math.inf else report.st}",
            f"exact: {report.exact}",
            f"k0: {report.k0} (constant-signature witness of rank {report.h0.rank})",
            f"n0: {report.n0}",
        ],
    )
    return 0


def cmd_split_cert(args) -> int:
    A = _parse_algebra(args.algebra, args.max_depth)
    orderings = A.field.orderings()
    text = args.ordering
    digits = text.removeprefix("-")
    if digits.isdecimal():
        if len(digits) > 20:  # no tower has 10^20 orderings; int() may not read it
            raise ValidationFailure(f"ordering index of {len(digits)} digits out of range")
        idx = int(text)
        if not 0 <= idx < len(orderings):
            raise ValidationFailure(f"ordering index {idx} out of range")
        P = orderings[idx]
    else:
        P = Ordering.from_json(A.field, _load_doc(text))
    cert = find_certificate(A, P, args.budget)
    ok = verify_certificate(cert)

    def text_lines():
        lines = [
            f"algebra: {A.describe()}",
            f"ordering: {P.name()}",
            f"flavor: {cert.flavor}",
            f"extension: {cert.extension.describe()}",
            f"verified: {ok}",
        ]
        if cert.m is not None:
            lines.append(f"m: {cert.m}")
        if cert.definite_pair is not None:
            d, c, _, _ = cert.definite_pair
            lines.append(f"d: {d}")
            lines.append(f"c: {c}")
        return lines

    _emit(args.json, lambda: {"certificate": _rendered(cert), "verified": ok}, text_lines)
    return 0


def _quadratic_json(q: QuadraticForm) -> dict:
    """``q.to_json()`` with the field's kept rendering spliced in."""
    return {"field": _rendered(q.field), **q.body_to_json()}


def cmd_transfer_check(args) -> int:
    doc = _load_doc(args.form)
    _check_depth(doc, args.max_depth)
    phi = QuadraticForm.from_json(doc)
    L = phi.field
    if L.steps[-1][0] != "qext":
        raise ValidationFailure(
            "transfer needs a form over a field whose top step is a square root"
        )
    tr, table = transfer_table(L, phi)
    ok = all(a == b for _, a, b in table)
    rows = [(P.name(), a, b) for P, a, b in table]
    _emit(
        args.json,
        lambda: {
            "form": _quadratic_json(phi),
            "transfer": _quadratic_json(tr),
            "identity_holds": ok,
            "per_ordering": [
                {"ordering": name, "transfer": a, "sum_above": b}
                for name, a, b in rows
            ],
        },
        lambda: [f"transfer: {tr!r}", f"identity holds: {ok}"]
        + _table(rows, ["ordering", "sign(transfer)", "sum over extensions"]),
    )
    return 0 if ok else 4


# The worked examples are built once per process, so the memos kept on
# each algebra (references, certificates) serve every later call.
@functools.cache
def _example_algebras():
    Q = FieldTower.rationals()
    F2 = Q.adjoin_sqrt(2)
    Lx = Q.adjoin_laurent()
    return (
        (
            "(1) (-1,-1) conjugation / Q",
            QuaternionAlgebra(Q, -1, -1),
            None,
        ),
        (
            "(2) (-1,-1) orthogonal / Q",
            QuaternionAlgebra(Q, -1, -1, "orthogonal", [0, 1, 0, 0]),
            None,
        ),
        (
            "(3) (-1,-sqrt(2)) conjugation / Q(sqrt(2))",
            QuaternionAlgebra(F2, -1, -F2.generator()),
            FieldAlgebra(F2),
        ),
        (
            "(4) (x,-1) orthogonal / Q((x))",
            QuaternionAlgebra(Lx, Lx.generator(), -1, "orthogonal", [0, 0, 1, 0]),
            FieldAlgebra(Lx),
        ),
    )


def cmd_examples(args) -> int:
    results = []  # (name, report, st(F) or "")
    for name, A, field_algebra in _example_algebras():
        report = stability_report(A, budget=args.budget)
        st_f = ""
        if field_algebra is not None:
            st_f = str(stability_report(field_algebra).st)
        results.append((name, report, st_f))
    _emit(
        args.json,
        lambda: {
            "examples": [
                {"name": name, "report": report.to_json(), "st_of_field": st_f or None}
                for name, report, st_f in results
            ]
        },
        lambda: _table(
            [
                (
                    name,
                    report.image_description(),
                    report.group_description(),
                    "inf" if report.st == math.inf else str(report.st),
                    st_f,
                )
                for name, report, st_f in results
            ],
            ["algebra", "image", "S", "st", "st(F)"],
        ),
    )
    return 0


# The options before the command: flag, dest, default and help.  A False
# default makes a flag that takes no value, an int default an option that
# takes an int.
_GLOBAL_OPTIONS = (
    ("--json", "json", False, "emit machine-readable JSON"),
    ("--budget", "budget", 50, "height bound for splitting-witness searches (default 50)"),
    ("--max-depth", "max_depth", 4, "maximum accepted tower depth (default 4)"),
)

# The commands: name, handler, help, and the options after the command,
# each a flag, dest, required flag and help; every one of them takes a value.
_COMMANDS = (
    ("orderings", cmd_orderings, "enumerate the orderings of a tower field", (
        ("--field", "field", True, "field JSON (inline or @file)"),
    )),
    ("nil", cmd_nil, "the nil orderings of an algebra with involution", (
        ("--algebra", "algebra", True, None),
    )),
    ("signature", cmd_signature, "total signature of a hermitian form", (
        ("--algebra", "algebra", True, None),
        ("--form", "form", True, None),
        ("--reference", "reference", False, "reference form JSON (default: searched)"),
    )),
    ("stability", cmd_stability, "stability report of an algebra", (
        ("--algebra", "algebra", True, None),
        ("--probes", "probes", False, "JSON file with extra probe elements"),
    )),
    ("split-cert", cmd_split_cert, "find and verify a splitting certificate", (
        ("--algebra", "algebra", True, None),
        ("--ordering", "ordering", True, "index or JSON sign path"),
    )),
    ("transfer-check", cmd_transfer_check, "trace-transfer signature identity for a form", (
        ("--form", "form", True, "quadratic form JSON over F(sqrt e)"),
    )),
    ("examples", cmd_examples, "reproduce the four worked stability examples", ()),
)


@functools.cache  # one parser per process: parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hermstab",
        description=(
            "Exact signatures and stability invariants of hermitian forms "
            "over algebras with involution"
        ),
    )
    for flag, dest, default, text in _GLOBAL_OPTIONS:
        if default is False:
            parser.add_argument(flag, dest=dest, action="store_true", help=text)
        else:
            parser.add_argument(flag, dest=dest, type=int, default=default, help=text)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, text, options in _COMMANDS:
        p = sub.add_parser(name, help=text)
        for flag, dest, required, option_text in options:
            p.add_argument(flag, dest=dest, required=required, help=option_text)
        p.set_defaults(func=func)
    return parser


_GLOBAL_DEFAULTS = {dest: default for _, dest, default, _ in _GLOBAL_OPTIONS}
_GLOBAL_FLAGS = {flag: dest for flag, dest, _, _ in _GLOBAL_OPTIONS}
# command name -> (handler, {flag: dest}, dests of the required options)
_COMMAND_READERS = {
    name: (
        func,
        {flag: dest for flag, dest, _, _ in options},
        tuple(dest for _, dest, required, _ in options if required),
    )
    for name, func, _, options in _COMMANDS
}


def _read_argv(argv):
    """The namespace ``build_parser().parse_args(argv)`` returns, read
    straight from the command table, or None where argparse has more to
    say: help, abbreviated or ``--opt=value`` options, a value that starts
    with ``-``, ``--``, an unknown command or option, a missing option or
    value, a global option after the command, or a value that is no int."""
    args = dict(_GLOBAL_DEFAULTS)
    tokens = iter(argv)
    for token in tokens:
        dest = _GLOBAL_FLAGS.get(token)
        if dest is None:
            break
        if _GLOBAL_DEFAULTS[dest] is False:
            args[dest] = True
            continue
        value = next(tokens, None)
        if value is None or value[:1] == "-":
            return None
        try:
            args[dest] = int(value)
        except ValueError:
            return None
    else:
        return None  # no command
    command = token
    reader = _COMMAND_READERS.get(command)
    if reader is None:
        return None
    func, flags, required = reader
    args.update(dict.fromkeys(flags.values()))
    for token in tokens:
        dest = flags.get(token)
        value = next(tokens, None)
        if dest is None or value is None or value[:1] == "-":
            return None
        args[dest] = value
    if any(args[dest] is None for dest in required):
        return None
    return argparse.Namespace(command=command, func=func, **args)


def main(argv=None) -> int:
    args = _read_argv(sys.argv[1:] if argv is None else argv)
    if args is None:  # help, a usage error or a line only argparse reads
        args = build_parser().parse_args(argv)
    try:
        if args.budget < 0:
            raise ValidationFailure("--budget must be non-negative")
        return args.func(args)
    except (BudgetExhausted, SearchExhausted) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (
        ValidationFailure,
        TowerError,
        MismatchError,
        PreconditionNil,
        SingularFormError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # a bug, not bad input: one line, no traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
