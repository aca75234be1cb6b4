"""Batch command-line front end.

Subcommands parse field/algebra/form documents (inline JSON or @file),
run the library, and print aligned tables or machine JSON.  All inputs
are explicit; there is no configuration beyond the flags.  Exit codes:
0 success, 2 validation error, 3 search budget exhausted, 4 internal
invariant violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from .algebras import HermitianForm, algebra_from_json
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
from .splitting import BudgetExhausted, PreconditionNil, find_certificate
from .stability import stability_report, Probes

__all__ = ["main"]


class ValidationFailure(ValueError):
    pass


def _load_doc(text: str):
    if text.startswith("@"):
        try:
            with open(text[1:], "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ValidationFailure(f"cannot read {text[1:]!r}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationFailure(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ValidationFailure("invalid JSON: nested too deeply") from exc


def _check_depth(field: FieldTower, max_depth: int):
    if field.depth - 1 > max_depth:
        raise ValidationFailure(
            f"tower depth {field.depth - 1} exceeds --max-depth {max_depth}"
        )


def _parse_field(text: str, max_depth: int) -> FieldTower:
    field = FieldTower.from_json(_load_doc(text))
    _check_depth(field, max_depth)
    return field


def _parse_algebra(text: str, max_depth: int):
    algebra = algebra_from_json(_load_doc(text))
    _check_depth(algebra.field, max_depth)
    return algebra


def _emit(doc, as_json: bool, text_lines):
    if as_json:
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        for line in text_lines:
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
    doc = {
        "field": field.to_json(),
        "count": len(orderings),
        "orderings": [
            {"index": i, "name": P.name(), "path": P.to_json()}
            for i, P in enumerate(orderings)
        ],
    }
    rows = [(i, P.name()) for i, P in enumerate(orderings)]
    _emit(
        doc,
        args.json,
        [f"field: {field.describe()}", f"orderings: {len(orderings)}"]
        + _table(rows, ["index", "ordering"]),
    )
    return 0


def cmd_nil(args) -> int:
    A = _parse_algebra(args.algebra, args.max_depth)
    nil = nil_set(A)
    orderings = A.field.orderings()
    doc = {
        "algebra": A.to_json(),
        "nil": [P.to_json() for P in orderings if P in nil],
        "non_nil": [P.to_json() for P in orderings if P not in nil],
    }
    names = [P.name() for P in orderings if P in nil]
    _emit(
        doc,
        args.json,
        [
            f"algebra: {A.describe()}",
            "nil: {" + ", ".join(names) + "}",
            f"non-nil count: {len(orderings) - len(names)}",
        ],
    )
    return 0


def _parse_form(text: str, A) -> HermitianForm:
    """A ``--form`` or ``--reference`` document over ``A``; a document
    without an ``algebra`` is read over ``A`` with ``epsilon`` 1 unless it
    says otherwise."""
    doc = _load_doc(text)
    if isinstance(doc, dict) and "algebra" not in doc:
        doc = {**doc, "algebra": A.to_json()}
        doc.setdefault("epsilon", 1)
    return HermitianForm.from_json(doc)


def cmd_signature(args) -> int:
    A = _parse_algebra(args.algebra, args.max_depth)
    h = _parse_form(args.form, A)
    if h.algebra != A:
        raise ValidationFailure("form document does not match --algebra")
    if args.reference:
        ref_form = _parse_form(args.reference, A)
        signs = reference_signs(A, ref_form, args.budget)
        if isinstance(signs, Ordering):
            raise ValidationFailure(
                "provided reference has zero signature at " + signs.name()
            )
        ref = ReferenceForm(A, ref_form, signs)
    else:
        ref = reference_search(A, args.budget)
    vec = total_signature(A, h, ref, args.budget)
    rows = []
    details = []
    for P, v in zip(A.field.orderings(), vec.values):
        lt = local_type(A, P)
        route = "nil" if lt.nil else lt.route
        rows.append((P.name(), route, v))
        entry = {
            "ordering": P.to_json(),
            "route": route,
            "value": v,
            "n": lt.n,
            "l": lt.l,
        }
        if not lt.nil and lt.route == "split-certificate":
            entry["certificate"] = find_certificate(A, P, args.budget).to_json()
        details.append(entry)
    doc = {
        "algebra": A.to_json(),
        "form": h.to_json(),
        "reference": ref.to_json(),
        "signatures": details,
        "values": list(vec.values),
    }
    _emit(
        doc,
        args.json,
        [f"algebra: {A.describe()}"]
        + _table(rows, ["ordering", "route", "signature"]),
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
    doc = {"algebra": A.to_json(), "report": report.to_json()}
    st = "inf" if report.st == math.inf else report.st
    lines = [
        f"algebra: {A.describe()}",
        f"image: {report.image_description()}",
        f"stability group: {report.group_description()}",
        f"stability index: {st}",
        f"exact: {report.exact}",
        f"k0: {report.k0} (constant-signature witness of rank {report.h0.rank})",
        f"n0: {report.n0}",
    ]
    _emit(doc, args.json, lines)
    return 0


def cmd_split_cert(args) -> int:
    A = _parse_algebra(args.algebra, args.max_depth)
    orderings = A.field.orderings()
    text = args.ordering
    if text.lstrip("-").isdecimal():
        idx = int(text)
        if not 0 <= idx < len(orderings):
            raise ValidationFailure(f"ordering index {idx} out of range")
        P = orderings[idx]
    else:
        P = Ordering.from_json(A.field, _load_doc(text))
    cert = find_certificate(A, P, args.budget)
    from .splitting import verify_certificate

    ok = verify_certificate(cert)
    doc = {"certificate": cert.to_json(), "verified": ok}
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
    _emit(doc, args.json, lines)
    return 0


def cmd_transfer_check(args) -> int:
    phi = QuadraticForm.from_json(_load_doc(args.form))
    L = phi.field
    _check_depth(L, args.max_depth)
    if L.steps[-1][0] != "qext":
        raise ValidationFailure(
            "transfer needs a form over a field whose top step is a square root"
        )
    tr, table = transfer_table(L, phi)
    ok = all(a == b for _, a, b in table)
    rows = [(P.name(), a, b) for P, a, b in table]
    doc = {
        "form": phi.to_json(),
        "transfer": tr.to_json(),
        "identity_holds": ok,
        "per_ordering": [
            {"ordering": name, "transfer": a, "sum_above": b}
            for name, a, b in rows
        ],
    }
    _emit(
        doc,
        args.json,
        [f"transfer: {tr!r}", f"identity holds: {ok}"]
        + _table(rows, ["ordering", "sign(transfer)", "sum over extensions"]),
    )
    return 0 if ok else 4


def _example_algebras():
    Q = FieldTower.rationals()
    F2 = Q.adjoin_sqrt(2)
    Lx = Q.adjoin_laurent()
    from .algebras import QuaternionAlgebra

    return [
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
            F2,
        ),
        (
            "(4) (x,-1) orthogonal / Q((x))",
            QuaternionAlgebra(Lx, Lx.generator(), -1, "orthogonal", [0, 0, 1, 0]),
            Lx,
        ),
    ]


def cmd_examples(args) -> int:
    from .algebras import FieldAlgebra

    rows = []
    docs = []
    for name, A, field_for_st in _example_algebras():
        report = stability_report(A, budget=args.budget)
        st = "inf" if report.st == math.inf else str(report.st)
        st_f = ""
        if field_for_st is not None:
            st_f = str(stability_report(FieldAlgebra(field_for_st)).st)
        rows.append(
            (
                name,
                report.image_description(),
                report.group_description(),
                st,
                st_f,
            )
        )
        docs.append(
            {
                "name": name,
                "report": report.to_json(),
                "st_of_field": st_f or None,
            }
        )
    _emit(
        {"examples": docs},
        args.json,
        _table(rows, ["algebra", "image", "S", "st", "st(F)"]),
    )
    return 0


@functools.cache  # one parser per process: parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hermstab",
        description=(
            "Exact signatures and stability invariants of hermitian forms "
            "over algebras with involution"
        ),
    )
    parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    parser.add_argument(
        "--budget",
        type=int,
        default=50,
        help="height bound for splitting-witness searches (default 50)",
    )
    parser.add_argument(
        "--max-depth",
        type=int,
        default=4,
        help="maximum accepted tower depth (default 4)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("orderings", help="enumerate the orderings of a tower field")
    p.add_argument("--field", required=True, help="field JSON (inline or @file)")
    p.set_defaults(func=cmd_orderings)

    p = sub.add_parser("nil", help="the nil orderings of an algebra with involution")
    p.add_argument("--algebra", required=True)
    p.set_defaults(func=cmd_nil)

    p = sub.add_parser("signature", help="total signature of a hermitian form")
    p.add_argument("--algebra", required=True)
    p.add_argument("--form", required=True)
    p.add_argument("--reference", help="reference form JSON (default: searched)")
    p.set_defaults(func=cmd_signature)

    p = sub.add_parser("stability", help="stability report of an algebra")
    p.add_argument("--algebra", required=True)
    p.add_argument("--probes", help="JSON file with extra probe elements")
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("split-cert", help="find and verify a splitting certificate")
    p.add_argument("--algebra", required=True)
    p.add_argument("--ordering", required=True, help="index or JSON sign path")
    p.set_defaults(func=cmd_split_cert)

    p = sub.add_parser(
        "transfer-check", help="trace-transfer signature identity for a form"
    )
    p.add_argument("--form", required=True, help="quadratic form JSON over F(sqrt e)")
    p.set_defaults(func=cmd_transfer_check)

    p = sub.add_parser("examples", help="reproduce the four worked stability examples")
    p.set_defaults(func=cmd_examples)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
