"""Span tracing of hermstab's public functions, installed from outside.

``Tracer.install`` wraps every public function of the traced modules (the
names in each module's ``__all__`` that the module defines), plus
``Algebra.__eq__``/``__hash__`` and ``QuadraticForm.signature``.  Modules
copy names into each other with ``from .x import y``, so every binding of
an original function in any ``hermstab`` module is replaced, not just the
one in the defining module.  No library file is touched.

Each span records its name, start, end, parent span and the id of the
work item it belongs to, in flat lists kept in memory.  A few spans also
carry a note (the route of a ``raw_signature`` call, the dimension of a
Pfister form, ...).  ``layer_metrics`` reduces the spans to the per-layer
metrics; ``write`` dumps them as JSON lines.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

MODULES = (
    "cli",
    "stability",
    "lattices",
    "signatures",
    "splitting",
    "algebras",
    "quadratic",
    "fields",
)


class Tracer:
    """``clock`` gives the span times, in seconds."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.items = []
        self.notes = {}
        self.stack = []
        self.item = 0
        self.enabled = True
        self._verified = {}  # id -> certificate, kept alive so ids stay unique

    # -- recording ----------------------------------------------------------

    def wrap(self, name, fn, pre=None, post=None):
        """``pre(args)`` / ``post(args, result)`` give the span's note."""
        names, starts, ends = self.names, self.starts, self.ends
        parents, items, stack, notes = self.parents, self.items, self.stack, self.notes
        clock = self.clock
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            i = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            items.append(tracer.item)
            ends.append(0.0)
            if pre is not None:
                notes[i] = pre(args)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if post is not None:
                notes[i] = post(args, result)
            return result

        return traced

    def install(self):
        """Wrap the public functions of every traced module in place."""
        mods = {m: importlib.import_module(f"hermstab.{m}") for m in MODULES}
        algebras, quadratic = mods["algebras"], mods["quadratic"]
        signatures = mods["signatures"]
        local_type = signatures.local_type
        split_witness = algebras.SplitWitness

        def route(args):
            lt = local_type(args[0], args[2])
            return "nil" if lt.nil else lt.route

        def reverify(args):
            cert = args[0]
            seen = id(cert) in self._verified
            self._verified[id(cert)] = cert
            return seen

        special = {
            "signatures.raw_signature": (route, None),
            "splitting.verify_certificate": (reverify, None),
            "quadratic.pfister": (None, lambda a, r: r.dim),
            "lattices.hnf_with_transform": (lambda a: len(a[0]), None),
            "stability.image_lattice": (None, lambda a, r: len(r.generators)),
            "algebras.diagonalize_hermitian": (
                None,
                lambda a, r: isinstance(r, split_witness),
            ),
        }
        replaced = {}
        for short, mod in mods.items():
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                replaced[fn] = self.wrap(name, fn, *special.get(name, (None, None)))
        namespaces = [
            m.__dict__
            for n, m in list(sys.modules.items())
            if n == "hermstab" or n.startswith("hermstab.")
        ]
        for ns in namespaces:
            for key, value in list(ns.items()):
                if inspect.isfunction(value) and value in replaced:
                    ns[key] = replaced[value]
        algebra = algebras.Algebra
        algebra.__eq__ = self.wrap("algebras.identity", algebra.__eq__)
        algebra.__hash__ = self.wrap("algebras.identity", algebra.__hash__)
        form = quadratic.QuadraticForm
        form.signature = self.wrap("quadratic.signature", form.signature)

    # -- reduction ----------------------------------------------------------

    def layer_metrics(self) -> dict:
        names, parents, notes = self.names, self.parents, self.notes
        n = len(names)
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        covered = [0.0] * n
        for i, p in enumerate(parents):
            if p >= 0:
                covered[p] += dur[i]
        self_t = [d - c for d, c in zip(dur, covered)]
        by_name = {}
        for i, name in enumerate(names):
            by_name.setdefault(name, []).append(i)

        def spans(name):
            return by_name.get(name, [])

        def outermost(group):
            """Spans of the group with no ancestor in the group."""
            inside = [False] * n
            out = []
            for i, p in enumerate(parents):
                if p >= 0 and (inside[p] or names[p] in group):
                    inside[i] = True
                elif names[i] in group:
                    out.append(i)
            return out

        def busy(group):
            return sum(dur[i] for i in outermost(group))

        def self_s(name):
            return sum(self_t[i] for i in spans(name))

        def ratio(num, den):
            return num / den if den else 0.0

        lattice_names = {x for x in by_name if x.startswith("lattices.")}
        verify = "splitting.verify_certificate"
        has_verify = [False] * n
        for i in range(n - 1, -1, -1):
            p = parents[i]
            if p >= 0 and (has_verify[i] or names[i] == verify):
                has_verify[p] = True
        finds = outermost({"splitting.find_certificate"})
        raw = outermost({"signatures.raw_signature"})
        m = {
            "splitting.verify_certificate.calls": len(spans(verify)),
            "splitting.verify_certificate.busy_s": busy({verify}),
            "splitting.reverify_ratio": ratio(
                sum(1 for i in spans(verify) if notes[i]), len(spans(verify))
            ),
            "splitting.find_certificate.calls": len(spans("splitting.find_certificate")),
            "splitting.find_certificate.self_s": self_s("splitting.find_certificate"),
            "splitting.cert_hit_ratio": ratio(
                sum(1 for i in finds if not has_verify[i]), len(finds)
            ),
            "splitting.transport_form.self_s": self_s("splitting.transport_form"),
            "quadratic.pfister.calls": len(spans("quadratic.pfister")),
            "quadratic.pfister.busy_s": busy({"quadratic.pfister"}),
            "quadratic.pfister.dim_total": sum(notes[i] for i in spans("quadratic.pfister")),
            "quadratic.signature.calls": len(spans("quadratic.signature")),
            "stability.quadratic_image_lattice.busy_s": busy(
                {"stability.quadratic_image_lattice"}
            ),
            "stability.image_lattice.self_s": self_s("stability.image_lattice"),
            "stability.h0_search.self_s": self_s("stability.h0_search"),
            "stability.relative_stability.self_s": self_s("stability.relative_stability"),
            "stability.generators": sum(notes[i] for i in spans("stability.image_lattice")),
            "lattices.calls": sum(len(spans(x)) for x in lattice_names),
            "lattices.busy_s": busy(lattice_names),
            "lattices.hnf_rows": sum(notes[i] for i in spans("lattices.hnf_with_transform")),
        }
        for r in ("trace-form", "diagonal-sum", "split-certificate", "nil"):
            m[f"signatures.raw_signature.calls.{r}"] = sum(1 for i in raw if notes[i] == r)
        m["signatures.raw_signature.self_s"] = self_s("signatures.raw_signature")
        m["signatures.reference_search.self_s"] = self_s("signatures.reference_search")
        diag = "algebras.diagonalize_hermitian"
        m[f"{diag}.calls"] = len(spans(diag))
        m[f"{diag}.busy_s"] = busy({diag})
        m["algebras.split_witnesses"] = sum(1 for i in spans(diag) if notes[i])
        m["algebras.identity.calls"] = len(spans("algebras.identity"))
        m["algebras.identity.busy_s"] = busy({"algebras.identity"})
        m["cli.self_s"] = self_s("cli.main")
        return m

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "item"]}) + "\n")
            for row in zip(self.names, self.starts, self.ends, self.parents, self.items):
                fh.write(json.dumps(row) + "\n")
