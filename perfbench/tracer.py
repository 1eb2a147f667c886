"""Span recorder for the traced benchmark pass.

The package has no spans of its own yet, so the benchmark wraps its public
functions from outside.  Modules import each other by name
(``from .linalg import smith_normal_form``), so every module binding of a
function is replaced, not only the defining one.  Spans are kept in memory
and written out once, when the pass ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (module, function) pairs wrapped with a span, in the per-layer metric names.
SPANNED = [
    ("linalg", "congruence_kernel"),
    ("linalg", "smith_normal_form"),
    ("linalg", "lattice_quotient"),
    ("linalg", "solve_columns"),
    ("cohomology", "cohomology"),
    ("cohomology", "restriction"),
    ("cohomology", "inflation"),
    ("cohomology", "conjugation_on_cohomology"),
    ("cohomology", "sha_finite"),
    ("groups", "subgroups"),
    ("groups", "subgroup_generated"),
    ("groups", "quotient"),
    ("groups", "cyclic_subgroups"),
    ("gmodules", "all_characters"),
    ("gmodules", "restrict_module"),
    ("gmodules", "descend_to_quotient"),
    ("gmodules", "invariants"),
    ("gmodules", "mu_module"),
    ("oracle", "brute_h1"),
    ("oracle", "brute_h2"),
    ("lgp", "decide"),
    ("lgp", "case_machine_easylgp"),
    ("cli", "parse_instance"),
    ("albert", "coprimality_certificate"),
]

# Per-layer time metrics: name -> "self" (exclusive time) or "total" (time of
# the outermost span of that name).
TIME_METRICS = {
    "linalg.congruence_kernel.self_s": "self",
    "linalg.smith_normal_form.self_s": "self",
    "linalg.lattice_quotient.self_s": "self",
    "linalg.solve_columns.self_s": "self",
    "cohomology.cohomology.total_s": "total",
    "cohomology.class_of.total_s": "total",
    "cohomology.restriction.total_s": "total",
    "cohomology.inflation.total_s": "total",
    "cohomology.conjugation_on_cohomology.total_s": "total",
    "cohomology.sha_finite.total_s": "total",
    "groups.subgroups.total_s": "total",
    "groups.subgroup_generated.self_s": "self",
    "groups.quotient.total_s": "total",
    "groups.cyclic_subgroups.total_s": "total",
    "gmodules.all_characters.total_s": "total",
    "gmodules.restrict_module.total_s": "total",
    "gmodules.descend_to_quotient.total_s": "total",
    "gmodules.invariants.total_s": "total",
    "oracle.brute_h1.total_s": "total",
    "oracle.brute_h2.total_s": "total",
    "lgp.decide.total_s": "total",
    "lgp.decide.self_s": "self",
    "lgp.case_machine_easylgp.total_s": "total",
    "cli.parse_instance.total_s": "total",
    "albert.coprimality_certificate.total_s": "total",
}
CALL_METRICS = [
    "linalg.smith_normal_form.calls",
    "linalg.solve_columns.calls",
    "cohomology.cohomology.calls",
    "cohomology.class_of.calls",
    "groups.subgroups.calls",
    "groups.subgroup_generated.calls",
    "gmodules.mu_module.calls",
]
COUNTERS = [
    "linalg.congruence_kernel.rows",
    "linalg.smith_normal_form.max_dim",
    "cohomology.memo.hits",
    "cohomology.memo.misses",
    "cohomology.cochain_dim.max",
    "groups.subgroups.found",
    "oracle.budget_exceeded",
]
VERIFY_CHECKS = [
    "admissible-m-tables",
    "small-dimension-twists",
    "coprime-order-vanishing",
    "cyclic-closed-forms",
    "inflation-restriction-collapse",
    "worked-examples",
    "negative-control-m2",
    "oracle-equivalence",
    "locally-trivial-kernel",
    "decision-determinism",
]


class Tracer:
    """Records (name, start, end, parent, op, self time) per span."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.op = -1
        self._stack: list[list] = []  # [span index, time covered by children]

    def span(self, name: str, fn, on_error=None):
        """``fn`` wrapped so that each call records one span."""
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [len(spans), 0.0]
            spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                end = clock()
                stack.pop()
                spans[frame[0]] = (name_id, start, end, parent, self.op,
                                   end - start - frame[1])
                if stack:
                    stack[-1][1] += end - start

        return traced

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        total = defaultdict(float)
        own = defaultdict(float)
        calls = defaultdict(int)
        for name_id, start, end, parent, _op, self_s in self.spans:
            name = self.names[name_id]
            calls[name] += 1
            own[name] += self_s
            # total time counts only the outermost span of a name
            p = parent
            while p != -1 and self.spans[p][0] != name_id:
                p = self.spans[p][3]
            if p == -1:
                total[name] += end - start
        out = {}
        for metric, kind in TIME_METRICS.items():
            name = metric.rsplit(".", 1)[0]
            out[metric] = ((own if kind == "self" else total)[name], "s")
        for check in VERIFY_CHECKS:
            out[f"verify.{check}.total_s"] = (total[f"verify.{check}"], "s")
        for metric in CALL_METRICS:
            out[metric] = (calls[metric.rsplit(".", 1)[0]], "count")
        for metric in COUNTERS:
            out[metric] = (self.counters[metric], "count")
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"names": self.names,
                       "fields": ["name", "start", "end", "parent", "op", "self_s"],
                       "spans": self.spans}, handle, separators=(",", ":"))


def _rebind(old, new) -> None:
    """Point every binding of ``old`` in the package's modules at ``new``."""
    for modname, module in list(sys.modules.items()):
        if modname == "twistlgp" or modname.startswith("twistlgp."):
            for attr, value in list(vars(module).items()):
                if value is old:
                    setattr(module, attr, new)


def install(tracer: Tracer) -> None:
    """Wrap the package's public functions with spans and counters."""
    mods = {name: sys.modules[f"twistlgp.{name}"] for name in
            ("linalg", "cohomology", "groups", "gmodules", "oracle", "lgp",
             "cli", "albert", "verify")}
    counters = tracer.counters
    originals = {(m, f): getattr(mods[m], f) for m, f in SPANNED}

    # Counters recorded at the same boundaries as the spans.
    congruence_kernel = originals["linalg", "congruence_kernel"]

    def counted_kernel(n, exponent, constraints):
        def rows():
            for row in constraints:
                counters["linalg.congruence_kernel.rows"] += 1
                yield row
        return congruence_kernel(n, exponent, rows())

    smith_normal_form = originals["linalg", "smith_normal_form"]

    def sized_snf(mat):
        dim = max(mat.shape, default=0)
        if dim > counters["linalg.smith_normal_form.max_dim"]:
            counters["linalg.smith_normal_form.max_dim"] = dim
        return smith_normal_form(mat)

    cohomology = originals["cohomology", "cohomology"]
    memo = mods["cohomology"]._cohomology_cached

    def memo_counted(group, module, degree, *args, **kwargs):
        dim = module.rank * group.order ** degree
        if dim > counters["cohomology.cochain_dim.max"]:
            counters["cohomology.cochain_dim.max"] = dim
        before = memo.cache_info()
        try:
            return cohomology(group, module, degree, *args, **kwargs)
        finally:
            after = memo.cache_info()
            counters["cohomology.memo.hits"] += after.hits - before.hits
            counters["cohomology.memo.misses"] += after.misses - before.misses

    subgroups = originals["groups", "subgroups"]

    def found_subgroups(group):
        result = subgroups(group)
        counters["groups.subgroups.found"] += len(result)
        return result

    budget_exceeded = mods["oracle"].BudgetExceeded

    def on_oracle_error(exc):
        if isinstance(exc, budget_exceeded):
            counters["oracle.budget_exceeded"] += 1

    inner = dict(originals)
    inner["linalg", "congruence_kernel"] = counted_kernel
    inner["linalg", "smith_normal_form"] = sized_snf
    inner["cohomology", "cohomology"] = memo_counted
    inner["groups", "subgroups"] = found_subgroups
    for (modname, fname), fn in inner.items():
        on_error = on_oracle_error if modname == "oracle" else None
        _rebind(originals[modname, fname],
                tracer.span(f"{modname}.{fname}", fn, on_error))

    group_cls = mods["cohomology"].CohomologyGroup
    group_cls.class_of = tracer.span("cohomology.class_of", group_cls.class_of)

    # run_checks picks each check's arguments by identity against the module
    # globals, so the registry and the globals must hold the same wrappers.
    verify = mods["verify"]
    checks = []
    for name, statement, func in verify.CHECKS:
        wrapped = tracer.span(f"verify.{name}", func)
        _rebind(func, wrapped)
        checks.append((name, statement, wrapped))
    verify.CHECKS = tuple(checks)
