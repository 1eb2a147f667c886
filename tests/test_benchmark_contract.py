"""The traced benchmark pass (perfbench/tracer.py) looks package functions up
by name and wraps some of them by position; a refactor that renames one
breaks ``--trace 1`` while every other test still passes."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_spanned_functions_exist():
    tracer = load_tracer()
    for modname, fname in tracer.SPANNED:
        module = importlib.import_module(f"twistlgp.{modname}")
        assert callable(getattr(module, fname, None)), f"{modname}.{fname}"


def test_wrapped_signatures():
    # install() calls these by position or through these attributes
    linalg = importlib.import_module("twistlgp.linalg")
    inspect.signature(linalg.congruence_kernel).bind(3, 2, iter(()))
    inspect.signature(linalg.smith_normal_form).bind(None)
    engine = importlib.import_module("twistlgp.cohomology")
    inspect.signature(engine.cohomology).bind(None, None, 1)
    assert callable(engine._cohomology_cached.cache_info)
    assert callable(engine.CohomologyGroup.class_of)
    assert issubclass(importlib.import_module("twistlgp.oracle").BudgetExceeded, Exception)
    for name, _statement, func in importlib.import_module("twistlgp.verify").CHECKS:
        assert callable(func), name


def test_verify_checks_match_the_registry():
    # a renamed check would read 0 s in the traced pass
    names = [name for name, _statement, _func in importlib.import_module("twistlgp.verify").CHECKS]
    assert load_tracer().VERIFY_CHECKS == names


def test_congruence_kernel_reads_one_row_per_item(monkeypatch):
    # the tracer's linalg.congruence_kernel.rows counter counts the items of
    # ``constraints``; feeding blocks instead of rows would change that metric
    linalg = importlib.import_module("twistlgp.linalg")
    engine = importlib.import_module("twistlgp.cohomology")
    groups = importlib.import_module("twistlgp.groups")
    gmodules = importlib.import_module("twistlgp.gmodules")
    congruence_kernel = linalg.congruence_kernel
    fed = []

    def counted_kernel(n, exponent, constraints):
        def rows():
            for item in constraints:
                fed.append(item)
                yield item
        return congruence_kernel(n, exponent, rows())

    monkeypatch.setattr(linalg, "congruence_kernel", counted_kernel)
    s3 = groups.symmetric(3)
    # H^2(S3, Z/3) = 0 is counted in Cayley-graph coordinates, one column at
    # the edge outside the tree of each of the 6 * 2 - 5 = 7 fundamental
    # cycles z for S3's two generators, and for each generator g and each z
    # one row g.f(z) = f(g z).  It has no representatives to read, and
    # class_of tests a cochain with is_cocycle and folds no rows
    h2 = engine._cohomology_cached.__wrapped__(s3, gmodules.trivial_module(s3, [3]), 2)
    assert len(fed) == 2 * 7
    assert h2.representatives == () and len(fed) == 14
    assert h2.class_of(engine.zero_cochain(h2.module, 2)).coordinates == ()
    assert len(fed) == 14
    # H^2(S3, Z/2) = Z/2 is counted the same way; the first read of its
    # representatives folds all 6^3 rows
    counted = len(fed)
    h2 = engine._cohomology_cached.__wrapped__(s3, gmodules.trivial_module(s3, [2]), 2)
    assert len(fed) == counted + 14 and h2.invariant_factors == (2,)
    assert len(h2.representatives) == 1
    assert len(fed) == counted + 14 + 1 * 6**3
    widths = [7] * 14 + [7] * 14 + [36] * 6**3
    for (row, modulus), width in zip(fed, widths, strict=True):
        assert np.ndim(row) == 1 and len(row) == width
        assert type(modulus) is int
