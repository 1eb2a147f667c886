"""The traced benchmark pass (perfbench/tracer.py) looks package functions up
by name and wraps some of them by position; a refactor that renames one
breaks ``--trace 1`` while every other test still passes."""

import importlib
import importlib.util
import inspect
from pathlib import Path

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
