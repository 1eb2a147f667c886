"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Checks, on small real passes, that
1. a relabelled group table is a group table with the identity fixed and
   characters stay multiplicative when moved along it;
2. an altered output raises error_rate, and the run reports no times;
3. an op that raises counts as failed, and the run exits non-zero without
   times;
4. a relabelled pass stopped at its deadline keeps the ops that ended and
   reports no time;
5. in a directory holding only BENCHMARK.json and perfbench/, the benchmark
   exits non-zero without printing a result.
Exits 0 when every check holds.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import shutil
import subprocess
import sys

import run


def small_h2(relabel: bool):
    cases = json.loads((run.HERE / "cases.json").read_text())
    inputs, expected = run.make_inputs(cases, "h2-mid", 7, relabel=relabel)
    inputs["ops"] = [op for op in inputs["ops"] if op["group"] in ("C2^3", "Q8")]
    expected = {op["id"]: expected[op["id"]] for op in inputs["ops"]}
    return cases, inputs, expected


def report(attempted, failures):
    """finish()'s exit status and result line for a judged pass."""
    args = argparse.Namespace(workload="h2-mid", seed=-1, seconds=0, trace=0)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run.finish(args, {}, attempted, failures,
                          {"wall_s": (1.0, "s")}, [], {})
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


def check_relabelling() -> None:
    cases = json.loads((run.HERE / "cases.json").read_text())
    table = cases["groups"]["Q8xS3"]
    s = run.relabelling(len(table), random.Random(3))
    new = run.relabel_table(table, s)
    n = len(new)
    assert s[0] == 0 and sorted(s) == list(range(n))
    assert all(new[0][g] == g == new[g][0] for g in range(n))
    assert all(sorted(row) == list(range(n)) for row in new)
    op = next(op for op in cases["workloads"]["sha-wide"]["ops"] if op["group"] == "D4xS3")
    table = cases["groups"]["D4xS3"]
    s = run.relabelling(len(table), random.Random(4))
    new, chi = run.relabel_table(table, s), run.move(op["character"], s)
    assert all(chi[a] * chi[b] % op["m"] == chi[new[a][b]]
               for a in range(len(new)) for b in range(len(new)))


def check_altered_output() -> None:
    cases, inputs, expected = small_h2(relabel=True)
    result = run.run_worker(inputs, "selftest")
    attempted, failures = run.judge("h2-mid", cases, result["ops"], expected)
    assert attempted == 2 and not failures, failures
    result["ops"][0]["out"] = result["ops"][0]["out"] + [2]
    attempted, failures = run.judge("h2-mid", cases, result["ops"], expected)
    assert len(failures) == 1, failures
    code, line = report(attempted, failures)
    assert code != 0 and line["failed"] == 1 and not line["correct"]
    assert line["metrics"] == {}, "a failed run must not report times"


def check_raising_op() -> None:
    cases, inputs, expected = small_h2(relabel=False)
    inputs["ops"][0]["m"] = 0  # CyclotomicCharacter rejects the modulus
    try:
        run.run_worker(inputs, "selftest")
    except run.BenchmarkError:
        pass  # set-up failed: the run stops before any time is taken
    else:
        raise AssertionError("a failing set-up was not reported")
    cases = json.loads((run.HERE / "cases.json").read_text())
    inputs, expected = run.make_inputs(cases, "decide-batch", 7, relabel=False)
    inputs["ops"] = [op for op in inputs["ops"] if not op["id"].startswith("lattice/")]
    inputs["ops"][0]["text"] = inputs["ops"][0]["text"][:-1]  # truncated JSON
    expected = {op["id"]: expected[op["id"]] for op in inputs["ops"]}
    result = run.run_worker(inputs, "selftest")
    assert "ParseError" in result["ops"][0]["error"]
    attempted, failures = run.judge("decide-batch", cases, result["ops"], expected)
    assert len(failures) == 1, failures
    code, line = report(attempted, failures)
    assert code != 0 and line["metrics"] == {}


def check_deadline() -> None:
    cases = json.loads((run.HERE / "cases.json").read_text())
    inputs, _ = run.make_inputs(cases, "h2-mid", 7, relabel=True)
    result = run.run_worker(inputs, "selftest", deadline_s=1)
    assert result["stopped"] and len(result["ops"]) < len(inputs["ops"])
    assert "wall_s" not in result, "a stopped pass must not report a time"


def check_without_program() -> None:
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "h2-mid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170)
    shutil.rmtree(bare)
    assert proc.returncode != 0, proc.stdout
    assert '"correct"' not in proc.stdout, proc.stdout


def main() -> int:
    for check in (check_relabelling, check_altered_output, check_raising_op,
                  check_deadline, check_without_program):
        check()
        print(f"ok  {check.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
