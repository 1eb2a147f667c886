"""The twistlgp benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src, so
there is nothing to build.  Workloads (the reasons are in BENCHMARK.json):

* ``paper``: ``twistlgp verify-paper --json`` with a cold memo, the whole
  registry of ten checks.  A pass cannot be split, so a run is one pass even
  when it lasts longer than S; the seed does not apply.
* ``h2-mid``: H^2(G, mu_m(chi)) at cochain dimension 64-144.
* ``sha-wide``: the locally trivial kernel over the cyclic subgroups, for
  every character of five groups of order 24-48.
* ``decide-batch``: instance documents through parse_instance -> decide ->
  json.dumps, as ``twistlgp decide DIR`` does.

Each pass runs in a fresh worker interpreter (worker.py): one client, a
closed loop, the cohomology memo cleared at the start.  Only this waiting
harness runs beside it.

The seed picks the op order and a relabelling of every group: a random
permutation of the elements with the identity fixed, applied to the
multiplication table, to the characters and to the declared subgroups.
Every run makes one pass on relabelled inputs and checks that it reproduces
the expected outputs.  The timed passes use the canonical labelling, in the
seed's op order, as long as S seconds allow and at least once: the cost of
the Smith normal forms depends on the labelling (on a 2-core x86 VM,
H^2(D6, mu_6) takes 2 s to 7 s across labellings), and timing a different
labelling per seed would measure that spread instead of the program.  The
relabelled pass's wall time is printed next to the timed passes', so the
labelling cost stays visible.

With ``--trace 0`` the last line reports the end-to-end metrics: the median
set-up time over several worker launches, and the median wall time, CPU
time and peak RSS of the timed passes.  Every time the benchmark reports
is in reference-speed seconds: the host's speed swings by up to 1.5x for
tens of seconds at a time, which moved raw medians by up to 31% between two
sets of runs half an hour apart, so each set-up and each pass is multiplied by
REFERENCE_PROBE_S over the mean time of a speed probe run throughout it
(worker.SpeedProbe).  Raw times are printed beside them and kept in the
result file under .perfbench/results/.  With ``--trace 1`` a run makes one
untraced and one traced pass; the last line reports the per-layer metrics
of the traced pass and the tracing overhead (traced minus untraced wall
time), and the raw spans go to .perfbench/trace/.  Every op's output is
checked against perfbench/cases.json and, where one exists, a closed form.
A run with any failed op reports no times and exits with status 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))
import checks  # noqa: E402

WORKLOADS = ("paper", "h2-mid", "sha-wide", "decide-batch")
SETUP_SAMPLES = 7
WORKER_TIMEOUT_S = 170
# The relabelled pass is stopped after this long, so that every run ends in
# time: the cost of H^2 depends on the labelling with a long tail (one seed
# in ten made H^2(C12, mu_6) take 20 s instead of 3 s).
RELABELLED_DEADLINE_S = 40
# worker.SpeedProbe's loop time at the reference speed that reported times
# refer to: about its median on a 2-core x86 VM.  Only ratios matter.
REFERENCE_PROBE_S = 35e-6


class BenchmarkError(RuntimeError):
    """The benchmark could not measure: no program, or a worker crashed."""


# ---------------------------------------------------------------- inputs


def relabelling(order: int, rng: random.Random) -> list[int]:
    """A random permutation of range(order) fixing the identity 0."""
    rest = list(range(1, order))
    rng.shuffle(rest)
    return [0] + rest


def relabel_table(table: list[list[int]], s: list[int]) -> list[list[int]]:
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[s[a]][s[b]] = s[table[a][b]]
    return out


def move(values: list[int], s: list[int]) -> list[int]:
    """A function on the group carried along the relabelling s."""
    out = [0] * len(values)
    for g, v in enumerate(values):
        out[s[g]] = v
    return out


def make_inputs(cases: dict, workload: str, seed: int, relabel: bool):
    """The worker's inputs and the expected output of each op, by id."""
    spec = cases["workloads"][workload]
    if workload == "paper":
        return {"workload": workload}, {"verify-paper": spec["expected"]}
    ops = list(spec["ops"])
    random.Random(f"{seed}:order").shuffle(ops)
    label_rng = random.Random(f"{seed}:labels")
    names = sorted({op["group"] if "group" in op else op["doc"]["group"] for op in ops})
    labels = {}
    for name in names:
        order = len(cases["groups"][name])
        labels[name] = relabelling(order, label_rng) if relabel else list(range(order))
    tables = {name: relabel_table(cases["groups"][name], labels[name]) for name in names}
    expected = {op["id"]: op["expected"] for op in ops}
    if workload == "decide-batch":
        worker_ops = []
        for op in ops:
            doc = dict(op["doc"])
            s = labels[doc["group"]]
            doc["group"] = {"kind": "table", "order": len(s), "table": tables[doc["group"]]}
            if "character" in doc:
                doc["character"] = move(doc["character"], s)
            if "declared_decomposition_subgroups" in doc:
                doc["declared_decomposition_subgroups"] = [
                    sorted(s[x] for x in sub) for sub in doc["declared_decomposition_subgroups"]]
            worker_ops.append({"id": op["id"], "text": json.dumps(doc)})
        return {"workload": workload, "ops": worker_ops}, expected
    worker_ops = [{"id": op["id"], "group": op["group"], "m": op["m"],
                   "character": move(op["character"], labels[op["group"]])} for op in ops]
    return {"workload": workload, "groups": tables, "ops": worker_ops}, expected


# ---------------------------------------------------------------- checking


def judge(workload: str, cases: dict, records: list[dict], expected: dict):
    """(attempted, failures) for one pass; a failure is (op id, reason)."""
    if workload == "paper":
        want = expected["verify-paper"]["checks"]
        record = records[0]
        if "error" in record:
            return len(want), [(c["name"], record["error"]) for c in want]
        got = checks.strip_representatives(record["out"])
        by_name = {c["name"]: c for c in got["checks"]}
        failures = [(c["name"], "differs from the recorded output")
                    for c in want if by_name.get(c["name"]) != c]
        if not got["all_passed"] or len(got["checks"]) != len(want):
            failures.append(("verify-paper", "all_passed is false or checks are missing"))
        return len(want), failures
    closed = {}
    if workload == "h2-mid":
        for op in cases["workloads"]["h2-mid"]["ops"]:
            closed[op["id"]] = checks.h2_closed_form(
                op["group"], len(cases["groups"][op["group"]]), op["m"], op["character"])
    failures = []
    for record in records:
        op_id = record["id"]
        if "error" in record:
            failures.append((op_id, record["error"]))
            continue
        got = record["out"]
        if workload == "decide-batch":
            got = checks.verdict_summary(got)
        if got != expected[op_id]:
            failures.append((op_id, f"got {got}, expected {expected[op_id]}"))
        elif closed.get(op_id) is not None and got != closed[op_id]:
            failures.append((op_id, f"got {got}, closed form {closed[op_id]}"))
    if len(records) != len(expected):
        failures.append((workload, f"{len(records)} of {len(expected)} ops ran"))
    return len(expected), failures


# ---------------------------------------------------------------- workers


def run_worker(inputs: dict, tag: str, setup_only: bool = False, trace_path=None,
               deadline_s: float | None = None) -> dict:
    """Run worker.py on ``inputs`` and return its result, with ``setup_s``
    and the ops' records.  With ``deadline_s`` the worker is stopped then,
    and the result holds the ops that had ended, with ``stopped`` set."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"inputs-{tag}.json"
    path.write_text(json.dumps(inputs))
    cmd = [sys.executable, str(HERE / "worker.py"), str(path)]
    if setup_only:
        cmd.append("--setup-only")
    if trace_path is not None:
        cmd += ["--trace", str(trace_path)]
    launched = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    stopped = False
    try:
        stdout, stderr = proc.communicate(timeout=deadline_s or WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        stdout, stderr = proc.communicate()
        if deadline_s is None:
            raise BenchmarkError(f"worker exceeded {WORKER_TIMEOUT_S} s") from None
        stopped = True
    lines = [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]
    if not lines or (proc.returncode != 0 and not stopped):
        raise BenchmarkError(
            f"worker exited with {proc.returncode}: {stderr.strip()[-2000:]}")
    result = dict(lines[0])
    result["raw_setup_s"] = result["ready"] - launched
    result["setup_s"] = result["raw_setup_s"] * REFERENCE_PROBE_S / result["setup_probe_s"]
    result["ops"] = [line for line in lines[1:] if "id" in line]
    if len(lines) > 1 and "wall_s" in lines[-1]:
        result.update(lines[-1])
        scale = REFERENCE_PROBE_S / result["probe_s"]
        for key in ("wall_s", "cpu_s"):
            result["raw_" + key] = result[key]
            result[key] *= scale
        if "layers" in result:
            result["layers"] = {k: (v * scale if u == "s" else v, u)
                                for k, (v, u) in result["layers"].items()}
    result["stopped"] = stopped
    return result


# ---------------------------------------------------------------- reporting


def environment() -> dict:
    """Where and on what a result was measured."""
    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_at_start": [round(x, 2) for x in os.getloadavg()],
    }


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    if len(values) < 4:
        return f"n={len(values)} min={min(values):.4g} max={max(values):.4g}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.4g} q3={q3:.4g}"


def op_latency(passes: list[dict]) -> list[str]:
    """Median op latency and the highest percentile with at least ten ops
    beyond it, over every op of the timed passes, at the reference speed."""
    lat = sorted(r["ms"] * REFERENCE_PROBE_S / p["probe_s"] for p in passes for r in p["ops"])
    lines = [f"  op_p50_ms    {statistics.median(lat):.4g} ms  (n={len(lat)})"]
    if len(lat) > 10:
        pct = 100.0 * (len(lat) - 10) / len(lat)
        lines.append(f"  op_tail_ms   {lat[-11]:.4g} ms  (p{pct:.1f}, "
                     f"10 ops beyond, n={len(lat)})")
    return lines


def finish(args, env: dict, attempted: int, failures: list, metrics: dict,
           lines: list[str], record: dict) -> int:
    """Print the report and the result line; the exit status."""
    correct = not failures
    err = len(failures) / attempted
    lines.insert(0, f"twistlgp benchmark: workload={args.workload} seed={args.seed} "
                    f"seconds={args.seconds} trace={args.trace}")
    lines.insert(1, "environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    lines.append(f"  error_rate   {err:.4g}  ({len(failures)} of {attempted} ops failed)")
    for op_id, reason in failures[:20]:
        print(f"FAILED {op_id}: {reason}", file=sys.stderr)
    if not correct:
        print("error: outputs differ from the expected values; no times are reported",
              file=sys.stderr)
        metrics = {}
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    record.update(environment=env, attempted=attempted, failed=len(failures),
                  failures=failures, metrics=metrics)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / "results" / name).write_text(json.dumps(record, indent=1))
    print("\n".join(lines))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def timed(args, cases: dict, env: dict) -> int:
    attempted, failures, setups = 0, [], []
    lines, record = [], {"passes": []}
    canonical, expected = make_inputs(cases, args.workload, args.seed, relabel=False)
    if args.workload != "paper":
        inputs, want = make_inputs(cases, args.workload, args.seed, relabel=True)
        result = run_worker(inputs, "relabelled", deadline_s=RELABELLED_DEADLINE_S)
        if result["stopped"]:
            done = {r["id"] for r in result["ops"]}
            want = {k: v for k, v in want.items() if k in done}
            lines.append(f"relabelled pass: stopped after {RELABELLED_DEADLINE_S} s with "
                         f"{len(done)} of {len(inputs['ops'])} ops checked; this labelling "
                         "is slow, see the result file")
        else:
            lines.append(f"relabelled pass: wall_s {result['wall_s']:.4g} s, raw "
                         f"{result['raw_wall_s']:.4g} s (not in the medians)")
        n, bad = judge(args.workload, cases, result["ops"], want)
        attempted, failures = attempted + n, failures + bad
        setups.append(result)
        record["relabelled"] = {"wall_s": result.get("wall_s"), "stopped": result["stopped"],
                                "ops": [(r["id"], r["ms"]) for r in result["ops"]]}
    passes = []
    start = time.monotonic()
    while not passes or time.monotonic() - start < args.seconds:
        result = run_worker(canonical, "canonical")
        n, bad = judge(args.workload, cases, result["ops"], expected)
        attempted, failures = attempted + n, failures + bad
        setups.append(result)
        passes.append(result)
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_worker(canonical, "setup", setup_only=True))
    env.update(passes[0]["versions"])
    metrics = {"setup_s": (statistics.median(s["setup_s"] for s in setups), "s")}
    lines.append(f"  setup_s      {metrics['setup_s'][0]:.4g} s  (median over launches, "
                 f"{spread([s['setup_s'] for s in setups])}; raw "
                 f"{statistics.median(s['raw_setup_s'] for s in setups):.4g} s)")
    for key, unit in (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB")):
        values = [p[key] for p in passes]
        metrics[key] = (statistics.median(values), unit)
        raw = (f"; raw {statistics.median(p['raw_' + key] for p in passes):.4g} {unit}"
               if unit == "s" else "")
        lines.append(f"  {key:<12} {metrics[key][0]:.4g} {unit}  (median over passes, "
                     f"{spread(values)}{raw})")
    lines.append(f"  probe        {statistics.median(p['probe_s'] for p in passes) * 1e6:.4g} us"
                 f"  (median over passes; reference {REFERENCE_PROBE_S * 1e6:.0f} us)")
    if args.workload in ("sha-wide", "decide-batch"):
        lines += op_latency(passes)
    record["setups"] = [{k: s[k] for k in ("setup_s", "raw_setup_s", "setup_probe_s")}
                        for s in setups]
    record["passes"] = [{k: p[k] for k in ("wall_s", "cpu_s", "raw_wall_s", "raw_cpu_s",
                                           "probe_s", "probes", "peak_rss_mb")}
                        | {"ops": [(r["id"], r["ms"]) for r in p["ops"]]} for p in passes]
    return finish(args, env, attempted, failures, metrics, lines, record)


def traced(args, cases: dict, env: dict) -> int:
    inputs, expected = make_inputs(cases, args.workload, args.seed, relabel=False)
    (OUT / "trace").mkdir(parents=True, exist_ok=True)
    spans = OUT / "trace" / f"{args.workload}-seed{args.seed}.json"
    plain = run_worker(inputs, "canonical")
    result = run_worker(inputs, "canonical", trace_path=spans)
    attempted, failures = 0, []
    for p in (plain, result):
        n, bad = judge(args.workload, cases, p["ops"], expected)
        attempted, failures = attempted + n, failures + bad
    env.update(result["versions"])
    metrics = {k: tuple(v) for k, v in result["layers"].items()}
    metrics["trace.overhead_s"] = (result["wall_s"] - plain["wall_s"], "s")
    lines = [f"untraced wall_s {plain['wall_s']:.4g} s (raw {plain['raw_wall_s']:.4g} s), "
             f"traced wall_s {result['wall_s']:.4g} s (raw {result['raw_wall_s']:.4g} s), "
             f"{result['spans']} spans in {spans.relative_to(ROOT)}"]
    lines += [f"  {k:<48} {v:.6g} {u}" for k, (v, u) in metrics.items()]
    record = {p: {k: run[k] for k in ("wall_s", "raw_wall_s", "probe_s")}
              for p, run in (("untraced", plain), ("traced", result))}
    return finish(args, env, attempted, failures, metrics, lines, record)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "twistlgp" / "__init__.py").is_file():
        print(f"error: no package at {ROOT / 'src' / 'twistlgp'}; run from a checkout",
              file=sys.stderr)
        return 2
    cases = json.loads((HERE / "cases.json").read_text())
    env = environment()
    try:
        return (traced if args.trace else timed)(args, cases, env)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
