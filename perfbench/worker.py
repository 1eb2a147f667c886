"""One benchmark pass of twistlgp, in a fresh interpreter.

    python3 perfbench/worker.py INPUTS.json [--setup-only] [--trace SPANS.json]

Imports the package, builds the workload's inputs (set-up), then runs every
op once in a closed loop with a cold cohomology memo.  Prints JSON lines: the
monotonic time at which set-up finished; then, as each op ends, its latency
and output (or the exception it raised); then the pass's wall and CPU time,
speed probe and peak RSS.  With --trace the package's public functions are
wrapped with spans after set-up, the per-layer metrics are added to the last
line, and the spans are written to SPANS.json.  The harness, run.py, judges
the outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import platform
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PROBE_INTERVAL_S = 0.02


class SpeedProbe:
    """Times a fixed integer loop every PROBE_INTERVAL_S of wall time while
    the pass runs, from a SIGALRM handler.

    The host's speed moves by up to 1.5x within seconds, and slow phases last
    tens of seconds (a fixed loop reads 19 ms or 29 ms on a 2-core x86 VM),
    so the harness scales each set-up and each pass by the mean probe time
    measured during it.  The loop uses no data structure, so its time follows
    the processor's speed rather than the program's memory use.
    """

    def __init__(self):
        self.samples: list[float] = []

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        acc = 0
        for i in range(300):
            acc = (acc * 31 + i) % 1000003
        self.samples.append(time.perf_counter() - start)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        self._tick(None, None)  # at least one sample, however short the pass
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def build(workload: str, inputs: dict):
    """Set-up: the op list as (id, thunk) pairs.  Package functions are
    looked up when an op runs, so the traced wrappers are the ones called."""
    mods = {name: sys.modules[f"twistlgp.{name}"]
            for name in ("cli", "cohomology", "gmodules", "groups", "lgp")}
    if workload == "paper":
        return [("verify-paper", lambda: verify_paper(mods["cli"]))]
    if workload == "decide-batch":
        return [(op["id"], lambda text=op["text"]: decide(mods, text))
                for op in inputs["ops"]]
    groups = {
        name: mods["groups"].build_group({"kind": "table", "order": len(table),
                                          "table": table, "name": name})
        for name, table in inputs["groups"].items()
    }
    gm = mods["gmodules"]
    ops = []
    for op in inputs["ops"]:
        group = groups[op["group"]]
        chi = gm.CyclotomicCharacter(group, op["m"], tuple(op["character"]))
        run = h2 if workload == "h2-mid" else sha
        ops.append((op["id"], lambda g=group, m=op["m"], c=chi, run=run: run(mods, g, m, c)))
    return ops


def verify_paper(cli) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify-paper", "--json"])
    if code != 0:
        raise RuntimeError(f"verify-paper exited with {code}")
    return json.loads(out.getvalue())


def h2(mods, group, m, chi) -> list[int]:
    module = mods["gmodules"].mu_module(group, m, chi)
    return list(mods["cohomology"].cohomology(group, module, 2).invariant_factors)


def sha(mods, group, m, chi) -> dict:
    coh = mods["cohomology"]
    module = mods["gmodules"].mu_module(group, m, chi)
    family = mods["groups"].cyclic_subgroups(group)
    kernel = coh.sha_finite(group, module, family)
    return {"h1": list(coh.cohomology(group, module, 1).invariant_factors),
            "sha": list(kernel.invariant_factors)}


def decide(mods, text: str) -> dict:
    """What ``twistlgp decide DIR`` does per document."""
    verdict = mods["lgp"].decide(mods["cli"].parse_instance(text)).to_dict()
    json.dumps(verdict, sort_keys=True)
    return verdict


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("inputs")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace")
    args = parser.parse_args()

    with SpeedProbe() as setup_probe:
        sys.path.insert(0, str(SRC))
        import numpy
        import twistlgp.cli  # noqa: F401  (imports every module of the package)

        if not Path(twistlgp.cli.__file__).resolve().is_relative_to(SRC):
            sys.exit(f"twistlgp was imported from outside {SRC}")

        with open(args.inputs, encoding="utf-8") as handle:
            inputs = json.load(handle)
        ops = build(inputs["workload"], inputs)
        ready = time.monotonic()
    print(json.dumps({
        "ready": ready,
        "setup_probe_s": statistics.mean(setup_probe.samples),
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__},
    }), flush=True)
    if args.setup_only:
        return

    tracer = None
    if args.trace:
        from tracer import Tracer, install
        tracer = Tracer()
        install(tracer)
    sys.modules["twistlgp.cohomology"]._cohomology_cached.cache_clear()

    result = {}
    with SpeedProbe() as probe:
        cpu0, wall0 = time.process_time(), time.perf_counter()
        for index, (op_id, thunk) in enumerate(ops):
            if tracer is not None:
                tracer.op = index
            start = time.perf_counter()
            try:
                record = {"id": op_id, "out": thunk()}
            except Exception as exc:  # an op failure is data for the harness
                record = {"id": op_id, "error": f"{type(exc).__name__}: {exc}"}
            record["ms"] = (time.perf_counter() - start) * 1000.0
            print(json.dumps(record), flush=True)
        result["wall_s"] = time.perf_counter() - wall0
        result["cpu_s"] = time.process_time() - cpu0
    result["probe_s"] = statistics.mean(probe.samples)
    result["probes"] = len(probe.samples)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["spans"] = len(tracer.spans)
        tracer.write(args.trace)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
