"""Regenerate perfbench/cases.json: the benchmark's canonical inputs and the
expected output of every op.

Run from the repository root at the commit whose outputs become the
reference:

    PYTHONPATH=src python3 perfbench/make_cases.py

Groups are stored as explicit multiplication tables in the package's
canonical labelling; run.py relabels them per seed.  Expected outputs are
label-independent (invariant factors; verdict status, criterion and the
per-criterion outcomes), so one record serves every relabelling.  Closed
forms are checked here and again in run.py, so a reference recorded from a
wrong program does not pass silently.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

from twistlgp import cli
from twistlgp.albert import admissible_m
from twistlgp.cohomology import _cohomology_cached, cohomology, sha_finite
from twistlgp.gmodules import all_characters, mu_module
from twistlgp.groups import (
    cyclic,
    cyclic_subgroups,
    dihedral,
    direct_product,
    quaternion,
    symmetric,
)
from twistlgp.lgp import decide

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import checks  # noqa: E402

C = cyclic
GROUPS = {
    "C2": lambda: C(2),
    "C2xC2": lambda: direct_product(C(2), C(2)),
    "C2^3": lambda: direct_product(C(2), C(2), C(2)),
    "C2^4": lambda: direct_product(C(2), C(2), C(2), C(2)),
    "C2^5": lambda: direct_product(*[C(2)] * 5),
    "C12": lambda: C(12),
    "D4": lambda: dihedral(4),
    "D5": lambda: dihedral(5),
    "Q8": quaternion,
    "S4": lambda: symmetric(4),
    "D4xC2": lambda: direct_product(dihedral(4), C(2)),
    "Q8xC2": lambda: direct_product(quaternion(), C(2)),
    "Q8xC4": lambda: direct_product(quaternion(), C(4)),
    "C4xC4xC2": lambda: direct_product(C(4), C(4), C(2)),
    "D4xC4": lambda: direct_product(dihedral(4), C(4)),
    "Q8xC2^2": lambda: direct_product(quaternion(), C(2), C(2)),
    "Q8xS3": lambda: direct_product(quaternion(), symmetric(3)),
    "D4xS3": lambda: direct_product(dihedral(4), symmetric(3)),
    "S4xC2": lambda: direct_product(symmetric(4), C(2)),
}

# (group, m): H^2(G, mu_m(chi)) with chi the last of all_characters(G, m).
H2_MID = [("C2^3", 2), ("Q8", 4), ("D5", 6), ("C12", 6)]

# (group, m): the locally trivial kernel for every character chi.
SHA_WIDE = [("S4", 12), ("Q8xC4", 4), ("C4xC4xC2", 4), ("D4xS3", 6), ("S4xC2", 4)]

# (group, m): dl_commutative instances whose decision is dominated by the
# subgroup lattice (criteria C5 and C6 each enumerate every subgroup).
LATTICE_BOUND = [
    ("C2^4", 3), ("D4xC2", 3), ("Q8xC2", 3), ("C4xC4xC2", 3),
    ("D4xC4", 3), ("Q8xC2^2", 5), ("C2^5", 3), ("Q8xS3", 3),
]


def decide_docs():
    """The decide-batch documents, with the group given by catalog name."""
    docs = []
    for g in range(1, 9):
        for m in admissible_m(g):
            docs.append({
                "id": f"small-dimension/g{g}/m{m}",
                "doc": {"m": m, "g": g, "group": "C2xC2", "flags": {
                    "mu_m_in_d": True, "geometrically_simple": True}},
            })
    docs += [
        {"id": "worked-example/cm-elliptic-curve", "doc": {
            "m": 3, "g": 1, "group": "C2", "character": [1, 2], "flags": {
                "dl_commutative": True, "dl_cm_field": True,
                "geometrically_simple": True}}},
        {"id": "worked-example/cyclotomic-jacobian-factor", "doc": {
            "m": 3, "group": "C2", "character": [1, 2], "flags": {
                "dl_commutative": True, "geometrically_simple": True}}},
        {"id": "negative-control/m2", "doc": {
            "m": 2, "g": 4, "group": "C2xC2", "flags": {"dl_commutative": True}}},
        {"id": "declared-full-decomposition/Q8/m3", "doc": {
            "m": 3, "group": "Q8",
            "declared_decomposition_subgroups": [list(range(8))]}},
        {"id": "unknown/D4/m2", "doc": {
            "m": 2, "group": "D4", "flags": {"dl_commutative": True}}},
    ]
    for name, m in LATTICE_BOUND:
        docs.append({"id": f"lattice/{name}/m{m}", "doc": {
            "m": m, "group": name, "flags": {"dl_commutative": True}}})
    return docs


def commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, check=True, cwd=HERE)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def main() -> None:
    groups = {name: make() for name, make in GROUPS.items()}
    tables = {name: [list(row) for row in G.mul_table] for name, G in groups.items()}

    h2 = []
    for name, m in H2_MID:
        G = groups[name]
        chi = all_characters(G, m)[-1]
        _cohomology_cached.cache_clear()
        factors = list(cohomology(G, mu_module(G, m, chi), 2).invariant_factors)
        op = {"id": f"{name}/mu{m}", "group": name, "m": m,
              "character": list(chi.values), "expected": factors}
        closed = checks.h2_closed_form(name, len(tables[name]), m, op["character"])
        if closed is not None and closed != factors:
            sys.exit(f"{op['id']}: H^2 is {factors}, the closed form gives {closed}")
        h2.append(op)

    sha = []
    for name, m in SHA_WIDE:
        G = groups[name]
        family = cyclic_subgroups(G)
        for idx, chi in enumerate(all_characters(G, m)):
            module = mu_module(G, m, chi)
            kernel = sha_finite(G, module, family)
            sha.append({
                "id": f"{name}/mu{m}/chi{idx}", "group": name, "m": m,
                "character": list(chi.values),
                "expected": {"h1": list(cohomology(G, module, 1).invariant_factors),
                             "sha": list(kernel.invariant_factors)},
            })

    batch = decide_docs()
    for item in batch:
        doc = dict(item["doc"])
        doc["group"] = {"kind": "table", "order": len(tables[doc["group"]]),
                        "table": tables[doc["group"]]}
        verdict = decide(cli.parse_instance(json.dumps(doc)))
        item["expected"] = checks.verdict_summary(verdict.to_dict())

    _cohomology_cached.cache_clear()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify-paper", "--json"])
    paper = checks.strip_representatives(json.loads(out.getvalue()))
    if code != 0 or not paper["all_passed"]:
        sys.exit("verify-paper fails at this commit; it cannot be the reference")

    cases = {
        "recorded_at": commit(),
        "groups": tables,
        "workloads": {
            "paper": {"expected": paper},
            "h2-mid": {"ops": h2},
            "sha-wide": {"ops": sha},
            "decide-batch": {"ops": batch},
        },
    }
    (HERE / "cases.json").write_text(json.dumps(cases, separators=(",", ":")) + "\n")
    print(f"h2-mid {len(h2)} ops, sha-wide {len(sha)} ops, "
          f"decide-batch {len(batch)} ops, paper {len(paper['checks'])} checks")


if __name__ == "__main__":
    main()
