"""Command-line front end.

Subcommands: decide, cohomology, sha, admissible-m, verify-paper.  All
machine output is JSON with sorted keys, so identical inputs and flags give
byte-identical output.  Exit codes for decide: 0 the principle is certified,
2 unknown, 1 error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import asdict, fields

from .albert import AlbertProfile, fermat_squarefree_check, admissible_m
from .cohomology import TooLarge, cohomology, sha_finite
from .gmodules import BadCharacter, CyclotomicCharacter, GModule, gmodule, mu_module
from .groups import (
    FiniteGroup,
    NotAGroup,
    Subgroup,
    build_group,
    cyclic_subgroups,
    group_spec,
    is_json_int,
)
from .lgp import Inconsistent, Instance, Verdict, decide, validate
from .oracle import BudgetExceeded, OracleBudget, brute_h1, brute_h2
from .verify import DEFAULT_VERIFY_BUDGET, run_checks


class ParseError(ValueError):
    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


# The document's schema is the dataclasses': the flags are the Instance
# fields that default to False, nested under "flags".
FLAG_NAMES = tuple(f.name for f in fields(Instance) if f.default is False)
ALBERT_FIELDS = {f.name for f in fields(AlbertProfile)}
INSTANCE_FIELDS = {f.name for f in fields(Instance)} - set(FLAG_NAMES) | {"flags"}


def _is_int_list(value) -> bool:
    return isinstance(value, list) and all(is_json_int(v) for v in value)


def _parse_subgroups(value, group: FiniteGroup, field: str) -> list[Subgroup]:
    """A JSON list of element lists, each naming a subgroup of the group."""
    if not isinstance(value, list) or not all(
        _is_int_list(elems) and all(0 <= x < group.order for x in elems) for elems in value
    ):
        raise ParseError(field, f"must be a list of lists of group elements 0..{group.order - 1}")
    try:
        return [Subgroup(group, tuple(elems)) for elems in value]
    except NotAGroup as exc:
        raise ParseError(field, str(exc))


def parse_instance(text: str) -> Instance:
    """Parse and validate an instance document (JSON)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("document", f"invalid JSON at line {exc.lineno}: {exc.msg}")
    if not isinstance(doc, dict):
        raise ParseError("document", "expected a JSON object")
    unknown = set(doc) - INSTANCE_FIELDS
    if unknown:
        raise ParseError(sorted(unknown)[0], "unknown field")
    if "m" not in doc:
        raise ParseError("m", "missing required field")
    m = doc["m"]
    if not is_json_int(m) or m < 1:
        raise ParseError("m", "must be a positive integer")
    if "group" not in doc:
        raise ParseError("group", "missing required field")
    try:
        group = build_group(doc["group"])
    except (ValueError, KeyError, TypeError) as exc:
        raise ParseError("group", str(exc))
    g = doc.get("g")
    if g is not None and (not is_json_int(g) or g < 1):
        raise ParseError("g", "must be a positive integer")
    char_values = doc.get("character")
    if char_values is not None and not _is_int_list(char_values):
        raise ParseError("character", "must be a list of integers")
    try:
        if char_values is None:
            character = CyclotomicCharacter.trivial(group, m)
        else:
            character = CyclotomicCharacter(group, m, tuple(char_values))
    except BadCharacter as exc:
        raise ParseError("character", str(exc))
    flags = doc.get("flags", {})
    if not isinstance(flags, dict) or set(flags) - set(FLAG_NAMES):
        raise ParseError("flags", f"allowed flags are {', '.join(FLAG_NAMES)}")
    for name, value in flags.items():
        if not isinstance(value, bool):
            raise ParseError("flags", f"{name} must be true or false")
    albert = None
    if doc.get("albert") is not None:
        raw = doc["albert"]
        if not isinstance(raw, dict) or set(raw) - ALBERT_FIELDS:
            raise ParseError("albert", f"allowed fields are {', '.join(sorted(ALBERT_FIELDS))}")
        # null stands for an absent field, as serialize_instance writes it
        raw = {key: value for key, value in raw.items() if value is not None}
        for key, value in raw.items():
            if not is_json_int(value):
                raise ParseError("albert", f"{key} must be an integer")
        try:
            albert = AlbertProfile(**{"g": g or 0, "m": m} | raw)
        except ValueError as exc:
            raise ParseError("albert", str(exc))
    subs = _parse_subgroups(
        doc.get("declared_decomposition_subgroups", []), group,
        "declared_decomposition_subgroups",
    )
    instance = Instance(
        m=m,
        group=group,
        character=character,
        g=g,
        albert=albert,
        declared_decomposition_subgroups=tuple(subs),
        **flags,
    )
    return validate(instance)


def serialize_instance(instance: Instance) -> dict:
    doc = {
        "m": instance.m,
        "group": group_spec(instance.group),
        "character": list(instance.character.values),
        "flags": {name: getattr(instance, name) for name in FLAG_NAMES},
        "declared_decomposition_subgroups": [
            list(s.elements) for s in instance.declared_decomposition_subgroups
        ],
    }
    if instance.g is not None:
        doc["g"] = instance.g
    if instance.albert is not None:
        doc["albert"] = asdict(instance.albert)
    return doc


def _parse_group_arg(text: str) -> FiniteGroup:
    spec = text
    if text.strip().startswith("{"):
        spec = json.loads(text)
    return build_group(spec)


def _parse_module_arg(text: str, group: FiniteGroup) -> GModule:
    text = text.strip()
    if text.startswith("mu:"):
        if not re.fullmatch(r"-?(0|[1-9][0-9]*)", text[3:]):
            raise ParseError("module", "mu:M needs a JSON integer M")
        m = int(text[3:])
        return mu_module(group, m, CyclotomicCharacter.trivial(group, m))
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ParseError("module", "expected mu:M or a JSON object")
    keys = {"kind", "m", "character"} if doc.get("kind") == "mu" else {"orders", "action"}
    if unknown := sorted(doc.keys() - keys):
        raise ParseError("module", f"unknown key {unknown[0]!r}")
    if doc.get("kind") == "mu":
        m, values = doc.get("m"), doc.get("character")
        if not is_json_int(m):
            raise ParseError("module", "m must be an integer")
        if values is not None and not _is_int_list(values):
            raise ParseError("module", "character must be a list of integers")
        chi = (
            CyclotomicCharacter.trivial(group, m)
            if values is None
            else CyclotomicCharacter(group, m, tuple(values))
        )
        return mu_module(group, m, chi)
    orders, action = doc.get("orders"), doc.get("action")
    if not _is_int_list(orders):
        raise ParseError("module", "orders must be a list of integers")
    if not isinstance(action, dict) or not all(
        isinstance(mat, list) and all(_is_int_list(row) for row in mat)
        for mat in (action.get(str(g)) for g in group.elements())
    ):
        raise ParseError("module", "action must map every group element to an integer matrix")
    return gmodule(group, orders, [action[str(g)] for g in group.elements()])


def _parse_family_arg(text: str, group: FiniteGroup) -> list[Subgroup]:
    if text == "cyclic":
        return list(cyclic_subgroups(group))
    return _parse_subgroups(json.loads(text), group, "family")


def _emit(payload: dict, as_json: bool, render) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        render(payload)


def _render_verdict(payload: dict) -> None:
    print(f"verdict: {payload['status']}")
    if payload["criterion"]:
        print(f"criterion: {payload['criterion']}")
        for line in payload["citations"]:
            print(f"citation: {line}")
    print("trace:")
    for entry in payload["trace"]:
        mark = "fired " if entry["outcome"] == "fired" else "failed"
        line = f"  [{mark}] {entry['criterion']}"
        if entry["reason"]:
            line += f": {entry['reason']}"
        print(line)
        if entry["outcome"] == "fired" and entry["hypotheses"]:
            print(f"           {json.dumps(entry['hypotheses'], sort_keys=True)}")


def _decide_one(path: str, as_json: bool) -> int:
    try:
        with open(path, encoding="utf-8") as handle:
            instance = parse_instance(handle.read())
        verdict: Verdict = decide(instance)
    except (ParseError, Inconsistent, OSError, UnicodeDecodeError, TooLarge) as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        return 1
    _emit(verdict.to_dict(), as_json, _render_verdict)
    return 0 if verdict.holds else 2


def cmd_decide(args) -> int:
    if not os.path.isdir(args.path):
        return _decide_one(args.path, args.json)
    # batch mode: one instance per file, processed in name order
    paths = sorted(
        os.path.join(args.path, name)
        for name in os.listdir(args.path)
        if name.endswith(".json")
    )
    if not paths:
        print(f"error: no .json instances in {args.path}", file=sys.stderr)
        return 1
    codes = []
    for path in paths:
        print(f"== {path}")
        codes.append(_decide_one(path, args.json))
    if 1 in codes:
        return 1
    return 2 if 2 in codes else 0


def _render_cohomology(payload: dict) -> None:
    factors = payload["invariant_factors"]
    shape = " x ".join(f"Z/{d}" for d in factors) if factors else "trivial"
    print(f"H^{payload['degree']} = {shape}")
    oracle = payload.get("oracle")
    if oracle is not None:
        if "skipped" in oracle:
            print(f"oracle skipped: {oracle['skipped']}")
        else:
            print(f"oracle agrees: {oracle['agrees']}")


def cmd_cohomology(args) -> int:
    try:
        group = _parse_group_arg(args.group)
        module = _parse_module_arg(args.module, group)
        budget = OracleBudget(args.budget)
        result = cohomology(group, module, args.degree)
    except (NotAGroup, BadCharacter, TooLarge, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    payload = result.to_report()
    if args.oracle:
        brute = {0: None, 1: brute_h1, 2: brute_h2}[args.degree]
        if brute is None:
            payload["oracle"] = {"skipped": "degree 0 has no oracle", "agrees": None}
        else:
            try:
                factors = list(brute(group, module, budget))
                payload["oracle"] = {
                    "invariant_factors": factors,
                    "agrees": factors == payload["invariant_factors"],
                }
            except BudgetExceeded as exc:
                payload["oracle"] = {"skipped": str(exc), "agrees": None}
    _emit(payload, args.json, _render_cohomology)
    # a skipped oracle compared nothing: "agrees" is null, and only a
    # disagreement fails
    if args.oracle and payload["oracle"]["agrees"] is False:
        print("error: oracle disagrees with the engine", file=sys.stderr)
        return 1
    return 0


def cmd_sha(args) -> int:
    try:
        group = _parse_group_arg(args.group)
        module = _parse_module_arg(args.module, group)
        family = _parse_family_arg(args.family, group)
        for sub in _parse_subgroups(json.loads(args.declared), group, "declared"):
            if sub not in family:
                family.append(sub)
        result = sha_finite(group, module, family)
    except (NotAGroup, BadCharacter, TooLarge, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    payload = result.to_report()
    payload["family"] = [list(sub.elements) for sub in family]

    def render(p):
        factors = p["invariant_factors"]
        shape = " x ".join(f"Z/{d}" for d in factors) if factors else "trivial"
        print(f"locally trivial kernel = {shape}")
        print(f"family: {p['family']}")

    _emit(payload, args.json, render)
    return 0


def cmd_admissible_m(args) -> int:
    try:
        values = admissible_m(args.genus)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    payload = {"g": args.genus, "admissible_m": values}
    g = args.genus
    if g & (g - 1) == 0:
        payload["fermat_note"] = (
            "dimension is a power of two: every admissible m is a squarefree "
            "product of Fermat primes"
        )
        payload["fermat_check"] = {
            str(m): fermat_squarefree_check(m) for m in values
        }
    if g == 8:
        payload["note"] = (
            "g = 8 is covered by the power-of-two clause; the uniform "
            "small-dimension statement stops at g = 7"
        )

    def render(p):
        print(f"admissible odd m for dimension {p['g']}: {p['admissible_m']}")
        if "fermat_note" in p:
            print(p["fermat_note"])
        if "note" in p:
            print(p["note"])

    _emit(payload, args.json, render)
    return 0


def cmd_verify_paper(args) -> int:
    try:
        OracleBudget(args.budget)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    results = run_checks(name_filter=args.filter, budget=args.budget)
    if not results:
        print("error: no check matches the filter", file=sys.stderr)
        return 1
    payload = {
        "checks": [r.to_dict() for r in results],
        "all_passed": all(r.passed for r in results),
    }

    def render(p):
        width = max((len(c["name"]) for c in p["checks"]), default=0)
        for check in p["checks"]:
            status = "pass" if check["passed"] else "FAIL"
            print(f"{status}  {check['name']:<{width}}  {check['statement']}")
        print("all passed" if p["all_passed"] else "FAILURES above")

    _emit(payload, args.json, render)
    if not payload["all_passed"]:
        failing = [c["name"] for c in payload["checks"] if not c["passed"]]
        print(f"error: failed checks: {', '.join(failing)}", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twistlgp",
        description=(
            "Certify the local-global principle for m-atic twists of abelian "
            "varieties, and compute the finite group cohomology behind it."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_decide = sub.add_parser("decide", help="decide one instance file")
    p_decide.add_argument("path", help="instance document (JSON)")
    p_decide.add_argument("--json", action="store_true")
    p_decide.set_defaults(func=cmd_decide)

    p_coh = sub.add_parser("cohomology", help="compute H^n(G, M)")
    p_coh.add_argument("--group", required=True, help='group spec, e.g. S3 or {"kind":...}')
    p_coh.add_argument("--module", required=True, help='module spec, e.g. mu:3')
    p_coh.add_argument("--degree", type=int, required=True, choices=(0, 1, 2))
    p_coh.add_argument("--oracle", action="store_true", help="cross-check by enumeration")
    p_coh.add_argument("--budget", type=int, default=10**7)
    p_coh.add_argument("--json", action="store_true")
    p_coh.set_defaults(func=cmd_cohomology)

    p_sha = sub.add_parser("sha", help="locally trivial kernel of H^1")
    p_sha.add_argument("--group", required=True)
    p_sha.add_argument("--module", required=True)
    p_sha.add_argument(
        "--family",
        default="cyclic",
        help='"cyclic" (default) or a JSON list of element lists',
    )
    p_sha.add_argument(
        "--declared",
        default="[]",
        help="JSON list of declared decomposition subgroups to add to the family",
    )
    p_sha.add_argument("--json", action="store_true")
    p_sha.set_defaults(func=cmd_sha)

    p_adm = sub.add_parser("admissible-m", help="admissible odd twist orders")
    p_adm.add_argument("--genus", type=int, required=True)
    p_adm.add_argument("--json", action="store_true")
    p_adm.set_defaults(func=cmd_admissible_m)

    p_ver = sub.add_parser("verify-paper", help="run the reproduction suite")
    p_ver.add_argument("--filter", default=None, help="substring filter on check names")
    p_ver.add_argument("--budget", type=int, default=DEFAULT_VERIFY_BUDGET)
    p_ver.add_argument("--json", action="store_true")
    p_ver.set_defaults(func=cmd_verify_paper)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
