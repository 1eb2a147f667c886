"""Label-independent views of op outputs, and closed forms they must match.

Pure Python with no dependency on the package, so the harness judges the
program's outputs without importing it.
"""

from __future__ import annotations

import re
from math import gcd


def verdict_summary(verdict: dict) -> dict:
    """Status, firing criterion and each criterion's outcome of a verdict:
    everything in it that does not name group elements."""
    return {
        "status": verdict["status"],
        "criterion": verdict["criterion"],
        "outcomes": [entry["outcome"] for entry in verdict["trace"]],
    }


def strip_representatives(obj):
    """verify-paper JSON without cocycle representatives, which a new
    elimination engine may legitimately change; ``bytes`` is the length of
    a serialization that embeds them."""
    if isinstance(obj, dict):
        return {k: strip_representatives(v) for k, v in obj.items()
                if k not in ("representatives", "bytes")}
    if isinstance(obj, list):
        return [strip_representatives(v) for v in obj]
    return obj


def h2_closed_form(name: str, order: int, m: int, character: list[int]):
    """Invariant factors of H^2(G, mu_m(chi)) where a closed form exists,
    else None.  ``character`` is in the canonical labelling.

    * C2^k with Z/2 coefficients: (Z/2)^(k + k(k-1)/2) (Kunneth).
    * C_n, generator acting by u = chi(1): H^2 = M^G / N M with
      N = 1 + u + ... + u^(n-1), a cyclic group of order
      gcd(u - 1, m) * gcd(N, m) / m.
    """
    match = re.fullmatch(r"C2\^(\d+)", name)
    if match and m == 2:
        k = int(match.group(1))
        return [2] * (k + k * (k - 1) // 2)
    if re.fullmatch(r"C\d+", name):
        u = character[1] if order > 1 else 1
        norm = sum(pow(u, i, m) for i in range(order)) % m
        size = gcd(u - 1, m) * gcd(norm, m) // m
        return [size] if size > 1 else []
    return None
