"""Composition pools and the seeded draw of each workload.

The pools, with a digest of f_mu or the expected check counts for every
member, live in ``data/reference.json`` (written by ``generate.py``).  A
draw is a seeded random sample of fixed size from the pool whose reference
cost lies within ``TOLERANCE`` of a fixed budget.  Seeds therefore vary
which compositions run, but not how much work a pass holds, so the pass
time of one seed can be compared with that of another.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "data" / "reference.json"
WORKLOADS = ("tall", "wide", "suites")

# compositions drawn per pass
DRAW_SIZE = {"tall": 5, "wide": 24, "suites": 24}
# a tall composition enters the pool only if its three routes together cost
# at most this many short-kernel units (about 2 s), so that a pass holds
# several compositions
TALL_MAX_COST = 400
TOLERANCE = 0.01
MAX_TRIES = 100_000


def in_candidate_set(workload: str, parts: tuple[int, ...], configs: int) -> bool:
    """The pool property of each workload, before the cost limit."""
    if workload == "tall":
        return len(parts) in (3, 4) and max(parts) >= 3 and 60 <= configs <= 200
    if workload == "wide":
        return len(parts) in (5, 6) and max(parts) <= 2 and configs <= 40
    return len(parts) <= 3 and max(parts) <= 3


def load(path: Path = REFERENCE) -> dict:
    return json.loads(path.read_text())


def cost(entry: dict) -> float:
    """Reference cost, in units of the short kernel timed around each operation."""
    return sum(entry["cost"].values())


def admitted(workload: str, entry: dict) -> bool:
    """The only condition on reference costs: a tall composition costs at
    most ``TALL_MAX_COST``.  The route split each workload was chosen for
    is not imposed on its members; the traced run measures it."""
    return workload != "tall" or cost(entry) <= TALL_MAX_COST


def pool(workload: str, reference: dict) -> list[dict]:
    return reference[workload]["pool"]


def draw(workload: str, seed: int, reference: dict) -> list[list[int]]:
    """The compositions of one pass, in the order they run."""
    entries = pool(workload, reference)
    size = DRAW_SIZE[workload]
    costs = [cost(e) for e in entries]
    budget = size * sum(costs) / len(costs)
    rng = random.Random(f"{workload}:{seed}")
    for _ in range(MAX_TRIES):
        picked = rng.sample(range(len(entries)), size)
        if abs(sum(costs[i] for i in picked) - budget) <= TOLERANCE * budget:
            return [entries[i]["mu"] for i in picked]
    raise RuntimeError(f"no {workload} draw within {TOLERANCE:.0%} of the budget")
