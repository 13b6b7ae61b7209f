"""Build ``bench/data/reference.json``: the pools, digests and check counts.

Run from the repository root:

    python3 bench/generate.py [--workload tall|wide|suites] [--rounds 3] [--calibrate]

Each candidate composition of a workload runs once in a fresh worker,
exactly as in a benchmark pass.  A tall or wide composition enters the
reference data only when f_hhl equals f_matrix_product and verify_eigen
passes, and a suites composition only when every one of its suite calls
passes; it must also meet the cost condition of ``pools.admitted``.  Each
composition's reference cost is measured cold, in a worker of its own,
also for ``suites``, whose passes run each check over the whole draw in
one worker.

The reference cost of each operation, which the draw in ``pools.py``
balances, is its time in units of the short reference kernel timed around
it (see ``run.op_kernel_s``), the unit of ``wall_norm``: the median of
``--rounds`` further measurements taken round robin over the pool.  ``--calibrate`` only
re-measures the costs of the existing pools.
"""

from __future__ import annotations

import argparse
import itertools
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from nsmacdonald.compositions import Composition  # noqa: E402
from nsmacdonald.matrixprod import enumerate_configs  # noqa: E402

import pools  # noqa: E402
import run  # noqa: E402

# a candidate whose job takes longer is left out of the reference data
CANDIDATE_TIMEOUT_S = 60.0


def configs(parts) -> int:
    return sum(1 for _ in enumerate_configs(Composition(tuple(parts))))


def candidates(workload: str) -> list[tuple[int, ...]]:
    if workload == "tall":
        shapes = [(3, 5), (4, 4)]
    elif workload == "wide":
        shapes = [(5, 2), (6, 2)]
    else:
        shapes = [(1, 3), (2, 3), (3, 3)]
    out = []
    for n, top in shapes:
        for parts in itertools.product(range(top + 1), repeat=n):
            if pools.in_candidate_set(workload, parts, configs(parts)):
                out.append(parts)
    return out


def measure(workload: str, parts) -> dict | None:
    """Operation key -> operation result of one fresh job, or None when the
    job exceeds the candidate time limit."""
    job = {"workload": workload, "seed": 0, "mus": [] if parts is None else [list(parts)]}
    if workload == "suites":
        job["checks"] = ["lattice"] if parts is None else list(run.SUITE_CHECKS)
    try:
        result = run.run_worker(job, timeout=CANDIDATE_TIMEOUT_S)
    except TimeoutError:
        return None
    ops = {}
    for op in result["ops"]:
        key = op.get("key") or op["kind"]
        if op["error"] or op.get("ok") is False or op.get("agrees") is False:
            raise SystemExit(f"{workload} {parts}: {key} failed: {op}")
        op["cost"] = (op["end"] - op["start"]) / run.op_kernel_s(result, op)
        ops[key] = op
    return ops


def entry_for(workload: str, parts, ops: dict) -> dict:
    entry = {"mu": list(parts), "configs": configs(parts),
             "cost": {key: op["cost"] for key, op in ops.items()}}
    if workload == "suites":
        entry["checked"] = {key: op["checked"] for key, op in ops.items()}
        return entry
    if ops["hhl"]["digest"] != ops["matrix"]["digest"]:
        raise SystemExit(f"{parts}: routes disagree")
    entry.update(terms=ops["hhl"]["terms"], digest=ops["hhl"]["digest"],
                 eigen_checked=ops["eigen"]["checked"])
    return entry


def generate(workload: str) -> dict:
    pool = []
    for parts in candidates(workload):
        ops = measure(workload, parts)
        if ops is None:
            print(f"{workload} {parts}: over the candidate time limit", file=sys.stderr)
            continue
        entry = entry_for(workload, parts, ops)
        if pools.admitted(workload, entry):
            pool.append(entry)
    data = {"pool": pool}
    if workload == "suites":
        # the lattice job (`verify ybe`, `verify exchange`) ends every pass
        data["fixed"] = {key: {"checked": op["checked"], "cost": op["cost"]}
                         for key, op in measure(workload, None).items()}
    return data


def calibrate(workload: str, data: dict, rounds: int) -> dict:
    """Set every reference cost to its median over round-robin rounds;
    members that then miss the cost condition leave the pool."""
    units = [entry["mu"] for entry in data["pool"]]
    if workload == "suites":
        units.append(None)
    samples = defaultdict(list)
    for round_ in range(rounds):
        for parts in units:
            for key, op in measure(workload, parts).items():
                samples[tuple(parts or ()), key].append(op["cost"])
        print(f"{workload}: round {round_ + 1} of {rounds}", file=sys.stderr)
    for entry in data["pool"]:
        for key in entry["cost"]:
            entry["cost"][key] = statistics.median(samples[tuple(entry["mu"]), key])
    for key, fixed in data.get("fixed", {}).items():
        fixed["cost"] = statistics.median(samples[(), key])
    data["pool"] = [e for e in data["pool"] if pools.admitted(workload, e)]
    return data


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=pools.WORKLOADS, action="append")
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--calibrate", action="store_true",
                        help="only re-measure the costs of the existing pools")
    args = parser.parse_args()
    path = pools.REFERENCE
    reference = json.loads(path.read_text()) if path.exists() else {}
    for workload in args.workload or pools.WORKLOADS:
        data = reference[workload] if args.calibrate else generate(workload)
        reference[workload] = calibrate(workload, data, args.rounds)
        path.parent.mkdir(parents=True, exist_ok=True)
        partial = path.with_suffix(".partial")
        partial.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
        partial.replace(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
