"""The nsmacdonald benchmark.  Run from the repository root:

    python3 bench/run.py --workload tall|wide|suites --seed N --seconds S --trace 0|1

Load model: a closed loop with one client.  One worker process runs at a
time, single-threaded, and every job starts in a fresh interpreter, as a
CLI call does.  On ``tall`` and ``wide`` a job is one composition, as
``compute --mu`` computes one.  On ``suites`` a job is one check over the
whole draw, as ``verify cyclic``, ``verify weight_match`` and ``verify
frozen`` run over their family in one process, so later compositions of
the draw find the gcd cache filled by earlier ones; one more job runs
``verify ybe`` and ``verify exchange``.

``--trace 0`` runs the draw again and again, one pass after another, until
``--seconds`` is used up and reports the median of each end-to-end metric
over the passes.  ``--trace 1`` runs the draw once untraced and once
traced and reports the per-layer metrics.  Every operation's output is
checked against ``data/reference.json``; the last line of stdout is the
JSON result.
"""

from __future__ import annotations

import argparse
import bisect
import json
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SPANS_DIR = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import pools  # noqa: E402

perf = time.perf_counter
WORKER_TIMEOUT_S = 170.0

END_TO_END = {  # name -> unit; BENCHMARK.json bounds the first three
    "setup_s": "s",
    "wall_norm": "ratio",
    "peak_rss_mib": "MiB",
    "setup_raw_s": "s",
    "wall_s": "s",
    "hhl_s": "s",
    "matrix_s": "s",
    "eigen_s": "s",
    "checks_s": "s",
    "fail_ratio": "ratio",
}
GATED = ("setup_s", "wall_norm", "peak_rss_mib")
ROUTE_METRIC = {"hhl": "hhl_s", "matrix": "matrix_s", "eigen": "eigen_s",
                "checks": "checks_s"}
SUITE_CHECKS = ("cyclic", "weight_match", "frozen")
LATTICE_KEYS = ("ybe", "ybe_symbolic", "exchange")
# About the full reference kernel's median time on the baseline machine
# (2 cores, Python 3.11.7).  ``setup_s`` is each worker's set-up time in
# units of its own full kernel time, converted to seconds at this speed, so
# that the host's changes in speed cancel as they do in ``wall_norm``.
BASELINE_KERNEL_S = 0.015


def run_worker(job: dict, timeout: float = WORKER_TIMEOUT_S) -> dict:
    """Run one job in a fresh worker; adds ``setup_s`` (spawn to ready)."""
    spawned = perf()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        cwd=ROOT, text=True,
    )
    try:
        out, err = proc.communicate(json.dumps(job), timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise TimeoutError(f"worker exceeded {timeout} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{err[-2000:]}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - spawned
    return result


def jobs(workload: str, seed: int, compositions: list[list[int]]) -> list[dict]:
    """The jobs of one pass: one per composition on ``tall`` and ``wide``;
    on ``suites`` one per check over all compositions, then the lattice
    job."""
    if workload != "suites":
        return [{"workload": workload, "seed": seed, "mus": [mu]} for mu in compositions]
    return [{"workload": workload, "seed": seed, "checks": [check],
             "mus": list(compositions)} for check in SUITE_CHECKS] + [
        {"workload": workload, "seed": seed, "checks": ["lattice"], "mus": []}]


def expectations(workload: str, reference: dict) -> dict:
    """Operation key (composition, or suite call) -> what a correct result
    must show."""
    expected = {}
    if workload == "suites":
        for entry in reference["suites"]["pool"]:
            expected.update(entry["checked"])
        for key, fixed in reference["suites"]["fixed"].items():
            expected[key] = fixed["checked"]
    else:
        for entry in reference[workload]["pool"]:
            expected[tuple(entry["mu"])] = entry
    return expected


def expected_ops(job: dict, expected: dict) -> int:
    if job["workload"] != "suites":
        return 3 * len(job["mus"])
    count = 0
    for check in job["checks"]:
        if check == "lattice":
            count += sum(1 for key in expected if key.split(":")[0] in LATTICE_KEYS)
        elif check == "cyclic":
            count += sum(len(mu) for mu in job["mus"])
        else:
            count += len(job["mus"])
    return count


def evaluate(job: dict, ops: list[dict], expected: dict):
    """(attempted, failed, messages) for one job.  An operation fails if it
    raised, if its routes disagree, if its digest does not match the
    reference, or if it performed fewer checks than the reference; an
    operation the job never reported also counts as failed."""
    attempted = expected_ops(job, expected)
    messages = []
    for op in ops:
        if op["kind"] == "checks":
            label = op["key"]
            want = expected.get(label)
        else:
            label = f"{op['kind']} mu={op['mu']}"
            ref = expected.get(tuple(op["mu"]))
            if ref is None:
                messages.append(f"{label}: not in the reference pool")
                continue
            want = ref["eigen_checked"] if op["kind"] == "eigen" else ref["digest"]
        if op["error"]:
            messages.append(f"{label}: {op['error']}")
        elif op["kind"] in ("hhl", "matrix") and op["digest"] != want:
            messages.append(f"{label}: digest {op['digest'][:12]} != reference")
        elif op["kind"] == "matrix" and not op["agrees"]:
            messages.append(f"{label}: f_matrix_product != f_hhl")
        elif op["kind"] in ("eigen", "checks") and not op["ok"]:
            messages.append(f"{label}: check failed")
        elif op["kind"] in ("eigen", "checks") and (want is None or op["checked"] < want):
            messages.append(f"{label}: {op['checked']} checks, expected {want}")
    if attempted > len(ops):
        messages.append(f"{attempted - len(ops)} operations not reported")
    return attempted, len(messages), messages


def run_draw(draw_jobs: list[dict], expected: dict, spans_dir: Path | None = None) -> dict:
    """One pass: every job in its own worker, one after another; traced
    when ``spans_dir`` is given."""
    results, attempted, failed, messages = [], 0, 0, []
    for index, job in enumerate(draw_jobs):
        if spans_dir is not None:
            job = dict(job, trace=True, spans_path=str(spans_dir / f"job{index}.tsv.gz"))
        result = run_worker(job)
        a, f, m = evaluate(job, result["ops"], expected)
        attempted, failed, messages = attempted + a, failed + f, messages + m
        results.append(result)
    return {"results": results, "attempted": attempted, "failed": failed,
            "messages": messages}


def op_kernel_s(result: dict, op: dict) -> float:
    """Mean time of the short reference kernels timed just before and just
    after an operation in its worker."""
    samples = result["op_kernel"]
    after = bisect.bisect_right([start for start, _ in samples], op["start"])
    return statistics.fmean(s for _, s in samples[max(after - 1, 0):after + 1])


def pass_metrics(results: list[dict]) -> dict:
    """Route times summed over the pass.  ``wall_s`` is the time of all the
    pass's operations; ``wall_norm`` sums each operation's time in units of
    the short kernel timed around it, so that the host's changes in speed
    cancel operation by operation."""
    metrics = {name: 0.0 for name in ROUTE_METRIC.values()}
    metrics["wall_s"] = metrics["wall_norm"] = 0.0
    for result in results:
        for op in result["ops"]:
            seconds = op["end"] - op["start"]
            metrics[ROUTE_METRIC[op["kind"]]] += seconds
            metrics["wall_s"] += seconds
            metrics["wall_norm"] += seconds / op_kernel_s(result, op)
    metrics["peak_rss_mib"] = max(r["peak_rss_kib"] for r in results) / 1024
    return metrics


def measure(workload: str, seed: int, seconds: float, reference: dict) -> dict:
    """The untraced run: medians over repeated passes of one draw."""
    began = perf()
    draw_jobs = jobs(workload, seed, pools.draw(workload, seed, reference))
    expected = expectations(workload, reference)
    samples, setups, raw_setups, attempted, failed, messages = [], [], [], 0, 0, []
    while True:
        start = perf()
        done = run_draw(draw_jobs, expected)
        took = perf() - start
        attempted += done["attempted"]
        failed += done["failed"]
        messages += done["messages"]
        for r in done["results"]:
            raw_setups.append(r["setup_s"])
            setups.append(r["setup_s"] / statistics.median(r["kernel_s"]))
        samples.append(pass_metrics(done["results"]))
        if perf() - began + took > seconds:
            break
    metrics = {"setup_s": statistics.median(setups) * BASELINE_KERNEL_S,
               "setup_raw_s": statistics.median(raw_setups)}
    metrics.update({name: statistics.median(s[name] for s in samples)
                    for name in samples[0]})
    metrics["fail_ratio"] = failed / attempted
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "messages": messages, "passes": len(samples), "setups": len(setups)}


def merge_layers(layers: list[dict]) -> dict:
    merged = {"calls": Counter(), "self_s": Counter(), "route_qt_s": Counter(),
              "yielded": Counter(), "column_states": 0, "stat_distinct": 0,
              "problems": []}
    for layer in layers:
        for key, value in layer.items():
            if isinstance(value, dict):
                merged[key].update(value)
            else:
                merged[key] += value
    return merged


def layer_metrics(layers: dict) -> dict:
    """The per-layer metrics from the merged trace of a pass."""
    calls, self_s = layers["calls"], layers["self_s"]
    metrics = {"qt.gcd.calls": calls["qt.gcd"], "qt.gcd.self_s": self_s["qt.gcd"]}
    for route in ROUTE_METRIC:
        metrics[f"{route}.qt_s"] = layers["route_qt_s"][route]
    for name in ("qt.rational_add", "qt.rational_mul", "qt.poly_mul", "xpoly.add",
                 "xpoly.mul", "xpoly.divided_difference"):
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.self_s"] = self_s[name]
    configs = layers["yielded"]["matrixprod.enumerate"]
    states = layers["column_states"]
    metrics.update({
        "fillings.enumerated": layers["yielded"]["fillings.enumerate"],
        "fillings.enumerate.self_s": self_s["fillings.enumerate"],
        "fillings.hhl_summand.calls": calls["fillings.hhl_summand"],
        "fillings.hhl_summand.self_s": self_s["fillings.hhl_summand"],
        "fillings.weight_match.self_s": self_s["fillings.weight_match"],
        "matrixprod.configs": configs,
        "matrixprod.column_states": states,
        "matrixprod.configs_per_state": configs / states if states else 0.0,
        "matrixprod.enumerate.self_s": self_s["matrixprod.enumerate"],
    })
    for name in ("matrixprod.config_weight", "matrixprod.column_component"):
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.self_s"] = self_s[name]
    stat_calls = calls["compositions.stats"]
    metrics.update({
        "matrixprod.cyclic_check.self_s": self_s["matrixprod.cyclic_check"],
        "compositions.stats.calls": stat_calls,
        "compositions.stats.self_s": self_s["compositions.stats"],
        "compositions.stats.distinct_ratio":
            layers["stat_distinct"] / stat_calls if stat_calls else 0.0,
    })
    for name in ("hecke.apply_T", "hecke.apply_Y"):
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.self_s"] = self_s[name]
    metrics["lattice.ybe.self_s"] = self_s["lattice.ybe"]
    metrics["lattice.exchange.self_s"] = self_s["lattice.exchange"]
    return metrics


def measure_traced(workload: str, seed: int, reference: dict) -> dict:
    """One untraced and one traced pass of the same draw."""
    draw_jobs = jobs(workload, seed, pools.draw(workload, seed, reference))
    expected = expectations(workload, reference)
    spans = SPANS_DIR / f"spans-{workload}-{seed}"
    spans.mkdir(parents=True, exist_ok=True)
    plain = run_draw(draw_jobs, expected)
    traced = run_draw(draw_jobs, expected, spans_dir=spans)
    layers = merge_layers([r["layers"] for r in traced["results"]])
    problems = list(layers["problems"])
    for job, a, b in zip(draw_jobs, plain["results"], traced["results"]):
        for field in ("gcd_hits", "gcd_misses"):
            if a[field] != b[field]:
                problems.append(f"{job}: {field} {a[field]} untraced, {b[field]} traced")
    untraced = pass_metrics(plain["results"])
    metrics = layer_metrics(layers)
    hits = sum(r["gcd_hits"] for r in traced["results"])
    misses = sum(r["gcd_misses"] for r in traced["results"])
    metrics["qt.gcd.cache_misses"] = misses
    metrics["qt.gcd.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    metrics["xpoly.result_terms"] = sum(op.get("terms", 0) for r in traced["results"]
                                        for op in r["ops"])
    metrics["trace.overhead_ratio"] = (pass_metrics(traced["results"])["wall_norm"]
                                       / untraced["wall_norm"])
    layer_s = Counter()
    for name, seconds in layers["self_s"].items():
        layer_s[name.split(".")[0] if "." in name else "unwrapped"] += seconds
    total = sum(layer_s.values())
    return {"metrics": metrics,
            "untraced": untraced,
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"],
            "messages": plain["messages"] + traced["messages"],
            "problems": problems,
            "shares": {layer: s / total for layer, s in layer_s.most_common()}}


def split_summary(workload: str, metrics: dict, untraced: dict) -> str:
    """Whether the split each workload was chosen for holds, as measured:
    route times from the untraced pass, layer times from the traced one."""
    wall = untraced["wall_s"]
    routes = {r: untraced[n] for r, n in ROUTE_METRIC.items()}
    shares = ", ".join(f"{r} {v / wall:.0%}" for r, v in routes.items() if v)
    if workload == "tall":
        holds = (routes["hhl"] + routes["matrix"]) / wall > 0.5
        text = "hhl + matrix is most of wall"
    elif workload == "wide":
        holds = routes["eigen"] == max(routes.values())
        text = "eigen is the largest route"
    else:
        holds = (routes["hhl"] == routes["matrix"] == routes["eigen"] == 0
                 and metrics["qt.poly_mul.self_s"] > metrics["qt.gcd.self_s"])
        text = "no summation route runs and qt.poly_mul outweighs qt.gcd"
    return f"split ({shares}): {text}: {'yes' if holds else 'NO'}"


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("per_state"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="nsmacdonald benchmark")
    parser.add_argument("--workload", required=True, choices=pools.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "nsmacdonald" / "__init__.py").is_file():
        print(f"error: no nsmacdonald sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    reference = pools.load()
    if args.trace:
        outcome = measure_traced(args.workload, args.seed, reference)
        units = {name: layer_unit(name) for name in outcome["metrics"]}
        report = outcome["metrics"]
        for problem in outcome["problems"]:
            print(f"trace check failed: {problem}", file=sys.stderr)
        print(split_summary(args.workload, report, outcome["untraced"]))
        print("self-time shares: " + ", ".join(
            f"{layer} {share:.1%}" for layer, share in outcome["shares"].items()))
    else:
        outcome = measure(args.workload, args.seed, args.seconds, reference)
        units = END_TO_END
        report = {name: outcome["metrics"][name] for name in GATED}
        print(f"{outcome['passes']} passes, {outcome['setups']} set-ups")
    for name, value in outcome["metrics"].items():
        print(f"{name} = {value} {units[name]}")
    for message in outcome["messages"]:
        print(f"failed: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": outcome["failed"] == 0 and not outcome.get("problems"),
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in report.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
