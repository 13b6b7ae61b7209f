"""Tests of the benchmark itself: the seeded draw, the metric names and the
correctness gate.  The library and its own tests are not involved."""

import copy
import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import pools  # noqa: E402
import run  # noqa: E402
from trace_layers import NAMES, Tracer  # noqa: E402

REFERENCE = pools.load()
SEEDS = range(12)


@pytest.mark.parametrize("workload", pools.WORKLOADS)
def test_draw_is_deterministic_within_pool_and_seed_dependent(workload):
    members = {tuple(e["mu"]) for e in pools.pool(workload, REFERENCE)}
    draws = [pools.draw(workload, seed, REFERENCE) for seed in SEEDS]
    for seed, drawn in zip(SEEDS, draws):
        assert pools.draw(workload, seed, REFERENCE) == drawn
        assert len(drawn) == pools.DRAW_SIZE[workload]
        assert len({tuple(mu) for mu in drawn}) == len(drawn)
        assert {tuple(mu) for mu in drawn} <= members
    assert len({json.dumps(d) for d in draws}) == len(draws)


@pytest.mark.parametrize("workload", pools.WORKLOADS)
def test_pool_has_the_workload_property(workload):
    for entry in pools.pool(workload, REFERENCE):
        assert pools.in_candidate_set(workload, tuple(entry["mu"]), entry["configs"])
        assert pools.admitted(workload, entry)


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    produced = set(run.layer_metrics(run.merge_layers([Tracer().summary()]))) | {
        "qt.gcd.cache_misses", "qt.gcd.cache_hit_ratio", "trace.overhead_ratio",
        "xpoly.result_terms",
    }
    assert end_to_end == list(run.GATED)
    assert set(per_layer) == produced
    for metric in spec["end_to_end"]:
        assert metric["unit"] == run.END_TO_END[metric["name"]]
    for metric in spec["per_layer"]:
        assert metric["unit"] == run.layer_unit(metric["name"])
    names = end_to_end + per_layer + list(run.END_TO_END)
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name
        assert len(name) <= 64


def test_wrong_digest_counts_as_failure_without_aborting():
    cheapest = sorted(pools.pool("wide", REFERENCE), key=pools.cost)[:2]
    draw_jobs = run.jobs("wide", 0, [e["mu"] for e in cheapest])
    expected = copy.deepcopy(run.expectations("wide", REFERENCE))
    expected[tuple(cheapest[0]["mu"])]["digest"] = "0" * 64
    done = run.run_draw(draw_jobs, expected)
    assert done["attempted"] == 6
    assert [len(r["ops"]) for r in done["results"]] == [3, 3]
    # f_hhl and f_matrix_product of the first composition miss the digest;
    # its eigencheck and the second composition still run and pass
    assert done["failed"] == 2, done["messages"]
    assert all("digest" in m for m in done["messages"])


def test_suites_pass_expects_every_reference_check_of_the_draw():
    drawn = pools.draw("suites", 0, REFERENCE)
    expected = run.expectations("suites", REFERENCE)
    names = {",".join(map(str, mu)) for mu in drawn}
    keys = [key for key in expected
            if key.split(":")[0] in run.LATTICE_KEYS or key.split(":")[1] in names]
    draw_jobs = run.jobs("suites", 0, drawn)
    assert [job["checks"] for job in draw_jobs] == [
        [check] for check in run.SUITE_CHECKS + ("lattice",)]
    assert sum(run.expected_ops(job, expected) for job in draw_jobs) == len(keys)


def test_fewer_checks_than_reference_is_a_failure():
    parts = pools.pool("suites", REFERENCE)[-1]["mu"]
    job = {"workload": "suites", "seed": 0, "checks": list(run.SUITE_CHECKS),
           "mus": [parts]}
    expected = run.expectations("suites", REFERENCE)
    ops = [{"kind": "checks", "key": key, "error": None, "ok": True, "checked": count}
           for key, count in expected.items() if key.split(":")[1:2] == [",".join(map(str, parts))]]
    assert len(ops) == len(parts) + 2
    assert run.evaluate(job, ops, expected)[1] == 0
    ops[0]["checked"] -= 1
    attempted, failed, messages = run.evaluate(job, ops, expected)
    assert (attempted, failed) == (len(parts) + 2, 1)
    assert ops[0]["key"] in messages[0]


def spans(tracer, rows):
    """Record (name, parent, start, end) rows as spans of operation 0."""
    for name, parent, start, end in rows:
        tracer.name.append(NAMES.index(name))
        tracer.parent.append(parent)
        tracer.op.append(0)
        tracer.start.append(start)
        tracer.end.append(end)
    return tracer.summary()


def test_self_times_of_nested_spans_add_up():
    summary = spans(Tracer(), [("checks", -1, 0.0, 10.0), ("qt.gcd", 0, 1.0, 3.0),
                               ("qt.poly_mul", 0, 4.0, 8.0), ("qt.gcd", 2, 5.0, 6.0)])
    assert summary["problems"] == []
    assert summary["self_s"]["checks"] == pytest.approx(4.0)
    assert summary["self_s"]["qt.poly_mul"] == pytest.approx(3.0)


@pytest.mark.parametrize("child", [(3.0, 5.0), (9.0, 11.0)])
def test_overlapping_or_protruding_span_is_a_trace_problem(child):
    summary = spans(Tracer(), [("checks", -1, 0.0, 10.0), ("qt.gcd", 0, 1.0, 4.0),
                               ("qt.poly_mul", 0, *child)])
    assert any("overlaps" in p or "not within" in p for p in summary["problems"])
    assert any("sum to" in p for p in summary["problems"])
