"""One unit of benchmark work in a fresh interpreter.

Reads a job (JSON) on stdin, imports ``nsmacdonald`` from the checkout's
``src`` directory, runs the job's operations through the library's public
functions and prints one JSON object with the per-operation results on the
last line of stdout.  The parent (``run.py``) compares the results with the
reference data; this process only reports what the library returned.

A ``tall`` or ``wide`` job is one composition, as one CLI call computes
and verifies one composition (``compute --mu``).  A ``suites`` job runs
one check over every drawn composition, as ``verify cyclic``, ``verify
weight_match`` and ``verify frozen`` run their check over the whole
family in one process; the ``lattice`` job runs ``verify ybe`` and
``verify exchange``.

Every job starts cold: ``qt._gcd_cached`` and the CLI's ``_f_cached`` live
for the life of a process, so a second job in one process would measure
the caches rather than the algorithms.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from fractions import Fraction
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import nsmacdonald  # noqa: E402  (import time is part of set-up)
from nsmacdonald import fillings, lattice, matrixprod, qt  # noqa: E402
from nsmacdonald.reports import CheckReport  # noqa: E402

perf = time.perf_counter


# items of the reference kernel: the full one (about 15 ms) and the short
# one timed next to every operation (about 5 ms)
KERNEL_ITEMS = 4000
OP_KERNEL_ITEMS = 1300
# (start, seconds) of each short kernel, one before every operation and one
# after the last
op_kernel = []


def reference_kernel(items: int = KERNEL_ITEMS) -> float:
    """Seconds taken by a fixed piece of pure-Python work (Fraction
    arithmetic and dict updates, as in the library's inner loops, but no
    library code).  The host's speed changes by up to a factor of two from
    one second to the next; dividing an operation's time by this one,
    measured right next to it, cancels most of that."""
    start = perf()
    total, table = Fraction(0), {}
    for i in range(1, items):
        total += Fraction(i % 97, i % 89 + 1)
        key = (i % 61, i % 7)
        table[key] = table.get(key, 0) + i
    return perf() - start


def digest(poly) -> str:
    """SHA-256 of the canonical JSON form of an XPolynomial."""
    text = json.dumps(poly.to_json(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def time_op_kernel() -> None:
    start = perf()
    op_kernel.append((start, reference_kernel(OP_KERNEL_ITEMS)))


def _timed(fn, *args):
    time_op_kernel()
    start = perf()
    try:
        value = fn(*args)
    except Exception as exc:  # a failing operation is recorded, not fatal
        return None, start, perf(), f"{type(exc).__name__}: {exc}"
    return value, start, perf(), None


def certify(mu, route) -> list[dict]:
    """f_hhl, then f_matrix_product (must equal it), then verify_eigen."""
    parts = list(mu.parts)
    f_hhl, s, e, err = _timed(route("hhl", nsmacdonald.f_hhl), mu)
    ops = [{"kind": "hhl", "mu": parts, "start": s, "end": e, "error": err,
            "digest": None if err else digest(f_hhl),
            "terms": 0 if err else len(f_hhl.terms)}]
    f_mat, s, e, err = _timed(route("matrix", nsmacdonald.f_matrix_product), mu)
    ops.append({"kind": "matrix", "mu": parts, "start": s, "end": e, "error": err,
                "digest": None if err else digest(f_mat),
                "agrees": err is None and f_hhl is not None and f_mat == f_hhl})
    target = f_hhl if f_hhl is not None else f_mat
    if target is None:
        ops.append({"kind": "eigen", "mu": parts, "start": e, "end": e,
                    "error": "no polynomial to check", "ok": False, "checked": 0})
        return ops
    report, s, e, err = _timed(route("eigen", nsmacdonald.verify_eigen), target, mu)
    ops.append({"kind": "eigen", "mu": parts, "start": s, "end": e, "error": err,
                "ok": err is None and report.ok,
                "checked": 0 if err else report.checked})
    return ops


def frozen(mu) -> CheckReport:
    """The frozen-coefficient check, compared as `verify frozen` compares it."""
    report = CheckReport(f"frozen mu={mu}")
    from_config, from_omega = matrixprod.frozen_coefficient(mu)
    report.count()
    if from_config != from_omega:
        report.fail(f"frozen coefficient mismatch for mu={mu}")
    return report


def suite_calls(check: str, mus, seed: int):
    """(key, callable, args) of each call of one suite check over the
    compositions ``mus``; every callable returns a CheckReport.  The
    ``lattice`` check runs `verify ybe` (default --cap 2, seeded) and
    `verify exchange` (n = 2) as the CLI runs them."""
    for mu in mus:
        name = ",".join(map(str, mu.parts))
        if check == "cyclic":
            for i in range(1, mu.n + 1):
                yield f"cyclic:{name}:{i}", matrixprod.cyclic_check, (mu, i)
        elif check == "weight_match":
            yield f"weight_match:{name}", fillings.weight_match_check, (mu,)
        elif check == "frozen":
            yield f"frozen:{name}", frozen, (mu,)
    if check != "lattice":
        return
    for n in (1, 2):
        yield f"ybe:{n}", partial(lattice.ybe_check, occupation_cap=2, seed=seed), (n,)
    yield "ybe_symbolic:1", lattice.ybe_check_symbolic, (1, 2)
    for i in (1, 2):
        for j in (1, 2):
            yield f"exchange:{i},{j}", partial(lattice.exchange_check, N=1, cap=1), (i, j, 2)


def run_job(job: dict, route=lambda name, fn: fn) -> list[dict]:
    """Run every operation of a job; ``route`` wraps each top-level call."""
    mus = [nsmacdonald.Composition(tuple(parts)) for parts in job["mus"]]
    ops = []
    if job["workload"] != "suites":
        for mu in mus:
            ops += certify(mu, route)
        return ops
    for check in job["checks"]:
        for key, fn, args in suite_calls(check, mus, job["seed"]):
            report, s, e, err = _timed(route("checks", fn), *args)
            ops.append({"kind": "checks", "key": key, "start": s, "end": e,
                        "error": err, "ok": err is None and report.ok,
                        "checked": 0 if err else report.checked})
    return ops


def main() -> int:
    info = qt._gcd_cached.cache_info()
    if info.currsize != 0:
        raise RuntimeError(f"gcd cache not cold before the first operation: {info}")
    ready = perf()
    job = json.loads(sys.stdin.read())
    # timed before the operations, while every worker is in the same state
    kernel_s = [reference_kernel(), reference_kernel()]
    tracer = None
    if job.get("trace"):
        from trace_layers import Tracer

        tracer = Tracer()
        tracer.install()
        ops = run_job(job, route=tracer.route)
        tracer.uninstall()
    else:
        ops = run_job(job)
    time_op_kernel()
    after = qt._gcd_cached.cache_info()
    result = {
        "ops": ops,
        "ready": ready,
        "kernel_s": kernel_s,
        "op_kernel": op_kernel,
        "gcd_hits": after.hits - info.hits,
        "gcd_misses": after.misses - info.misses,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
        tracer.write_spans(job["spans_path"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
