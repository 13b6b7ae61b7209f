"""Per-layer tracing of nsmacdonald from outside the package.

``Tracer.install`` replaces each traced function at every binding a caller
looks up: the defining module, every module that imported the name (for
example ``v_param`` inside ``matrixprod`` and ``fillings``, ``qt_gcd``
inside ``qt``'s own methods) and the class for operator methods.  Each
wrapped call records one span: name, start, end, parent span and the id of
the operation (one composition through one route, or one suite call) it
belongs to.  Spans are kept in flat arrays while the pass runs; the
summary and the span file are produced after it ends.

The self time of a span is its duration minus the time its direct
children cover (the union of their intervals).  ``summary`` checks that
every span lies within its parent and starts after its previous sibling
ended, and that the self times under an operation add up to the
operation's duration.  A span that overlaps a sibling or sticks out of its
parent fails those checks; the library is single-threaded and the
generator wrappers close their span at every yield, so none should.
"""

from __future__ import annotations

import gzip
import time
from array import array
from collections import Counter, defaultdict

from nsmacdonald import (
    cli,
    compositions,
    fillings,
    hecke,
    lattice,
    matrixprod,
    qt,
    reports,
    xpoly,
)
import nsmacdonald

MODULES = (nsmacdonald, qt, xpoly, compositions, fillings, matrixprod, hecke,
           lattice, cli, reports)

# span name -> functions recorded under it
FUNCTIONS = {
    "qt.gcd": [(qt, "qt_gcd")],
    "qt.rational_add": [(qt.QTRational, "__add__")],
    "qt.rational_mul": [(qt.QTRational, "__mul__")],
    "qt.poly_mul": [(qt.QTPolynomial, "__mul__")],
    "xpoly.add": [(xpoly.XPolynomial, "__add__")],
    "xpoly.mul": [(xpoly.XPolynomial, "__mul__")],
    "xpoly.divided_difference": [(xpoly, "divided_difference_div")],
    "compositions.stats": [
        (compositions, name)
        for name in ("v_param", "omega_norm", "gamma", "alpha", "leg", "arm",
                     "eigenvalue_y")
    ],
    "fillings.enumerate": [(fillings, "enumerate_fillings")],
    "fillings.hhl_summand": [(fillings, "hhl_summand")],
    "fillings.weight_match": [(fillings, "weight_match_check")],
    "matrixprod.enumerate": [(matrixprod, "enumerate_configs")],
    "matrixprod.config_weight": [(matrixprod, "config_weight")],
    "matrixprod.column_component": [(matrixprod, "column_component")],
    "matrixprod.cyclic_check": [(matrixprod, "cyclic_check")],
    "hecke.apply_T": [(hecke, "apply_T")],
    "hecke.apply_Y": [(hecke, "apply_Y")],
    "lattice.ybe": [(lattice, "ybe_check"), (lattice, "ybe_check_symbolic")],
    "lattice.exchange": [(lattice, "exchange_check")],
}
GENERATORS = {"fillings.enumerate", "matrixprod.enumerate"}
ROUTES = ("hhl", "matrix", "eigen", "checks")
NAMES = ROUTES + tuple(FUNCTIONS)

perf = time.perf_counter


class Tracer:
    def __init__(self):
        self.name = array("b")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.current_op = -1
        self.yielded = Counter()       # (span name, op) -> items yielded
        self.column_states = defaultdict(set)   # op -> {(column index, state)}
        self.stat_keys = set()         # distinct compositions.stats calls
        self.op_args = {}              # op -> arguments of its root call
        self.patched = []              # (owner, attribute, original)

    # -- recording ---------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1])
        self.op.append(self.current_op)
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(idx)
        return idx

    def _wrap(self, name: str, fn):
        name_id = NAMES.index(name)
        opened, stack, start, end = self._open, self.stack, self.start, self.end

        def traced(*args, **kwargs):
            idx = opened(name_id)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf()
                start[idx] = t0
                stack.pop()

        return traced

    def _wrap_stats(self, fn):
        traced = self._wrap("compositions.stats", fn)
        keys = self.stat_keys

        def counted(*args, **kwargs):
            keys.add((fn.__name__, args, tuple(sorted(kwargs.items()))))
            return traced(*args, **kwargs)

        return counted

    def _wrap_generator(self, name: str, fn):
        """Each resumption of the generator is one span."""
        name_id = NAMES.index(name)
        opened, stack, start, end = self._open, self.stack, self.start, self.end
        tracer = self

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                idx = opened(name_id)
                t0 = perf()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    end[idx] = perf()
                    start[idx] = t0
                    stack.pop()
                tracer._count_item(name, item)
                yield item

        return traced

    def _count_item(self, name: str, item) -> None:
        self.yielded[name, self.current_op] += 1
        if name == "matrixprod.enumerate":
            states = self.column_states[self.current_op]
            states.update(enumerate(item.columns))

    def route(self, kind: str, fn):
        """Wrap a top-level call as the root span of a new operation."""
        traced = self._wrap(kind, fn)

        def operation(*args):
            self.current_op += 1
            self.op_args[self.current_op] = args
            return traced(*args)

        return operation

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        for name, targets in FUNCTIONS.items():
            for owner, attr in targets:
                original = getattr(owner, attr)
                if name in GENERATORS:
                    wrapper = self._wrap_generator(name, original)
                elif name == "compositions.stats":
                    wrapper = self._wrap_stats(original)
                else:
                    wrapper = self._wrap(name, original)
                if isinstance(owner, type):
                    self._patch(owner, attr, wrapper)
                    continue
                for module in MODULES:
                    for binding, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, binding, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self.patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)
        self.patched.clear()

    # -- results -------------------------------------------------------------

    def self_times(self) -> tuple[list[float], list[str]]:
        """Self time of every span, and the nesting problems found.

        Spans are recorded in the order they open, so the children of a
        span come in order of their start; the time they cover is summed in
        one pass, counting each instant once and only inside the parent."""
        start, end = self.start, self.end
        own = [e - s for s, e in zip(start, end)]
        covered_to = {}  # parent -> the latest end among its children so far
        problems = []
        for idx, parent in enumerate(self.parent):
            if parent < 0:
                continue
            lo, hi = start[idx], end[idx]
            if lo < start[parent] or hi > end[parent]:
                problems.append(f"span {idx} is not within its parent {parent}")
            lo, hi = max(lo, start[parent]), min(hi, end[parent])
            last = covered_to.get(parent, lo)
            if lo < last:
                problems.append(f"span {idx} overlaps an earlier sibling")
            own[parent] -= max(0.0, hi - max(lo, last))
            covered_to[parent] = max(last, hi)
        return own, problems

    def summary(self) -> dict:
        """Per-name call counts and self times, the work counts, and the
        consistency problems found; ``run.py`` merges these over jobs."""
        own, nesting = self.self_times()
        calls = Counter()
        self_s = defaultdict(float)
        route_qt = defaultdict(float)
        op_kind, op_duration, op_self = {}, {}, defaultdict(float)
        for idx, name_id in enumerate(self.name):
            name, op = NAMES[name_id], self.op[idx]
            calls[name] += 1
            self_s[name] += own[idx]
            op_self[op] += own[idx]
            if self.parent[idx] < 0:
                op_kind[op] = name
                op_duration[op] = self.end[idx] - self.start[idx]
        for idx, name_id in enumerate(self.name):
            if NAMES[name_id].startswith("qt."):
                route_qt[op_kind[self.op[idx]]] += own[idx]

        problems = nesting[:10]
        if len(nesting) > 10:
            problems.append(f"{len(nesting) - 10} more nesting problems")
        if own and min(own) < -1e-6:
            problems.append(f"negative self time {min(own):.3g} s")
        for op, duration in op_duration.items():
            if abs(op_self[op] - duration) > 1e-6 + 1e-9 * duration:
                problems.append(
                    f"self times under operation {op} sum to {op_self[op]:.9f} s, "
                    f"its span lasts {duration:.9f} s"
                )
        # the bijection: the fillings enumerated under f_hhl equal the
        # configurations enumerated under f_matrix_product, composition by
        # composition
        enumerated = defaultdict(dict)
        for op, kind in op_kind.items():
            if kind in ("hhl", "matrix"):
                layer = "fillings" if kind == "hhl" else "matrixprod"
                enumerated[self.op_args[op][0].parts][kind] = \
                    self.yielded[f"{layer}.enumerate", op]
        for mu, counts in enumerated.items():
            if counts.get("hhl") != counts.get("matrix"):
                problems.append(f"mu={mu}: {counts.get('hhl')} fillings vs "
                                f"{counts.get('matrix')} configurations")
        yielded = Counter()
        for (name, _op), count in self.yielded.items():
            yielded[name] += count
        return {
            "calls": calls,
            "self_s": self_s,
            "route_qt_s": route_qt,
            "yielded": yielded,
            "column_states": sum(len(s) for s in self.column_states.values()),
            "stat_distinct": len(self.stat_keys),
            "problems": problems,
        }

    def write_spans(self, path: str) -> None:
        """Write every span as tab-separated text, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tparent\top\tname\tstart\tend\n")
            for idx, name_id in enumerate(self.name):
                out.write(
                    f"{idx}\t{self.parent[idx]}\t{self.op[idx]}\t{NAMES[name_id]}"
                    f"\t{self.start[idx]!r}\t{self.end[idx]!r}\n"
                )
