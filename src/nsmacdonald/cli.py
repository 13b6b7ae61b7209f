"""Command-line front end.

Two subcommands:

  compute --mu 0,1 [--rho 2,1] [--method hhl|matrix|both] [--convention f|E]
          [--output text|json|latex|terms]
  verify  CHECK [--mu ...] [--i K] [--n N] [--cap C] [--samples S] [--seed S]

Verification checks: eigen, ybe, exchange, cyclic, frozen, bijection,
hecke.  Without --mu a check runs over the default composition family
(every mu with n <= 3 and parts <= 3, plus n = 4 with parts <= 2);
``verify cyclic --i K`` then runs colour K on the members with n >= K.

--rho needs --method matrix.  Exit codes: 0 all good, 1 a verification
or route comparison failed, 2 usage error, one ``error:`` line on stderr
(argparse's own errors included: an unknown subcommand, flag or choice,
a missing --mu or check name, a malformed integer; and a flag value out
of range, a --mu too large to run: more than MAX_PARTS = 64 parts, more
than MAX_SQUARES diagram squares or more than MAX_CONFIGURATIONS
configurations, and an eigen, ybe, exchange or hecke check that asks for
more work than its CHECKS limit allows).  A flag's value may begin with
"-": ``--mu -1,2`` reads as ``--mu=-1,2``.  Computed polynomials go to
stdout; verification reports go to stderr.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from typing import Sequence

from .compositions import Composition, compositions_with, default_family, parse_int
from .fillings import (
    bijection_M,
    bijection_M_inverse,
    enumerate_fillings,
    f_hhl,
    weight_match_check,
)
from .hecke import verify_eigen, verify_hecke_relations
from .lattice import exchange_check, ybe_check, ybe_check_symbolic
from .matrixprod import (
    count_configs,
    cyclic_check,
    enumerate_configs,
    f_matrix_product,
    frozen_coefficient,
    verify_exchange_basement,
)
from .reports import CheckReport
from .xpoly import XPolynomial, reverse_alphabet

# the verify flags that take an integer (``parse_int``), with their defaults
INT_FLAGS = {"i": None, "n": None, "cap": 2, "samples": 5, "seed": 0}
# the flags that take a value, which may begin with "-" ("--mu -1,2"):
# argparse would read such a value as an option (``_attach_values``)
VALUE_FLAGS = {"--mu", "--rho", *(f"--{flag}" for flag in INT_FLAGS)}

# A --mu beyond any limit is refused before anything runs (exit 2).  The
# filling search nests about |mu| frames, one per diagram square, so
# MAX_SQUARES keeps it well inside Python's default recursion limit of 1000;
# the eigencheck's cost grows as about n^4 (0.65 s on (0,..,0,1) at 64
# parts, 48 s at 200), which MAX_PARTS bounds.  Each route spends about
# 0.2-0.4 ms per configuration (one filling per configuration), so a
# composition at MAX_CONFIGURATIONS takes minutes per route; the count is
# exact and takes no enumeration (``matrixprod.count_configs``), so a
# refusal is immediate.
MAX_PARTS = 64
MAX_SQUARES = 500
MAX_CONFIGURATIONS = 10**6

# Each check: the optional verify flags it reads (giving any other is a
# usage error), the alphabet sizes it runs without --n, and its work limit
# with the unit.  ybe, exchange and hecke are sized by their flags, eigen
# by its compositions: ``_work`` counts their work in closed form, and a
# check above its limit is refused before anything runs (exit 2).  Cost
# per unit, measured with CPython 3.11 on one x86-64 core: ybe 0.01 ms per
# boundary (n = 4 with cap 3, 1.6 * 10^5 boundaries, takes 1.2-1.6 s), all
# of them held in one list; exchange 0.2-0.3 ms (n = 4 takes 0.85 s, n = 5
# 6-7 s); hecke 1-50 ms (n = 4 takes 10.5 s, n = 5 more than
# 100 s); eigen 20-30 ns (0,..,0,1,1 with 52 parts, 3.7 * 10^8 units, takes
# 7.1 s, and with 64 parts, 1.04 * 10^9, 27 s).  So a check at its limit
# takes seconds to minutes.
CHECKS = {
    "bijection": ({"mu"}, None, None),
    "cyclic": ({"mu", "i"}, None, None),
    "eigen": ({"mu"}, None, (10**9, "configurations times n^3")),
    "exchange": ({"n"}, [2], (10**5, "in-state colour pairs")),
    "frozen": ({"mu"}, None, None),
    "hecke": ({"mu", "n", "samples", "seed"}, [2, 3],
              (10**4, "basement exchanges and relation samples")),
    "ybe": ({"n", "cap", "seed"}, [1, 2], (2 * 10**5, "RLL boundaries")),
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse's own errors (an unknown subcommand, flag or choice, a
    missing argument, a rejected value) take ``main``'s one usage-error
    path instead of printing a usage block and exiting."""

    def error(self, message: str):
        raise UsageError(message)


def _work(name: str, sizes: list[int] | None, args, mu: Composition | None) -> int:
    """The work of ``verify name`` at the alphabet sizes ``sizes``, in the
    unit of its CHECKS limit, enumerating nothing.  A size above 64 counts
    as 64: its work is past every limit anyway, and no huge integer is built."""
    if name == "eigen":
        # n operators Y_i of about n operators T_i each, every one over each
        # term of f_mu (n exponents), which has at most one term per
        # configuration
        return sum(count_configs(m) * m.n**3 for m in ([mu] if mu else default_family()))
    clamped = [min(n, 64) for n in sizes]
    if name == "ybe":
        # the sample sweep at each size and the symbolic sweep at n = 1
        return sum((args.cap + 1) ** k * (k + 1) ** 4 for k in [*clamped, 1])
    if name == "exchange":
        return sum(4**k * k * k for k in clamped)
    # n! (n - 1)/2 basement exchanges for each of the 3^n compositions with
    # parts <= 2, or for --mu alone at its own size
    return len(sizes) * args.samples + sum(
        math.factorial(k) * (k - 1) // 2 * (1 if mu else 3**k)
        for n, k in zip(sizes, clamped)
        if mu is None or mu.n == n
    )


def _parse_mu(text: str) -> Composition:
    try:
        mu = Composition.parse(text)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if mu.n > MAX_PARTS:
        raise UsageError(f"--mu has {mu.n} parts; at most {MAX_PARTS} are supported")
    squares = sum(mu.parts)
    if squares > MAX_SQUARES:
        raise UsageError(
            f"mu={mu} has {squares} diagram squares; at most {MAX_SQUARES} are supported"
        )
    count = count_configs(mu)
    if count > MAX_CONFIGURATIONS:
        size = count if count < 10**12 else f"at least 2^{count.bit_length() - 1}"
        raise UsageError(
            f"mu={mu} has {size} configurations; at most {MAX_CONFIGURATIONS} are supported"
        )
    return mu


def _parse_int(text: str) -> int:
    try:
        return parse_int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_rho(text: str, n: int) -> tuple[int, ...]:
    try:
        # a permutation is a composition: one parser for both flags
        rho = Composition.parse(text).parts
    except ValueError as exc:
        raise UsageError(f"malformed permutation string {text!r}") from exc
    if sorted(rho) != list(range(1, n + 1)):
        raise UsageError(f"{rho} is not a permutation of 1..{n}")
    return rho


def _compute(args) -> int:
    mu = args.mu
    rho = _parse_rho(args.rho, mu.n) if args.rho else None
    if rho is not None and args.method != "matrix":
        # the fillings route has no permuted basement to compare against
        raise UsageError("--rho requires --method matrix")
    header = {"mu": list(mu.parts), "method": args.method}
    if rho is not None:
        header["rho"] = list(rho)
    if args.convention == "E":
        header["convention"] = "E"
        # E_mu(x_1..x_n) = f_{reverse(mu)}(x_n..x_1): reverse the input
        # composition, compute, then reverse the output alphabet
        mu = mu.reverse()

    def finish(poly: XPolynomial) -> XPolynomial:
        return reverse_alphabet(poly) if args.convention == "E" else poly

    if args.method == "both":
        via_hhl = finish(f_hhl(mu))
        via_matrix = finish(f_matrix_product(mu))
        _emit(via_matrix, args.output, header)
        if via_hhl == via_matrix:
            print("routes agree", file=sys.stderr)
            return 0
        print("ROUTE MISMATCH between hhl and matrix evaluations", file=sys.stderr)
        return 1
    poly = finish(f_hhl(mu) if args.method == "hhl" else f_matrix_product(mu, rho))
    _emit(poly, args.output, header)
    return 0


def _emit(poly: XPolynomial, output: str, header: dict) -> None:
    """Print poly as ``output``: the JSON form is ``header`` plus "poly",
    the terms form one ``x^[exponents]  coefficient`` line per term."""
    if output == "json":
        print(json.dumps({**header, "poly": poly.to_json()}))
    elif output == "latex":
        print(poly.to_latex())
    elif output == "terms":
        for exps, coeff in poly.sorted_terms():
            print(f"x^{list(exps)}  {coeff}")
    else:
        print(poly)


def _verify(args) -> int:
    name = args.check
    flags, default_sizes, work_limit = CHECKS[name]
    for flag in ("mu", *INT_FLAGS):
        if getattr(args, flag) is not None and flag not in flags:
            raise UsageError(f"--{flag} is not used by verify {name}")
    for flag, default in INT_FLAGS.items():
        if getattr(args, flag) is None:
            setattr(args, flag, default)
    mu = args.mu
    lowest = {"i": 1, "n": 2 if name == "hecke" else 1, "cap": 0, "samples": 1}
    for flag, low in lowest.items():
        value = getattr(args, flag)
        if value is not None and value < low:
            raise UsageError(f"--{flag} must be at least {low} for {name}, got {value}")
    sizes = default_sizes if args.n is None else [args.n]
    if work_limit:
        limit, unit = work_limit
        if _work(name, sizes, args, mu) > limit:
            raise UsageError(f"verify {name} with these flags needs more than {limit} {unit}")
    targets = [mu] if mu else default_family()
    total = CheckReport(name)
    if name == "eigen":
        for m in targets:
            total.merge(verify_eigen(f_hhl(m), m))
    elif name == "ybe":
        for n in sizes:
            total.merge(ybe_check(n, occupation_cap=args.cap, seed=args.seed))
        total.merge(ybe_check_symbolic(1, args.cap))
    elif name == "exchange":
        for n in sizes:
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    total.merge(exchange_check(i, j, n, N=1, cap=1))
    elif name == "cyclic":
        if args.i is not None:
            # colour K is checked on every target that has it
            targets = [m for m in targets if args.i <= m.n]
            if not targets:
                where = f"mu={mu} (1..{mu.n})" if mu else "any default-family composition"
                raise UsageError(f"--i {args.i} is not a colour of {where}")
        for m in targets:
            rows = range(1, m.n + 1) if args.i is None else [args.i]
            for i in rows:
                total.merge(cyclic_check(m, i))
    elif name == "frozen":
        for m in targets:
            from_config, from_omega = frozen_coefficient(m)
            total.count()
            if from_config != from_omega:
                total.fail(f"frozen coefficient mismatch for mu={m}")
    elif name == "bijection":
        for m in targets:
            configs = list(enumerate_configs(m))
            fillings = list(enumerate_fillings(m))
            total.count()
            if len(configs) != len(fillings):
                total.fail(f"|Xi({m})| = {len(configs)} != |S({m})| = {len(fillings)}")
            for xi in configs:
                total.count()
                if bijection_M_inverse(bijection_M(xi, m)) != xi:
                    total.fail(f"bijection round trip fails on {xi.columns}")
            total.merge(weight_match_check(m))
    elif name == "hecke":
        if mu and mu.n not in sizes:
            # M's exchange checks run at M's own size only
            raise UsageError(
                f"--mu {mu} has n = {mu.n}; hecke runs n = {', '.join(map(str, sizes))}"
            )
        for n in sizes:
            total.merge(verify_hecke_relations(n, samples=args.samples, seed=args.seed))
        for n in sizes:
            mus = [mu] if mu else list(compositions_with(n, 2))
            for m in mus:
                if m.n != n:
                    continue
                for rho in itertools.permutations(range(1, n + 1)):
                    for i in range(1, n):
                        if rho[i - 1] < rho[i]:
                            total.merge(verify_exchange_basement(m, i, list(rho)))
    print(total.render(), file=sys.stderr)
    return 0 if total.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nsmacdonald",
        description="Exact nonsymmetric Macdonald polynomials, three ways.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="compute f_mu (or E_mu, or f^rho_mu)")
    compute.add_argument("--mu", type=_parse_mu, required=True, help="composition, e.g. 0,4,1")
    compute.add_argument("--rho", help="basement permutation, e.g. 3,1,2")
    compute.add_argument("--method", choices=("hhl", "matrix", "both"), default="both")
    compute.add_argument("--convention", choices=("f", "E"), default="f")
    compute.add_argument("--output", choices=("text", "json", "latex", "terms"), default="text")
    compute.set_defaults(func=_compute)

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("check", choices=CHECKS)
    verify.add_argument(
        "--mu", type=_parse_mu, help="one composition for eigen/cyclic/frozen/bijection/hecke"
    )
    verify.add_argument("--i", type=_parse_int, help="restrict cyclic check to one colour")
    verify.add_argument("--n", type=_parse_int, help="alphabet size for ybe/exchange/hecke")
    verify.add_argument("--cap", type=_parse_int, help="occupation cap for ybe (default 2)")
    verify.add_argument("--samples", type=_parse_int, help="random samples for hecke (default 5)")
    verify.add_argument("--seed", type=_parse_int, help="random seed for ybe/hecke (default 0)")
    verify.set_defaults(func=_verify)

    return parser


def _attach_values(argv: Sequence[str]) -> list[str]:
    """argv with a value flag's value attached as ``--flag=value`` when it
    begins with "-" but not with "--".  argparse reads a value such as
    -1,2 (not a plain negative number) as an unknown option and reports
    the flag's value missing, not what is wrong with it; a "--" word after
    a flag stays an option, so a missing value is still reported."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in VALUE_FLAGS and arg.startswith("-") and not arg.startswith("--"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(_attach_values(sys.argv[1:] if argv is None else argv))
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
