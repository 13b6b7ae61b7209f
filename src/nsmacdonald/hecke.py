"""The polynomial representation of the affine Hecke algebra.

Generators act on polynomials via the divided difference
delta_i(p) = (p - s_i p)/(x_i - x_{i+1}):

  T_i p       = t p - (x_i - t x_{i+1}) delta_i(p)
  T_i^{-1} p  = t^{-1} p - (t^{-1} x_i - x_{i+1}) delta_i(p)
  omega p     = p(x_2,..,x_n, q x_1)

and the Cherednik-Dunkl operators are the words

  Y_i = T_{i-1} .. T_1 . omega . T_{n-1}^{-1} .. T_i^{-1},

composed right to left (T_i^{-1} acts first).  Their joint eigenfunctions
are the nonsymmetric Macdonald polynomials; the eigenvalue of Y_i on the
eigenfunction labelled by mu is eigenvalue_y(mu, i).

Each operator is written once, on the cleared form (module ``cleared``):
D^{-1} sum_e L_e x^e, with one common denominator D and numerators L_e,
Laurent polynomials in (q, t) with integer coefficients, each packed into
one Python int.  The operators are Q(q,t)-linear and their coefficients
are the monomials 1, q, t^{+-1}, so on that form they permute exponent
keys, shift the packed numerators by whole slots and rows, and add them
as integers: the denominator D rides along untouched, and no QTRational
is built, no gcd taken and no QTPolynomial multiplied.  Before each
step the operator checks in O(1) that its result fits the layout
(``ClearedPolynomial.with_room``); if not, the numerators are laid out
afresh, never truncated.  On an XPolynomial, ``apply_T``, ``apply_Y``,
``cyclic_omega`` and ``divided_difference_div`` clear the denominators
once, act, and bring each coefficient back to canonical form in Q(q,t)
once (``xpoly.on_cleared``).

``verify_eigen`` clears f once, over the lcm D of its denominators, and
forms Y_i(D f) - y_i (D f) over D and one layout: a dict of packed
integer numerators, empty exactly when Y_i f = y_i f.  That is exact
equality in Q(q,t): over a fixed D every coefficient has exactly one
numerator (Y_i is linear, D != 0), and under one layout every numerator
one integer.
"""

from __future__ import annotations

import random

from .cleared import ClearedPolynomial
from .compositions import Composition, eigenvalue_y
from .qt import QTRational
from .reports import CheckReport
from .xpoly import XPolynomial, clear, cyclic_omega, divided_difference_div, on_cleared

__all__ = [
    "apply_T",
    "apply_Y",
    "verify_hecke_relations",
    "verify_eigen",
    "random_polynomial",
]


@on_cleared
def apply_T(p: ClearedPolynomial, i: int, inverse: bool = False) -> ClearedPolynomial:
    """Act with the Hecke generator T_i (or T_i^{-1}) on p, an XPolynomial
    or a ClearedPolynomial."""
    n = p.nvars
    if not 1 <= i <= n - 1:
        raise IndexError(f"generator index {i} out of range 1..{n - 1}")
    # T_i p = t p + c and T_i^{-1} p = t^{-1} (p + c), c = -x_i delta + t x_{i+1} delta:
    # at most 1 + 2 degree times p's bound, and one more factor t
    p = p.with_room(1 + 2 * p.degree, 1)
    step = p.layout.width  # a factor t: one slot up
    out = dict(p.terms) if inverse else {e: num << step for e, num in p.terms.items()}
    for exps, num in divided_difference_div(p, i).terms.items():
        key = exps[:i - 1] + (exps[i - 1] + 1,) + exps[i:]
        out[key] = out.get(key, 0) - num
        key = exps[:i] + (exps[i] + 1,) + exps[i + 1:]
        out[key] = out.get(key, 0) + (num << step)
    terms = {e: c for e, c in out.items() if c}
    result = p.derived(terms, p.bound * (1 + 2 * p.degree), p.tspan + 1, p.degree)
    return result.shift(0, -1) if inverse else result


@on_cleared
def apply_Y(p: ClearedPolynomial, i: int) -> ClearedPolynomial:
    """Act with the Cherednik-Dunkl operator Y_i on p, an XPolynomial or a
    ClearedPolynomial; the generators act on the cleared form throughout."""
    n = p.nvars
    if not 1 <= i <= n:
        raise IndexError(f"operator index {i} out of range 1..{n}")
    out = p
    for k in range(i, n):
        out = apply_T(out, k, inverse=True)
    out = cyclic_omega(out)
    for k in range(1, i):
        out = apply_T(out, k)
    return out


# -- randomized relation suites ------------------------------------------------


def random_polynomial(nvars: int, rng: random.Random) -> XPolynomial:
    """A random sparse polynomial (at most four terms, degree at most 2 in
    each variable) with small monomial q,t coefficients."""
    terms = {}
    for _ in range(4):
        exps = tuple(rng.randint(0, 2) for _ in range(nvars))
        coeff = QTRational.monomial(
            rng.randint(0, 2), rng.randint(0, 2), rng.randint(-4, 4)
        )
        if not coeff.is_zero():
            terms[exps] = coeff
    poly = XPolynomial(nvars, terms)
    if poly.is_zero():
        return XPolynomial.one(nvars)
    return poly


def verify_hecke_relations(n: int, samples: int = 5, seed: int = 0) -> CheckReport:
    """Certify the defining relations on random polynomials, exactly.

    Checks, for each sampled p with coefficients kept symbolic in Q(q,t):
    the quadratic relation (T_i - t)(T_i + 1) p = 0, the braid relation,
    commutation of distant generators, and [Y_i, Y_j] p = 0.  Violations
    are recorded with the witness polynomial.
    """
    if n < 2:
        raise ValueError("need at least two variables")
    report = CheckReport(f"hecke-relations n={n}")
    rng = random.Random(seed)
    t = QTRational.t()
    for _ in range(samples):
        p = random_polynomial(n, rng)
        for i in range(1, n):
            tp = apply_T(p, i)
            quad = apply_T(tp, i) + tp - tp.scale(t) - p.scale(t)
            report.count()
            if not quad.is_zero():
                report.fail(f"(T_{i}-t)(T_{i}+1) != 0 on witness {p}")
            report.count()
            if apply_T(apply_T(p, i), i, inverse=True) != p:
                report.fail(f"T_{i}^-1 T_{i} != id on witness {p}")
        for i in range(1, n - 1):
            lhs = apply_T(apply_T(apply_T(p, i), i + 1), i)
            rhs = apply_T(apply_T(apply_T(p, i + 1), i), i + 1)
            report.count()
            if lhs != rhs:
                report.fail(f"braid relation fails at i={i} on witness {p}")
        for i in range(1, n):
            for j in range(i + 2, n):
                report.count()
                if apply_T(apply_T(p, j), i) != apply_T(apply_T(p, i), j):
                    report.fail(f"[T_{i},T_{j}] != 0 on witness {p}")
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                report.count()
                if apply_Y(apply_Y(p, j), i) != apply_Y(apply_Y(p, i), j):
                    report.fail(f"[Y_{i},Y_{j}] != 0 on witness {p}")
    return report


def verify_eigen(f: XPolynomial, mu: Composition) -> CheckReport:
    """Check Y_i f = y_i(mu) f exactly for every i, on cleared denominators.

    With D the lcm of f's coefficient denominators (``clear``: one
    ``qt_lcm`` and one pass over the coefficients), the check is
    Y_i(D f) = y_i (D f), compared as their difference, a dict of packed
    integer numerators under one layout; the eigenvalue y_i is a
    monomial, a move of the layout's offsets.  A failure reports the
    first differing coefficient of Y_i f - y_i f in graded lex order, the
    only coefficient brought back to Q(q,t).  The zero polynomial, which
    every Y_i fixes but which is no eigenfunction, fails one check.
    """
    if f.nvars != mu.n:
        raise ValueError(f"alphabet size {f.nvars} does not match {mu}")
    report = CheckReport(f"eigen mu={mu}")
    if f.is_zero():
        report.count()
        report.fail("f is the zero polynomial, which is no eigenfunction")
        return report
    cleared = clear(f)
    for i in range(1, mu.n + 1):
        diff = apply_Y(cleared, i) - cleared.shift(*_exponents(eigenvalue_y(mu, i)))
        report.count()
        if diff.terms:
            exps, coeff = diff.leading_term()
            report.fail(
                f"Y_{i} f != y_{i} f; first differing coefficient at x^{exps}: {coeff}"
            )
    return report


def _exponents(monomial: QTRational) -> tuple[int, int]:
    """(a, b) of the monomial q^a t^b."""
    [(nq, nt)] = monomial.num.terms
    [(dq, dt)] = monomial.den.terms
    return nq - dq, nt - dt
