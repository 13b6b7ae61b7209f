"""The polynomial representation of the affine Hecke algebra.

Generators act on XPolynomial via the divided difference
delta_i(p) = (p - s_i p)/(x_i - x_{i+1}):

  T_i p       = t p - (x_i - t x_{i+1}) delta_i(p)
  T_i^{-1} p  = t^{-1} (p - (x_i - t x_{i+1}) delta_i(p))
  omega p     = p(x_2,..,x_n, q x_1)

and the Cherednik-Dunkl operators are the words

  Y_i = T_{i-1} .. T_1 . omega . T_{n-1}^{-1} .. T_i^{-1},

composed right to left (T_i^{-1} acts first).  Their joint eigenfunctions
are the nonsymmetric Macdonald polynomials; the eigenvalue of Y_i on the
eigenfunction labelled by mu is eigenvalue_y(mu, i).

The operators act directly on polynomials rather than through matrices:
the spaces involved are small but their monomial bases vary, and the
direct action avoids any basis bookkeeping.

``verify_eigen`` checks on cleared denominators: it multiplies f by the
lcm D of its coefficient denominators and checks Y_i(D f) = y_i (D f),
which is the same identity (Y_i is Q(q,t)-linear, D != 0) but leaves
only monomial denominators in the arithmetic, so no bivariate gcd runs.

Tilde variants (the reversed-alphabet conventions) are included so the
reversal identity Y_{n-i+1} = rev . Ytilde_i . rev can be verified, where
rev evaluates a polynomial on the reversed alphabet.  T_i and the tilde
generator T~_i share one function, ``_hecke``: the generator
t p - (a x_i - b x_{i+1}) delta_i(p) with (a, b) = (1, t), (t, 1).
"""

from __future__ import annotations

import random

from .compositions import Composition, eigenvalue_y
from .qt import QTRational, qt_lcm
from .reports import CheckReport
from .xpoly import (
    XPolynomial,
    compose_vars,
    cyclic_omega,
    divided_difference_div,
    reverse_alphabet,
)

__all__ = [
    "apply_T",
    "apply_Y",
    "apply_T_tilde",
    "apply_Y_tilde",
    "verify_hecke_relations",
    "verify_eigen",
    "random_polynomial",
]


def _hecke(
    p: XPolynomial, i: int, a: QTRational, b: QTRational, inverse: bool
) -> XPolynomial:
    """The generator t p - (a x_i - b x_{i+1}) delta_i(p), or its inverse
    t^{-1} (p - (a x_i - b x_{i+1}) delta_i(p)); T_i has (a, b) = (1, t)
    and T~_i has (a, b) = (t, 1)."""
    n = p.nvars
    if not 1 <= i <= n - 1:
        raise IndexError(f"generator index {i} out of range 1..{n - 1}")
    factor = XPolynomial.variable(n, i).scale(a) - XPolynomial.variable(n, i + 1).scale(b)
    core = factor * divided_difference_div(p, i)
    t = QTRational.t()
    if inverse:
        return (p - core).scale(t.inverse())
    return p.scale(t) - core


def apply_T(p: XPolynomial, i: int, inverse: bool = False) -> XPolynomial:
    """Act with the Hecke generator T_i (or T_i^{-1}) on p."""
    return _hecke(p, i, QTRational.one(), QTRational.t(), inverse)


def apply_Y(p: XPolynomial, i: int) -> XPolynomial:
    """Act with the Cherednik-Dunkl operator Y_i on p."""
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


# -- reversed-alphabet (tilde) conventions -----------------------------------


def apply_T_tilde(p: XPolynomial, i: int, inverse: bool = False) -> XPolynomial:
    """The tilde Hecke generator: t p - (t x_i - x_{i+1}) delta_i(p)."""
    return _hecke(p, i, QTRational.t(), QTRational.one(), inverse)


def omega_tilde(p: XPolynomial) -> XPolynomial:
    """(omega~ h)(x_1,..,x_n) = h(q x_n, x_1,..,x_{n-1})."""
    n = p.nvars
    one = QTRational.one()
    images = [(n, QTRational.q())] + [(k, one) for k in range(1, n)]
    return compose_vars(p, images)


def apply_Y_tilde(p: XPolynomial, i: int) -> XPolynomial:
    """Y~_i = T~_i .. T~_{n-1} . omega~ . T~_1^{-1} .. T~_{i-1}^{-1}."""
    n = p.nvars
    if not 1 <= i <= n:
        raise IndexError(f"operator index {i} out of range 1..{n}")
    out = p
    for k in range(i - 1, 0, -1):
        out = apply_T_tilde(out, k, inverse=True)
    out = omega_tilde(out)
    for k in range(n - 1, i - 1, -1):
        out = apply_T_tilde(out, k)
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

    With D the lcm of f's coefficient denominators (``qt_lcm``), the check
    is Y_i(D f) = y_i (D f).  That is the same identity, because Y_i is
    Q(q,t)-linear and D != 0, but D f has polynomial coefficients, and
    the operators only add monomial denominators to them (t^{-1} from
    T_i^{-1}, the eigenvalue monomial), whose gcds take no polynomial
    remainder sequence.  A failure reports the first differing
    coefficient of Y_i f - y_i f in graded lex order: that of the cleared
    difference, divided by D.  The zero polynomial, which every Y_i fixes
    but which is no eigenfunction, fails one check.
    """
    if f.nvars != mu.n:
        raise ValueError(f"alphabet size {f.nvars} does not match {mu}")
    report = CheckReport(f"eigen mu={mu}")
    if f.is_zero():
        report.count()
        report.fail("f is the zero polynomial, which is no eigenfunction")
        return report
    dens = dict.fromkeys(c.den for c in f.terms.values())
    common = qt_lcm(dens)
    cofactors = {den: common.div_exact(den) for den in dens}
    cleared = XPolynomial(
        f.nvars,
        {exps: QTRational(c.num * cofactors[c.den]) for exps, c in f.terms.items()},
    )
    for i in range(1, mu.n + 1):
        diff = apply_Y(cleared, i) - cleared.scale(eigenvalue_y(mu, i))
        report.count()
        if not diff.is_zero():
            exps, coeff = diff.leading_term()
            report.fail(
                f"Y_{i} f != y_{i} f; first differing coefficient at "
                f"x^{exps}: {coeff / QTRational(common)}"
            )
    return report


def reversal_identity_holds(p: XPolynomial, i: int) -> bool:
    """Whether Y_{n-i+1} p equals the tilde action through the reversed
    alphabet, rev(Y~_i(rev p))."""
    n = p.nvars
    lhs = apply_Y(p, n - i + 1)
    rhs = reverse_alphabet(apply_Y_tilde(reverse_alphabet(p), i))
    return lhs == rhs
