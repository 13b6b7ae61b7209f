"""Cyclotomic labels: the canonical form of products of binomials 1 - q^a t^b.

A product q^c t^d prod (1 - q^a t^b)^m, the shape of every lattice and
HHL weight and of Omega_mu, is written (c, d, {(a, b): m}) (``Factors``,
exponents of either sign, m < 0 in the denominator), a format owned here:
``cyclotomic_form`` writes a product of such factors in its canonical
form, ``form_product`` is the one product of forms, and
``CyclotomicForm.value`` is the one way from a form to Q(q,t).

A label (a, b) != (0, 0), normalised to a > 0, or a = 0 and b > 0 (by
1 - m = -m (1 - m^-1)), is g times a primitive direction d = (d1, d2),
g = gcd(a, b), and with u = q^d1 t^d2

  1 - q^a t^b = 1 - u^g = -prod over e | g of Phi_e(u),

the Phi_e the cyclotomic polynomials.  The cyclotomic label (e, d1, d2)
stands for the Laurent polynomial Phi_e(u): monic in u, with integer
coefficients and a nonzero constant term, and its lex-leading term
(q-degree major) is the coefficient 1 at u^phi(e), as d1 > 0 unless
d = (0, 1).

The Phi_e(u) are irreducible and pairwise non-associate in
Q[q^±1, t^±1].  A primitive d extends to a basis of Z^2, so a monomial
change of variables, an automorphism of Q[q^±1, t^±1], turns u into a
variable: each Phi_e(u) is irreducible and no unit.  Its Newton polygon
is a segment along d, and the units c q^k t^l only translate polygons,
so Phi_e(u) and Phi_e'(u') are associate only if d = ±d' and then, as
both are normalised, d = d' and e = e'.

So a product of binomials is a sign, a monomial and a map of cyclotomic
labels to nonzero integer counts (``cyclotomic_form``), and by unique
factorisation two such forms are equal exactly when their values in
Q(q,t) are: no value need be built to compare products.  Common factors
cancel by adding counts, the lcm of such denominators takes the largest
count of each label, and a polynomial over such a denominator is reduced
by exact division by its labels, no gcd being needed.

Sums over such denominators are added and reduced on packed integers,
in module ``cleared`` (``cyclotomic_quotients``).  The results, Laurent
polynomials over coprime products of labels, become canonical Q(q,t)
values with no gcd (``_over_coprime``), as in ``CyclotomicForm.value``.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from typing import Iterable, Mapping, NamedTuple

from .qt import QTPolynomial, QTRational, _normalise, _poly_raw

__all__ = [
    "CyclotomicForm",
    "cyclotomic_coefficients",
    "cyclotomic_form",
    "cyclotomic_product",
    "form_product",
    "split_laurent",
]

# q^qexp t^texp prod (1 - q^a t^b)^m, written (qexp, texp, {(a, b): m})
Factors = tuple[int, int, Mapping[tuple[int, int], int]]

# (e, d1, d2): the cyclotomic polynomial Phi_e at u = q^d1 t^d2, d primitive
# and normalised (d1 > 0, or d1 = 0 and d2 = 1)
CyclotomicLabel = tuple[int, int, int]
# A Laurent polynomial in (q, t) with integer coefficients:
# (qexp, texp) -> nonzero int, exponents of either sign.
Laurent = dict


def _divide_monic(coeffs: list, divisor: tuple[int, ...]) -> list | None:
    """The exact quotient of a univariate polynomial (coefficients lowest
    first) by a monic one, or None when the division leaves a remainder."""
    deg = len(divisor) - 1
    top = len(coeffs) - 1 - deg
    if top < 0:
        return None
    rem = list(coeffs)
    quot = [0] * (top + 1)
    for k in range(top, -1, -1):
        c = rem[k + deg]
        if c:
            quot[k] = c
            for i, dc in enumerate(divisor):
                if dc:
                    rem[k + i] -= c * dc
    return None if any(rem[:deg]) else quot


@lru_cache(maxsize=None)
def cyclotomic_coefficients(e: int) -> tuple[int, ...]:
    """The integer coefficients of the cyclotomic polynomial Phi_e, lowest
    degree first: x^e - 1 divided by Phi_k for every proper divisor k of e."""
    poly = [-1] + [0] * (e - 1) + [1]
    for k in range(1, e):
        if e % k == 0:
            poly = _divide_monic(poly, cyclotomic_coefficients(k))
    return tuple(poly)


@lru_cache(maxsize=1 << 12)
def _binomial_labels(a: int, b: int) -> tuple[int, int, int, tuple[CyclotomicLabel, ...]]:
    # 1 - q^a t^b = s q^i t^j prod Phi_e(u) over the labels, as (s, i, j,
    # labels); normalising the label by 1 - m = -m (1 - m^-1) turns the
    # sign of -prod Phi_e(u)
    if a == b == 0:
        raise ValueError("the binomial 1 - q^0 t^0 is zero")
    if a < 0 or (a == 0 and b < 0):
        sign, qexp, texp, a, b = 1, a, b, -a, -b
    else:
        sign, qexp, texp = -1, 0, 0
    g = gcd(a, b)
    return sign, qexp, texp, tuple((e, a // g, b // g) for e in range(1, g + 1) if g % e == 0)


class CyclotomicForm(NamedTuple):
    """sign * q^qexp t^texp prod Phi^n over the pairs (label, n) of
    ``counts``, n < 0 in the denominator: the canonical form of a product
    of binomials, built by ``cyclotomic_form``.  With no zero count, two
    forms (hashable) are equal exactly when their values in Q(q,t) are."""

    sign: int
    qexp: int
    texp: int
    counts: frozenset[tuple[CyclotomicLabel, int]]

    def value(self) -> QTRational:
        """The product as a canonical Q(q,t) value: numerator and
        denominator share no label, so they are coprime and are
        multiplied out as they are."""
        top = cyclotomic_product((label, n) for label, n in self.counts if n > 0)
        return _over_coprime(
            {(qe + self.qexp, te + self.texp): self.sign * c for (qe, te), c in top.items()},
            split_laurent(cyclotomic_product((label, -n) for label, n in self.counts if n < 0)),
        )


def cyclotomic_form(*factors: Factors) -> CyclotomicForm:
    """The canonical form of the product of ``factors`` in exponent form:
    exponents and binomial multiplicities add over the factors, each
    binomial splits into its labels, and shared factors cancel in the
    counts.  A label (0, 0) is refused, whatever its multiplicity."""
    sign = 1
    qexp = texp = 0
    counts: dict[CyclotomicLabel, int] = {}
    for fq, ft, binomials in factors:
        qexp += fq
        texp += ft
        for (a, b), m in binomials.items():
            s, i, j, labels = _binomial_labels(a, b)
            if m:
                if s < 0 and m & 1:
                    sign = -sign
                qexp += i * m
                texp += j * m
                for label in labels:
                    counts[label] = counts.get(label, 0) + m
    nonzero = frozenset((label, n) for label, n in counts.items() if n)
    return CyclotomicForm(sign, qexp, texp, nonzero)


def form_product(forms: Iterable[CyclotomicForm]) -> CyclotomicForm:
    """The product of cyclotomic ``forms``: signs multiply, exponents and
    label counts add, and counts that cancel to zero are dropped."""
    sign, qexp, texp, counts = 1, 0, 0, {}
    for s, qe, te, labels in forms:
        sign, qexp, texp = sign * s, qexp + qe, texp + te
        for label, m in labels:
            counts[label] = counts.get(label, 0) + m
    return CyclotomicForm(sign, qexp, texp, frozenset(item for item in counts.items() if item[1]))


def cyclotomic_product(counts: Iterable[tuple[CyclotomicLabel, int]]) -> Laurent:
    """prod Phi^n over the items (label, n), n >= 0, as a Laurent
    polynomial with integer coefficients."""
    out = {(0, 0): 1}
    for (e, d1, d2), n in counts:
        phi = [(k * d1, k * d2, c) for k, c in enumerate(cyclotomic_coefficients(e)) if c]
        for _ in range(n):
            step: Laurent = {}
            for dq, dt, c in phi:
                for (qe, te), coeff in out.items():
                    key = (qe + dq, te + dt)
                    if new := step.get(key, 0) + c * coeff:
                        step[key] = new
                    else:
                        del step[key]
            out = step
    return out


# ---------------------------------------------------------------------------
# Canonical Q(q,t) values over products of labels.
# ---------------------------------------------------------------------------


def _shifted(terms: Laurent, dq: int, dt: int) -> QTPolynomial:
    # q^dq t^dt times the Laurent polynomial terms, its exponents then >= 0
    return _poly_raw({(qe + dq, te + dt): c for (qe, te), c in terms.items()})


def _lowest(terms: Laurent) -> tuple[int, int]:
    # the lowest q and the lowest t exponent of a nonzero Laurent polynomial
    qs, ts = zip(*terms)
    return min(qs), min(ts)


def split_laurent(terms: Laurent) -> tuple[QTPolynomial, int, int]:
    """The nonzero Laurent polynomial ``terms`` as (poly, dq, dt), terms =
    q^dq t^dt poly with poly a polynomial divisible by neither q nor t."""
    dq, dt = _lowest(terms)
    return _shifted(terms, -dq, -dt), dq, dt


def _over_coprime(num: Laurent, den: tuple[QTPolynomial, int, int]) -> QTRational:
    # num / q^dq t^dt dpoly, den = (dpoly, dq, dt) from split_laurent, num
    # a nonzero Laurent polynomial sharing no factor with dpoly: no gcd and
    # no product, only monomials moved (dpoly is a product of labels,
    # primitive and of lex-leading coefficient 1, see the module docstring)
    dpoly, dq, dt = den
    nq, nt = _lowest(num)
    qexp, texp = nq - dq, nt - dt
    if qexp < 0 or texp < 0:
        dpoly = _shifted(dpoly.terms, max(-qexp, 0), max(-texp, 0))
    return _normalise(_shifted(num, max(qexp, 0) - nq, max(texp, 0) - nt), dpoly)
