"""Sparse polynomials in x_1..x_n over the field Q(q,t).

A polynomial is a dict mapping dense exponent vectors (one entry per
variable) to nonzero QTRational coefficients.  The alphabet size ``nvars``
is fixed per polynomial; mixing alphabets raises AlphabetMismatch.

The cleared form (module ``cleared``) keeps the same polynomial as
numerators over one common denominator D, each a Laurent polynomial in
(q, t) with integer coefficients packed into one Python int, so that
adding numerators is one integer addition and a monomial factor
q^a t^b a bit shift, with no gcd.  ``clear`` brings a polynomial to
that form in one pass over its coefficients: one lcm D in Z[q,t] of
their denominators (one gcd per distinct denominator), each numerator
times D over its own denominator, and one packing per numerator.
``on_cleared`` brings the result of an operator back, each coefficient
decoded and put in canonical form once, with one gcd.  The eigencheck
clears that way.

``binomial_sum`` adds summands that are not yet polynomials: an x
monomial times a product of binomials 1 - q^a t^b in its cyclotomic
form (``cyclotomic.CyclotomicForm``), in which the common denominator is
an integer maximum, and ``cleared.cyclotomic_quotients`` adds the
numerators and reduces them by exact division as packed integers, so it
takes no gcd and builds no Q(q,t) value per summand.  Both summation
routes (fillings.f_hhl and matrixprod.f_matrix_product) add their
summands with it; each computes its summands' forms with its own weight
kernel, and the sum knows nothing of either formula.

The variable manipulations the affine Hecke operators need act on the
packed numerators of the cleared form, each updating the envelope the
form's exactness rests on (see ``cleared``); ``on_cleared`` extends each
to XPolynomial (clear once, act, bring back once):

  cyclic_omega       the cyclic shift h(x_1,..,x_n) -> h(x_2,..,x_n, q x_1)
  divided_difference_div
                     the exact quotient (p - s_i p)/(x_i - x_{i+1})

``compose_vars`` substitutes each variable of an XPolynomial by a scalar
multiple of a (possibly different) variable, as alphabet reversal does.

XPolynomial values are immutable; operations are pure functions.
"""

from __future__ import annotations

from functools import wraps
from typing import Callable, Iterable, Mapping, Sequence

from .cleared import ClearedPolynomial, cyclotomic_quotients
from .cyclotomic import CyclotomicForm, CyclotomicLabel, Laurent
from .qt import QTRational, join_signed, qt_lcm

__all__ = [
    "XPolynomial",
    "AlphabetMismatch",
    "clear",
    "binomial_sum",
    "on_cleared",
    "cyclic_omega",
    "compose_vars",
    "divided_difference_div",
]


class AlphabetMismatch(ValueError):
    """Operation on polynomials over different alphabets x_1..x_n."""


def _grlex_key(exps: tuple[int, ...]) -> tuple:
    return (sum(exps), exps)


class XPolynomial:
    """Polynomial in x_1..x_n with QTRational coefficients."""

    __slots__ = ("nvars", "terms", "_hash")

    def __init__(
        self,
        nvars: int,
        terms: Mapping[tuple[int, ...], QTRational] | None = None,
    ):
        if nvars < 1:
            raise ValueError("alphabet must contain at least one variable")
        clean: dict[tuple[int, ...], QTRational] = {}
        if terms:
            for exps, coeff in terms.items():
                if len(exps) != nvars:
                    raise AlphabetMismatch(
                        f"exponent vector {exps} has length {len(exps)}, expected {nvars}"
                    )
                if any(e < 0 for e in exps):
                    raise ValueError(f"negative exponent in {exps}")
                if not coeff.is_zero():
                    clean[tuple(exps)] = coeff
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("XPolynomial is immutable")

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "XPolynomial":
        return _raw(nvars, {})

    @staticmethod
    def one(nvars: int) -> "XPolynomial":
        return _raw(nvars, {(0,) * nvars: QTRational.one()})

    @staticmethod
    def constant(nvars: int, coeff: QTRational) -> "XPolynomial":
        if coeff.is_zero():
            return _raw(nvars, {})
        return _raw(nvars, {(0,) * nvars: coeff})

    @staticmethod
    def variable(nvars: int, i: int) -> "XPolynomial":
        """The single variable x_i (i is 1-based)."""
        if not 1 <= i <= nvars:
            raise IndexError(f"variable index {i} out of range 1..{nvars}")
        exps = [0] * nvars
        exps[i - 1] = 1
        return _raw(nvars, {tuple(exps): QTRational.one()})

    @staticmethod
    def monomial(
        nvars: int, exps: Sequence[int], coeff: QTRational | None = None
    ) -> "XPolynomial":
        coeff = QTRational.one() if coeff is None else coeff
        return XPolynomial(nvars, {tuple(exps): coeff})

    # -- queries -----------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exps: Sequence[int]) -> QTRational:
        key = tuple(exps)
        if len(key) != self.nvars:
            raise AlphabetMismatch(
                f"exponent vector has length {len(key)}, expected {self.nvars}"
            )
        return self.terms.get(key, QTRational.zero())

    def leading_term(self) -> tuple[tuple[int, ...], QTRational]:
        """Greatest term under graded lex on exponent vectors."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        key = max(self.terms, key=_grlex_key)
        return key, self.terms[key]

    # -- ring arithmetic -------------------------------------------------------------

    def _check(self, other: "XPolynomial") -> None:
        if self.nvars != other.nvars:
            raise AlphabetMismatch(
                f"alphabet sizes differ: {self.nvars} vs {other.nvars}"
            )

    def __add__(self, other: "XPolynomial") -> "XPolynomial":
        self._check(other)
        if not self.terms:
            return other
        if not other.terms:
            return self
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            cur = out.get(exps)
            new = coeff if cur is None else cur + coeff
            if new.is_zero():
                out.pop(exps, None)
            else:
                out[exps] = new
        return _raw(self.nvars, out)

    def __sub__(self, other: "XPolynomial") -> "XPolynomial":
        return self + (-other)

    def __neg__(self) -> "XPolynomial":
        return _raw(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "XPolynomial") -> "XPolynomial":
        self._check(other)
        if not self.terms or not other.terms:
            return _raw(self.nvars, {})
        out: dict[tuple[int, ...], QTRational] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                key = tuple(x + y for x, y in zip(ea, eb))
                prod = ca * cb
                cur = out.get(key)
                new = prod if cur is None else cur + prod
                if new.is_zero():
                    out.pop(key, None)
                else:
                    out[key] = new
        return _raw(self.nvars, out)

    def scale(self, coeff: QTRational) -> "XPolynomial":
        if coeff.is_zero():
            return _raw(self.nvars, {})
        if coeff.is_one():
            return self
        return _raw(self.nvars, {e: c * coeff for e, c in self.terms.items()})

    def __pow__(self, exponent: int) -> "XPolynomial":
        if exponent < 0:
            raise ValueError("negative power of a polynomial")
        result = XPolynomial.one(self.nvars)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    # -- comparisons ---------------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, XPolynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = hash((self.nvars, frozenset(self.terms.items())))
            object.__setattr__(self, "_hash", cached)
        return cached

    # -- display and serialisation ------------------------------------------------------------

    def sorted_terms(self) -> list[tuple[tuple[int, ...], QTRational]]:
        """Terms ascending in graded lex order (deterministic output order)."""
        return [(e, self.terms[e]) for e in sorted(self.terms, key=_grlex_key)]

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for exps, coeff in self.sorted_terms():
            mono = "".join(
                f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}"
                for i, e in enumerate(exps)
                if e
            )
            if not mono:
                pieces.append(f"({coeff})")
            elif coeff.is_one():
                pieces.append(mono)
            else:
                pieces.append(f"({coeff})*{mono}")
        return " + ".join(pieces)

    __repr__ = __str__

    def to_json(self) -> dict:
        return {
            "nvars": self.nvars,
            "terms": [
                {"exps": list(exps), "coeff": coeff.to_json()}
                for exps, coeff in self.sorted_terms()
            ],
        }

    @staticmethod
    def from_json(data: Mapping) -> "XPolynomial":
        return XPolynomial(
            int(data["nvars"]),
            {
                tuple(int(e) for e in item["exps"]): QTRational.from_json(item["coeff"])
                for item in data["terms"]
            },
        )

    def to_latex(self) -> str:
        """Human-readable LaTeX, terms in ascending graded lex order."""
        pieces = []
        for exps, coeff in self.sorted_terms():
            mono = "".join(
                f"x_{{{i + 1}}}" if e == 1 else f"x_{{{i + 1}}}^{{{e}}}"
                for i, e in enumerate(exps)
                if e
            )
            body = _coeff_latex(coeff, bare=not mono)
            pieces.append((body + " " + mono).strip() if mono else body)
        return join_signed(pieces) or "0"


def _coeff_latex(coeff: QTRational, bare: bool) -> str:
    num, den = (poly.write("{}^{{{}}}", " ") for poly in (coeff.num, coeff.den))
    if coeff.den.is_one():
        if not bare:
            if num == "1":
                return ""
            if num == "-1":
                return "-"
            if len(coeff.num.terms) > 1:
                return f"\\left({num}\\right)"
        return num
    return f"\\frac{{{num}}}{{{den}}}"


def _raw(nvars: int, terms: dict[tuple[int, ...], QTRational]) -> XPolynomial:
    poly = XPolynomial.__new__(XPolynomial)
    object.__setattr__(poly, "nvars", nvars)
    object.__setattr__(poly, "terms", terms)
    object.__setattr__(poly, "_hash", None)
    return poly


# ---------------------------------------------------------------------------
# To and from the cleared form.
# ---------------------------------------------------------------------------


def clear(poly: XPolynomial) -> ClearedPolynomial:
    """``poly`` in cleared form, over the lcm D in Z[q,t] of its
    coefficients' denominators (``qt_lcm``, one gcd per distinct
    denominator).

    Each coefficient n/d becomes the integer numerator n (D / d), one
    exact division per distinct d, and the numerators are packed.
    """
    dens = dict.fromkeys(coeff.den for coeff in poly.terms.values())
    common = qt_lcm(dens)
    cofactors = {den: common.div_exact(den) for den in dens}
    totals = {e: (coeff.num * cofactors[coeff.den]).terms for e, coeff in poly.terms.items()}
    return ClearedPolynomial.packed(poly.nvars, common, [totals])[0]


# one summand of ``binomial_sum``: x^exps times the value of the form
Summand = tuple[tuple[int, ...], CyclotomicForm]


def binomial_sum(nvars: int, summands: Iterable[Summand]) -> XPolynomial:
    """The exact sum of x^exps times form over ``summands``, each a
    monomial in x with a coefficient in cyclotomic form, equal to adding
    them one by one as XPolynomials but with no gcd and no Q(q,t) value
    per summand.

    Each coefficient comes written in cyclotomic labels (a sign, a
    monomial and integer counts, in which shared factors have cancelled:
    ``cyclotomic_form``, or a sum of such forms' exponents and counts).
    The summands are grouped by their counts, and within a group their
    signed monomials are added per x-monomial.  The common denominator D
    takes each label's largest denominator count: the exact lcm, as the
    labels are pairwise coprime irreducibles.  Each group's cofactor is
    the product of its own numerator labels and of the labels D has
    beyond its denominator.
    ``cyclotomic_quotients`` adds each group times its cofactor into the
    numerators over D and reduces each over D by exact division by D's
    labels, on packed integers.  The result is the canonical
    XPolynomial, identical (==, hash, JSON) to the repeated sum.
    """
    groups: dict[frozenset, dict[tuple[int, ...], Laurent]] = {}
    for exps, (sign, qexp, texp, counts) in summands:
        if len(exps) != nvars:
            raise AlphabetMismatch(
                f"exponent vector {exps} has length {len(exps)}, expected {nvars}"
            )
        acc = groups.setdefault(counts, {}).setdefault(exps, {})
        key = (qexp, texp)
        new = acc.get(key, 0) + sign
        if new:
            acc[key] = new
        else:
            del acc[key]
    # groups whose summands all cancelled take no part in the denominator
    groups = {counts: by_exps for counts, by_exps in groups.items() if any(by_exps.values())}
    common: dict[CyclotomicLabel, int] = {}
    for counts in groups:
        for label, n in counts:
            common[label] = max(common.get(label, 0), -n)
    parts = []
    for counts, by_exps in groups.items():
        own = dict(counts)
        parts.append(([(label, n + own.get(label, 0)) for label, n in common.items()], by_exps))
    return _raw(nvars, cyclotomic_quotients(parts, common))


def on_cleared(kernel: Callable[..., ClearedPolynomial]) -> Callable:
    """The operator ``kernel`` on cleared polynomials, extended to
    XPolynomial: an XPolynomial argument is cleared once (``clear``),
    acted on, and brought back with one canonicalisation per coefficient
    (``ClearedPolynomial.coefficients``); a cleared argument is acted on
    as it is."""

    @wraps(kernel)
    def operator(poly, *args, **kwargs):
        if isinstance(poly, XPolynomial):
            out = kernel(clear(poly), *args, **kwargs)
            return _raw(out.nvars, out.coefficients())
        return kernel(poly, *args, **kwargs)

    return operator


# ---------------------------------------------------------------------------
# Variable manipulations.
# ---------------------------------------------------------------------------


def compose_vars(
    poly: XPolynomial, images: Sequence[tuple[int, QTRational]]
) -> XPolynomial:
    """Substitute variable k by scalar * x_target, for each k.

    ``images[k-1] = (target, scalar)`` sends every occurrence of x_k to
    scalar * x_target (target 1-based).  Distinct variables may share a
    target, so this covers non-injective substitutions as well.
    """
    n = poly.nvars
    if len(images) != n:
        raise AlphabetMismatch(f"expected {n} images, got {len(images)}")
    for target, _scalar in images:
        if not 1 <= target <= n:
            raise IndexError(f"substitution target {target} out of range 1..{n}")
    out: dict[tuple[int, ...], QTRational] = {}
    for exps, coeff in poly.terms.items():
        new_exps = [0] * n
        new_coeff = coeff
        for k, e in enumerate(exps):
            if e == 0:
                continue
            target, scalar = images[k]
            new_exps[target - 1] += e
            if not scalar.is_one():
                new_coeff = new_coeff * scalar**e
        key = tuple(new_exps)
        cur = out.get(key)
        new = new_coeff if cur is None else cur + new_coeff
        if new.is_zero():
            out.pop(key, None)
        else:
            out[key] = new
    return _raw(n, out)


@on_cleared
def cyclic_omega(poly: ClearedPolynomial) -> ClearedPolynomial:
    """The cyclic generator: (omega h)(x_1,..,x_n) = h(x_2,..,x_n, q x_1).

    On monomials the exponent vector (v_1,..,v_n) becomes (v_n, v_1,..,v_{n-1})
    and the wrapped exponent v_n contributes a factor q^{v_n}: a shift of
    the packed numerator by v_n rows.
    """
    rowbits = poly.layout.width * poly.layout.row
    terms = {e[-1:] + e[:-1]: num << rowbits * e[-1] for e, num in poly.terms.items()}
    return poly.derived(terms, poly.bound, poly.tspan, poly.degree)


def reverse_alphabet(poly: XPolynomial) -> XPolynomial:
    """Substitute x_i -> x_{n+1-i}: evaluate p on the reversed alphabet."""
    n = poly.nvars
    one = QTRational.one()
    return compose_vars(poly, [(n - k, one) for k in range(n)])


@on_cleared
def divided_difference_div(poly: ClearedPolynomial, i: int) -> ClearedPolynomial:
    """The exact polynomial (p - s_i p)/(x_i - x_{i+1}).

    The numerator is antisymmetric in (x_i, x_{i+1}), so the quotient is
    computed term by term from the telescoping identity
    (x_i^a x_{i+1}^b - x_i^b x_{i+1}^a)/(x_i - x_{i+1}) =
    x_i^b x_{i+1}^b * sum_{k=0}^{a-b-1} x_i^{a-b-1-k} x_{i+1}^k   (a > b),
    which leaves no remainder by construction.
    """
    n = poly.nvars
    if not 1 <= i <= n - 1:
        raise IndexError(f"index {i} out of range 1..{n - 1}")
    # each numerator enters at most |a - b| <= degree outputs
    poly = poly.with_room(poly.degree, 0)
    a, b = i - 1, i
    out: dict[tuple[int, ...], int] = {}
    for exps, num in poly.terms.items():
        ea, eb = exps[a], exps[b]
        if ea == eb:
            continue
        if ea < eb:
            # the mirrored term contributes with the opposite sign; handle
            # each unordered pair once from its ea > eb representative
            ea, eb, num = eb, ea, -num
        base = list(exps)
        for k in range(ea - eb):
            base[a] = ea - 1 - k
            base[b] = eb + k
            key = tuple(base)
            out[key] = out.get(key, 0) + num
    return poly.derived({e: c for e, c in out.items() if c}, poly.bound * poly.degree,
                        poly.tspan, max(poly.degree - 1, 0))
