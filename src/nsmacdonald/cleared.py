"""The cleared form of a polynomial in x_1..x_n over Q(q,t): packed
integer numerators over one common denominator.

A ``ClearedPolynomial`` is D^{-1} sum_e L_e x^e: one denominator D in
Z[q,t] for the whole polynomial (xpoly's ``clear`` takes the lcm of the
coefficients' denominators, without a gcd when it is one of them) and,
per x-monomial, a numerator L_e, a Laurent polynomial in (q, t) with
integer coefficients.
Each numerator is one Python int, its Kronecker image

  N_e = sum c * 2^(w * ((qe - q0) * A + (te - t0)))

over its terms c q^qe t^te, under the polynomial's ``layout``, a
``Frame`` held once per polynomial: its ``width`` w bits per slot (a
multiple of 8), its ``row`` A slots per power of q, and its offsets
``q0``, ``t0``.  A factor q^a t^b of one numerator is then a shift by
w (a A + b) bits, adding numerators is one integer addition, and a
factor q^a t^b of the whole polynomial moves the offsets alone.  That
is all the Hecke operators do to numerators (``hecke.apply_T``, xpoly's
``cyclic_omega`` and ``divided_difference_div``).

Exactness.  The image is linear, so sums and shifts of images are the
images of the sums and shifts, however large the integers grow.  It is
one-to-one on the Laurent polynomials that fit the layout: every
coefficient below 2^(w-1) in absolute value, so that each slot holds a
balanced digit in [-2^(w-1), 2^(w-1)), and every t exponent within
t0 .. t0 + A - 1, as a larger one would wrap into the next row.  An
integer has exactly one expansion in balanced base-2^w digits.  So each
polynomial carries its envelope:

  bound   bounds the sum of the absolute values of all the coefficients
          of all its numerators; kept below 2^(w-1);
  tspan   bounds te - t0 over all terms; kept below A;
  degree  bounds the total x-degree of every term.

q needs no envelope: no operation takes an exponent below q0 (omega's
factors are q^v, v >= 0), and the top row has no row above it to wrap
into.  Each operation updates the envelope by its worst case, and checks
in O(1) beforehand that the result fits (``with_room``).  The divided
difference sends each numerator to at most ``degree`` outputs, so it
multiplies the bound by degree; T_i and T_i^{-1} multiply it by
1 + 2 degree and add one to tspan; omega and ``shift`` leave it as it
is; a difference adds the two bounds.  When the check fails, the
numerators are decoded and laid out afresh; nothing is truncated.  A
fresh layout (``fresh_layout``) takes the sum and t span of the
coefficients, exact in ``packed`` and read from the factors' extents in
xpoly's ``clear``, which packs products without multiplying them out,
and leaves room for nvars generator steps and one difference,
2 (1 + 2 degree)^nvars times the sum, and for 2 nvars more factors t in
a row.  That covers Y_i, n - 1 generators and omega, and the difference
of its result and y_i times its argument at common offsets, so the
eigencheck lays out once, in ``clear``.  Decoding (``decode``,
``laurents``) skips the empty slots in bulk and checks every other
slot against the envelope, as lattice's integer tables check every
entry, raising SlotOverflow on a slot outside it.

The same ``Frame`` reduces sums over products of cyclotomic labels
(``cyclotomic_quotients``, which ``xpoly.binomial_sum`` calls), read as
q -> X^row, t -> X, X = 2^w: a product of labels becomes a product of
the integers Phi_e(2^(w s)), s = d1 row + d2, a sum of shifted products
one integer sum, and a trial division by a label one ``divmod``.  The
frame's slots hold the sums' own L1 bound, with no room above it.  A
nonzero remainder proves that the label does not divide.  A zero one is
certified when the reduced numerator is decoded and found to fit the
frame times the labels divided.  When a certificate fails, that sum is
added again in plain Q(q,t) arithmetic, so no result rests on an
unchecked step.  The canonical values are built by exponent shifts,
with no gcd and no polynomial product.

Two cleared polynomials are compared only over the same D and under one
layout, through their difference (``__sub__``): both move to the lower
offsets, their numerators shifted up, or are laid out afresh together.
Over a fixed D each coefficient has one numerator, so the difference is
empty exactly when the polynomials are equal.  No float enters: a layout
is integers and bit lengths.
"""

from __future__ import annotations

import re
from math import prod
from typing import Hashable, Iterable, Mapping, NamedTuple

from .cyclotomic import (
    CyclotomicForm,
    CyclotomicLabel,
    Laurent,
    _lowest,
    _over_coprime,
    _shifted,
    cyclotomic_coefficients,
    cyclotomic_product,
    split_laurent,
)
from .qt import QTPolynomial, QTRational

__all__ = [
    "ClearedPolynomial",
    "Frame",
    "SlotOverflow",
    "cyclotomic_quotients",
    "decode",
]


class Frame(NamedTuple):
    """The Kronecker image of the Laurent polynomials with q >= q0 and
    t0 <= t < t0 + row: q^qe t^te goes to the slot (qe - q0) row + te - t0
    of ``width`` bits.  That is q -> X^row, t -> X, X = 2^width, with
    q^q0 t^t0 moved to the lowest slot: a ring map up to that shift, and
    one-to-one on the polynomials whose coefficients lie below
    2^(width - 1) in absolute value."""

    width: int
    row: int
    q0: int
    t0: int

    @staticmethod
    def holding(bound: int, row: int, q0: int, t0: int) -> "Frame":
        """The frame whose slots, the fewest bytes wide, hold every
        coefficient up to ``bound`` in absolute value."""
        return Frame(8 * (bound.bit_length() // 8 + 1), row, q0, t0)

    def at(self, qe: int, te: int) -> int:
        """The bit position of the slot of q^qe t^te."""
        return self.width * ((qe - self.q0) * self.row + te - self.t0)

    def phi(self, label: CyclotomicLabel) -> int:
        """The image of Phi_e(u), u = q^d1 t^d2, as a factor: Phi_e at
        2^(width s), s = d1 row + d2 > 0, a positive integer."""
        e, d1, d2 = label
        bits = self.width * (d1 * self.row + d2)
        return sum(c << bits * k for k, c in enumerate(cyclotomic_coefficients(e)) if c)


def _halves(width: int, slots: int) -> bytes:
    # ``slots`` slots of ``width`` bits, each holding 2^(width - 1)
    return (bytes(width // 8 - 1) + b"\x80") * slots


# a run of nonzero bytes
_DIFFERING = re.compile(rb"[^\x00]+")


def _pack(num: Laurent, layout: Frame) -> int:
    # the image of num, whose integer coefficients are below 2^(width - 1)
    # in absolute value: each written as the plain digit c + 2^(width - 1),
    # and the 2^(width - 1) of every slot taken off again
    width, row, q0, t0 = layout
    size, half = width // 8, 1 << (width - 1)
    at = {(qe - q0) * row + te - t0: c for (qe, te), c in num.items()}
    halves = _halves(width, max(at) + 1)
    raw = bytearray(halves)
    for k, c in at.items():
        raw[k * size:(k + 1) * size] = (c + half).to_bytes(size, "little")
    return int.from_bytes(raw, "little") - int.from_bytes(halves, "little")


class SlotOverflow(ArithmeticError):
    """A packed slot outside its envelope: the integer is not the image of
    a Laurent polynomial that fits the layout."""


def decode(num: int, layout: Frame, bound: int, tspan: int) -> Laurent:
    """The Laurent polynomial whose image under ``layout`` is ``num``, read
    as balanced base-2^w digits.  Every nonzero slot is checked: a
    coefficient above ``bound`` (an overflowed slot) or at a t exponent
    more than ``tspan`` above t0 (one wrapped into the next row) raises
    SlotOverflow; nothing is truncated."""
    width, row, q0, t0 = layout
    size, half = width // 8, 1 << (width - 1)
    # the balanced digits of num fill at most this many slots; adding half
    # to each makes them plain base-2^width digits, and an empty slot's
    # digit is half, so only slots with a byte differing from it are read
    slots = abs(num).bit_length() // width + 1
    halves = int.from_bytes(_halves(width, slots), "little")
    plain = num + halves
    raw = plain.to_bytes(slots * size, "little")
    out = {}
    for run in _DIFFERING.finditer((plain ^ halves).to_bytes(slots * size, "little")):
        for k in range(run.start() // size, (run.end() - 1) // size + 1):
            c = int.from_bytes(raw[k * size:(k + 1) * size], "little") - half
            qe, te = divmod(k, row)
            if te > tspan or abs(c) > bound:
                raise SlotOverflow(f"packed slot {k} holds {c}, outside its envelope")
            out[(q0 + qe, t0 + te)] = c
    return out


class ClearedPolynomial:
    """D^{-1} sum_e L_e x^e, a polynomial in x_1..x_n over Q(q,t), with
    packed integer numerators L_e (the module docstring).

    ``terms`` maps exponent vectors to the nonzero packed numerators, all
    under one ``layout``, a ``Frame``; ``bound``, ``tspan`` and
    ``degree`` are the envelope.  Values are not mutated after
    construction; ``terms`` dicts may be shared between values.
    """

    __slots__ = ("nvars", "terms", "den", "layout", "bound", "tspan", "degree")

    def __init__(self, nvars: int, terms: dict[tuple[int, ...], int], den: QTPolynomial,
                 layout: Frame, bound: int, tspan: int, degree: int):
        self.nvars, self.terms, self.den, self.layout = nvars, terms, den, layout
        self.bound, self.tspan, self.degree = bound, tspan, degree

    @staticmethod
    def packed(
        nvars: int, den: QTPolynomial, numerators: list[dict[tuple[int, ...], Laurent]]
    ) -> list["ClearedPolynomial"]:
        """Polynomials over ``den``, one per dict of nonzero integer
        Laurent numerators, packed under one fresh layout."""
        keys = [key for nums in numerators for num in nums.values() for key in num] or [(0, 0)]
        q0, t0 = min(qe for qe, _te in keys), min(te for _qe, te in keys)
        tspan = max(te for _qe, te in keys) - t0
        bounds = [sum(abs(c) for num in nums.values() for c in num.values()) for nums in numerators]
        degree = max(max(map(sum, nums), default=0) for nums in numerators)
        layout = ClearedPolynomial.fresh_layout(nvars, max(bounds), degree, tspan, q0, t0)
        return [
            ClearedPolynomial(nvars, {e: _pack(num, layout) for e, num in nums.items()},
                              den, layout, bound, tspan, degree)
            for nums, bound in zip(numerators, bounds)
        ]

    @staticmethod
    def fresh_layout(nvars: int, bound: int, degree: int, tspan: int, q0: int, t0: int) -> Frame:
        """The layout of numerators within the envelope (bound, tspan,
        degree) from the offsets (q0, t0), with room for nvars generator
        steps and one difference: 2 (1 + 2 degree)^nvars times the bound,
        and 2 nvars more factors t in a row."""
        return Frame.holding(2 * bound * (1 + 2 * degree) ** nvars, tspan + 1 + 2 * nvars, q0, t0)

    def derived(self, terms: dict, bound: int, tspan: int, degree: int) -> "ClearedPolynomial":
        """Other packed numerators over the same D and layout."""
        return ClearedPolynomial(self.nvars, terms, self.den, self.layout, bound, tspan, degree)

    def with_room(self, growth: int, tsteps: int) -> "ClearedPolynomial":
        """This polynomial under a layout with room for its bound times
        ``growth`` and for ``tsteps`` more factors t: itself, or, when that
        O(1) check fails, its numerators decoded and laid out afresh."""
        width, row = self.layout[:2]
        if self.bound * growth < 1 << (width - 1) and self.tspan + tsteps < row:
            return self
        return ClearedPolynomial.packed(self.nvars, self.den, [self.laurents()])[0]

    def laurents(self) -> dict[tuple[int, ...], Laurent]:
        """The numerators decoded, every slot checked (``decode``)."""
        return {exps: decode(num, self.layout, self.bound, self.tspan)
                for exps, num in self.terms.items()}

    def shift(self, dq: int, dt: int) -> "ClearedPolynomial":
        """This polynomial times the monomial q^dq t^dt: the layout's
        offsets move, and no numerator is touched."""
        width, row, q0, t0 = self.layout
        layout = Frame(width, row, q0 + dq, t0 + dt)
        return ClearedPolynomial(self.nvars, self.terms, self.den, layout,
                                 self.bound, self.tspan, self.degree)

    def __sub__(self, other: "ClearedPolynomial") -> "ClearedPolynomial":
        """The difference, over the same D.  Under one width and row both
        sides move to the lower offsets, each numerator shifted up, when
        the sum of the bounds and the joint t span fit; otherwise both are
        decoded and laid out afresh together."""
        if self.nvars != other.nvars or self.den != other.den:
            raise ValueError("cleared polynomials over different alphabets or denominators")
        a, b = self.layout, other.layout
        layout = Frame(a.width, a.row, min(a.q0, b.q0), min(a.t0, b.t0))
        tspan = max(self.tspan + a.t0, other.tspan + b.t0) - layout.t0
        bound = self.bound + other.bound
        if a[:2] != b[:2] or bound >= 1 << (a.width - 1) or tspan >= a.row:
            a, b = ClearedPolynomial.packed(self.nvars, self.den, [self.laurents(), other.laurents()])
            return a - b
        up_a, up_b = layout.at(a.q0, a.t0), layout.at(b.q0, b.t0)
        out = {e: num << up_a for e, num in self.terms.items()}
        for exps, num in other.terms.items():
            out[exps] = out.get(exps, 0) - (num << up_b)
        return ClearedPolynomial(self.nvars, {e: c for e, c in out.items() if c}, self.den,
                                 layout, bound, tspan, max(self.degree, other.degree))

    def coefficients(self) -> dict[tuple[int, ...], QTRational]:
        """Each coefficient L_e / D in canonical form, with one gcd each."""
        return {e: _over(num, self.den) for e, num in self.laurents().items()}

    def leading_term(self) -> tuple[tuple[int, ...], QTRational]:
        """Greatest term under graded lex, its numerator alone decoded and
        its coefficient brought to canonical form in Q(q,t)."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        key = max(self.terms, key=lambda exps: (sum(exps), exps))
        return key, self.derived({key: self.terms[key]}, self.bound, self.tspan,
                                 self.degree).coefficients()[key]


def _over(num: Laurent, den: QTPolynomial) -> QTRational:
    # num / den in canonical form, with one gcd: both moved by the monomial
    # that takes num's negative exponents to 0
    dq, dt = _lowest(num)
    dq, dt = max(-dq, 0), max(-dt, 0)
    return QTRational(_shifted(num, dq, dt), _shifted(den.terms, dq, dt))


# ---------------------------------------------------------------------------
# Sums over products of cyclotomic labels, reduced on packed integers.
# ---------------------------------------------------------------------------


def _extent(counts: Iterable[tuple[CyclotomicLabel, int]]) -> tuple[int, int, int]:
    # prod Phi^n over counts: (bound on its L1 norm, its lowest and highest
    # t exponent); Phi_e(u)^n spans u^0 .. u^(n phi(e))
    norm, low, high = 1, 0, 0
    for (e, _d1, d2), n in counts:
        coefficients = cyclotomic_coefficients(e)
        norm *= sum(map(abs, coefficients)) ** n
        span = n * (len(coefficients) - 1)
        low += span * min(d2, 0)
        high += span * max(d2, 0)
    return norm, low, high


def _certified(frame: Frame, num: int, divisors: tuple[int, int, int]) -> Laurent:
    """The Laurent polynomial B whose image is ``num``, the image of a
    numerator N divided by those of labels whose product has the extent
    ``divisors`` (``_extent``), certified to be N / prod Phi: its slots
    are decoded, each checked, and B times that product must fit the
    frame, its L1 norm at most the product of the norms below
    2^(width - 1) and its t exponents within t0 .. t0 + row - 1.  Then
    both B prod Phi and N fit and have the same image, so they are equal.
    Anything else raises SlotOverflow."""
    width, row, _q0, t0 = frame
    norm, low, high = divisors
    half = 1 << (width - 1)
    terms = decode(num, frame, (half - 1) // norm, row - 1 - high)
    if sum(map(abs, terms.values())) * norm >= half or any(te + low < t0 for _qe, te in terms):
        raise SlotOverflow("the reduced numerator times its divisors does not fit the frame")
    return terms


def _divided(num: int, den: dict, images: dict) -> tuple[int, tuple, tuple]:
    """The image ``num`` of a numerator N divided by the images of the
    labels of ``den``, each while it divides and up to its count, as (the
    quotient, the labels divided and the labels left, each with its
    count).

    A nonzero remainder proves that a label does not divide: a polynomial
    quotient (Phi_e monic) would give an exact integer one.  A zero
    remainder can be an accident of the integers: Phi_1(t) = t - 1 goes
    to 2^w - 1, which divides the image 2^(w row) - 1 of q - 1, in every
    width.  So the quotient is certified afterwards (``_certified``)."""
    divided, left = [], []
    for label, n in den.items():
        image, k = images[label], 0
        while k < n:
            quot, rem = divmod(num, image)
            if rem:
                break
            num, k = quot, k + 1
        if k:
            divided.append((label, k))
        if k < n:
            left.append((label, n - k))
    return num, tuple(divided), tuple(left)


# One part of a sum: the cofactor prod Phi^n over label counts, and per key
# an integer Laurent polynomial that the cofactor multiplies.
Part = tuple[Iterable[tuple[CyclotomicLabel, int]], Mapping[Hashable, Laurent]]


def _field_quotient(parts: list[Part], key: Hashable, den: dict) -> QTRational:
    """The sum for ``key`` over ``den`` in plain Q(q,t) arithmetic: per
    part, its numerator times its cofactor (a ``CyclotomicForm`` value),
    added with gcds, and the sum divided by the value of ``den``."""
    total = QTRational.zero()
    for cofactor, accs in parts:
        if accs.get(key):
            product = CyclotomicForm(1, 0, 0, frozenset(cofactor)).value()
            total = total + product * _over(accs[key], QTPolynomial.one())
    return total / CyclotomicForm(1, 0, 0, frozenset(den.items())).value()


def cyclotomic_quotients(parts: Iterable[Part], den: Mapping[CyclotomicLabel, int]) -> dict:
    """Per key, the sum N over ``parts`` of its Laurent polynomial times
    the part's cofactor, divided by prod Phi^n over ``den`` (n >= 0), in
    canonical form; keys whose N is zero are left out.

    The work is on Kronecker images under one ``Frame``, laid out from
    the envelope with no room above it: the L1 norm of each N is at most
    the sum of its coefficients' absolute values times the cofactors'
    norms, and its exponents lie within the keys' plus the cofactors'
    extents.  Each cofactor is a product of label images, each N a sum
    of shifted cofactors, each label tried by ``divmod`` (``_divided``).
    Then each key costs only its own terms: its quotient B is decoded and
    certified, and B is coprime to the labels left, so B and their
    product, multiplied out once per distinct set, moved by one monomial
    are the canonical value.  A key whose certificate fails is summed
    again in Q(q,t) (``_field_quotient``)."""
    parts = [(tuple((label, n) for label, n in cofactor if n), accs) for cofactor, accs in parts]
    den = {label: n for label, n in den.items() if n}
    bounds: dict = {}
    qs, ts = [], []
    for cofactor, accs in parts:
        norm, low, high = _extent(cofactor)
        for key, acc in accs.items():
            bounds[key] = bounds.get(key, 0) + norm * sum(map(abs, acc.values()))
            for qe, te in acc:
                qs.append(qe)
                ts += (te + low, te + high)
    if not qs:
        return {}
    # a row holds the t extent, and d1 row + d2 > 0 for every label
    t0 = min(ts)
    row = max(max(ts) - t0 + 1, 1 - min((d2 for _e, _d1, d2 in den), default=0))
    frame = Frame.holding(max(bounds.values()), row, min(qs), t0)
    labels = set(den).union(*(dict(cofactor) for cofactor, _accs in parts))
    images = {label: frame.phi(label) for label in labels}
    totals: dict = {}
    for cofactor, accs in parts:
        cof = prod(images[label] ** n for label, n in cofactor)
        for key, acc in accs.items():
            totals[key] = totals.get(key, 0) + sum(
                (c * cof) << frame.at(qe, te) for (qe, te), c in acc.items())
    # per distinct set of labels divided its extent, and per distinct set
    # left its product, each found once per call
    out, extents, dens = {}, {}, {}
    for key, num in totals.items():
        if not num:
            continue
        num, divided, left = _divided(num, den, images)
        if divided not in extents:
            extents[divided] = _extent(divided)
        try:
            num = _certified(frame, num, extents[divided])
        except SlotOverflow:
            out[key] = _field_quotient(parts, key, den)
            continue
        if left not in dens:
            dens[left] = split_laurent(cyclotomic_product(left))
        out[key] = _over_coprime(num, dens[left])
    return out
