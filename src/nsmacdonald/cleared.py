"""The cleared form of a polynomial in x_1..x_n over Q(q,t): packed
integer numerators over one common denominator.

A ``ClearedPolynomial`` is D^{-1} sum_e L_e x^e: one denominator D in
Q[q,t] for the whole polynomial and, per x-monomial, a numerator L_e, a
Laurent polynomial in (q, t) with integer coefficients (xpoly's
``clear`` scales rational ones to integers and folds the scale into D).
Each numerator is one Python int, its Kronecker image

  N_e = sum c * 2^(w * ((qe - q0) * A + (te - t0)))

over its terms c q^qe t^te, with w bits per slot (a multiple of 8), A
slots per power of q (the row) and the offsets (q0, t0) held once per
polynomial, in its ``layout`` (w, A, q0, t0).  A factor q^a t^b of one
numerator is then a shift by w (a A + b) bits, adding numerators is one
integer addition, and a factor q^a t^b of the whole polynomial moves the
offsets alone.  That is all the Hecke operators do to numerators
(``hecke.apply_T``, xpoly's ``cyclic_omega`` and
``divided_difference_div``).

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
fresh layout (``packed``) takes the exact sum and t span of the
coefficients, and leaves room for nvars generator steps and one
difference, 2 (1 + 2 degree)^nvars times the sum, and for 2 nvars more
factors t in a row.  That covers Y_i, n - 1 generators and omega, and
the difference of its result and y_i times its argument at common
offsets, so the eigencheck lays out once.  Decoding (``laurents``)
checks every slot against the envelope, as lattice's integer tables
check every entry, and raises on a slot outside it.

Two cleared polynomials are compared only over the same D and under one
layout, through their difference (``__sub__``): both move to the lower
offsets, their numerators shifted up, or are laid out afresh together.
Over a fixed D each coefficient has one numerator, so the difference is
empty exactly when the polynomials are equal.  No float enters: a layout
is integers and bit lengths.
"""

from __future__ import annotations

from .cyclotomic import Laurent, split_laurent
from .qt import QTPolynomial, QTRational

__all__ = ["ClearedPolynomial"]


def _halves(width: int, slots: int) -> bytes:
    # ``slots`` slots of ``width`` bits, each holding 2^(width - 1)
    return (bytes(width // 8 - 1) + b"\x80") * slots


def _pack(num: Laurent, layout: tuple[int, int, int, int]) -> int:
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


class ClearedPolynomial:
    """D^{-1} sum_e L_e x^e, a polynomial in x_1..x_n over Q(q,t), with
    packed integer numerators L_e (the module docstring).

    ``terms`` maps exponent vectors to the nonzero packed numerators, all
    under one ``layout`` (w, A, q0, t0); ``bound``, ``tspan`` and
    ``degree`` are the envelope.  Values are not mutated after
    construction; ``terms`` dicts may be shared between values.
    """

    __slots__ = ("nvars", "terms", "den", "layout", "bound", "tspan", "degree")

    def __init__(self, nvars: int, terms: dict[tuple[int, ...], int], den: QTPolynomial,
                 layout: tuple[int, int, int, int], bound: int, tspan: int, degree: int):
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
        room = 2 * max(bounds) * (1 + 2 * degree) ** nvars
        layout = (8 * (room.bit_length() // 8 + 1), tspan + 1 + 2 * nvars, q0, t0)
        return [
            ClearedPolynomial(nvars, {e: _pack(num, layout) for e, num in nums.items()},
                              den, layout, bound, tspan, degree)
            for nums, bound in zip(numerators, bounds)
        ]

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
        """The numerators decoded.  Every slot is checked: a coefficient
        above ``bound`` (an overflowed slot) or at a t exponent above
        ``tspan`` (one wrapped into the next row) raises ArithmeticError;
        nothing is truncated."""
        width, row, q0, t0 = self.layout
        size, half = width // 8, 1 << (width - 1)
        out = {}
        for exps, num in self.terms.items():
            # the balanced digits of num fill at most this many slots;
            # adding half to each makes them plain base-2^width digits
            slots = abs(num).bit_length() // width + 1
            raw = (num + int.from_bytes(_halves(width, slots), "little")).to_bytes(
                slots * size, "little")
            laurent = out[exps] = {}
            for k in range(slots):
                c = int.from_bytes(raw[k * size:(k + 1) * size], "little") - half
                if c:
                    qe, te = divmod(k, row)
                    if te > self.tspan or abs(c) > self.bound:
                        raise ArithmeticError(f"packed slot {k} holds {c}, outside its envelope")
                    laurent[(q0 + qe, t0 + te)] = c
        return out

    def shift(self, dq: int, dt: int) -> "ClearedPolynomial":
        """This polynomial times the monomial q^dq t^dt: the layout's
        offsets move, and no numerator is touched."""
        width, row, q0, t0 = self.layout
        return ClearedPolynomial(self.nvars, self.terms, self.den, (width, row, q0 + dq, t0 + dt),
                                 self.bound, self.tspan, self.degree)

    def __sub__(self, other: "ClearedPolynomial") -> "ClearedPolynomial":
        """The difference, over the same D.  Under one width and row both
        sides move to the lower offsets, each numerator shifted up, when
        the sum of the bounds and the joint t span fit; otherwise both are
        decoded and laid out afresh together."""
        if self.nvars != other.nvars or self.den != other.den:
            raise ValueError("cleared polynomials over different alphabets or denominators")
        (width, row, qa, ta), (wb, rb, qb, tb) = self.layout, other.layout
        q0, t0 = min(qa, qb), min(ta, tb)
        tspan, bound = max(self.tspan + ta, other.tspan + tb) - t0, self.bound + other.bound
        if (width, row) != (wb, rb) or bound >= 1 << (width - 1) or tspan >= row:
            a, b = ClearedPolynomial.packed(self.nvars, self.den, [self.laurents(), other.laurents()])
            return a - b
        up_a, up_b = (width * ((q - q0) * row + t - t0) for q, t in ((qa, ta), (qb, tb)))
        out = {e: num << up_a for e, num in self.terms.items()}
        for exps, num in other.terms.items():
            out[exps] = out.get(exps, 0) - (num << up_b)
        return ClearedPolynomial(self.nvars, {e: c for e, c in out.items() if c}, self.den,
                                 (width, row, q0, t0), bound, tspan, max(self.degree, other.degree))

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
    # num / den in canonical form, with one gcd
    poly, dq, dt = split_laurent(num)
    return QTRational(
        poly * QTPolynomial.monomial(max(dq, 0), max(dt, 0)),
        den * QTPolynomial.monomial(max(-dq, 0), max(-dt, 0)),
    )
