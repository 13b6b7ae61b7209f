"""Sparse polynomials in x_1..x_n and the Hecke-supporting manipulations."""

import json
import random
from functools import reduce
from math import prod

import pytest
from hypothesis import example, given, strategies as st

from nsmacdonald.cleared import ClearedPolynomial, Frame, SlotOverflow, _pack, decode
from nsmacdonald.cyclotomic import cyclotomic_form
from nsmacdonald.qt import Fraction, QTPolynomial, QTRational, qt_lcm
from nsmacdonald.xpoly import (
    AlphabetMismatch,
    XPolynomial,
    binomial_sum,
    clear,
    compose_vars,
    cyclic_omega,
    divided_difference_div,
    reverse_alphabet,
)

import bruteforce_oracle as oracle

ONE = QTRational.one()
Q = QTRational.q()
T = QTRational.t()


def var(n, i):
    return XPolynomial.variable(n, i)


def swap(p, i):
    """s_i p: x_i and x_{i+1} exchanged, as a substitution."""
    images = [(k, ONE) for k in range(1, p.nvars + 1)]
    images[i - 1], images[i] = images[i], images[i - 1]
    return compose_vars(p, images)


def rand_poly(rng, n, deg=3, nterms=4):
    terms = {}
    for _ in range(nterms):
        exps = tuple(rng.randint(0, deg) for _ in range(n))
        coeff = QTRational.monomial(rng.randint(0, 2), rng.randint(0, 2), rng.randint(-3, 3))
        if not coeff.is_zero():
            terms[exps] = coeff
    poly = XPolynomial(n, terms)
    return poly if not poly.is_zero() else XPolynomial.one(n)


def test_product_of_variables():
    assert var(2, 1) * var(2, 2) == XPolynomial.monomial(2, (1, 1))


def test_square_of_sum():
    two = ONE + ONE
    expect = XPolynomial(2, {(2, 0): ONE, (1, 1): two, (0, 2): ONE})
    assert (var(2, 1) + var(2, 2)) ** 2 == expect


def test_cancellation():
    c = Q * (ONE - T) / (ONE - Q * T)
    assert (var(2, 2) + var(2, 1).scale(c)) - var(2, 2) == var(2, 1).scale(c)


def test_alphabet_mismatch():
    with pytest.raises(AlphabetMismatch):
        var(2, 1) + var(3, 1)


def test_coefficient_of(golden_polys):
    assert XPolynomial.one(3).coefficient((0, 0, 0)).is_one()
    assert var(2, 1).coefficient((0, 1)).is_zero()
    assert golden_polys[(1, 0)].coefficient((1, 0)).is_one()
    assert golden_polys[(0, 1)].coefficient((1, 0)) == Q * (ONE - T) / (ONE - Q * T)
    with pytest.raises(AlphabetMismatch):
        var(2, 1).coefficient((1, 0, 0))


def test_swap_examples():
    assert swap(var(2, 1), 1) == var(2, 2)
    sym = var(2, 1) * var(2, 2)
    assert swap(sym, 1) == sym
    assert swap(var(2, 1) ** 2 * var(2, 2), 1) == var(2, 1) * var(2, 2) ** 2


def test_omega_examples():
    assert cyclic_omega(var(2, 1)) == var(2, 2)
    assert cyclic_omega(var(2, 2)) == var(2, 1).scale(Q)
    assert cyclic_omega(XPolynomial.one(5)) == XPolynomial.one(5)


def test_divided_difference_examples():
    assert divided_difference_div(var(2, 1), 1) == XPolynomial.one(2)
    assert divided_difference_div(var(2, 1) ** 2, 1) == var(2, 1) + var(2, 2)
    assert divided_difference_div(var(2, 1) * var(2, 2), 1).is_zero()


def test_swap_is_involution_and_omega_power_is_dilation():
    rng = random.Random(5)
    for n in (2, 3, 4):
        for _ in range(8):
            p = rand_poly(rng, n)
            for i in range(1, n):
                assert swap(swap(p, i), i) == p
            w = p
            for _ in range(n):
                w = cyclic_omega(w)
            assert w == compose_vars(p, [(k, Q) for k in range(1, n + 1)])


def test_divided_difference_defining_property():
    rng = random.Random(6)
    for n in (2, 3, 4):
        for _ in range(8):
            p = rand_poly(rng, n)
            for i in range(1, n):
                d = divided_difference_div(p, i)
                assert d * (var(n, i) - var(n, i + 1)) == p - swap(p, i)


def test_multiplication_commutative_associative():
    rng = random.Random(7)
    for _ in range(10):
        a, b, c = (rand_poly(rng, 3, deg=2, nterms=3) for _ in range(3))
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


def test_compose_vars_reversal_involution():
    rng = random.Random(8)
    p = rand_poly(rng, 4)
    assert reverse_alphabet(reverse_alphabet(p)) == p


def test_json_round_trip(golden_polys):
    for poly in golden_polys.values():
        data = json.loads(json.dumps(poly.to_json()))
        assert XPolynomial.from_json(data) == poly
        assert XPolynomial.from_json(data).to_json() == poly.to_json()


def test_latex_of_golden(golden_polys):
    text = golden_polys[(0, 1)].to_latex()
    assert text == "x_{2} + \\frac{qt - q}{qt - 1} x_{1}"
    assert golden_polys[(1, 0)].to_latex() == "x_{1}"


def test_str_smoke():
    assert str(XPolynomial.zero(2)) == "0"
    assert "x1" in str(var(2, 1))


# -- the exact sum of summands in exponent form ------------------------------

# labels along a few directions, parallel and opposite ones included, so that
# denominators share cyclotomic factors (1 + q = (1 - q^2) / (1 - q) too)
labels = st.builds(
    lambda d, k: (k * d[0], k * d[1]),
    st.sampled_from([(1, 0), (0, 1), (1, 1), (1, 2), (2, 1), (1, -1)]),
    st.sampled_from([-3, -2, -1, 1, 2, 3, 4]),
)
factor_groups = st.lists(
    st.tuples(
        st.integers(-2, 3),
        st.integers(-3, 3),
        st.dictionaries(labels, st.integers(-2, 2), max_size=3),
    ),
    min_size=1,
    max_size=3,
)
exponent_vectors = st.tuples(st.integers(0, 2), st.integers(0, 2))
summand_lists = st.lists(st.tuples(exponent_vectors, factor_groups), max_size=8)
# -1 in exponent form: (1 - qt) / (1 - q^-1 t^-1) = -qt
MINUS_ONE = (-1, -1, {(1, 1): 1, (-1, -1): -1})


def as_polynomial(summand):
    # the summand's coefficient multiplied out factor by factor in Q(q,t)
    exps, factors = summand
    coeff = ONE
    for qexp, texp, binomials in factors:
        coeff = coeff * QTRational.monomial(qexp, texp)
        for (a, b), m in binomials.items():
            coeff = coeff * (ONE - QTRational.monomial(a, b)) ** m
    return XPolynomial(2, {exps: coeff})


def formed(summands):
    # binomial_sum's summands: each coefficient in its cyclotomic form
    return [(exps, cyclotomic_form(*factors)) for exps, factors in summands]


@given(summand_lists, st.lists(st.integers(0, 7), max_size=3))
def test_binomial_sum_equals_repeated_addition(summands, negated):
    # negating some summands makes whole terms cancel to zero
    summands = summands + [
        (summands[k][0], summands[k][1] + [MINUS_ONE]) for k in negated if k < len(summands)
    ]
    expected = reduce(lambda a, b: a + b, map(as_polynomial, summands), XPolynomial.zero(2))
    total = binomial_sum(2, formed(summands))
    assert total == expected
    assert hash(total) == hash(expected)
    assert total.to_json() == expected.to_json()


def test_binomial_sum_cancels_to_zero_and_checks_alphabet():
    x1 = ((1, 0), [(0, -2, {(1, 1): -1})])
    assert binomial_sum(2, formed([x1, (x1[0], x1[1] + [MINUS_ONE])])).is_zero()
    assert binomial_sum(2, []).is_zero()
    with pytest.raises(AlphabetMismatch):
        binomial_sum(2, formed([((1, 0, 0), [])]))


def test_binomial_sum_reduces_over_the_exact_lcm():
    # 1/(1 - q) + 1/(1 - q^2) = (2 + q)/(1 - q^2): lcm (1 - q)(1 + q), and
    # no factor cancels; 1/(1 - q) - q/(1 - q) = 1: the whole lcm cancels
    total = binomial_sum(
        1, formed([((0,), [(0, 0, {(1, 0): -1})]), ((0,), [(0, 0, {(2, 0): -1})])])
    )
    assert total == XPolynomial.constant(1, (ONE + ONE + Q) / (ONE - Q * Q))
    minus_q = ((0,), [(1, 0, {(1, 0): -1}), MINUS_ONE])
    one = binomial_sum(1, formed([((0,), [(0, 0, {(1, 0): -1})]), minus_q]))
    assert one == XPolynomial.one(1)


@given(st.dictionaries(exponent_vectors, st.integers(-5, 5), max_size=4))
def test_int_and_fraction_coefficients_give_one_polynomial(values):
    def build(convert):
        return XPolynomial(2, {
            e: QTRational(QTPolynomial.constant(convert(v))) for e, v in values.items() if v
        })

    as_int, as_frac = build(int), build(Fraction)
    assert as_int == as_frac
    assert hash(as_int) == hash(as_frac)
    assert as_int.to_json() == as_frac.to_json()


# -- the cleared form: packed integer numerators -------------------------------

# Laurent numerators with integer coefficients of either sign, large ones
# included, and exponents of either sign
laurents = st.dictionaries(
    st.tuples(st.integers(-3, 3), st.integers(-4, 4)),
    st.one_of(st.integers(-9, 9), st.integers(-2**70, 2**70)).filter(bool),
    min_size=1, max_size=6,
)
numerator_maps = st.dictionaries(exponent_vectors, laurents, max_size=4)
DEN = QTPolynomial({(0, 0): 1, (1, 1): -1})  # 1 - qt, a denominator D to carry along


def back(cleared):
    return XPolynomial(cleared.nvars, cleared.coefficients())


@given(numerator_maps)
def test_pack_and_decode_round_trip(numerators):
    [packed] = ClearedPolynomial.packed(2, DEN, [numerators])
    assert packed.laurents() == numerators
    assert all(isinstance(num, int) for num in packed.terms.values())


@given(st.dictionaries(exponent_vectors, st.tuples(st.integers(-20, 20), st.integers(1, 12)),
                       max_size=4), st.integers(-2, 2), st.integers(-2, 2))
def test_clear_round_trip_with_fraction_coefficients(values, a, b):
    # c/d q^a t^b: rational coefficients are scaled to integers, and the
    # scale folded into D, and negative exponents are offsets of the layout
    poly = XPolynomial(2, {
        e: QTRational.monomial(a, b, Fraction(c, d)) / (ONE - Q * T) for e, (c, d) in values.items()
    })
    cleared = clear(poly)
    assert all(isinstance(num, int) for num in cleared.terms.values())
    assert back(cleared) == poly


# pairwise coprime irreducibles of Z[q,t]: the primes 2 and 3, q, t, and
# 1 - q^a t^b with gcd(a, b) = 1
COPRIME = [QTPolynomial.constant(2), QTPolynomial.constant(3), QTPolynomial.monomial(1, 0),
           QTPolynomial.monomial(0, 1)] + [
    QTPolynomial({(0, 0): 1, (a, b): -1}) for a, b in [(1, 0), (0, 1), (1, 1), (1, 2), (2, 1), (2, 3)]
]


@st.composite
def mixed_denominators(draw):
    """A polynomial in two variables whose coefficients have numerators
    with coefficients up to 2^200, over denominators of one of two kinds:
    each a divisor of the first, a product of up to four factors drawn
    from COPRIME with repeats (clear's gcd-free path), or pairwise coprime
    (its qt_lcm fallback)."""
    if draw(st.booleans()):
        factors = draw(st.lists(st.sampled_from(COPRIME), min_size=1, max_size=4))
        dens = [prod(factors, start=QTPolynomial.one())] + [
            prod((f for f, keep in zip(factors, draw(st.lists(
                st.booleans(), min_size=len(factors), max_size=len(factors)))) if keep),
                 start=QTPolynomial.one())
            for _ in range(draw(st.integers(0, 3)))
        ]
    else:
        dens = draw(st.lists(st.sampled_from(COPRIME), min_size=2, max_size=4, unique=True))
    keys = draw(st.lists(exponent_vectors, min_size=len(dens), max_size=len(dens), unique=True))
    numerators = st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        st.integers(-2**200, 2**200).filter(bool), min_size=1, max_size=4)
    return XPolynomial(2, {e: QTRational(QTPolynomial(draw(numerators)), den)
                           for e, den in zip(keys, dens)})


@given(mixed_denominators())
def test_clear_takes_the_lcm_of_any_denominators(poly):
    # D is the lcm whichever way clear finds it, and each numerator is the
    # coefficient's times D over its denominator, packed exactly
    common = qt_lcm(coeff.den for coeff in poly.terms.values())
    cleared = clear(poly)
    assert cleared.den == common
    assert cleared.laurents() == {
        e: (coeff.num * common.div_exact(coeff.den)).terms for e, coeff in poly.terms.items()
    }
    assert back(cleared) == poly


def test_decoding_checks_every_slot():
    [packed] = ClearedPolynomial.packed(2, DEN, [{(1, 0): {(0, 0): 3, (1, 2): -1}}])
    width, row = packed.layout[:2]
    num = packed.terms[(1, 0)]
    # a t exponent past tspan: one wrapped towards the next row
    wrapped = packed.derived({(1, 0): num + (1 << width * (packed.tspan + 1))},
                             packed.bound, packed.tspan, packed.degree)
    # a coefficient above the bound: an overflowed slot
    overflowed = packed.derived({(1, 0): num + ((packed.bound + 1) << width * row)},
                                packed.bound, packed.tspan, packed.degree)
    for corrupt in (wrapped, overflowed):
        with pytest.raises(ArithmeticError):
            corrupt.laurents()


@st.composite
def framed_laurents(draw):
    """A frame of random width, row and offsets, and a sparse Laurent
    polynomial that fits it, its coefficients below a quarter of 2^(w-1)
    and its q exponents up to 20 rows above q0: long runs of empty slots."""
    width = draw(st.sampled_from([8, 16, 24, 64]))
    frame = Frame(width, draw(st.integers(1, 6)), draw(st.integers(-3, 3)), draw(st.integers(-3, 3)))
    top = (1 << (width - 1)) // 4
    num = draw(st.dictionaries(
        st.tuples(st.integers(frame.q0, frame.q0 + 20), st.integers(frame.t0, frame.t0 + frame.row - 1)),
        st.integers(-top, top).filter(bool), min_size=1, max_size=6))
    return frame, num


def envelope(frame, num):
    return max(map(abs, num.values())), max(te for _qe, te in num) - frame.t0


@given(framed_laurents())
@example((Frame(16, 3, 0, 0), {(0, 0): 256, (0, 1): -256, (7, 2): 1, (20, 0): -1}))
def test_decode_inverts_pack(framed):
    # the slots that differ from the empty one are found in runs of bytes:
    # a slot whose low byte is the empty slot's (256), neighbours whose
    # bytes make one run, and runs many empty slots apart
    frame, num = framed
    assert decode(_pack(num, frame), frame, *envelope(frame, num)) == num


@given(framed_laurents(), st.data())
def test_decode_refuses_a_planted_slot_outside_the_envelope(framed, data):
    # one more term in an empty slot, either at a t exponent past tspan
    # (wrapped towards the next row) or with a coefficient above the bound
    frame, num = framed
    bound, tspan = envelope(frame, num)
    free = [(qe, te) for qe in range(frame.q0, frame.q0 + 21)
            for te in range(frame.t0, frame.t0 + frame.row) if (qe, te) not in num]
    qe, te = data.draw(st.sampled_from(free))
    if te - frame.t0 > tspan:
        c = data.draw(st.integers(-bound, bound).filter(bool))
    else:
        c = data.draw(st.integers(bound + 1, (1 << (frame.width - 1)) - 1)) * data.draw(
            st.sampled_from([1, -1]))
    with pytest.raises(SlotOverflow):
        decode(_pack(num, frame) + (c << frame.at(qe, te)), frame, bound, tspan)


@given(st.dictionaries(st.tuples(*[st.integers(0, 2)] * 3), laurents, min_size=1, max_size=4),
       st.integers(1, 2), st.integers(0, 5), st.integers(-3, 3))
def test_packed_operators_equal_plain_arithmetic(numerators, i, dq, dt):
    [packed] = ClearedPolynomial.packed(3, DEN, [numerators])
    p = back(packed)
    assert back(divided_difference_div(packed, i)) == oracle.plain_delta(p, i)
    assert back(cyclic_omega(packed)) == compose_vars(p, [(2, ONE), (3, ONE), (1, Q)])
    shifted = packed.shift(dq, dt)
    assert back(shifted) == p.scale(QTRational.monomial(dq, dt))
    # a difference over one D, of two layouts with different offsets
    assert back(packed - shifted) == p - p.scale(QTRational.monomial(dq, dt))
    assert not (shifted - shifted).terms


def test_difference_wider_than_either_slot_width():
    # 2^200 does not fit the small operand's slots: both are laid out afresh
    small, _ = ClearedPolynomial.packed(2, DEN, [{(1, 0): {(0, 0): 1, (2, -1): -3}}, {}])
    [huge] = ClearedPolynomial.packed(2, DEN, [{(1, 0): {(0, 0): 2**200}, (0, 1): {(-1, 5): 7}}])
    assert huge.bound + small.bound >= 1 << (small.layout[0] - 1)
    diff = small - huge
    assert diff.layout[0] > small.layout[0]
    assert diff.laurents() == {(1, 0): {(0, 0): 1 - 2**200, (2, -1): -3}, (0, 1): {(-1, 5): -7}}


def test_difference_past_the_shared_layout_is_laid_out_afresh():
    # both sides under one width and row, but the sum of their bounds or
    # their joint t span does not fit it
    [packed] = ClearedPolynomial.packed(2, DEN, [{(1, 0): {(0, 0): 1}}])
    width, row = packed.layout[:2]
    top = (1 << (width - 1)) - 1
    a = packed.derived({(1, 0): top}, top, 0, 1)
    b = packed.derived({(1, 0): -top}, top, 0, 1)
    assert (a - b).laurents() == {(1, 0): {(0, 0): 2 * top}}
    far = packed.shift(1, row)
    assert (packed - far).laurents() == {(1, 0): {(0, 0): 1, (1, row): -1}}
