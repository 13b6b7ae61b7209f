"""The exact coefficient field Q(q,t)."""

import json
import math
import random

import pytest
from hypothesis import example, given, strategies as st

from nsmacdonald import cleared, qt, xpoly
from nsmacdonald.cleared import Frame, cyclotomic_quotients
from nsmacdonald.compositions import Composition, compositions_with
from nsmacdonald.cyclotomic import (
    cyclotomic_coefficients,
    cyclotomic_form,
    cyclotomic_product,
    form_product,
)
from nsmacdonald.fillings import f_hhl
from nsmacdonald.matrixprod import f_matrix_product
from nsmacdonald.qt import (
    ExactDivisionError,
    Fraction,
    QTDivisionByZero,
    QTPolynomial,
    QTRational,
    VanishingDenominator,
    qt_gcd,
)

ONE = QTRational.one()
Q = QTRational.q()
T = QTRational.t()


def rand_poly(rng, nterms=3, deg=3):
    terms = {}
    for _ in range(nterms):
        c = rng.randint(-5, 5)
        if c:
            terms[(rng.randint(0, deg), rng.randint(0, deg))] = c
    poly = QTPolynomial(terms)
    return poly if not poly.is_zero() else QTPolynomial.one()


def rand_elem(rng):
    return QTRational(rand_poly(rng), rand_poly(rng, nterms=2, deg=2))


def test_addition_over_common_denominator():
    lhs = Q / (ONE - T) + (Q * T) / (ONE - T)
    assert lhs == (Q * (ONE + T)) / (ONE - T)


def test_multiplicative_inverse():
    x = ONE - Q * T
    assert (x * x.inverse()).is_one()
    assert ONE / x == x.inverse()


def test_cancellation_and_multiply_back():
    ratio = (ONE - Q**2 * T**2) / (ONE - Q * T)
    assert ratio == ONE + Q * T
    assert ratio * (ONE - Q * T) == ONE - Q**2 * T**2


def test_division_by_zero_is_distinct_error():
    with pytest.raises(QTDivisionByZero):
        ONE / QTRational.zero()
    with pytest.raises(QTDivisionByZero):
        QTRational.zero().inverse()


def test_gcd_identical_inputs():
    p = (ONE - Q * T).num
    assert qt_gcd(p, p) == QTPolynomial({(1, 1): 1, (0, 0): -1})


def test_gcd_factors_difference_of_squares():
    big = (ONE - Q**2 * T**2).num
    small = (ONE - Q * T).num
    g = qt_gcd(big, small)
    # normalised so the lex-greatest term has coefficient 1: qt - 1
    assert g == QTPolynomial({(1, 1): 1, (0, 0): -1})
    big.div_exact(g)
    small.div_exact(g)


def test_gcd_coprime_monomials():
    assert qt_gcd(QTPolynomial.monomial(1, 0), QTPolynomial.monomial(0, 1)).is_one()


def test_gcd_rejects_double_zero():
    with pytest.raises(ValueError):
        qt_gcd(QTPolynomial.zero(), QTPolynomial.zero())


def test_gcd_divides_and_contains_common_factor():
    rng = random.Random(11)
    for _ in range(200):
        g0 = rand_poly(rng, nterms=2, deg=2)
        a = rand_poly(rng) * g0
        b = rand_poly(rng) * g0
        g = qt_gcd(a, b)
        a.div_exact(g)
        b.div_exact(g)
        g.div_exact(qt_gcd(g, g0))  # g0 divides g


def test_eval_spec_point():
    value = (Q * (ONE - T)) / (ONE - Q * T)
    assert value.eval(2, 3) == Fraction(4, 5)
    assert ONE.eval(17, -5) == 1


def test_eval_pole_carries_point():
    with pytest.raises(VanishingDenominator) as err:
        (ONE / (ONE - Q * T)).eval(1, 1)
    assert err.value.point == (1, 1)


def test_field_axioms_random_triples():
    rng = random.Random(0)
    for _ in range(1000):
        a, b, c = rand_elem(rng), rand_elem(rng), rand_elem(rng)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a


def test_canonical_form_is_representation_independent():
    # a common factor c, integer content and sign included, cancels; so
    # does a rational constant r, which enters as a value
    rng = random.Random(1)
    for _ in range(200):
        a = rand_elem(rng)
        k = QTPolynomial.constant(rng.choice([-6, -2, -1, 1, 3, 4]))
        c = rand_poly(rng, nterms=2, deg=2) * k
        r = QTRational.monomial(0, 0, Fraction(rng.choice([-5, -2, 1, 3]), rng.randint(1, 4)))
        for value in (QTRational(a.num * c, a.den * c),
                      QTRational(a.num * c) * r / (QTRational(a.den * c) * r)):
            assert value == a
            assert hash(value) == hash(a)


def test_eval_is_multiplicative():
    rng = random.Random(2)
    points = [(Fraction(2), Fraction(3)), (Fraction(-1, 2), Fraction(5)), (Fraction(7), Fraction(-2, 3))]
    done = 0
    while done < 30:
        r, s = rand_elem(rng), rand_elem(rng)
        try:
            for qv, tv in points:
                assert (r * s).eval(qv, tv) == r.eval(qv, tv) * s.eval(qv, tv)
        except VanishingDenominator:
            continue
        done += 1


def test_negative_exponents_live_in_denominator():
    m = QTRational.monomial(2, -3)
    assert m.num == QTPolynomial.monomial(2, 0)
    assert m.den == QTPolynomial.monomial(0, 3)
    assert m * QTRational.monomial(-2, 3) == ONE


def test_substitute_q():
    value = (Q * (ONE - T)) / (ONE - Q * T)
    assert value.substitute_q(0).is_zero()
    assert value.substitute_q(1).is_one()  # (1-t)/(1-t)
    assert value.substitute_q(2) == (ONE + ONE) * (ONE - T) / (ONE - (ONE + ONE) * T)


def test_json_round_trip_bit_exact():
    rng = random.Random(3)
    for _ in range(50):
        a = rand_elem(rng)
        data = json.loads(json.dumps(a.to_json()))
        back = QTRational.from_json(data)
        assert back == a
        assert back.to_json() == a.to_json()


def test_exact_division_error():
    with pytest.raises(ExactDivisionError):
        (ONE - Q * T).num.div_exact(QTPolynomial.monomial(1, 0))


# -- stored coefficients: int only, never Fraction or float -------------------

def stored_form_ok(poly):
    return all(type(coeff) is int for coeff in poly.terms.values())


def content(poly):
    return math.gcd(*poly.terms.values())


def positive(poly):
    """The associate of ``poly`` (itself or its negative) with a positive
    lex-leading coefficient."""
    return -poly if poly.leading_term()[1] < 0 else poly


@pytest.mark.parametrize(
    "build",
    [
        lambda: QTPolynomial({(0, 0): 0.1}),
        lambda: QTPolynomial.constant(1.0),
        lambda: QTPolynomial.monomial(1, 0, 2.5),
        lambda: QTPolynomial({(1, 0): 1, (0, 0): 0.5}),
        lambda: QTRational.monomial(1, 1, 0.5),
        lambda: QTRational.one().eval(0.5, 1),
        lambda: QTRational.q().substitute_q(0.5),
        lambda: QTPolynomial.from_json([[0, 0, 0.25]]),
    ],
)
def test_floats_are_refused(build):
    with pytest.raises(TypeError):
        build()


def test_integral_coefficients_are_stored_as_int():
    two = QTPolynomial({(1, 0): Fraction(6, 3), (0, 0): Fraction(4, 2)})
    assert all(type(c) is int for c in two.terms.values())
    assert two + two == QTPolynomial({(1, 0): 4, (0, 0): 4})
    with pytest.raises(TypeError):
        QTPolynomial({(1, 0): Fraction(1, 2)})
    # the denominator keeps its lex-leading coefficient 2: 1 / (2q + 4)
    # is stored as it is, and its negative flips the sign of num, not den
    den = QTPolynomial({(1, 0): 2, (0, 0): 4})
    value = QTRational(QTPolynomial.one(), den)
    assert value.den.terms == {(1, 0): 2, (0, 0): 4}
    assert value.num.terms == {(0, 0): 1}
    assert QTRational(QTPolynomial.one(), -den) == -value
    assert (-value).num.terms == {(0, 0): -1} and (-value).den == den
    # a rational coefficient enters as a value: q / 2 is num q over den 2
    half = QTRational.monomial(1, 0, Fraction(1, 2))
    assert half.num.terms == {(1, 0): 1} and half.den.terms == {(0, 0): 2}
    assert half + half == Q
    assert stored_form_ok(value.num) and stored_form_ok(value.den)


exponents = st.tuples(st.integers(0, 3), st.integers(0, 3))
integers = st.integers(-6, 6)
rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4).filter(bool)
polys = st.dictionaries(exponents, integers, max_size=4).map(QTPolynomial)
nonzero_polys = polys.filter(lambda p: not p.is_zero())
# rational numbers enter Q(q,t) as values, here a constant factor
elements = st.builds(
    lambda num, den, r: QTRational(num, den) * QTRational.monomial(0, 0, r),
    polys, nonzero_polys, rationals,
)


@given(st.dictionaries(exponents, integers, max_size=5), nonzero_polys, rationals)
def test_int_and_fraction_construction_agree(terms, den, r):
    as_int = QTPolynomial(terms)
    as_frac = QTPolynomial({key: Fraction(c) for key, c in terms.items()})
    assert as_int == as_frac
    assert hash(as_int) == hash(as_frac)
    assert as_int.to_json() == as_frac.to_json()
    assert as_int.terms == as_frac.terms
    assert stored_form_ok(as_frac)
    r_int, r_frac = QTRational(as_int, den), QTRational(as_frac, den)
    assert r_int == r_frac and hash(r_int) == hash(r_frac)
    assert r_int.to_json() == r_frac.to_json()
    # a rational coefficient p/s is the quotient of the integers p and s
    mono = QTRational.monomial(0, 0, r)
    quotient = QTRational(QTPolynomial.constant(r.numerator), QTPolynomial.constant(r.denominator))
    assert mono == quotient and hash(mono) == hash(quotient)


@given(polys, nonzero_polys)
def test_product_divides_back(a, b):
    assert (a * b).div_exact(b) == a
    # over Z: 2b divides ab only when 2 divides a's content
    if not a.is_zero() and content(a) % 2:
        with pytest.raises(ExactDivisionError):
            (a * b).div_exact(b * QTPolynomial.constant(2))


@given(polys, polys, integers, nonzero_polys)
def test_polynomial_operations_keep_stored_form(a, b, c, d):
    results = [a + b, a - b, a * b, -a, a * QTPolynomial.constant(c), (a * d).div_exact(d),
               a.substitute_q(c)]
    if not a.is_zero() or not b.is_zero():
        results.append(qt_gcd(a, b))
        assert results[-1].leading_term()[1] > 0
    for poly in results:
        assert stored_form_ok(poly)


@given(elements, elements)
def test_field_operations_keep_stored_form(x, y):
    results = [x + y, x - y, x * y, -x]
    if not y.is_zero():
        results += [x / y, y.inverse()]
    for value in results:
        assert stored_form_ok(value.num) and stored_form_ok(value.den)
        assert value.den.leading_term()[1] > 0


# a common factor: nonzero constants of either sign, monomials and
# polynomials of several terms, integer content included
factors = st.one_of(integers.filter(bool).map(QTPolynomial.constant), nonzero_polys)


@given(polys, nonzero_polys, factors)
@example(QTPolynomial({(1, 0): 2}), QTPolynomial({(0, 0): 4, (1, 1): -6}),
         QTPolynomial.constant(-3))
@example(QTPolynomial({(0, 0): 3, (1, 0): 3}), QTPolynomial({(2, 1): 5, (0, 0): -5}),
         QTPolynomial({(0, 0): -2, (1, 2): 4}))
def test_canonical_form_over_the_integers(a, b, c):
    value = QTRational(a, b)
    scaled = QTRational(a * c, b * c)
    assert scaled == value
    assert (scaled.num, scaled.den) == (value.num, value.den)
    assert hash(scaled) == hash(value)
    assert stored_form_ok(value.num) and stored_form_ok(value.den)
    assert value.den.leading_term()[1] > 0
    # num and den share no factor in Z[q,t]: no integer, no polynomial
    if not value.is_zero():
        assert math.gcd(content(value.num), content(value.den)) == 1
        assert qt_gcd(value.num, value.den).is_one()


def field_binomial_product(qexp, texp, binomials):
    """q^qexp t^texp prod (1 - q^a t^b)^m built with field arithmetic."""
    value = QTRational.monomial(qexp, texp)
    for (a, b), m in binomials.items():
        value = value * (ONE - QTRational.monomial(a, b)) ** m
    return value


binomial_keys = st.tuples(st.integers(-2, 3), st.integers(-3, 3)).filter(lambda k: k != (0, 0))
binomial_maps = st.dictionaries(binomial_keys, st.integers(-2, 2), max_size=4)


@st.composite
def binomial_maps_sharing_a_factor(draw):
    """A map with a binomial on one side and one with a parallel label on
    the other, such as (1, 1) against (2, 2), (0, c) against (0, -c), or
    (2, 2) against (3, 3), where neither label is a multiple of the other."""
    binomials = draw(binomial_maps)
    a, b = draw(binomial_keys)
    key, partner = draw(
        st.sampled_from(
            [
                ((a, b), (2 * a, 2 * b)),
                ((a, b), (-a, -b)),
                ((a, b), (-2 * a, -2 * b)),
                ((2 * a, 2 * b), (3 * a, 3 * b)),
            ]
        )
    )
    sign = draw(st.sampled_from([1, -1]))
    binomials[key] = sign * draw(st.integers(1, 2))
    binomials[partner] = -sign * draw(st.integers(1, 2))
    return binomials


@given(
    st.integers(-3, 3),
    st.integers(-3, 3),
    st.one_of(binomial_maps, binomial_maps_sharing_a_factor()),
)
# parallel labels neither of which is a multiple of the other, on every run
@example(0, 0, {(2, 2): 1, (3, 3): -1})
def test_form_value_equals_field_product(qexp, texp, binomials):
    value = cyclotomic_form((qexp, texp, binomials)).value()
    assert value == field_binomial_product(qexp, texp, binomials)
    assert stored_form_ok(value.num) and stored_form_ok(value.den)
    assert value.den.leading_term()[1] == 1


def value_of(qexp, texp, binomials):
    return cyclotomic_form((qexp, texp, binomials)).value()


def form(sign, qexp, texp, counts):
    """The cyclotomic form with these parts, counts given as a dict."""
    return sign, qexp, texp, frozenset(counts.items())


def test_form_value_examples():
    assert value_of(0, 0, {}) == ONE
    assert value_of(2, -1, {(1, 1): 0}) == Q * Q / T
    # (1 - qt) / (1 - q^2 t^2) = 1 / (1 + qt)
    assert value_of(0, 0, {(1, 1): 1, (2, 2): -1}) == ONE / (ONE + Q * T)
    # (1 - t^2) / (1 - t^-2) = -t^2
    assert value_of(0, 0, {(0, 2): 1, (0, -2): -1}) == -(T * T)
    assert value_of(1, 0, {(1, -1): -1}) == Q / (ONE - Q / T)
    with pytest.raises(ValueError):
        value_of(0, 0, {(0, 0): 1})


def test_cyclotomic_form_adds_exponents_and_counts():
    # the factors multiply: exponents and multiplicities add, so a binomial
    # and its inverse cancel across factors
    factors = [(1, 0, {(1, 1): 2}), (0, -1, {(1, 1): -2, (0, 1): 1}), (2, 3, {})]
    assert cyclotomic_form(*factors) == form(-1, 3, 2, {(1, 0, 1): 1})
    assert cyclotomic_form(*factors) == cyclotomic_form((3, 2, {(1, 1): 0, (0, 1): 1}))


def test_binomial_coprimality_test_is_exact():
    # two binomials share a factor exactly when their labels (a, b) and
    # (c, d) are parallel, a d = b c, which is when their cyclotomic labels
    # meet: exhaustively on a box, against the gcd, and the quotient's
    # value is the field quotient either way
    labels = [(a, b) for a in range(-3, 4) for b in range(-3, 4) if (a, b) != (0, 0)]
    for a, b in labels:
        top = ONE - QTRational.monomial(a, b)
        top_labels = {label for label, _ in cyclotomic_form((0, 0, {(a, b): 1})).counts}
        for c, d in labels:
            bottom = ONE - QTRational.monomial(c, d)
            coprime = qt_gcd(top.num, bottom.num).is_one()
            assert (a * d != b * c) == coprime, ((a, b), (c, d))
            bottom_labels = {label for label, _ in cyclotomic_form((0, 0, {(c, d): 1})).counts}
            assert top_labels.isdisjoint(bottom_labels) == coprime, ((a, b), (c, d))
            quotient = cyclotomic_form((0, 0, {(a, b): 1}), (0, 0, {(c, d): -1}))
            assert quotient.value() == top / bottom, ((a, b), (c, d))


# -- the canonical form of a binomial product -------------------------------

# primitive directions, opposite ones included, and multiples along them:
# the labels among which a product can have two spellings
directions = st.sampled_from([(1, 0), (0, 1), (1, 1), (1, -1), (-1, 0), (0, -1), (-1, -1), (2, 1)])
parallel_keys = st.builds(
    lambda d, k: (k * d[0], k * d[1]), directions, st.sampled_from([-3, -2, -1, 1, 2, 3])
)
parallel_products = st.tuples(
    st.integers(-3, 3),
    st.integers(-3, 3),
    st.dictionaries(parallel_keys, st.integers(-2, 2), max_size=4),
)


def flipped(product, flips):
    """The same binomials with the labels in ``flips`` written opposite:
    (1 - m)^k = (-1)^k m^k (1 - m^-1)^k, so the result equals ``product``
    exactly when the flipped multiplicities add up to an even number."""
    qexp, texp, binomials = product
    out = {}
    for (a, b), m in binomials.items():
        if (a, b) in flips:
            qexp, texp, a, b = qexp + a * m, texp + b * m, -a, -b
        out[a, b] = out.get((a, b), 0) + m
    return qexp, texp, out


def merged(first, second):
    """One factor with the exponents and multiplicities of two added."""
    binomials = dict(first[2])
    for key, m in second[2].items():
        binomials[key] = binomials.get(key, 0) + m
    return first[0] + second[0], first[1] + second[1], binomials


@given(parallel_products, parallel_products, st.sets(parallel_keys))
@example((0, 0, {(2, 2): 1}), (0, 0, {(1, 1): 2}), set())
def test_normal_forms_are_equal_exactly_when_values_are(first, second, flips):
    # the values come from field arithmetic, not from the form under test
    value = field_binomial_product(*first)
    assert cyclotomic_form(first).value() == value
    assert cyclotomic_form(first, second) == cyclotomic_form(merged(first, second))
    for other in (second, flipped(first, flips)):
        same_value = value == field_binomial_product(*other)
        assert (cyclotomic_form(first) == cyclotomic_form(other)) == same_value, other


def test_normal_form_controls():
    # 1 - q^2 t^2 = (1 - qt)(1 + qt) is not (1 - qt)^2
    assert cyclotomic_form((0, 0, {(2, 2): 1})) != cyclotomic_form((0, 0, {(1, 1): 2}))
    # 1 - q^-1 t^-1 = -q^-1 t^-1 (1 - qt)
    minus = cyclotomic_form((0, 0, {(-1, -1): 1}))
    minus_one = (0, -2, {(0, 2): 1, (0, -2): -1})  # t^-2 (1 - t^2) / (1 - t^-2)
    assert minus == cyclotomic_form((-1, -1, {(1, 1): 1}), minus_one)
    # in labels q^-1 t^-1 Phi_1(qt), Phi_1(u) = u - 1
    assert minus == form(1, -1, -1, {(1, 1, 1): 1})
    assert minus.value() == ONE - QTRational.monomial(-1, -1)
    # a label and its opposite merge, and zero counts are dropped:
    # (1 - t^2) / (1 - t^-2) = -t^2
    assert cyclotomic_form((0, 0, {(0, 2): 1, (0, -2): -1, (1, 0): 0})) == form(-1, 0, 2, {})
    # q^-2 t^-2 (1 - qt)^2 / (1 - q^-1 t^-1) is the same product, spelt otherwise
    other = cyclotomic_form((-2, -2, {(1, 1): 2, (-1, -1): -1}), (0, 0, {(1, 2): 0}))
    assert other == minus and hash(other) == hash(minus)
    with pytest.raises(ValueError):
        cyclotomic_form((0, 0, {(0, 0): 0}))


@given(st.lists(parallel_products, max_size=4))
# counts that cancel to zero, and a sign that flips back
@example([(0, 0, {(1, 1): 1}), (1, 0, {(2, 2): -1}), (0, 0, {(-1, -1): 1})])
@example([(0, 0, {(0, 1): 1}), (0, 0, {(0, -1): 1}), (0, 0, {(2, 2): 1})])
def test_form_product_is_the_form_of_all_factors(factors):
    assert form_product(map(cyclotomic_form, factors)) == cyclotomic_form(*factors)


def test_form_product_controls():
    assert form_product([]) == cyclotomic_form() == form(1, 0, 0, {})
    # 1 - qt = -Phi_1(qt): its inverse cancels it, label and sign
    up, down = cyclotomic_form((0, 0, {(1, 1): 1})), cyclotomic_form((0, 0, {(1, 1): -1}))
    assert up == form(-1, 0, 0, {(1, 1, 1): 1})
    assert form_product([up, down]) == form(1, 0, 0, {})
    assert form_product([up, up, cyclotomic_form((2, -1, {}))]) == form(1, 2, -1, {(1, 1, 1): 2})
    # (1 - qt)(1 - q^-1 t^-1) = -q^-1 t^-1 (1 - qt)^2: the signs multiply to -1
    assert form_product([up, cyclotomic_form((0, 0, {(-1, -1): 1}))]) == form(
        -1, -1, -1, {(1, 1, 1): 2}
    )


# -- cyclotomic labels ---------------------------------------------------------


def test_cyclotomic_polynomials_multiply_to_x_to_the_g_minus_one():
    for g in range(1, 41):
        product = [1]
        for e in range(1, g + 1):
            if g % e == 0:
                phi = cyclotomic_coefficients(e)
                assert phi[-1] == 1 and len(phi) - 1 == sum(
                    1 for k in range(1, e + 1) if math.gcd(k, e) == 1
                )
                out = [0] * (len(product) + len(phi) - 1)
                for i, a in enumerate(product):
                    for j, b in enumerate(phi):
                        out[i + j] += a * b
                product = out
        assert product == [-1] + [0] * (g - 1) + [1], g


def laurent_value(terms):
    return sum(
        (QTRational.monomial(qe, te, c) for (qe, te), c in terms.items()), QTRational.zero()
    )


def phi_value(counts):
    return laurent_value(cyclotomic_product(counts))


@given(parallel_products, st.sampled_from([(1, 1), (0, 2), (-2, 4), (3, -3)]), st.integers(0, 2))
@example((0, 0, {(2, 2): 1, (3, 3): -1}), (1, 1), 1)
def test_cyclotomic_form_and_quotient_give_the_field_value(product, planted, k):
    value = field_binomial_product(*product)
    sign, qexp, texp, counts = cyclotomic_form(product)
    top = [(label, n) for label, n in counts if n > 0]
    bottom = {label: -n for label, n in counts if n < 0}
    field = QTRational.monomial(qexp, texp, sign) * phi_value(top) / phi_value(bottom.items())
    assert field == value
    # a factor planted k times over and under the line is divided out again
    planted_counts = cyclotomic_form((0, 0, {planted: k}))[3]
    for label, n in planted_counts:
        bottom[label] = bottom.get(label, 0) + n
    num = cyclotomic_product(top + list(planted_counts))
    shifted = {(qe + qexp, te + texp): sign * c for (qe, te), c in num.items()}
    quotient = cyclotomic_quotients([((), {0: shifted})], bottom)[0]
    assert quotient == value
    assert stored_form_ok(quotient.num) and stored_form_ok(quotient.den)


def test_cyclotomic_form_controls():
    # 1 - q^2 t^2 = -Phi_1(qt) Phi_2(qt); 1 - q^-2 = q^-2 Phi_1(q) Phi_2(q)
    assert cyclotomic_form((0, 0, {(2, 2): 1})) == form(-1, 0, 0, {(1, 1, 1): 1, (2, 1, 1): 1})
    assert cyclotomic_form((0, 0, {(-2, 0): 1})) == form(1, -2, 0, {(1, 1, 0): 1, (2, 1, 0): 1})
    # (1 - qt) / (1 - q^2 t^2) = 1 / (1 + qt): the shared factor cancels
    assert cyclotomic_form((0, 0, {(1, 1): 1, (2, 2): -1})) == form(1, 0, 0, {(2, 1, 1): -1})
    with pytest.raises(ValueError):
        cyclotomic_form((0, 0, {(0, 0): 1}))
    # 3(1 - q) / (q - 1) = -3 and 3(1 + q) / ((q - 1)(q + 1)) = 3 / (q - 1)
    phi_1, phi_2 = (1, 1, 0), (2, 1, 0)
    minus = cyclotomic_quotients([((), {0: {(0, 0): 3, (1, 0): -3}})], {phi_1: 1})[0]
    assert minus == QTRational.monomial(0, 0, -3)
    value = cyclotomic_quotients([((), {0: {(0, 0): 3, (1, 0): 3}})], {phi_1: 1, phi_2: 1})[0]
    assert value == QTRational.monomial(0, 0, 3) / (Q - ONE)
    assert stored_form_ok(value.num) and stored_form_ok(value.den)


# -- sums reduced on packed integers ----------------------------------------

# normalised primitive directions, slopes of either sign, so that a label's
# image 2^(w (d1 row + d2)) can be near the bottom of a row
cyclotomic_labels = st.builds(
    lambda e, d: (e, *d),
    st.integers(1, 6),
    st.sampled_from([(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, -2), (3, -2)]),
)
label_counts = st.dictionaries(cyclotomic_labels, st.integers(0, 2), max_size=3)
int_laurents = st.dictionaries(
    st.tuples(st.integers(-2, 2), st.integers(-2, 2)), st.integers(-9, 9).filter(bool),
    min_size=1, max_size=5,
)


def laurent_product(*factors):
    out = {(0, 0): 1}
    for factor in factors:
        step = {}
        for (qa, ta), a in out.items():
            for (qb, tb), b in factor.items():
                step[(qa + qb, ta + tb)] = step.get((qa + qb, ta + tb), 0) + a * b
        out = {key: c for key, c in step.items() if c}
    return out


def added_counts(*counts):
    out = {}
    for each in counts:
        for label, n in each.items():
            out[label] = out.get(label, 0) + n
    return out


@given(st.lists(st.tuples(label_counts, int_laurents), min_size=1, max_size=3),
       label_counts, label_counts)
@example([({}, {(0, 0): 1, (1, 0): -1})], {}, {(1, 0, 1): 1})
@example([({}, {(0, 0): 1})], {(1, 1, -1): 2, (2, 1, -1): 1}, {(1, 1, -1): 1})
def test_packed_quotients_equal_field_arithmetic(parts, planted, den):
    # sum of numerators times cofactors, all times planted labels, over a
    # denominator holding them: the value in Q(q,t) arithmetic, where
    # labels are only multiplied out, never divided
    den = added_counts(den, planted)
    sums = cyclotomic_quotients(
        [(list(added_counts(cof, planted).items()), {"x": acc}) for cof, acc in parts], den)
    numerator = sum((laurent_value(acc) * phi_value(cof.items()) for cof, acc in parts),
                    QTRational.zero())
    expected = numerator * phi_value(planted.items()) / phi_value(den.items())
    assert sums.get("x", QTRational.zero()) == expected
    if "x" in sums:
        assert stored_form_ok(sums["x"].num) and stored_form_ok(sums["x"].den)


@pytest.fixture
def fallbacks(monkeypatch):
    # the calls of cyclotomic_quotients' fallback to Q(q,t) arithmetic
    calls, field_quotient = [], cleared._field_quotient

    def counted(*args):
        calls.append(args)
        return field_quotient(*args)

    monkeypatch.setattr(cleared, "_field_quotient", counted)
    return calls


def test_a_false_division_in_a_narrow_frame_falls_back_to_field_arithmetic(monkeypatch, fallbacks):
    # (1 - q)(1 + 5t)(qt - 1) over (t - 1)(qt - 1), with the frame forced
    # down to 8-bit slots.  There 255, the image of t - 1, divides the image
    # of the numerator, though t - 1 does not divide it (as it divides the
    # image 2^(8 row) - 1 of q - 1): the certificate fails and the sum is
    # added again in Q(q,t)
    frames = []

    def narrow(bound, row, q0, t0):
        frames.append(Frame(8, row, q0, t0))
        return frames[-1]

    monkeypatch.setattr(Frame, "holding", staticmethod(narrow))
    phi_1_t, phi_1_qt = (1, 0, 1), (1, 1, 1)
    terms = laurent_product({(0, 0): 1, (1, 0): -1}, {(0, 0): 1, (0, 1): 5},
                            {(1, 1): 1, (0, 0): -1})
    value = cyclotomic_quotients([((), {0: terms})], {phi_1_t: 1, phi_1_qt: 1})[0]
    assert value == (ONE - Q) * (ONE + QTRational.monomial(0, 1, 5)) / (T - ONE)
    [frame] = frames
    image = sum(c << frame.at(qe, te) for (qe, te), c in terms.items())
    assert image % frame.phi(phi_1_t) == 0
    assert len(fallbacks) == 1


def test_no_route_sum_falls_back_to_field_arithmetic(fallbacks):
    # every sum of both routes is certified in its frame: a narrowed frame
    # would fall back to gcd arithmetic, still exact, and show only here
    # in frames laid out at the sums' own L1 bound, with no room above it;
    # (5,5,1), (1,2,5) and (2,2,1,2,2,1) are drawn by the bench
    family = [mu.parts for n in (1, 2, 3) for mu in compositions_with(n, 3)]
    for parts in family + [(0, 2, 1, 3), (0, 1, 4, 2), (3, 0, 2, 1, 4), (5, 5, 1), (1, 2, 5),
                           (2, 2, 1, 2, 2, 1)]:
        assert f_hhl(Composition(parts)) == f_matrix_product(Composition(parts)), parts
    assert fallbacks == []


@pytest.fixture
def field_operations(monkeypatch):
    # the QTPolynomial products and gcds taken inside cyclotomic_quotients
    # when xpoly.binomial_sum calls it, and the number of those calls
    calls, inside, reductions = [], [], []
    quotients = xpoly.cyclotomic_quotients

    def reduce(*args):
        reductions.append(args)
        inside.append(True)
        try:
            return quotients(*args)
        finally:
            inside.pop()

    def counted(name, fn):
        def wrapper(*args):
            if inside:
                calls.append(name)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(xpoly, "cyclotomic_quotients", reduce)
    monkeypatch.setattr(QTPolynomial, "__mul__", counted("mul", QTPolynomial.__mul__))
    monkeypatch.setattr(qt, "qt_gcd", counted("gcd", qt.qt_gcd))
    return calls, reductions


def test_route_sums_take_no_polynomial_product_or_gcd(monkeypatch, field_operations):
    # the canonical values are the reduced numerators and the labels'
    # product moved by exponent shifts
    calls, reductions = field_operations
    f_hhl(Composition((0, 1, 4, 2)))
    assert reductions and calls == []
    # the counters are live: the false division in an 8-bit frame (above)
    # falls back to Q(q,t) arithmetic, with products and gcds
    monkeypatch.setattr(Frame, "holding", staticmethod(lambda _bound, *at: Frame(8, *at)))
    terms = laurent_product({(0, 0): 1, (1, 0): -1}, {(0, 0): 1, (0, 1): 5},
                            {(1, 1): 1, (0, 0): -1})
    xpoly.cyclotomic_quotients([((), {0: terms})], {(1, 0, 1): 1, (1, 1, 1): 1})
    assert "mul" in calls and "gcd" in calls


@pytest.mark.parametrize("label, box", [((1, 1, 1), (0, 0)), ((1, 1, -1), (0, -1))])
def test_a_corrupted_reduced_numerator_fails_its_certificate(label, box):
    # B = 1 + t, the numerator (u - 1)(1 + t) divided by Phi_1(u), u = qt
    # or q/t, in a frame of three t slots a row from the numerator's lowest
    # exponents (q0, t0) = box
    frame = Frame(32, 3, *box)
    reduced = (1 << frame.at(0, 0)) + (1 << frame.at(0, 1))
    divisors = cleared._extent([(label, 1)])
    assert cleared._certified(frame, reduced, divisors) == {(0, 0): 1, (0, 1): 1}
    half = 1 << (frame.width - 1)
    corrupted = [
        # a slot above (half - 1) / L1(u - 1)
        reduced + ((half // 2) << frame.at(1, 0)),
        # two slots within it, whose sum times L1(u - 1) = 2 reaches 2^(w - 1)
        reduced + ((half // 4) << frame.at(1, 0)) + ((half // 4) << frame.at(1, 1)),
        # a term that u moves off the frame: t^2 times qt, t^-1 times q/t
        reduced + (1 << frame.at(0, 2 if label[2] > 0 else -1)),
    ]
    for num in corrupted:
        with pytest.raises(ArithmeticError):
            cleared._certified(frame, num, divisors)


# -- qt_gcd returns the greatest common divisor, not just a common one --------


def binomials_times(labels):
    poly = QTPolynomial.one()
    for a, b in labels:
        poly = poly * QTPolynomial({(0, 0): 1, (a, b): -1})
    return poly


polynomial_labels = st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda k: k != (0, 0))


@st.composite
def coprime_cofactors(draw):
    """Two products of binomials 1 - q^a t^b where no label of one is
    parallel to a label of the other, so the two are coprime by the label
    criterion of ``test_binomial_coprimality_test_is_exact`` (parallel labels within
    one product, as in (1 - qt)(1 - q^2 t^2), are allowed)."""
    u = draw(st.lists(polynomial_labels, max_size=3))
    v = draw(
        st.lists(
            polynomial_labels.filter(lambda k: all(k[0] * b != k[1] * a for a, b in u)),
            max_size=3,
        )
    )
    return binomials_times(u), binomials_times(v)


@given(nonzero_polys, st.integers(0, 2), st.integers(0, 2), coprime_cofactors())
def test_gcd_of_planted_factor_with_coprime_cofactors_is_that_factor(g, i, j, cofactors):
    # the cofactors are primitive, so the gcd over Z is g itself, content
    # included, made positive
    g = g * QTPolynomial.monomial(i, j)
    u, v = cofactors
    primitive = QTPolynomial({key: c // content(g) for key, c in g.terms.items()})
    assert qt_gcd(g * u, g * v) == positive(primitive) * QTPolynomial.constant(content(g))


@pytest.mark.parametrize("a, b", [(1, 0), (0, 1), (1, 1), (1, 2), (2, 1), (2, 3)])
def test_gcd_of_cyclotomic_binomials(a, b):
    # gcd(1 - m^j, 1 - m^k) = 1 - m^gcd(j, k) for m = q^a t^b, gcd(a, b) = 1
    for j in range(1, 7):
        for k in range(1, 7):
            d = math.gcd(j, k)
            got = qt_gcd(binomials_times([(j * a, j * b)]), binomials_times([(k * a, k * b)]))
            assert got == positive(binomials_times([(d * a, d * b)])), (j, k)


def test_gcd_rejects_a_spurious_candidate_and_grows_xi(monkeypatch):
    # a = qt (3q + 2) and b = q + 2 are coprime.  The first xi is
    # 2 min(3, 2) + 2 = 6, where the images 120 t and 8 share the integer
    # 8 = 2 + 1 * 6, whose digits read back as q + 2: that candidate does
    # not divide a, so it is rejected and xi grows before 1 is accepted.
    seen = []
    at = qt._at

    def recording_at(terms, var, xi):
        seen.append((var, xi))
        return at(terms, var, xi)

    monkeypatch.setattr(qt, "_at", recording_at)
    qt._gcd_cached.cache_clear()
    a = QTPolynomial({(2, 1): 3, (1, 1): 2})
    b = QTPolynomial({(1, 0): 1, (0, 0): 2})
    assert qt_gcd(a, b).is_one()
    outer = sorted({xi for var, xi in seen if var == 0})
    assert outer[0] == 6 and len(outer) > 1
