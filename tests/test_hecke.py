"""Affine Hecke generators and Cherednik-Dunkl operators."""

import math
import random

import pytest
from hypothesis import given, strategies as st

from nsmacdonald.compositions import Composition, eigenvalue_y
from nsmacdonald.fillings import f_hhl
from nsmacdonald.hecke import (
    apply_T,
    apply_Y,
    random_polynomial,
    verify_eigen,
    verify_hecke_relations,
)
from nsmacdonald import qt
from nsmacdonald.cleared import ClearedPolynomial
from nsmacdonald.qt import Fraction, QTPolynomial, QTRational, qt_lcm
from nsmacdonald.xpoly import (
    XPolynomial,
    clear,
    compose_vars,
    cyclic_omega,
    divided_difference_div,
    reverse_alphabet,
)

from bruteforce_oracle import plain_delta

ONE = QTRational.one()
Q = QTRational.q()
T = QTRational.t()


# -- the reversed-alphabet (tilde) conventions, in XPolynomial arithmetic ----


def apply_T_tilde(p, i, inverse=False):
    """T~_i p = t p - (t x_i - x_{i+1}) delta_i(p), or its inverse
    t^{-1} (p - (t x_i - x_{i+1}) delta_i(p))."""
    n = p.nvars
    factor = XPolynomial.variable(n, i).scale(T) - XPolynomial.variable(n, i + 1)
    core = factor * divided_difference_div(p, i)
    return (p - core).scale(T.inverse()) if inverse else p.scale(T) - core


def omega_tilde(p):
    """(omega~ h)(x_1,..,x_n) = h(q x_n, x_1,..,x_{n-1})."""
    n = p.nvars
    return compose_vars(p, [(n, Q)] + [(k, ONE) for k in range(1, n)])


def apply_Y_tilde(p, i):
    """Y~_i = T~_i .. T~_{n-1} . omega~ . T~_1^{-1} .. T~_{i-1}^{-1}."""
    out = p
    for k in range(i - 1, 0, -1):
        out = apply_T_tilde(out, k, inverse=True)
    out = omega_tilde(out)
    for k in range(p.nvars - 1, i - 1, -1):
        out = apply_T_tilde(out, k)
    return out


def reversal_identity_holds(p, i):
    """Whether Y_{n-i+1} p equals the tilde action through the reversed
    alphabet, rev(Y~_i(rev p))."""
    lhs = apply_Y(p, p.nvars - i + 1)
    return lhs == reverse_alphabet(apply_Y_tilde(reverse_alphabet(p), i))


def test_T_on_constants():
    for n in (2, 3, 4):
        one = XPolynomial.one(n)
        for i in range(1, n):
            assert apply_T(one, i) == one.scale(T)
            assert apply_T(one, i, inverse=True) == one.scale(T.inverse())


def test_T1_on_x1():
    x1, x2 = XPolynomial.variable(2, 1), XPolynomial.variable(2, 2)
    assert apply_T(x1, 1) == x1.scale(T - ONE) + x2.scale(T)


def test_T_inverse_is_inverse():
    rng = random.Random(0)
    for n in (2, 3):
        for _ in range(5):
            p = random_polynomial(n, rng)
            for i in range(1, n):
                assert apply_T(apply_T(p, i), i, inverse=True) == p
                assert apply_T(apply_T(p, i, inverse=True), i) == p


def test_Y1_on_x1():
    x1 = XPolynomial.variable(2, 1)
    assert apply_Y(x1, 1) == x1.scale(Q)


def test_Y2_on_golden_eigenvector(golden_polys):
    f01 = golden_polys[(0, 1)]
    assert apply_Y(f01, 2) == f01.scale(Q * T)


def test_Y_on_constants():
    for n in (2, 3, 4):
        one = XPolynomial.one(n)
        for i in range(1, n + 1):
            assert apply_Y(one, i) == one.scale(QTRational.monomial(0, 2 * i - n - 1))


def test_index_ranges():
    p = XPolynomial.one(2)
    with pytest.raises(IndexError):
        apply_T(p, 2)
    with pytest.raises(IndexError):
        apply_Y(p, 3)


# c q^a t^b / (1 - q^d t^e): coefficients with a binomial denominator,
# which random_polynomial's monomial coefficients never have
coefficients = st.builds(
    lambda c, a, b, de: QTRational.monomial(a, b, c) / (ONE - QTRational.monomial(*de)),
    st.integers(-3, 3).filter(bool),
    st.integers(-2, 2),
    st.integers(-2, 2),
    st.tuples(st.integers(0, 2), st.integers(-2, 2)).filter(lambda de: de != (0, 0)),
)
general_polynomials = st.integers(2, 3).flatmap(
    lambda n: st.dictionaries(
        st.tuples(*[st.integers(0, 2)] * n), coefficients, min_size=1, max_size=3
    ).map(lambda terms: XPolynomial(n, terms))
)


@given(general_polynomials)
def test_hecke_relations_on_general_coefficients(p):
    for i in range(1, p.nvars):
        shifted = apply_T(p, i) + p
        assert (apply_T(shifted, i) - shifted.scale(T)).is_zero()  # (T_i - t)(T_i + 1) p
        assert apply_T(apply_T(p, i), i, inverse=True) == p


def swap(p, i):
    """s_i p: x_i and x_{i+1} exchanged, term by term."""
    def swapped(exps):
        e = list(exps)
        e[i - 1], e[i] = e[i], e[i - 1]
        return tuple(e)

    return XPolynomial(p.nvars, {swapped(e): c for e, c in p.terms.items()})


def omega_by_substitution(p):
    """p(x_2,..,x_n, q x_1), each term evaluated by ring arithmetic."""
    n = p.nvars
    images = [XPolynomial.variable(n, k + 1) for k in range(1, n)]
    images.append(XPolynomial.variable(n, 1).scale(Q))
    out = XPolynomial.zero(n)
    for exps, coeff in p.terms.items():
        term = XPolynomial.constant(n, coeff)
        for image, e in zip(images, exps):
            term = term * image**e
        out = out + term
    return out


@given(general_polynomials)
def test_generators_match_their_defining_formulas(p):
    # T_i p = t p - (x_i - t x_{i+1})(p - s_i p)/(x_i - x_{i+1}), and
    # T_i^{-1} p = t^{-1}(p - (x_i - t x_{i+1})(p - s_i p)/(x_i - x_{i+1})):
    # multiplied by x_i - x_{i+1}, which is not a zero divisor, they fix each
    # result uniquely without a division
    n = p.nvars
    for i in range(1, n):
        xi, xnext = XPolynomial.variable(n, i), XPolynomial.variable(n, i + 1)
        rhs = -((xi - xnext.scale(T)) * (p - swap(p, i)))
        assert (xi - xnext) * (apply_T(p, i) - p.scale(T)) == rhs
        assert (xi - xnext) * (apply_T(p, i, inverse=True).scale(T) - p) == rhs
    assert cyclic_omega(p) == omega_by_substitution(p)


def test_verify_eigen_detects_a_term_outside_the_support():
    # f_(0,2,1) has several terms and no constant term; f + t fails every
    # Y_i whose eigenvalue differs from Y_i's on constants, t^{2i-n-1},
    # with the difference t (t^{2i-n-1} - y_i) at x^(0,0,0)
    mu = Composition((0, 2, 1))
    f = f_hhl(mu)
    assert len(f.terms) > 1 and (0, 0, 0) not in f.terms
    report = verify_eigen(f + XPolynomial.constant(3, T), mu)
    expected = []
    for i in range(1, 4):
        coeff = T * (QTRational.monomial(0, 2 * i - 4) - eigenvalue_y(mu, i))
        if not coeff.is_zero():
            expected.append(
                f"Y_{i} f != y_{i} f; first differing coefficient at x^(0, 0, 0): {coeff}"
            )
    assert expected
    assert report.failures == expected
    assert report.checked == 3


def test_relations_n2():
    report = verify_hecke_relations(2, samples=5, seed=1)
    assert report.ok, report.failures


def test_relations_n3():
    report = verify_hecke_relations(3, samples=3, seed=2)
    assert report.ok, report.failures


def test_reversal_identity():
    rng = random.Random(4)
    for n in (2, 3):
        for _ in range(4):
            p = random_polynomial(n, rng)
            for i in range(1, n + 1):
                assert reversal_identity_holds(p, i)


def test_verify_eigen_golden(golden_polys):
    for parts, poly in golden_polys.items():
        assert verify_eigen(poly, Composition(parts)).ok


def test_verify_eigen_constant():
    assert verify_eigen(XPolynomial.one(3), Composition((0, 0, 0))).ok


def test_verify_eigen_negative_control():
    report = verify_eigen(XPolynomial.variable(2, 2), Composition((1, 0)))
    assert not report.ok
    assert any("differing coefficient" in msg for msg in report.failures)


def test_verify_eigen_refuses_the_zero_polynomial():
    for parts in [(0, 1), (1, 0, 2)]:
        mu = Composition(parts)
        report = verify_eigen(XPolynomial.zero(mu.n), mu)
        assert not report.ok
        assert report.checked == 1
        assert any("zero polynomial" in msg for msg in report.failures)


def test_reversed_convention_satisfies_tilde_eigen_equation():
    # E_mu(x_1..x_n) = f_{reverse(mu)}(x_n..x_1) is a joint eigenfunction of
    # the tilde operators with eigenvalues q^{mu_i} t^{etatilde_i + n - i},
    # etatilde_i = -#{j<i : mu_j >= mu_i} - #{j>i : mu_j > mu_i}
    for parts in [(1, 0), (0, 1), (2, 0), (1, 2), (0, 2, 1), (1, 0, 2)]:
        mu = Composition(parts)
        n = mu.n
        e_poly = reverse_alphabet(f_hhl(mu.reverse()))
        for i in range(1, n + 1):
            before = sum(1 for p in parts[: i - 1] if p >= parts[i - 1])
            after = sum(1 for p in parts[i:] if p > parts[i - 1])
            tilde_eig = QTRational.monomial(parts[i - 1], -before - after + n - i)
            assert apply_Y_tilde(e_poly, i) == e_poly.scale(tilde_eig), (parts, i)


def test_cleared_eigencheck_reports_the_uncleared_difference():
    # perturb a coefficient of f_(0,2,1) whose denominator is not a monomial
    from nsmacdonald.compositions import eigenvalue_y
    from nsmacdonald.fillings import f_hhl

    mu = Composition((0, 2, 1))
    f = f_hhl(mu)
    assert verify_eigen(f, mu).ok
    exps = next(e for e, c in f.sorted_terms() if len(c.den.terms) > 1)
    terms = dict(f.terms)
    terms[exps] = terms[exps] + ONE
    g = XPolynomial(mu.n, terms)
    report = verify_eigen(g, mu)
    expected = []
    for i in range(1, mu.n + 1):
        diff = apply_Y(g, i) - g.scale(eigenvalue_y(mu, i))
        if not diff.is_zero():
            lead, coeff = diff.leading_term()
            expected.append(
                f"Y_{i} f != y_{i} f; first differing coefficient at x^{lead}: {coeff}"
            )
    assert expected
    assert report.failures == expected
    assert report.checked == mu.n


# -- the generators on packed numerators against plain arithmetic ----------


def plain_T(p, i, inverse=False):
    """T_i p = t p - (x_i - t x_{i+1}) delta_i p, or T_i^{-1} p =
    t^{-1} p - (t^{-1} x_i - x_{i+1}) delta_i p, in XPolynomial arithmetic."""
    n = p.nvars
    xi, xnext = XPolynomial.variable(n, i), XPolynomial.variable(n, i + 1)
    if inverse:
        return p.scale(T.inverse()) - (xi.scale(T.inverse()) - xnext) * plain_delta(p, i)
    return p.scale(T) - (xi - xnext.scale(T)) * plain_delta(p, i)


def plain_Y(p, i):
    out = p
    for k in range(i, p.nvars):
        out = plain_T(out, k, inverse=True)
    out = omega_by_substitution(out)
    for k in range(1, i):
        out = plain_T(out, k)
    return out


def back(cleared):
    return XPolynomial(cleared.nvars, cleared.coefficients())


@given(general_polynomials)
def test_packed_generators_equal_plain_arithmetic(p):
    cleared = clear(p)
    for i in range(1, p.nvars):
        assert back(apply_T(cleared, i)) == plain_T(p, i)
        assert back(apply_T(cleared, i, inverse=True)) == plain_T(p, i, inverse=True)
        # a difference over one D and two layouts
        assert back(apply_T(cleared, i) - cleared) == plain_T(p, i) - p


def test_clear_over_mixed_denominators():
    # coefficients whose denominators differ by monomial factors and share
    # the binomial 1 - qt, one of them squared, and one rational coefficient:
    # D is their lcm in Z[q,t], monomials and the integer 6 included
    one_qt = ONE - Q * T
    p = XPolynomial(3, {
        (1, 0, 0): ONE / (T * one_qt),
        (0, 2, 1): Q.inverse() / (one_qt * one_qt),
        (0, 0, 2): T * T / (ONE - T),
        (1, 1, 0): QTRational.monomial(1, 0, Fraction(-5, 6)) / one_qt,
    })
    cleared = clear(p)
    assert back(cleared) == p
    assert cleared.den == qt_lcm(c.den for c in p.terms.values())
    assert math.gcd(*cleared.den.terms.values()) == 6
    for i in (1, 2):
        assert apply_T(p, i) == plain_T(p, i)
        assert apply_T(p, i, inverse=True) == plain_T(p, i, inverse=True)
    assert cyclic_omega(p) == omega_by_substitution(p)


def test_generator_chains_past_the_first_layout_stay_exact():
    # each generator adds one to the t span and multiplies the coefficient
    # bound by 1 + 2 degree; a fresh layout has room for 2n and n of them,
    # so 4n steps lay the numerators out afresh, once with a coefficient
    # 2^200 in the polynomial
    rng = random.Random(9)
    huge = QTRational.monomial(1, -2, 2**200)
    for n in (2, 3, 4):
        p = random_polynomial(n, rng)
        for poly in (p, p + XPolynomial.monomial(n, [2] + [0] * (n - 1), huge)):
            cleared, plain = clear(poly), poly
            first = cleared.layout
            for step in range(4 * n):
                i, inverse = step % (n - 1) + 1, step % 3 == 2
                cleared, plain = apply_T(cleared, i, inverse), plain_T(plain, i, inverse)
            assert cleared.layout[:2] != first[:2]
            assert back(cleared) == plain


@pytest.fixture
def eigen_operations(monkeypatch):
    # calls of qt_gcd, QTPolynomial products and fresh layouts of cleared
    # numerators (ClearedPolynomial.packed), in the order they are made
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(qt, "qt_gcd", counted("gcd", qt.qt_gcd))
    monkeypatch.setattr(QTPolynomial, "__mul__", counted("mul", QTPolynomial.__mul__))
    monkeypatch.setattr(ClearedPolynomial, "packed",
                        staticmethod(counted("packed", ClearedPolynomial.packed)))
    return calls


@pytest.mark.parametrize("parts", [(0, 1, 4, 2), (2, 1, 2, 2, 1, 2)])
def test_eigencheck_takes_no_gcd_product_or_relayout(eigen_operations, parts):
    # clear finds D among the denominators and multiplies on packed
    # integers, and the one layout holds every Y_i and difference
    mu = Composition(parts)
    f = f_hhl(mu)
    eigen_operations.clear()
    report = verify_eigen(f, mu)
    assert report.ok and report.checked == mu.n
    assert eigen_operations == []
    # the counters are live: coprime denominators take qt_lcm, a layout
    # past its room is laid out afresh
    cleared = clear(XPolynomial(2, {(1, 0): ONE / (ONE - Q), (0, 1): ONE / (ONE - T)}))
    cleared.with_room(1 << cleared.layout.width, 0)
    assert {"gcd", "mul", "packed"} <= set(eigen_operations)


@pytest.fixture(scope="module")
def f_30214():
    mu = Composition((3, 0, 2, 1, 4))
    return mu, f_hhl(mu)


def test_verify_eigen_at_size(f_30214):
    mu, f = f_30214
    report = verify_eigen(f, mu)
    assert report.ok and report.checked == 5


def test_verify_eigen_negative_controls_at_size(f_30214):
    # f is an eigenfunction, so Y_i (f + g) - y_i (f + g) = Y_i g - y_i g:
    # for g = t, t (t^{2i-n-1} - y_i) at x^0; for g = 2^200 x^mu, the
    # difference in plain arithmetic, with coefficients far past the
    # slot width f alone would take
    mu, f = f_30214
    n = mu.n
    for g in (XPolynomial.constant(n, T),
              XPolynomial.monomial(n, mu.parts, QTRational.monomial(0, 0, 2**200))):
        expected = []
        for i in range(1, n + 1):
            diff = plain_Y(g, i) - g.scale(eigenvalue_y(mu, i))
            if not diff.is_zero():
                lead, coeff = diff.leading_term()
                expected.append(
                    f"Y_{i} f != y_{i} f; first differing coefficient at x^{lead}: {coeff}"
                )
        report = verify_eigen(f + g, mu)
        assert expected
        assert report.failures == expected
        assert report.checked == n
