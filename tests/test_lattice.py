"""Face weights, R-matrix, Yang-Baxter and row-operator exchange relations."""

import itertools
from fractions import Fraction

import pytest

from nsmacdonald import lattice
from nsmacdonald.lattice import (
    capped_states,
    exchange_check,
    row_operator_expand,
    ybe_check,
    ybe_check_symbolic,
)
from nsmacdonald.qt import QTRational

import bruteforce_oracle as oracle

ONE = QTRational.one()
T = QTRational.t()


def test_l_weight_worked_examples():
    # the face table in exponent form (a, b, xdeg): (1 - t^a) t^b x^xdeg
    assert lattice._face_form((1, 1, 1), 1, (2, 0, 1), 2) == (1, 1, 1)
    assert lattice._face_form((2, 1, 2), 0, (1, 1, 2), 1) == (2, 3, 1)
    assert lattice._face_form((1, 2), 0, (1, 2), 0) == (0, 0, 0)
    assert lattice._weight((1, 1, 1), T) == (ONE - T) * T
    assert lattice._weight((2, 3, 1), T) == (ONE - T**2) * T**3
    assert lattice._weight((0, 0, 0), T).is_one()


def test_l_weight_zero_patterns():
    # forbidden crossing: left colour above right colour, colour conserved
    assert lattice._face_form((1, 1), 2, (0, 2), 1) is None
    # conservation violation
    assert lattice._face_form((1, 0), 0, (1, 1), 0) is None


def _faces():
    # every face with n <= 3 and entries <= 3, with whether it conserves
    # colour (bottom + e_left = top + e_right) and its table entry
    for n in (1, 2, 3):
        vecs = list(itertools.product(range(4), repeat=n))
        for I, K in itertools.product(vecs, repeat=2):
            for j, l in itertools.product(range(n + 1), repeat=2):
                lhs, rhs = list(I), list(K)
                if j:
                    lhs[j - 1] += 1
                if l:
                    rhs[l - 1] += 1
                yield n, (I, j, K, l), lhs == rhs, lattice._face_form(I, j, K, l)


def test_l_weight_conservation_scan():
    # the table vanishes exactly off conservation and on the forbidden
    # crossing j > l >= 1
    for _, (I, j, K, l), conserves, form in _faces():
        assert (form is None) == (not conserves or j > l >= 1), (I, j, K, l)


def test_l_weight_x_degree_law():
    # x-degree is 1 exactly when the right edge is coloured
    for _, (I, j, K, l), _, form in _faces():
        if form is not None:
            assert form[2] == (l >= 1), (I, j, K, l)


def test_face_table_audit():
    # t-degree a + b <= n (cap + 1) when the bottom entries are <= cap + 1,
    # the bound of ybe_check's integer tables (lattice._integer_point
    # raises above it)
    for n, (I, j, K, l), _, form in _faces():
        if form is not None:
            a, b, _ = form
            assert a + b <= n * (max(max(I) - 1, 0) + 1), (I, j, K, l)


def test_r_weight_entries():
    # R_z(i, j; k, l) times 1 - t z is the cleared table at (x, y) = (1, z)
    z = QTRational.q()
    entries = {
        (0, 0, 0, 0): ONE,
        (1, 0, 0, 1): (ONE - T) / (ONE - T * z),
        (0, 1, 1, 0): (ONE - T) * z / (ONE - T * z),
        (1, 0, 1, 0): T * (ONE - z) / (ONE - T * z),
        (0, 1, 0, 1): (ONE - z) / (ONE - T * z),
    }
    for labels, R in entries.items():
        assert lattice._r_cleared(*labels, ONE, z, T) == (ONE - T * z) * R
    assert lattice._r_cleared(1, 0, 1, 2, ONE, z, T) is None


def test_r_weight_pole():
    # at the pole 1 - t z = 0 of R_z the cleared table is finite and its
    # diagonal entry, the factor x - t y it was cleared of, vanishes; no
    # sample point of ybe_check lies on it
    one, z, t = Fraction(1), Fraction(1, 2), Fraction(2)
    assert lattice._r_cleared(0, 1, 0, 1, one, z, t) == Fraction(1, 2)
    assert lattice._r_cleared(1, 1, 1, 1, one, z, t) == 0
    assert all(lattice._r_cleared(1, 1, 1, 1, *point) for point in lattice.SAMPLE_POINTS)


def test_ybe_trivial_boundary():
    rep = ybe_check(1, occupation_cap=1)
    assert rep.ok, rep.failures[:3]


def test_ybe_n2():
    rep = ybe_check(2, occupation_cap=2)
    assert rep.ok, rep.failures[:3]


def test_ybe_symbolic_n1():
    rep = ybe_check_symbolic(1, 2)
    assert rep.ok, rep.failures[:3]


FACE_FORM = lattice._face_form


def times_t(condition):
    """The face table with every nonzero face (I, j; K, l) for which
    ``condition(j, l)`` holds multiplied by t."""

    def corrupted(I, j, K, l):
        form = FACE_FORM(I, j, K, l)
        if form is None or not condition(j, l):
            return form
        a, b, xdeg = form
        return a, b + 1, xdeg

    return corrupted


peel_off_times_t = times_t(lambda j, l: j == 0 and l == 1)


def test_ybe_detects_corrupted_table(monkeypatch):
    monkeypatch.setattr(lattice, "_face_form", peel_off_times_t)
    assert not ybe_check(1, 1).ok


def test_ybe_symbolic_detects_corrupted_table(monkeypatch):
    monkeypatch.setattr(lattice, "_face_form", peel_off_times_t)
    assert not ybe_check_symbolic(1, 1).ok


def test_exchange_detects_corrupted_table(monkeypatch):
    # a pass-through face (j == l >= 1) times t breaks the t-twisted
    # relations; a peel-off face (j = 0, l = 1) times t is not caught by
    # exchange at n = 2 (for each in- and out-state the three products all
    # gain the same power of t), only by ybe (test_ybe_detects_corrupted_table)
    monkeypatch.setattr(lattice, "_face_form", times_t(lambda j, l: j == l >= 1))
    failing = {(i, j) for i in (1, 2) for j in (1, 2) if not exchange_check(i, j, 2).ok}
    assert failing == {(1, 2), (2, 1)}
    monkeypatch.setattr(lattice, "_face_form", peel_off_times_t)
    assert all(exchange_check(i, j, 2).ok for i in (1, 2) for j in (1, 2))


def weighted_one_off_conservation(I, j, K, l):
    """The face table with every face off conservation (I + e_j != K + e_l)
    given the weight 1 instead of none."""
    if lattice._vec_add(I, j, +1) != lattice._vec_add(K, l, +1):
        return 0, 0, 0
    return FACE_FORM(I, j, K, l)


def test_ybe_spot_checks_catch_a_face_off_conservation(monkeypatch):
    # no conserving boundary reads a face off conservation, so the sweeps
    # still pass and only the non-conserving spot checks see the plant
    monkeypatch.setattr(lattice, "_face_form", weighted_one_off_conservation)
    assert ybe_check_symbolic(1, 2).ok
    for n in (1, 2):
        failures = ybe_check(n, 2).failures
        assert len(failures) > lattice.NONCONSERVING_SAMPLES // 2
        assert all(f.startswith("non-conserving boundary") for f in failures)


R_CLEARED = lattice._r_cleared


def corrupted_r_cleared(i, j, k, l, x, y, t):
    # the j < i transmission entry of the cleared table without its t
    if (k, l) == (i, j) and j < i:
        return x - y
    return R_CLEARED(i, j, k, l, x, y, t)


def test_ybe_detects_corrupted_r_table(monkeypatch):
    monkeypatch.setattr(lattice, "_r_cleared", corrupted_r_cleared)
    assert not ybe_check(1, 1).ok


def test_ybe_symbolic_detects_corrupted_r_table(monkeypatch):
    monkeypatch.setattr(lattice, "_r_cleared", corrupted_r_cleared)
    assert not ybe_check_symbolic(1, 1).ok


def test_integer_sides_are_the_fraction_sides_times_the_scale():
    for n, cap in ((1, 2), (2, 2)):
        points = [
            lattice._integer_point(x, y, t, n * (cap + 1) + 1) for x, y, t in lattice.SAMPLE_POINTS
        ]
        sides = lattice._rll_at(points, FACE_FORM)
        for boundary in lattice._boundaries(n, cap, cap):
            lhs, rhs = sides(*boundary)
            for k, (x, y, t) in enumerate(lattice.SAMPLE_POINTS):
                assert type(lhs[k]) is int and type(rhs[k]) is int
                scale = points[k][1]
                assert [lhs[k], rhs[k]] == [side * scale for side in oracle.rll_sides(*boundary, x, y, t)]


def test_ybe_refuses_a_non_integral_scaled_weight(monkeypatch):
    # a face of t-degree above the bound D is one whose weight times td^D
    # is not an integer; at n = cap = 1, D = n (cap + 1) + 1 = 3, and t^4
    # on every pass-through face is beyond it
    def planted(I, j, K, l):
        form = FACE_FORM(I, j, K, l)
        return form if form is None or j != l else (0, form[1] + 4, form[2])

    monkeypatch.setattr(lattice, "_face_form", planted)
    with pytest.raises(ValueError, match="t-degree 4 exceeds 3"):
        ybe_check(1, 1)


def test_ybe_failure_shows_the_unscaled_sides(monkeypatch):
    monkeypatch.setattr(lattice, "_face_form", peel_off_times_t)
    expected = [
        f"RLL mismatch at I={I} J={J} colours=({i1},{i2};{j1},{j2}) "
        f"point (x={x}, y={y}, t={t}): {lhs} != {rhs}"
        for I, J, i1, i2, j1, j2 in lattice._boundaries(1, 1, 1)
        for x, y, t in lattice.SAMPLE_POINTS
        for lhs, rhs in [oracle.rll_sides(I, J, i1, i2, j1, j2, x, y, t)]
        if lhs != rhs
    ]
    assert expected and ybe_check(1, 1).failures == expected


def as_integer_polynomial(poly):
    """An XPolynomial in (x, y) over Z[t] as exponents (x, y, t) ->
    coefficient."""
    out = {}
    for (xe, ye), coeff in poly.terms.items():
        assert coeff.den.is_one()
        for (qe, te), c in coeff.num.terms.items():
            assert qe == 0
            out[xe, ye, te] = c
    return out


@pytest.mark.parametrize("n", [2, 3])
def test_integer_exchange_products_equal_the_field_products(n):
    # exchange_check's expansion: coefficients over Z[t] times x^deg and y^deg
    def expand(colour, state):
        walk = row_operator_expand(colour, state, lattice._T)
        return [(bottom, [c * lattice._X**d, c * lattice._Y**d]) for bottom, c, d in walk]

    for i, j in itertools.product(range(1, n + 1), repeat=2):
        for in_state, products in oracle.exchange_products(i, j, n).items():
            pairs = ((i, 0), (j, 1)), ((j, 1), (i, 0)), ((j, 0), (i, 1))
            for (left, right), field in zip(pairs, products):
                integer = lattice._product_elems(left, right, in_state, expand)
                assert integer.keys() == field.keys()
                for out, poly in field.items():
                    assert dict(integer[out]) == as_integer_polynomial(poly), (in_state, out)


def test_certificate_boundary_counts():
    # the boundary sets of the certificates: 200 random non-conserving
    # spot checks plus 5 sample points per conserving boundary (J capped at
    # cap), one symbolic check per boundary (J capped at cap + 2), and one
    # exchange check per (in-state, out-state) pair
    assert ybe_check(1, 2).checked == 380
    assert ybe_check(2, 2).checked == 2385
    assert ybe_check_symbolic(1, 2).checked == 42
    counts = {(i, j): exchange_check(i, j, 2, N=1, cap=1).checked for i in (1, 2) for j in (1, 2)}
    assert counts == {(1, 1): 6, (1, 2): 16, (2, 1): 16, (2, 2): 4}


def row_operator_elem(colour, in_state, out_state):
    """One row matrix element as (coeff, xdeg): paths enter along the
    bottom edge (``in_state``), colour enters on the left, and paths leave
    along the top edge (``out_state``), so the element vanishes unless
    out = in + e_colour as totals.

    The element is always a monomial in x: the internal vertical edges of
    the row are forced by conservation, so either the walk succeeds with a
    unique weight or the element is zero.
    """
    n = len(in_state[0]) if in_state else 0
    if len(in_state) != len(out_state):
        raise ValueError("state shapes differ")
    zero = QTRational.zero()
    left = colour
    coeff = ONE
    xdeg = 0
    for top, bottom in zip(out_state, in_state):
        # conservation fixes the right edge: bottom + e_left = top + e_right
        diff = [b - a for a, b in zip(top, bottom)]
        if left:
            diff[left - 1] += 1
        total = sum(diff)
        if total == 0 and all(d == 0 for d in diff):
            right = 0
        elif total == 1 and diff.count(1) == 1 and diff.count(0) == n - 1:
            right = diff.index(1) + 1
        else:
            return zero, 0
        form = lattice._face_form(bottom, left, top, right)
        if form is None:
            return zero, 0
        coeff = coeff * lattice._weight(form, T)
        xdeg += form[2]
        left = right
    if left != 0:
        return zero, 0
    return coeff, xdeg


def test_row_operator_examples():
    # N = 0: colour enters on the left and exits through the top immediately
    coeff, deg = row_operator_elem(1, (((0, 0),)), (((1, 0),)))
    assert coeff.is_one() and deg == 0
    # N = 1: one step right, then exit at the top of column 1
    coeff, deg = row_operator_elem(1, ((0, 0), (0, 0)), ((0, 0), (1, 0)))
    assert coeff == T**0 and deg == 1
    # with another colour above, passing through picks up a power of t
    coeff, deg = row_operator_elem(1, ((0, 1), (0, 0)), ((0, 1), (1, 0)))
    assert coeff == T and deg == 1
    # colour conservation violation gives zero
    coeff, deg = row_operator_elem(1, (((0, 0),)), (((0, 0),)))
    assert coeff.is_zero()


def test_row_operator_expand_matches_elem():
    top_state = ((1, 1), (0, 1))
    expansions = row_operator_expand(2, top_state, T)
    assert expansions
    for bottom, coeff, deg in expansions:
        assert row_operator_elem(2, bottom, top_state) == (coeff, deg)
    # the top state holds one more colour-2 path than the bottom state
    for bottom, _, _ in expansions:
        totals_top = [sum(site[c] for site in top_state) for c in range(2)]
        totals_bottom = [sum(site[c] for site in bottom) for c in range(2)]
        assert totals_top == [totals_bottom[0], totals_bottom[1] + 1]


@pytest.mark.parametrize("i,j", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_exchange_relations_n2(i, j):
    rep = exchange_check(i, j, 2, N=1, cap=1)
    assert rep.checked > 0
    assert rep.ok, rep.failures[:3]


def test_capped_states_count():
    assert len(capped_states(2, 2, 1)) == 16
