"""Column operators, configuration enumeration and the matrix product."""

import random
import time
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, strategies as st

from nsmacdonald import matrixprod
from nsmacdonald.compositions import (
    Composition,
    alpha,
    column_twists,
    compositions_with,
    default_family,
    eigenvalue_y,
    omega_factors,
    omega_norm,
    v_param,
)
from nsmacdonald.cyclotomic import cyclotomic_form, form_product
from nsmacdonald.matrixprod import (
    InadmissiblePair,
    LatticeConfig,
    column_component,
    config_weight,
    count_configs,
    cyclic_check,
    enumerate_configs,
    f_matrix_product,
    frozen_coefficient,
    hall_littlewood_q0,
    verify_exchange_basement,
)
from nsmacdonald.qt import QTRational
from nsmacdonald.reports import CheckReport
from nsmacdonald.xpoly import XPolynomial, compose_vars

from bruteforce_oracle import (
    colour_data,
    column_factors,
    coordinates,
    exponents_fgh,
    specialize_q,
)

ONE = QTRational.one()
Q = QTRational.q()
T = QTRational.t()


def kappa_ratio(I, J, v):
    """The constant relating a column component to its rotated version:

      kappa = t^{#{a in P : a > j_n} 1(j_n >= 1)}
            / t^{#{a in Q : a < i_n} 1(i_n in P)}
            * v_{i_n}^{1(i_n in Q)} / v_{j_n}^{1(j_n >= 1)}

    written in terms of the colour data and the top edge states i_n, j_n,
    with twists given as in ``column_component``.
    """
    P, Q_set = colour_data(I, J)
    i_top, j_top = I[-1], J[-1]
    qexp = texp = 0
    if j_top >= 1:
        vj = v.get(j_top)
        if vj is None:
            raise ZeroDivisionError(
                f"rotation constant undefined: v_{j_top} = 0 with j_n = {j_top} >= 1"
            )
        qexp, texp = -vj[0], sum(1 for c in P if c > j_top) - vj[1]
    if i_top in P:
        texp -= sum(1 for c in Q_set if c < i_top)
    if i_top in Q_set:
        if v[i_top] is None:
            return QTRational.zero()
        qexp, texp = qexp + v[i_top][0], texp + v[i_top][1]
    return QTRational.monomial(qexp, texp)


def verify_basement_cyclic(mu, rho):
    """Check f^rho(x_1,..,q x_n) = t^{n-2 rho_n+1} y_{rho_n} f^{w rho}(x_n,x_1,..)."""
    rho = list(rho)
    n = mu.n
    report = CheckReport(f"basement-cyclic mu={mu} rho={rho}")
    lhs = compose_vars(
        f_matrix_product(mu, rho),
        [(k, ONE) for k in range(1, n)] + [(n, Q)],
    )
    rotated = [rho[-1]] + rho[:-1]
    # evaluate f^{w rho} on the rotated alphabet (x_n, x_1, .., x_{n-1}):
    # argument slot 1 receives x_n, slot k >= 2 receives x_{k-1}
    images = [(n, ONE)] + [(k, ONE) for k in range(1, n)]
    rhs = compose_vars(f_matrix_product(mu, rotated), images)
    factor = QTRational.monomial(0, n - 2 * rho[-1] + 1) * eigenvalue_y(mu, rho[-1])
    report.count()
    if lhs != rhs.scale(factor):
        report.fail(f"cyclic basement shift fails for rho={rho}")
    return report


def test_colour_data_worked_example():
    P, Q_set = colour_data((0, 2, 1, 5, 3), (2, 0, 0, 0, 5))
    assert P == frozenset({1, 3}) and Q_set == frozenset({2, 5})


def test_colour_data_trivial_cases():
    assert colour_data((0, 0), (0, 0)) == (frozenset(), frozenset())
    assert colour_data((1, 0), (0, 0)) == (frozenset({1}), frozenset())
    with pytest.raises(InadmissiblePair):
        colour_data((1, 1), (0, 0))
    with pytest.raises(InadmissiblePair):
        colour_data((0, 0), (1, 0))


def test_coordinates_worked_example():
    a, b = coordinates((0, 2, 1, 5, 3), (2, 0, 0, 0, 5))
    assert (a[1], a[2], a[3], a[5]) == (3, 2, 5, 4)
    assert (b[2], b[5]) == (1, 5)


def test_coordinates_simple():
    a, b = coordinates((1, 0), (1, 0))
    assert a[1] == 1 and b[1] == 1
    a, b = coordinates((0, 1), (1, 0))
    assert a[1] == 2 and b[1] == 1


def test_exponents_trivial_and_cyclic():
    f, g, h = exponents_fgh(frozenset(), frozenset(), {}, {}, 3)
    assert f == {} and g == {} and h == {}
    # one qualifying colour below p raises g by one
    P, Q_set = frozenset({2}), frozenset({1})
    a, b = {2: 1, 1: 2}, {1: 2}
    f, g, h = exponents_fgh(P, Q_set, a, b, 2)
    assert g[2] == 1 and f[2] == 1 and f[1] == 0
    # cyclic wrap: interval (3, 2) on n = 3 contains row 1
    P3, Q3 = frozenset(), frozenset({1, 2})
    a3, b3 = {1: 1, 2: 3}, {1: 1, 2: 2}
    f3, g3, h3 = exponents_fgh(P3, Q3, a3, b3, 3)
    assert h3[2] == 1


def assert_kernel_equals_oracle(I, J, v):
    # the one-pass kernel against the set-based closed form: the same
    # exception, or both None, or equal x exponents and factor groups
    try:
        expected = column_factors(I, J, v)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            matrixprod._column_factors(I, J, v)
        assert type(raised.value) is type(exc), (I, J, v)
        return
    column = matrixprod._column_factors(I, J, v)
    if expected is None:
        assert column is None, (I, J, v)
        return
    exps, groups = column
    assert exps == expected[0], (I, J, v)
    assert [(q, t, dict(binomials)) for q, t, binomials in groups] == list(expected[1])


def admissible_boundaries(n):
    # every (I, J): the colours of I placed injectively into rows, and a
    # subset of them placed injectively into the rows of J
    for k in range(n + 1):
        for colours in combinations(range(1, n + 1), k):
            for rows in permutations(range(n), k):
                I = [0] * n
                for c, r in zip(colours, rows):
                    I[r] = c
                for m in range(k + 1):
                    for kept in combinations(colours, m):
                        for jrows in permutations(range(n), m):
                            J = [0] * n
                            for c, r in zip(kept, jrows):
                                J[r] = c
                            yield tuple(I), tuple(J)


def test_one_pass_kernel_equals_the_set_based_oracle():
    # every admissible boundary with n <= 4 (13617 at n = 4), each under
    # twists of zero and under random twists with zeros among them
    rng = random.Random(3)
    for n in range(1, 5):
        for I, J in admissible_boundaries(n):
            zero = dict.fromkeys(range(1, n + 1))
            drawn = {
                p: rng.choice([None, (rng.randint(1, 3), rng.randint(-2, 3))]) if p in I else None
                for p in range(1, n + 1)
            }
            assert_kernel_equals_oracle(I, J, zero)
            assert_kernel_equals_oracle(I, J, drawn)


def test_one_pass_kernel_refuses_every_inadmissible_pair():
    for n in range(1, 4):
        for I, J in product(product(range(n + 1), repeat=n), repeat=2):
            try:
                column_factors(I, J, {})
            except InadmissiblePair:
                with pytest.raises(InadmissiblePair):
                    matrixprod._column_factors(I, J, {})
            except KeyError:
                pass  # admissible: the empty twist table lacks a colour of P u Q
    for I, J in [((3, 0), (0, 0)), ((0, 1), (2, 0)), ((1, 0), (0, 0, 0)), ((-1, 0), (0, 0))]:
        with pytest.raises(InadmissiblePair):
            matrixprod._column_factors(I, J, {1: None, 2: None})


twist_values = st.one_of(st.none(), st.tuples(st.integers(1, 4), st.integers(-4, 4)))


@given(st.data())
def test_column_kernel_equals_the_oracle_property(data):
    # a random boundary of up to 6 rows under random twists, made
    # inadmissible (a repeated colour, a colour only on the right) or given
    # a twist outside P u Q in some draws
    n = data.draw(st.integers(1, 6))
    left = data.draw(st.permutations(range(1, n + 1)))
    I = [c if data.draw(st.booleans()) else 0 for c in left]
    present = [c for c in I if c]
    rows = data.draw(st.permutations(range(n)))
    J = [0] * n
    for c, r in zip([c for c in present if data.draw(st.booleans())], rows):
        J[r] = c
    v = {p: data.draw(twist_values) if p in present else None for p in range(1, n + 1)}
    absent = [c for c in range(1, n + 1) if c not in present]
    fault = data.draw(st.sampled_from(["none", "repeat", "new", "stray"]))
    if fault == "repeat" and present and 0 in I:
        I[I.index(0)] = present[0]
    elif fault == "new" and absent and 0 in J:
        J[J.index(0)] = absent[0]
    elif fault == "stray" and absent:
        v[absent[0]] = (1, 0)
    assert_kernel_equals_oracle(tuple(I), tuple(J), v)


def test_walk_forms_are_omega_plus_the_column_forms():
    # against the kernel: each cached column's group forms are those of the
    # kernel's groups and its form that of the groups without phi, and each
    # walk's summed form, the weight f_matrix_product adds, that of Omega_mu
    # and all its columns' kernel groups
    for mu in default_family() + [Composition((0, 1, 2, 3, 4))]:
        omega, twists, seen = omega_factors(mu), column_twists(mu), set()
        for xi in enumerate_configs(mu):
            _, _, forms = matrixprod._column_walk(xi.columns, mu)
            closed = xi.columns + ((0,) * mu.n,)
            kernel = []
            for j in range(len(xi.columns)):
                key = (closed[j], closed[j + 1], twists[min(j, len(twists) - 1)])
                _, groups = matrixprod._column_factors(key[0], key[1], dict(enumerate(key[2], 1)))
                kernel += groups
                if key not in seen:
                    seen.add(key)
                    _, group_forms, column_form = matrixprod._cached_column(*key)
                    assert group_forms == tuple(map(cyclotomic_form, groups)), key
                    t_g, _phi, *rest = groups
                    assert column_form == cyclotomic_form(t_g, *rest), key
            assert form_product(forms) == cyclotomic_form(omega, *kernel), xi


def test_phi_is_the_inverse_of_omega_on_every_walk():
    # the identity the route's forms rely on to leave out phi and Omega_mu:
    # gamma_pj + f(p) = alpha_pj, with f(p) counting colours, not rows.  On
    # every walk f_matrix_product takes (every basement for n <= 3) and
    # every walk cyclic_check takes (colour i's row on top, or at the
    # bottom), the phi groups' form is that of 1/Omega_mu
    for mu in default_family():
        inverse = cyclotomic_form((0, 0, {key: -m for key, m in omega_factors(mu)[2].items()}))
        identity = tuple(range(1, mu.n + 1))
        orders = [identity]
        for i in identity:
            others = [c for c in identity if c != i]
            orders += [others + [i], [i] + others]
        for rho in permutations(identity) if mu.n <= 3 else [identity]:
            for xi in enumerate_configs(mu, basement=rho):
                for order in orders if rho == identity else [identity]:
                    columns = [tuple(column[c - 1] for c in order) for column in xi.columns]
                    walk = matrixprod._column_walk(columns, mu)
                    if walk is not None:
                        assert form_product(walk[1][1]) == inverse, (mu, rho, columns)


def test_column_component_examples():
    assert column_component((0, 0), (0, 0), {1: None, 2: None}) == XPolynomial.one(2)
    v = QTRational.monomial(1, 1)
    comp = column_component((0, 2), (0, 0), {1: None, 2: (1, 1)})
    assert comp == XPolynomial.constant(2, ONE / (ONE - v))
    comp = column_component((0, 2), (2, 0), {1: None, 2: (1, 1)})
    expect = XPolynomial.monomial(2, (1, 0), v * (ONE - T) / ((ONE - v) * (ONE - v * T)))
    assert comp == expect


def test_column_component_rejects_stray_twist():
    with pytest.raises(ValueError):
        column_component((0, 0), (0, 0), {1: (1, 0), 2: None})


def test_enumerate_configs_counts():
    assert len(list(enumerate_configs(Composition((0, 0, 0))))) == 1
    assert len(list(enumerate_configs(Composition((1, 0))))) == 1
    assert len(list(enumerate_configs(Composition((0, 1))))) == 2


def test_count_configs_equals_the_enumeration():
    for mu in compositions_with(3, 2):
        for rho in [None, (2, 3, 1), (3, 1, 2)]:
            assert count_configs(mu) == sum(1 for _ in enumerate_configs(mu, rho))
    assert count_configs(Composition((0, 1, 2, 3, 4))) == 34560
    assert count_configs(Composition((0, 1, 2, 3, 4, 5))) == 24883200
    assert count_configs(Composition((500, 0))) == 2**499


def test_count_configs_equals_a_sweep_over_column_states():
    # the product formula against a column-by-column sweep with integer
    # weights, which counts the legal next columns of every state
    def sweep(mu, rho):
        counts = {tuple(rho): 1}
        for j in range(mu.maxpart):
            survivors = [p for p in range(1, mu.n + 1) if mu.part(p) > j]
            following = {}
            for previous, count in counts.items():
                for column in matrixprod._placements(previous, survivors):
                    following[column] = following.get(column, 0) + count
            counts = following
        return sum(counts.values())

    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 5)
        mu = Composition(tuple(rng.randint(0, 4) for _ in range(n)))
        rho = rng.sample(range(1, n + 1), n)
        assert count_configs(mu) == sweep(mu, rho), (mu, rho)
    # refusing an oversized composition needs no enumeration
    start = time.perf_counter()
    assert count_configs(Composition(tuple(range(30)))).bit_length() == 1382
    assert time.perf_counter() - start < 1.0


def test_configs_are_legal():
    for mu in [Composition((2, 0, 1)), Composition((0, 2, 2))]:
        configs = list(enumerate_configs(mu))
        assert configs
        for xi in configs:
            assert xi.is_legal(mu)


def test_config_weight_examples(golden_polys):
    mu = Composition((0, 1))
    weights = {config_weight(xi, mu) for xi in enumerate_configs(mu)}
    x1, x2 = XPolynomial.variable(2, 1), XPolynomial.variable(2, 2)
    assert weights == {x2, x1.scale(Q * (ONE - T) / (ONE - Q * T))}
    zero_mu = Composition((0, 0, 0))
    (only,) = enumerate_configs(zero_mu)
    assert config_weight(only, zero_mu) == XPolynomial.one(3)
    # colour 2 leaves row 1 as colour 1 arrives there: a down-crossing,
    # on which the column kernel vanishes
    crossing, mu = LatticeConfig(((2, 1), (1, 0))), Composition((1, 0))
    assert config_weight(crossing, mu).is_zero()


def test_config_weight_is_omega_times_column_components():
    # the definition of the weight, evaluated here column by column
    def by_columns(xi, mu):
        n = mu.n
        weight = XPolynomial.constant(n, omega_norm(mu))
        columns = xi.columns + ((0,) * n,)
        for j in range(len(xi.columns)):
            v = {p: v_param(mu, p, j) for p in range(1, n + 1)}
            weight = weight * column_component(columns[j], columns[j + 1], v)
        return weight

    for n in (1, 2, 3):
        for mu in compositions_with(n, 2):
            for xi in enumerate_configs(mu):
                assert config_weight(xi, mu) == by_columns(xi, mu)
    crossing, mu = LatticeConfig(((2, 1), (1, 0))), Composition((1, 0))
    assert config_weight(crossing, mu).is_zero()
    assert by_columns(crossing, mu).is_zero()


def test_f_matrix_product_goldens(golden_polys):
    for parts, poly in golden_polys.items():
        assert f_matrix_product(Composition(parts)) == poly
    assert f_matrix_product(Composition((0, 0, 0, 0))) == XPolynomial.one(4)


def test_hall_littlewood_examples(golden_polys):
    x1, x2 = XPolynomial.variable(2, 1), XPolynomial.variable(2, 2)
    assert hall_littlewood_q0(Composition((1, 0))) == x1
    assert hall_littlewood_q0(Composition((0, 1))) == x2
    assert hall_littlewood_q0(Composition((0, 0))) == XPolynomial.one(2)


def test_hall_littlewood_is_q0_specialisation():
    for mu in [Composition((2, 1)), Composition((0, 2, 1)), Composition((1, 0, 2))]:
        assert hall_littlewood_q0(mu) == specialize_q(f_matrix_product(mu), 0)


def test_kappa_examples():
    assert kappa_ratio((1, 0), (0, 0), {1: None}).is_one()
    assert kappa_ratio((0, 2), (2, 0), {2: (2, 1)}) == QTRational.monomial(2, 1)
    with pytest.raises(ZeroDivisionError):
        kappa_ratio((0, 1), (0, 1), {1: None})


def _random_admissible(rng, n):
    while True:
        I = tuple(rng.choice([0, 0, *range(1, n + 1)]) for _ in range(n))
        if any(I.count(c) > 1 for c in range(1, n + 1)):
            continue
        present = [c for c in range(1, n + 1) if c in I]
        keep = [c for c in present if rng.random() < 0.6]
        J = [0] * n
        rows = list(range(n))
        rng.shuffle(rows)
        for c, r in zip(keep, rows):
            J[r] = c
        return I, tuple(J)


def test_kappa_is_the_rotation_ratio():
    rng = random.Random(42)
    checked = 0
    while checked < 120:
        n = rng.choice([2, 3, 4])
        I, J = _random_admissible(rng, n)
        P, Q_set = colour_data(I, J)
        v = {p: (p, p * p % 3 + 1) for p in P | Q_set}
        for c in range(1, n + 1):
            v.setdefault(c, None)
        numerator = column_component(I, J, v)
        rotate = lambda vec: (vec[-1],) + tuple(vec[:-1])
        # rotated boundary, with the variable substitution x_i -> x_{i-1}
        shifted = [(n, ONE)] + [(k, ONE) for k in range(1, n)]
        denominator = compose_vars(column_component(rotate(I), rotate(J), v), shifted)
        if denominator.is_zero() or (J[-1] >= 1 and v[J[-1]] is None):
            continue
        assert numerator == denominator.scale(kappa_ratio(I, J, v))
        checked += 1


def test_cyclic_check_examples():
    rep = cyclic_check(Composition((0, 1)), 2)
    assert rep.ok and rep.checked == 2
    for mu in [Composition((0, 0)), Composition((1, 1)), Composition((2, 0, 1))]:
        for i in range(1, mu.n + 1):
            assert cyclic_check(mu, i).ok


@pytest.mark.parametrize("parts", [(0, 2, 1), (2, 0, 1, 1), (0, 3, 0, 0)])
def test_f_matrix_product_equals_the_plain_sum_of_weights(parts):
    # both routes end in xpoly.binomial_sum, so their agreement cannot
    # catch a fault there; this reference adds the configuration weights
    # one by one in XPolynomial arithmetic (gcd reduction) instead.  The
    # sum for (0,3,0,0) reduces over Phi_3(qt), not only Phi_1 and Phi_2
    mu = Composition(parts)
    expected = XPolynomial.zero(mu.n)
    for xi in enumerate_configs(mu):
        expected = expected + config_weight(xi, mu)
    assert f_matrix_product(mu) == expected


def corrupted_twists(mu):
    # every nonzero twist's t-exponent raised by 1
    return tuple(
        tuple(None if v is None else (v[0], v[1] + 1) for v in column)
        for column in column_twists(mu)
    )


def test_cyclic_check_detects_corrupted_twists(monkeypatch):
    monkeypatch.setattr(matrixprod, "column_twists", corrupted_twists)
    rep = cyclic_check(Composition((0, 1)), 2)
    assert not rep.ok


def test_corrupted_twists_are_not_answered_from_a_warm_cache(monkeypatch):
    # the column kernel's cache is keyed by the twist values: after a clean
    # run has filled it for mu, corrupted twists still miss it and fail
    mu = Composition((0, 1))
    assert cyclic_check(mu, 2).ok
    monkeypatch.setattr(matrixprod, "column_twists", corrupted_twists)
    assert not cyclic_check(mu, 2).ok


def test_cyclic_check_compares_x_exponents(monkeypatch):
    # the exponents of rows 1 and 2 swapped in every walk: the factors and
    # the top row's shift are untouched, so only the x exponents differ
    walk = matrixprod._column_walk

    def swapped(columns, mu):
        exps, groups, forms = walk(columns, mu)
        return (exps[1], exps[0]) + exps[2:], groups, forms

    monkeypatch.setattr(matrixprod, "_column_walk", swapped)
    mu = Composition((0, 2, 1))
    assert not all(cyclic_check(mu, i).ok for i in range(1, 4))


def test_frozen_coefficient_examples():
    from_config, from_omega = frozen_coefficient(Composition((0, 1)))
    assert from_config.value() == from_omega.value() == ONE / (ONE - Q)
    from_config, from_omega = frozen_coefficient(Composition((0, 0)))
    assert from_config.value().is_one() and from_omega.value().is_one()
    mu = Composition((2, 0))
    from_config, from_omega = frozen_coefficient(mu)
    expect = ONE / (
        (ONE - Q**2 * QTRational.monomial(0, alpha(mu, 1, 0)))
        * (ONE - Q * QTRational.monomial(0, alpha(mu, 1, 1)))
    )
    assert from_config.value() == from_omega.value() == expect


def test_monic_and_frozen_agree_on_family():
    for mu in compositions_with(2, 2):
        poly = f_matrix_product(mu)
        assert poly.coefficient(mu.parts).is_one()
        from_config, from_omega = frozen_coefficient(mu)
        assert from_config == from_omega


def test_exchange_basement():
    rep = verify_exchange_basement(Composition((0, 1)), 1, [1, 2])
    assert rep.ok
    rep = verify_exchange_basement(Composition((2, 1, 0)), 2, [2, 1, 3])
    assert rep.ok
    with pytest.raises(ValueError):
        verify_exchange_basement(Composition((0, 1)), 1, [2, 1])


def test_basement_cyclic():
    for rho in ([1, 2], [2, 1]):
        assert verify_basement_cyclic(Composition((0, 1)), rho).ok
        assert verify_basement_cyclic(Composition((2, 1)), rho).ok
    assert verify_basement_cyclic(Composition((1, 0, 2)), [3, 1, 2]).ok


def test_rho_must_be_permutation():
    with pytest.raises(ValueError):
        list(enumerate_configs(Composition((0, 1)), basement=(1, 1)))
