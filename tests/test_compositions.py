"""Combinatorial statistics on compositions."""

import pytest

from nsmacdonald.compositions import (
    Composition,
    alpha,
    arm,
    bracket_precedes,
    compositions_with,
    dominates,
    eigenvalue_y,
    eta,
    gamma,
    leg,
    omega_norm,
    v_param,
)
from nsmacdonald.qt import QTRational

import bruteforce_oracle as oracle

ONE = QTRational.one()
Q = QTRational.q()
T = QTRational.t()


def test_parse_and_basics():
    mu = Composition.parse("0,4,4,1,5")
    assert mu.parts == (0, 4, 4, 1, 5)
    assert mu.n == 5 and mu.maxpart == 5 and mu.weight == 14
    assert mu.reverse().parts == (5, 1, 4, 4, 0)
    assert mu.sorted_desc() == (5, 4, 4, 1, 0)
    assert Composition.parse(" 2 , 0").parts == (2, 0)
    for text in ["1,x", "1_0", "+1", "\u0661", "1,", "", "1 2", "1\t"]:
        with pytest.raises(ValueError):
            Composition.parse(text)
    with pytest.raises(ValueError):
        Composition((1, -1))


def test_eta_examples():
    assert eta(Composition((0, 0)), 1) == -1
    assert eta(Composition((0, 1)), 2) == 0
    for n in (2, 3, 4):
        allsame = Composition((2,) * n)
        for i in range(1, n + 1):
            assert eta(allsame, i) == -(n - i)


def test_eigenvalue_examples():
    assert eigenvalue_y(Composition((1, 0)), 1) == Q
    assert eigenvalue_y(Composition((0, 1)), 2) == Q * T
    for n in (2, 3):
        zero = Composition((0,) * n)
        for i in range(1, n + 1):
            assert eigenvalue_y(zero, i) == QTRational.monomial(0, 2 * i - n - 1)


def test_gamma_examples_and_identity():
    assert gamma(Composition((0, 1)), 2, 0) == 0
    zero3 = Composition((0, 0, 0))
    assert all(gamma(zero3, i, j) == 0 for i in (1, 2, 3) for j in (0, 1, 2))
    for n in (1, 2, 3):
        for mu in compositions_with(n, 2):
            for i in range(1, n + 1):
                assert gamma(mu, i, 0) == n - i + eta(mu, i)


def test_alpha_examples():
    assert alpha(Composition((0, 1)), 2, 0) == 0
    assert alpha(Composition((2, 0)), 1, 1) == 0
    # on the all-zero composition the first two counts vanish but the
    # equality count #{k > i : j = mu_k} survives at j = 0
    zero = Composition((0, 0))
    assert alpha(zero, 1, 0) == 1 and alpha(zero, 2, 0) == 1
    assert alpha(zero, 1, 1) == 0


def test_v_param_examples():
    assert v_param(Composition((0, 1)), 2, 0) == (1, 0)
    assert v_param(Composition((0, 1)), 1, 0) is None
    # at q = 0 every parameter vanishes
    for mu in compositions_with(2, 2):
        for i in (1, 2):
            for j in range(0, mu.maxpart + 1):
                value = v_param(mu, i, j)
                assert value is None or value[0] > 0


def test_omega_examples():
    assert omega_norm(Composition((0, 0, 0))).is_one()
    assert omega_norm(Composition((0, 1))) == ONE - Q
    # Omega(0, t) = 1 for any mu
    for mu in compositions_with(3, 2):
        assert omega_norm(mu).substitute_q(0).is_one()


def test_leg_examples():
    assert leg(Composition((0, 1)), (2, 1)) == 0
    assert leg(Composition((2, 0)), (1, 1)) == 1
    for mu in compositions_with(2, 3):
        for i in (1, 2):
            if mu.part(i):
                assert leg(mu, (i, mu.part(i))) == 0
    with pytest.raises(IndexError):
        leg(Composition((0, 1)), (1, 1))


def test_arm_examples_and_set_definition():
    assert arm(Composition((0, 1)), (2, 1)) == 0
    assert arm(Composition((2, 0)), (1, 2)) == 0
    assert arm(Composition((1, 1)), (2, 1)) == 1
    for n in (2, 3):
        for mu in compositions_with(n, 3):
            for i, part in enumerate(mu.parts, 1):
                for j in range(1, part + 1):
                    assert arm(mu, (i, j)) == oracle.brute_arm(mu.parts, i, j)


def test_orders():
    assert dominates(Composition((0, 1)), Composition((1, 0)))
    assert not bracket_precedes(Composition((1, 0)), Composition((1, 0)))
    assert bracket_precedes(Composition((1, 1)), Composition((2, 0)))
    assert bracket_precedes(Composition((0, 1)), Composition((1, 0)))
    with pytest.raises(ValueError):
        bracket_precedes(Composition((1,)), Composition((1, 0)))
    with pytest.raises(ValueError):
        dominates(Composition((1,)), Composition((1, 0)))


def test_bracket_is_a_strict_partial_order_on_small_family():
    family = [mu for mu in compositions_with(3, 2)]
    for mu in family:
        assert not bracket_precedes(mu, mu)
        for nu in family:
            if bracket_precedes(nu, mu):
                assert not bracket_precedes(mu, nu)


def test_eigenvalue_tuples_distinct():
    # simplicity of the spectrum at desk scale: n <= 3, |mu| <= 4
    for n in (1, 2, 3):
        seen = {}
        for mu in compositions_with(n, 4):
            if mu.weight > 4:
                continue
            key = tuple(eigenvalue_y(mu, i) for i in range(1, n + 1))
            assert key not in seen, (mu, seen.get(key))
            seen[key] = mu
