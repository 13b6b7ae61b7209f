"""Non-attacking fillings, the combinatorial sum, and the bijection."""

import itertools
import sys
import time

import pytest

from nsmacdonald import fillings, matrixprod
from nsmacdonald.compositions import Composition, arm, compositions_with, default_family, leg
from nsmacdonald.fillings import (
    Filling,
    bijection_M,
    bijection_M_inverse,
    enumerate_fillings,
    f_hhl,
    hhl_summand,
    weight_match_check,
)
from nsmacdonald.matrixprod import count_configs, enumerate_configs, f_matrix_product
from nsmacdonald.qt import QTRational
from nsmacdonald.xpoly import XPolynomial

import bruteforce_oracle as oracle
from bruteforce_oracle import descent_ascent, ordered_triples, x_monomial

ONE = QTRational.one()
Q = QTRational.q()
T = QTRational.t()


def filling(mu_parts, columns):
    return Filling(Composition(mu_parts), tuple(tuple(c) for c in columns))


def test_enumeration_counts():
    assert len(list(enumerate_fillings(Composition((0, 0, 0))))) == 1
    assert len(list(enumerate_fillings(Composition((1, 0))))) == 1
    assert len(list(enumerate_fillings(Composition((0, 1))))) == 2


def test_enumeration_matches_naive_filter():
    # (2, 2), (3, 3), (2, 0, 2), (3, 1, 3): branches the dead-branch cut removes
    for parts in [(1, 0), (0, 1), (2, 0), (1, 2), (2, 1, 0), (0, 2, 1), (1, 1, 1),
                  (2, 2), (3, 3), (2, 0, 2), (3, 1, 3)]:
        mine = {f.columns for f in enumerate_fillings(Composition(parts))}
        brute = set()
        for entries in oracle.brute_fillings(parts):
            cols = tuple(
                tuple(entries[(i, j)] for j in range(parts[i - 1] + 1))
                for i in range(1, len(parts) + 1)
            )
            brute.add(cols)
        assert mine == brute


def recursion_depth() -> int:
    """The caller's depth as the recursion limit counts it: the limit less
    the calls still free (calls through C count too, so frames alone
    undercount it)."""
    def down(k):
        try:
            return down(k + 1)
        except RecursionError:
            return k

    return sys.getrecursionlimit() - down(0) - 1


def test_the_search_nests_about_one_frame_per_square():
    # the search takes one frame per square of dg(mu), whatever the number
    # of columns: run under a recursion limit |mu| + 10 above the caller's
    for parts in [(0,) * 60 + (1, 1), (0, 1, 2, 3, 4), (2,) * 12]:
        mu = Composition(parts)
        depth, limit = recursion_depth(), sys.getrecursionlimit()
        sys.setrecursionlimit(depth + sum(parts) + 10)
        try:
            count = sum(1 for _ in enumerate_fillings(mu))
        finally:
            sys.setrecursionlimit(limit)
        assert count == count_configs(mu), parts


def test_all_enumerated_are_non_attacking():
    for mu in [Composition((2, 1)), Composition((0, 2, 1))]:
        for sigma in enumerate_fillings(mu):
            assert oracle.non_attacking(sigma)


def test_descent_ascent_examples():
    d, a = descent_ascent(filling((0, 1), [(1,), (2, 2)]))
    assert d == set() and a == set()
    d, a = descent_ascent(filling((0, 1), [(1,), (2, 1)]))
    assert d == set() and a == {(2, 1)}
    d, a = descent_ascent(filling((2, 0), [(1, 1, 2), (2,)]))
    assert d == {(1, 2)} and a == set()


def test_triple_examples():
    for mu in [Composition((0, 1)), Composition((2, 0)), Composition((1, 1))]:
        for sigma in enumerate_fillings(mu):
            plus, minus = ordered_triples(sigma)
            assert plus == minus


def test_triples_match_bruteforce_scan():
    for parts in [(2, 1, 0), (0, 2, 1), (1, 2, 1), (3, 1, 2)]:
        mu = Composition(parts)
        for sigma in enumerate_fillings(mu):
            entries = {
                (i, j): sigma.entry(i, j)
                for i in range(1, mu.n + 1)
                for j in range(0, mu.part(i) + 1)
            }
            assert ordered_triples(sigma) == oracle.brute_triples(parts, entries)


def test_infinity_convention_is_exercised():
    # for mu = (0, 2, 1) the triple ((2,2), (3,1), (3,2)) has (3,2) outside
    # dg(mu), so its top entry reads as infinity: the triple counts as
    # positive exactly when sigma_{2,2} > sigma_{3,1}
    mu = Composition((0, 2, 1))
    hits = 0
    for sigma in enumerate_fillings(mu):
        plus, _minus = ordered_triples(sigma)
        if sigma.entry(2, 2) > sigma.entry(3, 1):
            hits += 1
            assert plus >= 1
    assert hits > 0


def test_hhl_summand_examples():
    x1, x2 = XPolynomial.variable(2, 1), XPolynomial.variable(2, 2)
    assert hhl_summand(filling((0, 1), [(1,), (2, 2)])) == x2
    assert hhl_summand(filling((0, 1), [(1,), (2, 1)])) == x1.scale(
        Q * (ONE - T) / (ONE - Q * T)
    )
    assert hhl_summand(filling((2, 0), [(1, 1, 2), (2,)])) == (x1 * x2).scale(
        (ONE - T) / (ONE - Q * T)
    )


def hhl_weight_by_field_arithmetic(sigma):
    """The HHL weight of sigma multiplied out factor by factor in Q(q,t)."""
    mu = sigma.mu
    plus, minus = ordered_triples(sigma)
    descents, ascents = descent_ascent(sigma)
    weight = QTRational.monomial(0, plus - minus)
    for s in descents | ascents:
        la, aa = leg(mu, s), arm(mu, s)
        weight = weight * (ONE - T) / (ONE - QTRational.monomial(la + 1, aa + 1))
        if s in ascents:
            weight = weight * QTRational.monomial(la + 1, aa)
    return XPolynomial.monomial(mu.n, x_monomial(sigma), weight)


def test_hhl_summand_equals_field_arithmetic():
    for parts in [(2, 1), (0, 2, 1), (1, 0, 2), (2, 2, 1)]:
        for sigma in enumerate_fillings(Composition(parts)):
            assert hhl_summand(sigma) == hhl_weight_by_field_arithmetic(sigma), sigma


def brute_factors(parts, entries):
    """The HHL kernel's x exponents and factor groups of one filling
    ({(column, row): entry}), from the oracle's triples, leg and arm and
    the descents and ascents read off the entries."""
    plus, minus = oracle.brute_triples(parts, entries)
    exps = [0] * len(parts)
    denominators = {(0, 1): 0}
    q_exp, t_exp = 0, -minus
    for i in range(1, len(parts) + 1):
        for j in range(1, parts[i - 1] + 1):
            here, below = entries[(i, j)], entries[(i, j - 1)]
            exps[here - 1] += 1
            if here == below:
                continue
            la, aa = oracle.brute_leg(parts, i, j), oracle.brute_arm(parts, i, j)
            denominators[(0, 1)] += 1
            denominators[(la + 1, aa + 1)] = denominators.get((la + 1, aa + 1), 0) - 1
            if here < below:  # ascent
                q_exp, t_exp = q_exp + la + 1, t_exp + aa
    return tuple(exps), (0, plus, {}), (0, 0, denominators), (q_exp, t_exp, {})


def test_table_kernel_matches_bruteforce_statistics():
    # group by group, on every filling of the default family and of wide
    # compositions with empty and repeated columns
    family = [mu.parts for mu in default_family()] + [
        (2, 1, 0, 2, 1), (1, 0, 2, 0, 1, 0), (0, 1, 2, 1, 2), (2, 0, 1, 1, 0, 2)]
    seen = 0
    for parts in family:
        for sigma in enumerate_fillings(Composition(parts)):
            entries = {
                (i, j): sigma.entry(i, j)
                for i in range(1, len(parts) + 1)
                for j in range(parts[i - 1] + 1)
            }
            assert fillings._hhl_factors(sigma) == brute_factors(parts, entries), sigma
            seen += 1
    assert seen > len(family)


def test_f_hhl_goldens(golden_polys):
    for parts, poly in golden_polys.items():
        assert f_hhl(Composition(parts)) == poly


def test_f_hhl_against_bruteforce_oracle():
    for parts in [(1, 0), (0, 1), (2, 0), (1, 2), (2, 1, 0), (0, 1, 2)]:
        assert f_hhl(Composition(parts)) == oracle.brute_f(parts)


def test_bijection_examples():
    mu = Composition((0, 1))
    straight = bijection_M_inverse(filling((0, 1), [(1,), (2, 2)]))
    assert straight.columns == ((1, 2), (0, 2))
    moved = bijection_M_inverse(filling((0, 1), [(1,), (2, 1)]))
    assert moved.columns == ((1, 2), (2, 0))
    for xi in enumerate_configs(mu):
        assert bijection_M_inverse(bijection_M(xi, mu)) == xi


def test_bijection_on_paper_tableau():
    # the displayed filling for mu = (0, 4, 1, 5, 4): column i lists the
    # rows visited by path i
    mu = Composition((0, 4, 1, 5, 4))
    sigma = filling(
        (0, 4, 1, 5, 4),
        [(1,), (2, 1, 1, 1, 2), (3, 3), (4, 4, 4, 5, 4, 4), (5, 5, 2, 3, 3)],
    )
    assert oracle.non_attacking(sigma)
    xi = bijection_M_inverse(sigma)
    assert xi.is_legal(mu)
    assert bijection_M(xi, mu) == sigma


def test_bijection_roundtrip_and_counts_small_family():
    for n in (1, 2, 3):
        for mu in compositions_with(n, 2):
            configs = list(enumerate_configs(mu))
            fillings = list(enumerate_fillings(mu))
            assert len(configs) == len(fillings)
            images = set()
            for xi in configs:
                sigma = bijection_M(xi, mu)
                assert bijection_M_inverse(sigma) == xi
                images.add(sigma.columns)
            assert images == {f.columns for f in fillings}


def test_weight_match_examples():
    for parts in [(0, 1), (1, 1), (2, 0)]:
        report = weight_match_check(Composition(parts))
        assert report.ok, report.failures[:3]


def test_weight_match_detects_corrupted_triples(monkeypatch):
    # ord_+ one too large in the HHL kernel: the t^ord_+ group and the total
    # weight must fail, and every other factor group must still match
    original = fillings._hhl_factors

    def corrupted(sigma):
        exps, (qexp, plus, binomials), *groups = original(sigma)
        return exps, (qexp, plus + 1, binomials), *groups

    monkeypatch.setattr(fillings, "_hhl_factors", corrupted)
    report = weight_match_check(Composition((1, 1)))
    kinds = sorted(message.split(" on ")[0] for message in report.failures)
    assert kinds == ["t^ord_+ mismatch", "total weights differ"]


def test_weight_match_detects_a_corrupted_arm(monkeypatch):
    # an arm one too long in the kernel's table changes a descent/ascent
    # denominator 1 - q^{l+1} t^{a+1} and an ascent numerator t^a; the
    # normal forms must tell.  The tables are cached per mu, so the cache
    # is cleared before the corrupted arm builds one and again after it,
    # leaving no corrupted table to later tests
    original = fillings.arm
    monkeypatch.setattr(fillings, "arm", lambda mu, s: original(mu, s) + 1)
    fillings._hhl_tables.cache_clear()
    try:
        report = weight_match_check(Composition((1, 2, 0)))
    finally:
        fillings._hhl_tables.cache_clear()
    kinds = {message.split(" on ")[0] for message in report.failures}
    assert kinds == {
        "descent/ascent denominators differ",
        "downward-move factor mismatch",
        "total weights differ",
    }


def test_weight_match_reads_every_column_of_a_group(monkeypatch):
    # an extra factor t in the t^g group's form of the closing column, which
    # comes after the first and has t^0 there on clean data, and in that
    # column's form, as a kernel that computed it would put it there: a
    # check that read only one column of a group would not see it
    original = matrixprod._cached_column
    original.cache_clear()

    def extra_t(I, J, twists):
        column = original(I, J, twists)
        if column is None or any(J):
            return column
        exps, (t_g, *groups), form = column
        return exps, (t_g._replace(texp=t_g.texp + 1), *groups), form._replace(texp=form.texp + 1)

    monkeypatch.setattr(matrixprod, "_cached_column", extra_t)
    report = weight_match_check(Composition((1, 1)))
    kinds = {message.split(" on ")[0] for message in report.failures}
    assert kinds == {"t^ord_+ mismatch", "total weights differ"}


def test_a_column_form_that_disagrees_with_its_groups_is_caught(monkeypatch):
    # the twin of the test above: the closing column's form has the extra t
    # and its groups are clean.  f_matrix_product sums the forms, so it
    # parts from f_hhl; weight_match_check's totals, which read the walk's
    # form, fail while every group identity holds
    original = matrixprod._cached_column
    original.cache_clear()

    def extra_t(I, J, twists):
        column = original(I, J, twists)
        if column is None or any(J):
            return column
        exps, groups, form = column
        return exps, groups, form._replace(texp=form.texp + 1)

    monkeypatch.setattr(matrixprod, "_cached_column", extra_t)
    mu = Composition((0, 2, 1))
    assert f_hhl(mu) != f_matrix_product(mu)
    report = weight_match_check(mu)
    kinds = {message.split(" on ")[0] for message in report.failures}
    assert kinds == {"total weights differ"}


def test_route_equivalence_spot():
    for parts in [(2, 1), (0, 2, 1), (3, 0, 2)]:
        mu = Composition(parts)
        assert f_hhl(mu) == f_matrix_product(mu)


def test_equal_columns_do_not_search_dead_branches():
    # (k, k) has one configuration and one filling; without the cut the
    # search visited about 4^(k/2) dead branches ((18, 18): 0.9 s)
    mu = Composition((40, 40))
    start = time.perf_counter()
    assert f_hhl(mu) == f_matrix_product(mu)
    assert time.perf_counter() - start < 1.0


def test_equal_columns_of_many_colours_do_not_search_dead_branches():
    # one configuration and one filling each; with a cut that only looked
    # at one later square, (5,5,5,5,5) took 1.35 s to enumerate and
    # (5,5,5,5,5,5) did not finish in 60 s
    for parts in ((5, 5, 5, 5, 5), (5, 5, 5, 5, 5, 5)):
        mu = Composition(parts)
        start = time.perf_counter()
        assert f_hhl(mu) == f_matrix_product(mu)
        assert time.perf_counter() - start < 1.0


def test_filling_validation():
    with pytest.raises(ValueError):
        filling((0, 1), [(2,), (2, 1)])  # wrong basement
    with pytest.raises(ValueError):
        filling((0, 1), [(1,), (2,)])  # missing entry
    with pytest.raises(ValueError):
        filling((1, 1), [(1, 0), (2, 2)])  # entry below 1
    with pytest.raises(ValueError):
        filling((1, 1), [(1, 3), (2, 2)])  # entry above n
