"""Acceptance suite: one test per acceptance criterion, exact equality
in Q(q,t) throughout.  Each test prints a single PASS line on success
(run pytest with -s or look at captured output to see them).

The composition family is: every mu with n <= 3 and parts <= 3, plus
every mu with n = 4 and parts <= 2 (165 compositions), whose f_mu JSON
is pinned by the digests in data/default_family_digests.json; the
per-configuration suites (cyclic relation, bijection, weight matching)
run over n <= 3 with parts <= 2.
"""

import hashlib
import itertools
import json
from functools import lru_cache
from pathlib import Path

from nsmacdonald.compositions import (
    Composition,
    bracket_precedes,
    compositions_with,
    default_family,
    eigenvalue_y,
    gamma,
    omega_norm,
)
from nsmacdonald.fillings import (
    bijection_M,
    bijection_M_inverse,
    enumerate_fillings,
    f_hhl,
    hhl_summand,
    weight_match_check,
)
from nsmacdonald.hecke import apply_T, verify_eigen, verify_hecke_relations
from nsmacdonald.lattice import exchange_check, ybe_check, ybe_check_symbolic
from nsmacdonald.matrixprod import (
    config_weight,
    cyclic_check,
    enumerate_configs,
    f_matrix_product,
    frozen_coefficient,
    hall_littlewood_q0,
)
from nsmacdonald.qt import QTRational
from nsmacdonald.xpoly import XPolynomial

import bruteforce_oracle as oracle

FAMILY = default_family()
# SHA-256 of the canonical JSON of f_mu for every mu in FAMILY, keyed
# "m1,m2,..": written once, after both routes agreed and the eigenvector
# check passed, so any later change to the output shows here
GOLDEN_DIGESTS = Path(__file__).parent / "data" / "default_family_digests.json"
SMALL_FAMILY = [mu for n in (1, 2, 3) for mu in compositions_with(n, 2)]


@lru_cache(maxsize=None)
def via_hhl(parts: tuple[int, ...]) -> XPolynomial:
    return f_hhl(Composition(parts))


@lru_cache(maxsize=None)
def via_matrix(parts: tuple[int, ...], rho: tuple[int, ...] | None = None) -> XPolynomial:
    return f_matrix_product(Composition(parts), rho)


def report(criterion: str, detail: str) -> None:
    print(f"PASS {criterion}: {detail}")


def test_criterion_01_route_equivalence():
    for mu in FAMILY:
        assert via_hhl(mu.parts) == via_matrix(mu.parts), f"routes differ for {mu}"
    report("criterion 1 (route equivalence)", f"{len(FAMILY)} compositions, exact")


def test_golden_digests_of_default_family():
    golden = json.loads(GOLDEN_DIGESTS.read_text())
    assert list(golden) == [",".join(map(str, mu.parts)) for mu in FAMILY]
    for mu in FAMILY:
        expected = golden[",".join(map(str, mu.parts))]
        for poly in (via_hhl(mu.parts), via_matrix(mu.parts)):
            text = json.dumps(poly.to_json(), sort_keys=True, separators=(",", ":"))
            assert hashlib.sha256(text.encode()).hexdigest() == expected, mu
    report("golden digests", f"f_mu JSON of {len(FAMILY)} compositions, byte for byte")


def test_criterion_02_eigenvector_property():
    checked = 0
    for mu in FAMILY:
        result = verify_eigen(via_hhl(mu.parts), mu)
        assert result.ok, (mu, result.failures[:2])
        checked += result.checked
    report("criterion 2 (eigenvector property)", f"{checked} operator identities")


def test_criterion_03_golden_values(golden_polys):
    for parts, frozen in golden_polys.items():
        rederived = oracle.brute_f(parts)
        assert rederived == frozen, f"oracle disagrees with frozen value for {parts}"
        assert via_hhl(parts) == frozen
        assert via_matrix(parts) == frozen
    report("criterion 3 (golden values)", "f_(1,0), f_(0,1), f_(2,0) re-derived and matched")


def test_criterion_04_normalisation():
    for mu in FAMILY:
        assert via_hhl(mu.parts).coefficient(mu.parts).is_one(), mu
        from_config, from_omega = frozen_coefficient(mu)
        assert from_config == from_omega, mu
        assert from_config.value() == omega_norm(mu).inverse(), mu
    report("criterion 4 (normalisation)", f"monic + frozen/Omega consistency on {len(FAMILY)}")


def test_criterion_05_triangularity():
    for mu in FAMILY:
        mu_rev = mu.reverse()
        for exps in via_hhl(mu.parts).terms:
            if exps == mu.parts:
                continue
            nu_rev = Composition(exps).reverse()
            assert bracket_precedes(nu_rev, mu_rev), (mu, exps)
    report("criterion 5 (triangularity)", f"support of f - x^mu below mu on {len(FAMILY)}")


def test_criterion_06_yang_baxter():
    total = 0
    for n in (1, 2):
        result = ybe_check(n, occupation_cap=2)
        assert result.ok, result.failures[:3]
        total += result.checked
    symbolic = ybe_check_symbolic(1, 2)
    assert symbolic.ok, symbolic.failures[:3]
    report(
        "criterion 6 (Yang-Baxter)",
        f"{total} sample-point identities, {symbolic.checked} symbolic n=1 boundaries",
    )


def test_criterion_07_exchange_relations():
    total = 0
    for i in (1, 2):
        for j in (1, 2):
            result = exchange_check(i, j, 2, N=1, cap=1)
            assert result.ok, (i, j, result.failures[:3])
            total += result.checked
    report("criterion 7 (exchange relations)", f"{total} component identities in (x,y)")


def test_criterion_08_cyclic_relation():
    total = 0
    for mu in SMALL_FAMILY:
        for i in range(1, mu.n + 1):
            result = cyclic_check(mu, i)
            assert result.ok, (mu, i, result.failures[:2])
            total += result.checked
    report("criterion 8 (cyclic relation)", f"{total} per-configuration ratios")


def test_criterion_09_bijection_and_weights():
    configs_seen = 0
    for mu in SMALL_FAMILY:
        configs = list(enumerate_configs(mu))
        fillings = list(enumerate_fillings(mu))
        assert len(configs) == len(fillings), mu
        for xi in configs:
            sigma = bijection_M(xi, mu)
            assert bijection_M_inverse(sigma) == xi, (mu, xi.columns)
            assert config_weight(xi, mu) == hhl_summand(sigma), (mu, xi.columns)
        matches = weight_match_check(mu)
        assert matches.ok, (mu, matches.failures[:2])
        configs_seen += len(configs)
    report(
        "criterion 9 (bijection + weight match)",
        f"{configs_seen} configurations incl. factor-group identities",
    )


def test_criterion_10_hecke_suite():
    for n in (2, 3):
        result = verify_hecke_relations(n, samples=4, seed=0)
        assert result.ok, result.failures[:3]
    t_inv = QTRational.t().inverse()
    checked = 0
    for n in (2, 3):
        for mu in compositions_with(n, 2):
            for rho in itertools.permutations(range(1, n + 1)):
                for i in range(1, n):
                    if rho[i - 1] >= rho[i]:
                        continue
                    swapped = list(rho)
                    swapped[i - 1], swapped[i] = swapped[i], swapped[i - 1]
                    lhs = apply_T(via_matrix(mu.parts, rho), i, inverse=True)
                    rhs = via_matrix(mu.parts, tuple(swapped)).scale(t_inv)
                    assert lhs == rhs, (mu, rho, i)
                    checked += 1
    report("criterion 10 (Hecke suite)", f"relations + {checked} basement exchanges")


def test_criterion_11_hall_littlewood_degeneration():
    for mu in FAMILY:
        assert hall_littlewood_q0(mu) == oracle.specialize_q(via_hhl(mu.parts), 0), mu
    report("criterion 11 (q=0 degeneration)", f"{len(FAMILY)} compositions")


def test_criterion_12_eigenvalue_distinctness():
    count = 0
    for n in (1, 2, 3):
        seen: dict = {}
        for mu in compositions_with(n, 4):
            if mu.weight > 4:
                continue
            key = tuple(eigenvalue_y(mu, i) for i in range(1, n + 1))
            assert key not in seen, (mu, seen.get(key))
            seen[key] = mu
            count += 1
    report("criterion 12 (eigenvalue distinctness)", f"{count} eigenvalue tuples pairwise distinct")
