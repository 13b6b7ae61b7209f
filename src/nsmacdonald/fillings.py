"""Non-attacking fillings and the combinatorial (HHL-type) formula.

A filling of the extended diagram of mu assigns a colour sigma_{i,j} in
{1..n} to every square (i, j) with 0 <= j <= mu_i, where the basement row
is pinned to sigma_{i,0} = i.  It is non-attacking when entries differ on
every attacking pair of squares ((i,j) attacks (i',j') iff i < i' and
j - j' is 0 or 1).  The polynomial is the sum

  f_mu = sum over non-attacking sigma of
         x^sigma t^{Delta(sigma)}
         prod over descents (1-t)/(1 - q^{l+1} t^{a+1})
         prod over ascents  q^{l+1} t^a (1-t)/(1 - q^{l+1} t^{a+1})

with x^sigma the product of x_{sigma_{i,j}} over non-basement squares,
descents/ascents the squares where sigma increases/decreases from the
square below, (l, a) leg and arm lengths, and Delta the signed count of
ordered triples ((i,j), (i',j-1), (i',j)), i < i': positive when
sigma_{i',j} > sigma_{i,j} > sigma_{i',j-1}, negative when the chain runs
the other way, with sigma_{i',j} read as +infinity if (i', j) is outside
the diagram.  ``enumerate_fillings`` fills the squares of dg(mu) in one
recursive search, one frame per square.

The map M from cylinder configurations sends a configuration to the
filling whose column a lists the rows visited by the colour-a path:
sigma_{a,j} = row of colour a in lattice column j.  It is a weight
preserving bijection onto non-attacking fillings; ``weight_match_check``
verifies this square by square, including the individual factor-group
identities the matching splits into.  The HHL side of those identities
is the factor kernel ``_hhl_factors``, in exponent form (cyclotomic's
``Factors``); the column side is matrixprod's column walk, whose cached
group forms the check multiplies (``form_product``).  The identities
compare cyclotomic forms, so no Q(q,t) value is built for them.
``f_hhl`` hands the cyclotomic form of each filling's factor groups to
xpoly's ``binomial_sum``, which adds them in cyclotomic labels with no
gcd, as f_matrix_product hands it the configuration weights' forms;
neither builds a Q(q,t) value per summand.  ``hhl_summand``, the
weight of one filling as an XPolynomial, is not on that path.

Leg, arm and the positions of the triples depend on mu alone; only the
entries depend on the filling.  ``_hhl_tables`` lists them once per
composition, in a bounded cache as ``compositions.column_twists``: each
square of dg(mu) with its label (leg + 1, arm + 1), taken once from
``compositions``, and each triple with whether its square (i', j) lies
in dg(mu).  The kernel reads a filling's entries against the tables in one
pass, counting ord_+, ord_-, descents, ascents and the x exponents.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterator

from .compositions import Composition, ReadOnly, arm, leg, omega_factors
from .cyclotomic import Factors, cyclotomic_form, form_product
from .matrixprod import LatticeConfig, _column_walk, enumerate_configs
from .reports import CheckReport
from .xpoly import XPolynomial, binomial_sum

__all__ = [
    "Filling",
    "enumerate_fillings",
    "hhl_summand",
    "f_hhl",
    "bijection_M",
    "bijection_M_inverse",
    "weight_match_check",
]


class Filling(ReadOnly):
    """A filling of the extended diagram: columns[i-1][j] = sigma_{i,j}."""

    __slots__ = ("mu", "columns")
    __match_args__ = ("mu", "columns")

    def __init__(self, mu: Composition, columns: tuple[tuple[int, ...], ...]):
        parts = mu.parts
        n = len(parts)
        if len(columns) != n:
            raise ValueError("one entry column per diagram column required")
        for i, (column, part) in enumerate(zip(columns, parts), start=1):
            if len(column) != part + 1:
                raise ValueError(f"column {i} must hold {part + 1} entries")
            if column[0] != i:
                raise ValueError(f"basement entry of column {i} must be {i}")
            if part and not (1 <= min(column[1:]) and max(column[1:]) <= n):
                raise ValueError(f"entries of column {i} must lie in 1..{n}")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "columns", columns)

    def entry(self, i: int, j: int) -> int:
        """sigma_{i,j} for a square of the extended diagram."""
        return self.columns[i - 1][j]


# the slots' own setters: enumerate_fillings builds its fillings, valid by
# construction, without the validation a Filling(...) call runs
_set_mu, _set_columns = Filling.mu.__set__, Filling.columns.__set__


def enumerate_fillings(mu: Composition) -> Iterator[Filling]:
    """All non-attacking fillings, one square at a time: the squares of
    dg(mu) column by column left to right, each column bottom to top, with
    the entries written into one table of columns, basement pinned.  So a
    filling passes through |mu| + 1 generator frames.

    When square (i, j) is filled, the attack constraints against earlier
    columns i' < i forbid exactly the entries sigma_{i',j} and
    sigma_{i',j+1}, read from the table.

    A branch is cut as soon as it cannot be completed.  Let ``later`` be
    the number of columns i'' > i that reach row j-1.  Their squares
    (i'', j-1) attack each other, so their entries are distinct, and each
    must avoid sigma_{i,j} and the entries ``covered`` of rows j-1 and j
    in columns i' <= i.  So the branch dies when covered holds more than
    n - later values, and when it holds exactly n - later, sigma_{i,j}
    must lie in it.  On the basement row (j = 1) the later entries are the
    fixed i'' > i, and the rule forbids sigma_{i,1} > i, as attacking them.
    Without the cut, the dead branches grow exponentially with the height
    of equal columns such as those of (5,5,5,5,5), which has one filling.
    """
    parts = mu.parts
    n = len(parts)
    # reaching[c][r]: the number of columns after column c (0-based) that reach row r
    reaching = [[sum(p >= r for p in parts[c + 1 :]) for r in range(max(parts) + 1)]
                for c in range(n)]
    columns = [[i] + [0] * part for i, part in enumerate(parts, 1)]
    squares = [(c, j) for c, part in enumerate(parts) for j in range(1, part + 1)]

    def search(k: int) -> Iterator[Filling]:
        if k == len(squares):
            sigma = object.__new__(Filling)
            _set_mu(sigma, mu)
            _set_columns(sigma, tuple(map(tuple, columns)))
            yield sigma
            return
        c, j = squares[k]
        forbidden = set()
        for column in columns[:c]:
            forbidden.update(column[j : j + 2])
        later = reaching[c][j - 1]
        if later:
            # rows j-1 and j of the earlier columns, row j-1 of this one
            covered = {columns[c][j - 1]}
            for column in columns[:c]:
                covered.update(column[j - 1 : j + 1])
            if len(covered) > n - later:
                return
            if len(covered) == n - later:
                forbidden.update(set(range(1, n + 1)) - covered)
        column = columns[c]
        for value in range(1, n + 1):
            if value not in forbidden:
                column[j] = value
                yield from search(k + 1)

    return search(0)


# 165 compositions make up the default family: a run over it keeps every table
@lru_cache(maxsize=165)
def _hhl_tables(mu: Composition) -> tuple[tuple, tuple]:
    """The squares (c, j, (leg + 1, arm + 1)) of dg(mu) and the triples
    (c, c', j, whether (i', j) lies in dg(mu)), with 0-based columns
    c = i - 1 and c' = i' - 1 that index ``Filling.columns`` directly."""
    parts = mu.parts
    squares = tuple(
        (i - 1, j, (leg(mu, (i, j)) + 1, arm(mu, (i, j)) + 1))
        for i in range(1, mu.n + 1)
        for j in range(1, parts[i - 1] + 1)
    )
    triples = tuple(
        (c, c2, j, j <= parts[c2])
        for c, c2 in itertools.combinations(range(mu.n), 2)
        for j in range(1, parts[c] + 1)
        if j - 1 <= parts[c2]
    )
    return squares, triples


def _hhl_factors(sigma: Filling) -> tuple[tuple[int, ...], Factors, Factors, Factors]:
    """The HHL factor kernel: the weight of sigma as x^sigma (its exponent
    vector) and the factor groups, in exponent form,

      t^{ord_+},
      prod over descents and ascents (1-t)/(1 - q^{l+1} t^{a+1}),
      t^{-ord_-} * prod over ascents q^{l+1} t^a,

    in one pass over the entries at mu's tables (``_hhl_tables``)."""
    squares, triples = _hhl_tables(sigma.mu)
    columns = sigma.columns
    plus = minus = 0
    for c, c2, j, inside in triples:
        mid, low = columns[c][j], columns[c2][j - 1]
        if not inside:
            plus += mid > low
        else:
            high = columns[c2][j]
            if high > mid > low:
                plus += 1
            elif high < mid < low:
                minus += 1
    exps = [0] * len(columns)
    denominators = {(0, 1): 0}  # the factors 1 - t, one per descent or ascent
    q_exp, t_exp = 0, -minus
    for c, j, label in squares:
        here, below = columns[c][j], columns[c][j - 1]
        exps[here - 1] += 1
        if here != below:
            denominators[(0, 1)] += 1
            denominators[label] = denominators.get(label, 0) - 1
            if here < below:
                q_exp, t_exp = q_exp + label[0], t_exp + label[1] - 1
    return tuple(exps), (0, plus, {}), (0, 0, denominators), (q_exp, t_exp, {})


def hhl_summand(sigma: Filling) -> XPolynomial:
    """The weight of one non-attacking filling in the combinatorial sum,
    built once from the product of its factor groups."""
    exps, *groups = _hhl_factors(sigma)
    return XPolynomial(sigma.mu.n, {exps: cyclotomic_form(*groups).value()})


def f_hhl(mu: Composition) -> XPolynomial:
    """The nonsymmetric Macdonald polynomial via the combinatorial sum,
    each filling's factor groups added in their cyclotomic form."""
    factors = map(_hhl_factors, enumerate_fillings(mu))
    return binomial_sum(mu.n, ((exps, cyclotomic_form(*groups)) for exps, *groups in factors))


# ---------------------------------------------------------------------------
# The bijection between lattice configurations and fillings.
# ---------------------------------------------------------------------------


def bijection_M(xi: LatticeConfig, mu: Composition) -> Filling:
    """Map a mu-legal configuration to its filling: column a of the
    filling lists the rows visited by the colour-a path."""
    if not xi.is_legal(mu):
        raise ValueError(f"configuration {xi.columns} is not {mu}-legal")
    columns = []
    for a in range(1, mu.n + 1):
        columns.append(tuple(xi.row_of(a, j) for j in range(mu.part(a) + 1)))
    return Filling(mu, tuple(columns))


def bijection_M_inverse(sigma: Filling) -> LatticeConfig:
    """The unique configuration mapping to sigma: k^{(j)}_{sigma_{a,j}} = a."""
    mu = sigma.mu
    n = mu.n
    columns = []
    for j in range(mu.maxpart + 1):
        column = [0] * n
        for a in range(1, n + 1):
            if j <= mu.part(a):
                row = sigma.entry(a, j)
                if column[row - 1]:
                    raise ValueError(
                        f"two colours land on row {row} of lattice column {j}"
                    )
                column[row - 1] = a
        columns.append(tuple(column))
    return LatticeConfig(tuple(columns))


def weight_match_check(mu: Composition) -> CheckReport:
    """Verify config_weight(xi) = hhl_summand(M(xi)) for every configuration,
    together with the factor-group identities the matching decomposes into:

      x factors        prod x_{sigma_{p,j+1}}          = x^sigma
      normalisation    Omega_mu * prod 1/(1 - v t^f)   = 1
      row changes      prod (1-t)/(1 - v t^{f+1})      = descent/ascent denominators
      upward moves     prod t^g * prod t^h (upward)    = t^{ord_+}
      downward moves   prod v t^h (downward)           = t^{-ord_-} * ascent numerators

    Each configuration is walked once and its filling's factors are built
    once; every identity compares cyclotomic forms, a walk's group
    entering as the product (``form_product``) of its columns' cached
    group forms, so ``cyclotomic_form`` is called only on the HHL groups
    and Omega_mu.  The normalisation identity, gamma_pj + f(p) = alpha_pj
    in every column j, is what lets the matrix route leave phi and
    Omega_mu out of its weights: the totals compare the weight's form as
    f_matrix_product sums it (the product of the walk's column forms)
    against the product of the HHL groups.
    """
    report = CheckReport(f"weight-match mu={mu}")
    omega = cyclotomic_form(omega_factors(mu))
    one = cyclotomic_form()
    for xi in enumerate_configs(mu):
        walk = _column_walk(xi.columns, mu)
        report.count()
        if walk is None:
            report.fail(f"configuration weight vanishes on {xi.columns}")
            continue
        x_exps, groups, forms = walk
        t_g, phi, moves, up_t_h, down_v_t_h = groups
        exps, *hhl_groups = _hhl_factors(bijection_M(xi, mu))
        t_plus, denominators, numerators = map(cyclotomic_form, hhl_groups)
        if x_exps != exps:
            report.fail(f"x factors differ on {xi.columns}")
        report.count()
        if form_product((omega, *phi)) != one:
            report.fail(f"Omega cancellation fails on {xi.columns}")
        report.count()
        if form_product(moves) != denominators:
            report.fail(f"descent/ascent denominators differ on {xi.columns}")
        report.count()
        if form_product(t_g + up_t_h) != t_plus:
            report.fail(f"t^ord_+ mismatch on {xi.columns}")
        report.count()
        if form_product(down_v_t_h) != numerators:
            report.fail(f"downward-move factor mismatch on {xi.columns}")
        report.count()
        hhl_weight = form_product((t_plus, denominators, numerators))
        if x_exps != exps or form_product(forms) != hhl_weight:
            report.fail(f"total weights differ on {xi.columns}")
    return report
