"""Matrix-product evaluation of nonsymmetric Macdonald polynomials.

The cylinder partition function with twist parameters v_ij factorises over
lattice columns.  One column with left edge colours I = (i_1..i_n) (bottom
to top), right edge colours J = (j_1..j_n) and top exit set P has the
closed-form component

  prod_{p>l, p in PuQ, l in Q} 1(a_p != b_l)
  * prod_{p in P} t^{g(p)}
  * prod_{p in Q} x_{b_p}
  * prod_{p in PuQ} 1/(1 - v_p t^{f(p)})
  * prod_{p in Q, a_p != b_p} v_p^{1(a_p > b_p)} t^{h(p)} (1-t)
        / (1 - v_p t^{f(p)+1})

where P holds the colours entering left and exiting through the top, Q
those exiting right, a_p / b_p the rows where colour p crosses the left /
right edge, and

  f(p) = #{l in Q : l < p}
  g(p) = #{l in Q : l < p, a_p < b_l}
  h(p) = #{l in Q : l < p, b_l in (a_p, b_p)}   (cyclic interval).

The geometric series over cylinder wrap counts are already resummed into
the 1/(1 - v t^f) factors, so nothing is ever truncated.

Every twist v_p = q^{mu_p - j} t^{gamma_pj} is a monomial, which the kernel
takes as its exponents (a, b), or None for v_p = 0, so each factor group is
a monomial times binomials 1 - q^a t^b to integer powers, in exponent form
(cyclotomic's ``Factors``).  The closed form is written once, in the column
kernel ``_column_factors``, one integer pass over the colours: the x
targets and the factor groups (t^g, phi, move denominators, upward t^h,
downward v t^h), or None where the component vanishes.

A full lattice configuration xi records the colour on every vertical edge
(column j = 0..N, row i = 1..n); its weight is the product of its N+1
column components times the normalisation Omega_mu, and f_mu is the sum
of the weights over mu-legal configurations.  Omega_mu cancels every phi:
in column j, Q = {l : mu_l > j}, so f(p) = #{l < p : mu_l > j} counts
colours, not rows, and gamma_pj + f(p) = alpha_pj makes colour p's phi
the inverse of Omega_mu's (p, j) factor.  So a weight is the product of
its columns' groups other than phi, whatever the rows.

The one loop over columns, ``_column_walk``, reads each column from the
kernel's cache ``_cached_column`` (keyed by the boundary and the twist
values), which holds each factor group as its cyclotomic form and the
column's form, the product of its group forms other than phi.  It adds
the x exponents across the columns of a configuration (or of its rows
in another order), and keeps each factor group as the tuple of its
per-column forms, and the columns' forms.  Their product
(cyclotomic's ``form_product``) is what ``f_matrix_product`` sums with
xpoly's ``binomial_sum`` (cyclotomic labels, no gcd) and
``cyclic_check`` compares (the shift q x_i of the top row is q^e, e
that row's x exponent in the walk).  The frozen coefficient and weight
matching multiply the cached group forms, phi included.  Forms are
equal exactly when the values are; a Q(q,t) value is built only by
``config_weight`` and ``column_component``, which no route sums, and to
word a failure.

Permuted basements: f^rho is the same sum with colour rho_r entering row
r instead of colour r.  The module also provides the per-configuration
cyclic relation Z_l / Z_r = q^{mu_i} t^{gamma_{i,0}}, the
frozen-configuration normalisation, the basement exchange T_i^{-1} f^rho
= t^{-1} f^{s_i rho}, and the q = 0 Hall-Littlewood evaluation through a
direct row-operator route.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from typing import Iterator, Sequence

from .compositions import Composition, ReadOnly, column_twists, gamma, omega_factors
from .cyclotomic import CyclotomicForm, Factors, cyclotomic_form, form_product
from .lattice import row_operator_expand
from .qt import QTRational
from .reports import CheckReport
from .xpoly import Summand, XPolynomial, binomial_sum

__all__ = [
    "LatticeConfig",
    "column_component",
    "enumerate_configs",
    "count_configs",
    "config_weight",
    "f_matrix_product",
    "hall_littlewood_q0",
    "cyclic_check",
    "frozen_coefficient",
    "verify_exchange_basement",
]


class InadmissiblePair(ValueError):
    """Column boundary vectors violating the admissibility condition."""


class LatticeConfig(ReadOnly):
    """A cylinder configuration: columns[j][i-1] is the colour on the
    vertical edge at lateral coordinate j, height i."""

    __slots__ = ("columns",)
    __match_args__ = ("columns",)

    def __init__(self, columns: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "columns", columns)

    @property
    def n(self) -> int:
        return len(self.columns[0])

    def row_of(self, colour: int, j: int) -> int:
        """The 1-based row occupied by ``colour`` in column j."""
        return self.columns[j].index(colour) + 1

    def is_legal(self, mu: Composition) -> bool:
        """mu-legality: continuity/termination, identity basement, no down-crossings."""
        n = mu.n
        if len(self.columns) != mu.maxpart + 1 or self.n != n:
            return False
        if self.columns[0] != tuple(range(1, n + 1)):
            return False
        for a in range(1, n + 1):
            for j, column in enumerate(self.columns):
                occupied = column.count(a)
                if occupied != (1 if j <= mu.part(a) else 0):
                    return False
        for j in range(len(self.columns) - 1):
            for i in range(n):
                here, there = self.columns[j][i], self.columns[j + 1][i]
                if here > there >= 1:
                    return False
        return True


# ---------------------------------------------------------------------------
# The closed-form column component.
# ---------------------------------------------------------------------------


# one column's x exponents (indexed by row) and factor groups (prod over P
# of t^{g(p)}, phi = prod 1/(1 - v t^f), prod (1-t)/(1 - v t^{f+1}) over
# row changes, prod t^h over upward, prod v t^h over downward ones), then
# as cached, each group as its form, with the form of its groups other than phi
Column = tuple[tuple[int, ...], tuple[Factors, ...]]
CachedColumn = tuple[tuple[int, ...], tuple[CyclotomicForm, ...], CyclotomicForm]
# several columns' x exponents added, group forms as tuples, and their forms
Walk = tuple[tuple[int, ...], tuple[tuple[CyclotomicForm, ...], ...], tuple[CyclotomicForm, ...]]
# a twist parameter q^a t^b as (a, b), or None for zero
Twist = tuple[int, int] | None


def _column_factors(I: Sequence[int], J: Sequence[int], v: dict[int, Twist]) -> Column | None:
    """The column kernel: boundary (I, J) as its x exponents and factor
    groups, or None where it vanishes.

    a[p], b[p] are colour p's rows on the left, right edge (0 if none).
    One pass over the colours in increasing order keeps in ``below`` the
    b rows of the l in Q with l < p: f(p) is their number, g(p), h(p)
    count those above a[p] and in the cyclic interval (a[p], b[p]).  f(p)
    counts colours, not rows.  Raises InadmissiblePair unless each colour
    of 1..n is at most once in I and in J, and in J only if in I."""
    n = len(I)
    if len(J) != n:
        raise InadmissiblePair("boundary vectors of different length")
    a, b = [0] * (n + 1), [0] * (n + 1)
    for row, colour in enumerate(I, 1):
        if colour:
            if not 0 < colour <= n or a[colour]:
                raise InadmissiblePair(f"colour {colour} repeated or out of range in {I}")
            a[colour] = row
    for row, colour in enumerate(J, 1):
        if colour:
            if not 0 < colour <= n or b[colour] or not a[colour]:
                raise InadmissiblePair(f"colour {colour} new, repeated or out of range in {J}")
            b[colour] = row
    exps = [0] * n
    below: list[int] = []
    phi: dict[tuple[int, int], int] = {}
    move: dict[tuple[int, int], int] = {}
    t_g = up_t = down_q = down_t = 0
    vanishes = False

    def binomial(group: dict, key: tuple[int, int], m: int) -> None:
        # (1 - q^a t^b)^m into ``group``
        group[key] = group.get(key, 0) + m

    for p in range(1, n + 1):
        ap, bp = a[p], b[p]
        if not ap:
            if v.get(p) is not None:
                raise ValueError(f"nonzero twist parameter for colour {p} outside P u Q")
            continue
        # p leaves row a[p] where a smaller colour exits right
        vanishes = vanishes or ap in below
        vp, f = v[p], len(below)
        if vp is not None:  # a zero twist gives 1/(1 - 0) = 1
            binomial(phi, (vp[0], vp[1] + f), -1)
        if not bp:
            t_g += sum(ap < r for r in below)
            continue
        exps[bp - 1] = 1
        if ap != bp:
            binomial(move, (0, 1), 1)
            if vp is not None:
                binomial(move, (vp[0], vp[1] + f + 1), -1)
            if ap < bp:
                up_t += sum(ap < r < bp for r in below)
            elif vp is None:
                vanishes = True  # the factor v t^h of a downward move is zero
            else:
                down_q += vp[0]
                down_t += vp[1] + sum(r > ap or r < bp for r in below)
        below.append(bp)
    if vanishes:
        return None
    groups = ((0, t_g, {}), (0, 0, phi), (0, 0, move), (0, up_t, {}), (down_q, down_t, {}))
    return tuple(exps), groups


@lru_cache(maxsize=1 << 10)
def _group_form(qexp: int, texp: int, binomials: frozenset) -> CyclotomicForm:
    """The form of one factor group (a column's, or the cyclic relation's
    monomial shift), one object per distinct group."""
    return cyclotomic_form((qexp, texp, dict(binomials)))


@lru_cache(maxsize=1 << 10)
def _shared(form: CyclotomicForm) -> CyclotomicForm:
    """One column form per distinct value, shared by every cached column."""
    return form


@lru_cache(maxsize=1 << 12)
def _cached_column(
    I: tuple[int, ...], J: tuple[int, ...], twists: tuple[Twist, ...]
) -> CachedColumn | None:
    """``_column_factors`` of boundary (I, J) with twist v_p = twists[p - 1],
    each factor group as its cyclotomic form (``_group_form``), and the
    column's form, the product of its group forms other than phi
    (gamma_pj + f(p) = alpha_pj: Omega_mu cancels phi).  Kept for the life
    of the process and shared by every walk: the key holds the twist
    values, so a changed twist table is a new key.  Equal group forms and
    equal column forms are one object each (``_group_form``, ``_shared``)."""
    column = _column_factors(I, J, dict(enumerate(twists, 1)))
    if column is None:
        return None
    exps, groups = column
    forms = tuple(_group_form(qe, te, frozenset(b.items())) for qe, te, b in groups)
    t_g, _phi, *rest = forms
    return exps, forms, _shared(form_product((t_g, *rest)))


def column_component(I: Sequence[int], J: Sequence[int], v: dict[int, Twist]) -> XPolynomial:
    """The closed-form column operator component for boundary (I, J).

    ``v`` maps colours to twist parameters q^a t^b as exponent pairs
    (a, b), or None for zero; any colour outside P u Q must map to None
    (hypothesis of the closed form).  The result is a single
    monomial in the x alphabet (x_r for row r) with a Q(q,t) coefficient:
    the one-column case of ``config_weight``, without Omega_mu.
    """
    column = _column_factors(I, J, v)
    return _monomial(len(I), column and (column[0], cyclotomic_form(*column[1])))


def _monomial(n: int, found: Summand | None) -> XPolynomial:
    """x^exps times the value of form, for ``found`` = (exps, form), as a
    monomial in x_1..x_n with its coefficient built once (zero for None,
    where a column vanished)."""
    if found is None:
        return XPolynomial.zero(n)
    exps, form = found
    return XPolynomial.monomial(n, exps, form.value())


# ---------------------------------------------------------------------------
# Configuration enumeration and weights.
# ---------------------------------------------------------------------------


def _placements(
    previous: tuple[int, ...], survivors: Sequence[int]
) -> Iterator[tuple[int, ...]]:
    """The legal next columns after ``previous``: the colours ``survivors``
    placed injectively into rows, each on a row whose previous occupant
    is absent or of weakly smaller colour (the no-down-crossing rule)."""
    column = [0] * len(previous)

    def place(idx: int) -> Iterator[tuple[int, ...]]:
        if idx == len(survivors):
            yield tuple(column)
            return
        colour = survivors[idx]
        for row, before in enumerate(previous):
            if column[row] == 0 and before <= colour:
                column[row] = colour
                yield from place(idx + 1)
                column[row] = 0

    return place(0)


def _basement(mu: Composition, basement: Sequence[int] | None) -> tuple[int, ...]:
    base = tuple(basement) if basement is not None else tuple(range(1, mu.n + 1))
    if sorted(base) != list(range(1, mu.n + 1)):
        raise ValueError(f"basement {base} is not a permutation of 1..{mu.n}")
    return base


def _survivors(mu: Composition, j: int) -> list[int]:
    # the colours still active in column j: Q_j = {p : mu_p > j}
    return [p for p in range(1, mu.n + 1) if mu.part(p) > j]


def enumerate_configs(
    mu: Composition, basement: Sequence[int] | None = None
) -> Iterator[LatticeConfig]:
    """All mu-legal cylinder configurations, column by column.

    The search state is the injective placement of the still-active
    colours Q_j = {p : mu_p > j} into rows; moving from column j to j+1 a
    colour may only land on a row whose previous occupant is absent or of
    weakly smaller colour (``_placements``).
    """
    survivors = [_survivors(mu, j) for j in range(mu.maxpart)]

    def extend(columns: list[tuple[int, ...]], j: int) -> Iterator[LatticeConfig]:
        if j == len(survivors):
            yield LatticeConfig(tuple(columns))
            return
        for column in _placements(columns[-1], survivors[j]):
            columns.append(column)
            yield from extend(columns, j + 1)
            columns.pop()

    yield from extend([_basement(mu, basement)], 0)


def count_configs(mu: Composition) -> int:
    """The exact number of configurations ``enumerate_configs`` yields,
    under any basement, without enumerating them.

    Every state of column j + 1 holds the same colours, the survivors
    Q_j, and every state of column 0 all colours, so the number of legal
    next columns is the same from each state of a column, and the count is
    the product of those numbers.  From a column holding the colours
    ``held``, the survivors are placed in increasing order: colour c may
    take a row whose previous occupant is absent or at most c, less the
    rows the smaller survivors took, all of which are open to c too.  A
    basement is a permutation of 1..n, so exactly c of its rows hold a
    colour <= c whichever it is, and the count does not depend on it."""
    held = tuple(range(1, mu.n + 1))
    total = 1
    for j in range(mu.maxpart):
        survivors = _survivors(mu, j)
        for taken, colour in enumerate(survivors):
            total *= sum(1 for before in held if before <= colour) - taken
        held = tuple(survivors) + (0,) * (mu.n - len(survivors))
    return total


def _column_walk(columns: Sequence[tuple[int, ...]], mu: Composition) -> Walk | None:
    """The one loop over lattice columns: the x exponents added across
    ``columns`` (closed by the empty column), each factor group as the
    tuple of its per-column factors, and the columns' forms; or None where
    a column vanishes.  The twists come from the cached table
    ``column_twists``, each column from the kernel's cache.

    ``columns[j][r-1]`` is the colour on row r of column j; the rows may be
    a permutation of a configuration's rows, and x_r stands for row r.
    """
    closed = tuple(columns) + ((0,) * mu.n,)
    twists = column_twists(mu)
    last = len(twists) - 1  # every twist is 0 from column max(mu) on
    walked = []
    for j in range(len(columns)):
        column = _cached_column(closed[j], closed[j + 1], twists[min(j, last)])
        if column is None:
            return None
        walked.append(column)
    exps, groups, forms = zip(*walked)
    return tuple(map(sum, zip(*exps))), tuple(zip(*groups)), forms


def config_weight(xi: LatticeConfig, mu: Composition) -> XPolynomial:
    """The weight of one configuration: Omega_mu times the product of its
    column components (a single monomial in x with Q(q,t) coefficient),
    built from the product of its walk's column forms, Omega_mu having
    cancelled phi."""
    walk = _column_walk(xi.columns, mu)
    return _monomial(mu.n, walk and (walk[0], form_product(walk[2])))


def f_matrix_product(
    mu: Composition, rho: Sequence[int] | None = None
) -> XPolynomial:
    """The matrix-product polynomial f_mu (or permuted-basement f^rho_mu).

    Sums the configuration weights, each its walk's x exponents and the
    product of its column forms, over all legal configurations with colour
    rho_r entering row r; rho defaults to the identity, giving the
    nonsymmetric Macdonald polynomial itself.
    """
    walks = (_column_walk(xi.columns, mu) for xi in enumerate_configs(mu, basement=rho))
    return binomial_sum(
        mu.n, ((exps, form_product(forms)) for exps, _, forms in filter(None, walks))
    )


def hall_littlewood_q0(mu: Composition) -> XPolynomial:
    """The q = 0 polynomial <empty| C_1(x_1) .. C_n(x_n) |mu>.

    Evaluated directly by acting with the row operators on the composition
    state (no cylinder wrapping contributes at q = 0), which keeps the
    route independent of the column-component machinery.
    """
    n = mu.n
    N = mu.maxpart
    t = QTRational.t()
    start = tuple(
        tuple(1 if mu.part(i) == j else 0 for i in range(1, n + 1))
        for j in range(N + 1)
    )
    amplitudes: dict[tuple, XPolynomial] = {start: XPolynomial.one(n)}
    for colour in range(n, 0, -1):
        nxt: dict[tuple, XPolynomial] = {}
        xvar = XPolynomial.variable(n, colour)
        for state, amp in amplitudes.items():
            for out, coeff, xdeg in row_operator_expand(colour, state, t):
                term = amp.scale(coeff) * xvar**xdeg
                cur = nxt.get(out)
                nxt[out] = term if cur is None else cur + term
        amplitudes = {s: p for s, p in nxt.items() if not p.is_zero()}
    empty = tuple((0,) * n for _ in range(N + 1))
    return amplitudes.get(empty, XPolynomial.zero(n))


# ---------------------------------------------------------------------------
# The cyclic relation.
# ---------------------------------------------------------------------------


def _cyclic_partition_functions(
    xi: LatticeConfig, mu: Composition, i: int, ratio: tuple[int, int]
) -> tuple[Summand | None, Summand | None]:
    """The fixed-internal-state partition functions Z_l and q^a t^b Z_r,
    (a, b) = ``ratio``, for colour i: each its x exponents (x_c's at index
    c - 1) and the product of its walk's column forms and its monomial,
    or None where it vanishes: Omega_mu times the function, as phi, left
    out of the forms, is 1/Omega_mu on every walk (module docstring).

    Z_l places the colour-i row on top with spectral variable q x_i; Z_r
    places it at the bottom with variable x_i.  Both reuse the internal
    edge states of xi, whose rows are indexed by entering colour.
    """
    n = mu.n
    others = [c for c in range(1, n + 1) if c != i]

    def partition_function(order: list[int], top_shift: int, qexp: int, texp: int):
        # row r of the walk is row order[r-1] of xi and carries x_{order[r-1]};
        # the top row's variable is q^top_shift x_{order[n-1]}
        columns = [tuple(column[c - 1] for c in order) for column in xi.columns]
        walk = _column_walk(columns, mu)
        if walk is None:
            return None
        exps, _, forms = walk
        placed = tuple(exps[order.index(c)] for c in range(1, n + 1))
        shift = _group_form(qexp + top_shift * exps[-1], texp, frozenset())
        return placed, form_product((*forms, shift))

    return (
        partition_function(others + [i], 1, 0, 0),
        partition_function([i] + others, 0, *ratio),
    )


def cyclic_check(mu: Composition, i: int) -> CheckReport:
    """Verify Z_l = q^{mu_i} t^{gamma_{i,0}} Z_r for every legal internal
    configuration (the refined, per-configuration cyclic relation): the x
    exponents of the two sides are equal and so are the cyclotomic forms
    of their coefficients."""
    if not 1 <= i <= mu.n:
        raise IndexError(f"colour {i} out of range 1..{mu.n}")
    report = CheckReport(f"cyclic mu={mu} i={i}")
    ratio = (mu.part(i), gamma(mu, i, 0))
    for xi in enumerate_configs(mu):
        left, right = _cyclic_partition_functions(xi, mu, i, ratio)
        report.count()
        if right is None:
            report.fail(f"Z_r vanishes on legal configuration {xi.columns}")
        elif left != right:
            report.fail(
                f"Z_l != q^mu_i t^gamma Z_r on configuration {xi.columns}, times Omega_mu: "
                f"{_monomial(mu.n, left)} vs {_monomial(mu.n, right)}"
            )
    return report


# ---------------------------------------------------------------------------
# Frozen-configuration normalisation.
# ---------------------------------------------------------------------------


def frozen_coefficient(
    mu: Composition,
) -> tuple[CyclotomicForm | None, CyclotomicForm]:
    """Coeff[x^mu] of the unnormalised matrix product, two ways.

    Route one evaluates the unique frozen configuration (each colour runs
    straight along its own row before exiting); route two is the closed
    product 1/Omega_mu.  Returns (from_configuration, from_omega) as
    cyclotomic forms, None for a zero coefficient; the two must agree, and
    ``.value()`` gives each in Q(q,t).  Neither is multiplied out.
    """
    n = mu.n
    frozen = LatticeConfig(
        tuple(
            tuple(i if mu.part(i) >= j else 0 for i in range(1, n + 1))
            for j in range(mu.maxpart + 1)
        )
    )
    walk = _column_walk(frozen.columns, mu)
    from_config = None
    if walk is not None and walk[0] == tuple(mu.parts):
        from_config = form_product(chain.from_iterable(walk[1]))
    _, _, omega = omega_factors(mu)
    return from_config, cyclotomic_form((0, 0, {label: -m for label, m in omega.items()}))


# ---------------------------------------------------------------------------
# Basement exchange (a permuted-basement identity).
# ---------------------------------------------------------------------------


def verify_exchange_basement(mu: Composition, i: int, rho: Sequence[int]) -> CheckReport:
    """Check T_i^{-1} f^rho = t^{-1} f^{s_i rho} for rho_i < rho_{i+1}."""
    from .hecke import apply_T

    rho = list(rho)
    if not 1 <= i <= mu.n - 1:
        raise IndexError(f"index {i} out of range 1..{mu.n - 1}")
    if not rho[i - 1] < rho[i]:
        raise ValueError(f"exchange requires rho_{i} < rho_{i + 1}, got {rho}")
    report = CheckReport(f"exchange-basement mu={mu} i={i} rho={rho}")
    swapped = list(rho)
    swapped[i - 1], swapped[i] = swapped[i], swapped[i - 1]
    lhs = apply_T(f_matrix_product(mu, rho), i, inverse=True)
    rhs = f_matrix_product(mu, swapped).scale(QTRational.t().inverse())
    report.count()
    if lhs != rhs:
        report.fail(f"T_{i}^-1 f^{rho} != t^-1 f^{swapped}")
    return report
