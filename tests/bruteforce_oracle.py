"""Independent brute-force evaluation of the combinatorial formula.

Everything here is recoded from the raw definitions: fillings are found
by filtering the full n^(#cells) assignment space against the attack
relation, and arm lengths come from the explicit square-set description
(left arm squares k < i with j <= mu_k <= mu_i, right arm squares k > i
with j - 1 <= mu_k < mu_i) rather than the alpha-count used by the
package.  Only the exact-arithmetic layers (QTRational, XPolynomial) are
shared, so this module serves as an oracle for the production routes.
The two checks the tests apply to the package's own output, the attack
relation on one filling and the specialisation q -> value, live here too,
as does the divided difference in plain XPolynomial arithmetic, against
which the packed Hecke operators are tested, and the per-filling
statistics ``descent_ascent``, ``ordered_triples`` and ``x_monomial``
read square by square from a Filling, which the package's table kernel
replaced: the package itself never calls them.  The set-based column
kernel (``column_factors`` with ``colour_data``, ``coordinates`` and
``exponents_fgh``), the closed form written set by set as the matrixprod
module docstring states it, is the reference for the package's
one-pass integer kernel.  The lattice certificates' field-arithmetic
sides, which their integer sides replaced, are the reference for those:
both RLL sides as Fractions (``rll_sides``, every (k1, k2), each face
form of ``_face_form`` evaluated by ``_weight``) and the row-operator
products over Q(q,t) (``exchange_products``).

Deliberately naive; only run it on tiny compositions.
"""

from __future__ import annotations

import itertools

from typing import Sequence

from nsmacdonald import lattice
from nsmacdonald.lattice import capped_states, row_operator_expand
from nsmacdonald.matrixprod import InadmissiblePair
from nsmacdonald.qt import QTRational
from nsmacdonald.xpoly import XPolynomial


def brute_fillings(mu: tuple[int, ...]) -> list[dict[tuple[int, int], int]]:
    """All non-attacking fillings as {(column, row): entry} maps."""
    n = len(mu)
    squares = [(i, j) for i in range(1, n + 1) for j in range(0, mu[i - 1] + 1)]
    free = [(i, j) for (i, j) in squares if j >= 1]
    fillings = []
    for combo in itertools.product(range(1, n + 1), repeat=len(free)):
        entries = {(i, 0): i for i in range(1, n + 1)}
        entries.update(dict(zip(free, combo)))
        ok = True
        for (i, j), (i2, j2) in itertools.combinations(squares, 2):
            if i == i2:
                continue
            if i > i2:
                (i, j), (i2, j2) = (i2, j2), (i, j)
            if (j == j2 or j == j2 + 1) and entries[(i, j)] == entries[(i2, j2)]:
                ok = False
                break
        if ok:
            fillings.append(entries)
    return fillings


def non_attacking(filling) -> bool:
    """Whether no two attacking squares of ``filling`` (a Filling) hold the
    same entry, by a scan over every pair of extended-diagram squares."""
    mu = filling.mu.parts
    squares = [(i, j) for i in range(1, len(mu) + 1) for j in range(0, mu[i - 1] + 1)]
    for (i, j), (i2, j2) in itertools.combinations(squares, 2):
        if i == i2:
            continue
        if i > i2:
            (i, j), (i2, j2) = (i2, j2), (i, j)
        if (j == j2 or j == j2 + 1) and filling.entry(i, j) == filling.entry(i2, j2):
            return False
    return True


def descent_ascent(sigma) -> tuple[set, set]:
    """The descent and ascent square sets of a filling (a Filling).

    A diagram square (i, j) is a descent when sigma_{i,j} > sigma_{i,j-1}
    and an ascent when sigma_{i,j} < sigma_{i,j-1}.
    """
    descents, ascents = set(), set()
    for i in range(1, sigma.mu.n + 1):
        for j in range(1, sigma.mu.part(i) + 1):
            here, below = sigma.entry(i, j), sigma.entry(i, j - 1)
            if here > below:
                descents.add((i, j))
            elif here < below:
                ascents.add((i, j))
    return descents, ascents


def x_monomial(sigma) -> tuple[int, ...]:
    """Exponent vector of x^sigma for a filling (a Filling), basement
    squares excluded."""
    exps = [0] * sigma.mu.n
    for i in range(1, sigma.mu.n + 1):
        for j in range(1, sigma.mu.part(i) + 1):
            exps[sigma.entry(i, j) - 1] += 1
    return tuple(exps)


def ordered_triples(sigma) -> tuple[int, int]:
    """Counts (positive, negative) of ordered triples of a filling.

    A triple consists of squares (i, j) in dg(mu), (i', j-1) in the
    extended diagram and (i', j), for i < i'; the entry sigma_{i',j} is
    taken to be +infinity when (i', j) lies outside dg(mu).  Entries lie
    in 1..n, so n + 1 serves as that infinity.
    """
    mu = sigma.mu
    infinity = mu.n + 1
    plus = minus = 0
    for i in range(1, mu.n + 1):
        for i2 in range(i + 1, mu.n + 1):
            for j in range(1, mu.part(i) + 1):
                if j - 1 > mu.part(i2):
                    continue
                mid = sigma.entry(i, j)
                low = sigma.entry(i2, j - 1)
                high = sigma.entry(i2, j) if j <= mu.part(i2) else infinity
                if high > mid > low:
                    plus += 1
                elif high < mid < low:
                    minus += 1
    return plus, minus


def plain_delta(p: XPolynomial, i: int) -> XPolynomial:
    """(p - s_i p)/(x_i - x_{i+1}) in XPolynomial arithmetic, term by term
    from x_i^a x_{i+1}^b - x_i^b x_{i+1}^a = (x_i - x_{i+1}) times the sum
    of x_i^(a-1-k) x_{i+1}^(b+k) over k < a - b (a > b)."""
    zero = QTRational.zero()
    out: dict[tuple[int, ...], QTRational] = {}
    for exps, coeff in p.terms.items():
        a, b = exps[i - 1], exps[i]
        for k in range(abs(a - b)):
            e = list(exps)
            e[i - 1], e[i] = max(a, b) - 1 - k, min(a, b) + k
            out[tuple(e)] = out.get(tuple(e), zero) + (coeff if a > b else -coeff)
    return XPolynomial(p.nvars, out)


def specialize_q(poly: XPolynomial, qval) -> XPolynomial:
    """Set q to an exact rational value in every coefficient."""
    terms = {exps: coeff.substitute_q(qval) for exps, coeff in poly.terms.items()}
    return XPolynomial(poly.nvars, terms)


def brute_leg(mu, i, j):
    return mu[i - 1] - j


def brute_arm(mu, i, j):
    left = [k for k in range(1, i) if j <= mu[k - 1] <= mu[i - 1]]
    right = [k for k in range(i + 1, len(mu) + 1) if j - 1 <= mu[k - 1] < mu[i - 1]]
    return len(left) + len(right)


def brute_triples(mu, entries):
    """(positive, negative) ordered-triple counts, by exhaustive scan."""
    n = len(mu)
    plus = minus = 0
    for i in range(1, n + 1):
        for i2 in range(1, n + 1):
            if not i < i2:
                continue
            for j in range(1, mu[i - 1] + 1):
                if (i2, j - 1) not in entries:
                    continue
                mid = entries[(i, j)]
                low = entries[(i2, j - 1)]
                high = entries.get((i2, j), None)
                if high is None:
                    if mid > low:
                        plus += 1
                else:
                    if high > mid > low:
                        plus += 1
                    if high < mid < low:
                        minus += 1
    return plus, minus


def brute_f(mu: tuple[int, ...]) -> XPolynomial:
    """The combinatorial sum, evaluated with no shared statistic code."""
    n = len(mu)
    one = QTRational.one()
    t = QTRational.t()
    total = XPolynomial.zero(n)
    for entries in brute_fillings(mu):
        exps = [0] * n
        plus, minus = brute_triples(mu, entries)
        coeff = QTRational.monomial(0, plus - minus)
        for i in range(1, n + 1):
            for j in range(1, mu[i - 1] + 1):
                exps[entries[(i, j)] - 1] += 1
                below = entries[(i, j - 1)]
                here = entries[(i, j)]
                if here == below:
                    continue
                la = brute_leg(mu, i, j)
                aa = brute_arm(mu, i, j)
                denom = one - QTRational.monomial(la + 1, aa + 1)
                if here > below:  # descent
                    coeff = coeff * (one - t) / denom
                else:  # ascent
                    coeff = coeff * QTRational.monomial(la + 1, aa) * (one - t) / denom
        total = total + XPolynomial(n, {tuple(exps): coeff})
    return total


def _multiplicities(vec: Sequence[int], n: int) -> list[int]:
    mult = [0] * (n + 1)
    for colour in vec:
        mult[colour] += 1
    return mult


def colour_data(I: Sequence[int], J: Sequence[int]) -> tuple[frozenset[int], frozenset[int]]:
    """The sets (P, Q): colours entering left that exit top resp. right.

    Raises InadmissiblePair unless every colour >= 1 appears at most once
    in I and no more often in J than in I.
    """
    n = len(I)
    if len(J) != n:
        raise InadmissiblePair("boundary vectors of different length")
    mult_i = _multiplicities(I, n)
    mult_j = _multiplicities(J, n)
    for colour in range(1, n + 1):
        if not 1 >= mult_i[colour] >= mult_j[colour] >= 0:
            raise InadmissiblePair(
                f"colour {colour} has multiplicities {mult_i[colour]} -> {mult_j[colour]}"
            )
    P = frozenset(c for c in range(1, n + 1) if mult_i[c] == 1 and mult_j[c] == 0)
    Q = frozenset(c for c in range(1, n + 1) if mult_i[c] == 1 and mult_j[c] == 1)
    return P, Q


def coordinates(I: Sequence[int], J: Sequence[int]) -> tuple[dict[int, int], dict[int, int]]:
    """Rows where each colour crosses the boundaries: i_{a_p} = p, j_{b_p} = p.

    For an admissible pair (see colour_data) a covers P u Q and b covers Q.
    """
    a = {p: row for row, p in enumerate(I, start=1) if p}
    b = {p: row for row, p in enumerate(J, start=1) if p}
    return a, b


def _cyclic_interval(a: int, b: int, n: int) -> set[int]:
    if a < b:
        return set(range(a + 1, b))
    if a > b:
        return set(range(a + 1, n + 1)) | set(range(1, b))
    return set()


def exponents_fgh(P, Q, a, b, n):
    """The combinatorial exponents f, g, h of a column boundary."""
    qs = sorted(Q)
    f = {p: sum(1 for l in qs if l < p) for p in P | Q}
    g = {p: sum(1 for l in qs if l < p and a[p] < b[l]) for p in P | Q}
    intervals = {p: _cyclic_interval(a[p], b[p], n) for p in Q}
    h = {p: sum(1 for l in qs if l < p and b[l] in intervals[p]) for p in Q}
    return f, g, h


def column_factors(I, J, v):
    """The closed form of boundary (I, J) under the twists ``v`` (colour ->
    (a, b) for q^a t^b, or None), set by set: its x exponents and five
    factor groups (t^g over P, phi, the move denominators, upward t^h,
    downward v t^h), or None where the component vanishes."""
    n = len(I)
    P, Q = colour_data(I, J)
    for colour in range(1, n + 1):
        if colour not in P and colour not in Q and v.get(colour) is not None:
            raise ValueError(f"nonzero twist parameter for colour {colour} outside P u Q")
    a, b = coordinates(I, J)
    if any(p > l and a[p] == b[l] for p in P | Q for l in Q):
        return None
    f, g, h = exponents_fgh(P, Q, a, b, n)
    phi: dict[tuple[int, int], int] = {}
    move: dict[tuple[int, int], int] = {}
    up_t = down_q = down_t = 0
    for p in P | Q:
        vp = v[p]
        if vp is not None:
            key = (vp[0], vp[1] + f[p])
            phi[key] = phi.get(key, 0) - 1
    exps = [0] * n
    for p in Q:
        exps[b[p] - 1] = 1
        if a[p] != b[p]:
            vp = v[p]
            move[(0, 1)] = move.get((0, 1), 0) + 1
            if vp is not None:
                key = (vp[0], vp[1] + f[p] + 1)
                move[key] = move.get(key, 0) - 1
            if a[p] < b[p]:
                up_t += h[p]
            elif vp is None:
                return None
            else:
                down_q, down_t = down_q + vp[0], down_t + vp[1] + h[p]
    groups = (
        (0, sum(g[p] for p in P), {}),
        (0, 0, phi),
        (0, 0, move),
        (0, up_t, {}),
        (down_q, down_t, {}),
    )
    return tuple(exps), groups


def rll_sides(I, J, i1, i2, j1, j2, x, y, t):
    """Both sides of RLL times x - t y at the rational point (x, y, t), in
    Fraction arithmetic: the sums over all colours k1, k2 of
    R(i2, i1; k2, k1) L_x(I, k1; K, j1) L_y(K, k2; J, j2) and of
    L_y(I, i2; K, k2) L_x(K, i1; J, k1) R(k2, k1; j2, j1), K forced by
    conservation, R the cleared table.  Both tables are read off the
    module at each call, so a test that replaces one sees it here too."""
    n = len(I)

    def faces(left1, right1, left2, right2, u, v):
        K = list(I)
        if left1:
            K[left1 - 1] += 1
        if right1:
            K[right1 - 1] -= 1
        if min(K) < 0:
            return 0
        lower = lattice._face_form(I, left1, tuple(K), right1)
        upper = lower and lattice._face_form(tuple(K), left2, J, right2)
        if not upper:
            return 0
        weight = lattice._weight
        return weight(lower, t) * u ** lower[2] * weight(upper, t) * v ** upper[2]

    def r(*labels):
        entry = lattice._r_cleared(*labels, x, y, t)
        return 0 if entry is None else entry

    colours = list(itertools.product(range(n + 1), repeat=2))
    lhs = sum(r(i2, i1, k2, k1) * faces(k1, j1, k2, j2, x, y) for k1, k2 in colours)
    rhs = sum(faces(i2, k2, i1, k1, y, x) * r(k2, k1, j2, j1) for k1, k2 in colours)
    return lhs, rhs


def exchange_products(i: int, j: int, n: int) -> dict:
    """For every in-state of ``exchange_check(i, j, n)`` (N = 1, cap = 1),
    the products C_i(x) C_j(y), C_j(y) C_i(x) and C_j(x) C_i(y) applied to
    it, each a map from out states to polynomials in (x, y) over Q(q,t)."""
    t = QTRational.t()
    walks = {}

    def expand(colour, state):
        if (colour, state) not in walks:
            walks[colour, state] = row_operator_expand(colour, state, t)
        return walks[colour, state]

    def product(left, right, in_state):
        out = {}
        for mid, coeff_r, deg_r in expand(right[0], in_state):
            for final, coeff_l, deg_l in expand(left[0], mid):
                exps = [0, 0]
                exps[left[1]] += deg_l
                exps[right[1]] += deg_r
                term = XPolynomial(2, {tuple(exps): coeff_l * coeff_r})
                out[final] = out[final] + term if final in out else term
        return {state: poly for state, poly in out.items() if not poly.is_zero()}

    return {
        in_state: [product(left, right, in_state)
                   for left, right in (((i, 0), (j, 1)), ((j, 1), (i, 0)), ((j, 0), (i, 1)))]
        for in_state in capped_states(n, 2, 1)
    }
