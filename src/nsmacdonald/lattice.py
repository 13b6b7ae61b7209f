"""The rank-n lattice model: face weights, Yang-Baxter, row operators.

Colours live in {0,..,n} with 0 meaning "no path".  A face carries an
occupation vector on its bottom and top edges (how many paths of each
colour pass vertically) and a single colour on its left and right edges.
Weights are zero unless colour is conserved: bottom + e_left = top +
e_right, with e_0 = 0.

The nonzero face weights (I the bottom vector, i < j colours >= 1,
I[a..b] the partial sum I_a + .. + I_b):

  (I, 0; I, 0)             1
  (I, i; I, i)             x t^{I[i+1..n]}
  (I, 0; I - e_i, i)       x (1 - t^{I_i}) t^{I[i+1..n]}
  (I, i; I + e_i, 0)       1
  (I, i; I + e_i - e_j, j) x (1 - t^{I_j}) t^{I[j+1..n]}
  (I, j; I + e_j - e_i, i) 0

The x dependence is structural: a face contributes one factor of x exactly
when its right edge carries a colour >= 1, so weights are returned as a
coefficient plus an x-degree flag rather than as polynomials.

The fundamental R-matrix R_z(i, j; k, l) (bottom, left; top, right) is
  R_z(i,i;i,i) = 1   and, for i < j,
  R_z(j,i;j,i) = t(1-z)/(1-tz)      R_z(i,j;i,j) = (1-z)/(1-tz)
  R_z(j,i;i,j) = (1-t)/(1-tz)       R_z(i,j;j,i) = (1-t)z/(1-tz),
all other patterns vanishing.  It is written once, in cleared form: the
table ``_r_cleared`` is (x - t y) R_{y/x}, and ``r_weight`` divides it back
at (x, y) = (1, z).  With L it satisfies the RLL (Yang-Baxter) relation,
whose two sides ``_rll_sides`` computes multiplied by x - t y, so no R
entry is ever divided; it sums over the support of R only.  The weights
are generic over a ring holding x, y and t: ``ybe_check_symbolic``
evaluates the sides as polynomials in (x, y) over Q(q,t), and
``ybe_check`` at exact rational sample points (none a pole), in integers.
At (x, y, t) = (xn/xd, yn/yd, tn/td) each face weight, a polynomial in t
of degree at most D, is stored times td^D, an integer (else it raises),
and the face's spectral factor is xn or xd (yn or yd) by its x-degree;
each cleared R entry is stored times lcm(xd, yd) td.  Every term of
either side is one R entry times one x face times one y face, so both
sides carry the same nonzero scale, and the integer sides are equal
exactly when the rational ones are.  Each certificate evaluates a face
weight or R entry once per point (``_Point``, a table local to the call);
QTRational ``t`` gives symbolic face weights.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Sequence

from .qt import QTRational
from .reports import CheckReport
from .xpoly import XPolynomial

__all__ = [
    "StructuredWeight",
    "l_weight",
    "r_weight",
    "ybe_check",
    "ybe_check_symbolic",
    "row_operator_expand",
    "exchange_check",
    "capped_states",
]

Occupation = tuple[int, ...]
State = tuple[Occupation, ...]


@dataclass(frozen=True)
class StructuredWeight:
    """A face weight split as coefficient * x^xdeg, with xdeg in {0, 1}."""

    coeff: object
    xdeg: int

    def is_zero(self) -> bool:
        return _is_zero(self.coeff)


def _is_zero(value) -> bool:
    is_zero = getattr(value, "is_zero", None)
    return value == 0 if is_zero is None else is_zero()


def l_weight(I: Sequence[int], j: int, K: Sequence[int], l: int, t=None) -> StructuredWeight:
    """The face weight L(I, j; K, l) over the coefficient ring of ``t``.

    ``t`` defaults to the symbolic QTRational t; pass a Fraction for
    numeric work.  Conservation violations and the forbidden
    colour-crossing pattern return weight zero.
    """
    if t is None:
        t = QTRational.t()
    n = len(I)
    if len(K) != n:
        raise ValueError("occupation vectors of different rank")
    if min(I) < 0 or min(K) < 0 or not 0 <= j <= n or not 0 <= l <= n:
        raise ValueError("malformed face labels")
    one = t**0
    zero = one - one
    # conservation: I + e_j = K + e_l
    diff = list(K)
    if j:
        diff[j - 1] -= 1
    if l:
        diff[l - 1] += 1
    if tuple(diff) != tuple(I):
        return StructuredWeight(zero, 0)
    if j == 0 and l == 0:
        return StructuredWeight(one, 0)
    if j == l:
        return StructuredWeight(t ** _suffix(I, j), 1)
    if j == 0:  # path of colour l peels off downwards: I -> I - e_l
        return StructuredWeight((one - t ** I[l - 1]) * t ** _suffix(I, l), 1)
    if l == 0:  # path of colour j joins upwards: I -> I + e_j
        return StructuredWeight(one, 0)
    if j < l:
        return StructuredWeight((one - t ** I[l - 1]) * t ** _suffix(I, l), 1)
    return StructuredWeight(zero, 1)  # j > l >= 1 is the forbidden crossing


def _suffix(I: Sequence[int], colour: int) -> int:
    return sum(I[colour:])


def _r_cleared(i: int, j: int, k: int, l: int, x, y, t):
    """The R-matrix table, cleared of its 1 - t y/x denominator:
    (x - t y) R_{y/x}(i, j; k, l) in the ring of x, y and t, or None off
    the support of R."""
    if i == j == k == l:
        return x - t * y
    if i == j:
        return None
    if (k, l) == (i, j):  # transmission; j < i is R(j', i'; j', i') with i' < j'
        return t * (x - y) if j < i else x - y
    if (k, l) == (j, i):  # reflection; j < i is R(j', i'; i', j') with i' < j'
        return (t**0 - t) * (x if j < i else y)
    return None


def r_weight(i: int, j: int, k: int, l: int, z, t):
    """R_z(i, j; k, l) with bottom i, left j, top k, right l: the cleared
    table at (x, y) = (1, z) over 1 - t z, with z and t in one field
    (Fractions or QTRationals).  Raises ZeroDivisionError at 1 - t z = 0."""
    one = t**0
    cleared = _r_cleared(i, j, k, l, one, z, t)
    if cleared is None:
        return one - one
    if i == j:  # (1 - t z) / (1 - t z), without the pole
        return one
    denom = one - t * z
    if _is_zero(denom):
        raise ZeroDivisionError("R-matrix pole: 1 - t z = 0")
    return cleared / denom


# ---------------------------------------------------------------------------
# Yang-Baxter (RLL) verification.
# ---------------------------------------------------------------------------


def _vec_add(v: Occupation | None, colour: int, delta: int) -> Occupation | None:
    if v is None or colour == 0:
        return v
    out = list(v)
    out[colour - 1] += delta
    return tuple(out) if out[colour - 1] >= 0 else None


class _Point:
    """One point of the RLL sides with its table: ``face(I, j, K, l)``, the
    face weight L(I, j; K, l) (None where it vanishes), and ``r(i, j, k,
    l)``, the cleared R entry, each computed once.  ``x`` and ``y`` are
    pairs: the factor a face at that spectral variable contributes when its
    right edge is coloured (x-degree 1), and when it is not."""

    def __init__(self, x: tuple, y: tuple, zero, face, r):
        self.x, self.y, self.zero = x, y, zero
        self.face, self.r = cache(face), cache(r)


def _face(I, j, K, l, t) -> StructuredWeight | None:
    # looked up by the module's name, so a patched ``l_weight`` is seen
    weight = l_weight(I, j, K, l, t)
    return None if weight.is_zero() else weight


def _integral(value: Fraction) -> int:
    if value.denominator != 1:
        raise ValueError(f"scaled RLL table entry {value} is not an integer")
    return value.numerator


def _integer_point(x: Fraction, y: Fraction, t: Fraction, degree: int) -> tuple[_Point, int]:
    """The point (x, y, t) with its integer table (see the module
    docstring; D = ``degree``), and the scale of both sides,
    lcm(xd, yd) td^(2 D + 1) xd yd."""
    face_scale = t.denominator**degree
    r_scale = math.lcm(x.denominator, y.denominator) * t.denominator

    def face(I, j, K, l):
        weight = _face(I, j, K, l, t)
        if weight is None:
            return None
        return StructuredWeight(_integral(weight.coeff * face_scale), weight.xdeg)

    def r(i, j, k, l):
        entry = _r_cleared(i, j, k, l, x, y, t)
        return None if entry is None else _integral(entry * r_scale)

    point = _Point((x.numerator, x.denominator), (y.numerator, y.denominator), 0, face, r)
    return point, r_scale * face_scale**2 * x.denominator * y.denominator


def _two_faces(I, J, left1, right1, u, left2, right2, v, at: _Point):
    """L_u(I, left1; K, right1) L_v(K, left2; J, right2), one face on the
    other with K forced by conservation, or None if either face vanishes;
    ``u`` and ``v`` are spectral pairs as in ``_Point``."""
    K = _vec_add(_vec_add(I, left1, +1), right1, -1)
    if K is None:
        return None
    w1 = at.face(I, left1, K, right1)
    if w1 is None:
        return None
    w2 = at.face(K, left2, J, right2)
    if w2 is None:
        return None
    return w1.coeff * u[1 - w1.xdeg] * w2.coeff * v[1 - w2.xdeg]


def _rll_sides(I, J, i1, i2, j1, j2, at: _Point) -> tuple[object, object]:
    """Both sides of RLL times x - t y (and the scale of an integer point)
    at the point ``at``: the sums over
    k1, k2 of R(i2, i1; k2, k1) L_x(I, k1; K, j1) L_y(K, k2; J, j2) and of
    L_y(I, i2; K, k2) L_x(K, i1; J, k1) R(k2, k1; j2, j1).  R(i, j; k, l)
    vanishes unless (k, l) is (i, j) or (j, i), so only those (k2, k1)
    are summed."""
    x, y = at.x, at.y
    lhs = rhs = at.zero
    for k2, k1 in {(i2, i1), (i1, i2)}:
        r = at.r(i2, i1, k2, k1)
        if r is not None:
            faces = _two_faces(I, J, k1, j1, x, k2, j2, y, at)
            if faces is not None:
                lhs = lhs + r * faces
    for k2, k1 in {(j2, j1), (j1, j2)}:
        r = at.r(k2, k1, j2, j1)
        if r is not None:
            faces = _two_faces(I, J, i2, k2, y, i1, k1, x, at)
            if faces is not None:
                rhs = rhs + faces * r
    return lhs, rhs


def _occupations(n: int, cap: int) -> list[Occupation]:
    return [tuple(v) for v in itertools.product(range(cap + 1), repeat=n)]


def _boundaries(n: int, cap: int, top_cap: int) -> list[tuple]:
    """Every conserving RLL boundary (I, J, i1, i2, j1, j2): I with entries
    <= cap, J = I + e_{i1} + e_{i2} - e_{j1} - e_{j2} with entries <= top_cap."""
    boundaries = []
    for I in _occupations(n, cap):
        for i1, i2, j1, j2 in itertools.product(range(n + 1), repeat=4):
            J = _vec_add(_vec_add(_vec_add(_vec_add(I, i1, +1), i2, +1), j1, -1), j2, -1)
            if J is not None and max(J, default=0) <= top_cap:
                boundaries.append((I, J, i1, i2, j1, j2))
    return boundaries


# exact rational (x, y, t); none is a pole 1 - t y/x = 0 of the R-matrix, so
# the cleared identity holds exactly when the original one does
SAMPLE_POINTS = [
    (Fraction(2), Fraction(3), Fraction(5)),
    (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)),
    (Fraction(-2), Fraction(3, 2), Fraction(7)),
    (Fraction(5), Fraction(-1, 3), Fraction(2, 3)),
    (Fraction(3, 7), Fraction(11, 2), Fraction(-4)),
]
NONCONSERVING_SAMPLES = 200


def ybe_check(n: int, occupation_cap: int = 2, seed: int = 0) -> CheckReport:
    """Certify the RLL relation at exact rational sample points.

    Runs over every boundary (i1, i2, j1, j2, I, J with entries <= cap)
    compatible with colour conservation; any nonzero term on either side
    forces I + e_{i1} + e_{i2} = J + e_{j1} + e_{j2}, so non-conserving
    boundaries hold trivially (a random sample of them is evaluated as
    well, as insurance that the implementation agrees).  The sides are
    compared in integers: a face's bottom edge holds at most cap + 1 paths
    of each colour, so its weight has t-degree at most n (cap + 1); one
    degree more lets a table off by a factor of t fail rather than raise.
    """
    report = CheckReport(f"ybe n={n} cap={occupation_cap}")
    occupations = _occupations(n, occupation_cap)
    boundaries = _boundaries(n, occupation_cap, occupation_cap)
    degree = n * (occupation_cap + 1) + 1
    points = [_integer_point(x, y, t, degree) for x, y, t in SAMPLE_POINTS]
    for I, J, i1, i2, j1, j2 in boundaries:
        for (at, scale), (x, y, t) in zip(points, SAMPLE_POINTS):
            lhs, rhs = _rll_sides(I, J, i1, i2, j1, j2, at)
            report.count()
            if lhs != rhs:
                report.fail(
                    f"RLL mismatch at I={I} J={J} colours=({i1},{i2};{j1},{j2}) "
                    f"point (x={x}, y={y}, t={t}): "
                    f"{Fraction(lhs, scale)} != {Fraction(rhs, scale)}"
                )
    rng = random.Random(seed)
    checked_nonconserving = 0
    attempts = 0
    while checked_nonconserving < NONCONSERVING_SAMPLES and attempts < 50 * NONCONSERVING_SAMPLES:
        attempts += 1
        I = rng.choice(occupations)
        J = rng.choice(occupations)
        i1, i2, j1, j2 = (rng.randrange(n + 1) for _ in range(4))
        target = _vec_add(_vec_add(I, i1, +1), i2, +1)
        other = _vec_add(_vec_add(J, j1, +1), j2, +1)
        if target == other:
            continue
        at, _ = points[checked_nonconserving % len(points)]
        lhs, rhs = _rll_sides(I, J, i1, i2, j1, j2, at)
        report.count()
        checked_nonconserving += 1
        if lhs != 0 or rhs != 0:
            report.fail(
                f"non-conserving boundary I={I} J={J} colours=({i1},{i2};{j1},{j2}) "
                f"gave nonzero side"
            )
    report.note(
        f"{len(boundaries)} conserving boundaries x {len(SAMPLE_POINTS)} points; "
        f"{checked_nonconserving} random non-conserving boundaries spot-checked"
    )
    return report


def ybe_check_symbolic(n: int = 1, occupation_cap: int = 2) -> CheckReport:
    """Certify RLL fully symbolically as polynomials in (x, y) over Q(t).

    The same cleared sides as ``ybe_check``, with x, y and t polynomials in
    (x, y) over Q(q,t) and the spectral pairs (x, 1) and (y, 1), so the L
    weights contribute monomials in x or y.  Intended for n = 1 (the sweep
    over larger n uses sample points).
    """
    report = CheckReport(f"ybe-symbolic n={n} cap={occupation_cap}")
    x = XPolynomial.variable(2, 1)
    y = XPolynomial.variable(2, 2)
    t = XPolynomial.constant(2, QTRational.t())
    one = XPolynomial.one(2)
    at = _Point(
        (x, one),
        (y, one),
        XPolynomial.zero(2),
        lambda I, j, K, l: _face(I, j, K, l, t),
        lambda i, j, k, l: _r_cleared(i, j, k, l, x, y, t),
    )
    for I, J, i1, i2, j1, j2 in _boundaries(n, occupation_cap, occupation_cap + 2):
        lhs, rhs = _rll_sides(I, J, i1, i2, j1, j2, at)
        report.count()
        if lhs != rhs:
            report.fail(
                f"symbolic RLL mismatch at I={I} J={J} "
                f"colours=({i1},{i2};{j1},{j2}): {lhs} != {rhs}"
            )
    return report


# ---------------------------------------------------------------------------
# Row operators.
# ---------------------------------------------------------------------------


def row_operator_expand(
    colour: int, top_state: State, t=None
) -> list[tuple[State, object, int]]:
    """Expand C_colour(x) applied to the ket carrying ``top_state``.

    The row operator maps the state on top of the row to states along its
    bottom; colour enters on the left and 0 exits on the right.  Returns
    triples (bottom_state, coefficient, x_degree); internal vertical edges
    are chosen face by face, and every returned element is nonzero.
    """
    if t is None:
        t = QTRational.t()
    n = len(top_state[0]) if top_state else 0
    if not 1 <= colour <= n:
        raise ValueError(f"row colour {colour} out of range 1..{n}")
    one = t**0
    results: list[tuple[State, object, int]] = []

    def walk(site: int, left: int, bottoms: list[Occupation], coeff, xdeg: int):
        if site == len(top_state):
            if left == 0:
                results.append((tuple(bottoms), coeff, xdeg))
            return
        top = top_state[site]
        for right in range(n + 1):
            # bottom + e_left = top + e_right, applied in one step so a
            # pass-through (left == right) never trips the >= 0 check
            vec = list(top)
            if left:
                vec[left - 1] -= 1
            if right:
                vec[right - 1] += 1
            if min(vec) < 0:
                continue
            bottom = tuple(vec)
            w = l_weight(bottom, left, top, right, t)
            if w.is_zero():
                continue
            bottoms.append(bottom)
            walk(site + 1, right, bottoms, coeff * w.coeff, xdeg + w.xdeg)
            bottoms.pop()

    walk(0, colour, [], one, 0)
    return results


def capped_states(n: int, nsites: int, cap: int) -> list[State]:
    """All states of nsites occupation vectors with entries <= cap."""
    site_choices = _occupations(n, cap)
    return [tuple(combo) for combo in itertools.product(site_choices, repeat=nsites)]


def _product_elems(
    left: tuple[int, int], right: tuple[int, int], in_state: State, expand
) -> dict[State, XPolynomial]:
    """Matrix elements of C_left C_right applied to |in_state>.

    ``left`` and ``right`` are (colour, variable) pairs with variable 1
    for x and 2 for y; the right operator acts first, and
    ``expand(colour, state)`` gives its ``row_operator_expand`` triples.
    Returns a map from out states to polynomials in (x, y) over Q(q,t).
    """
    out: dict[State, XPolynomial] = {}
    for mid, coeff_r, deg_r in expand(right[0], in_state):
        for final, coeff_l, deg_l in expand(left[0], mid):
            exps = [0, 0]
            exps[left[1] - 1] += deg_l
            exps[right[1] - 1] += deg_r
            term = XPolynomial(2, {tuple(exps): coeff_l * coeff_r})
            cur = out.get(final)
            out[final] = term if cur is None else cur + term
    return {state: poly for state, poly in out.items() if not poly.is_zero()}


def exchange_check(i: int, j: int, n: int, N: int = 1, cap: int = 1) -> CheckReport:
    """Certify the row-operator exchange relation for colours (i, j).

    The applicable relation (commutation for i = j, the t-twisted
    relations otherwise) is verified component-wise between all capped
    in-states and every reachable out-state, as an exact identity of
    polynomials in (x, y) over Q(t) after clearing the x - y denominator.
    """
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError("colours out of range")
    report = CheckReport(f"exchange i={i} j={j} n={n} N={N} cap={cap}")
    one, t = QTRational.one(), QTRational.t()
    x = XPolynomial.variable(2, 1)
    y = XPolynomial.variable(2, 2)
    x_minus_y = x - y
    x_minus_ty = x - y.scale(t)
    # the three products meet the same (colour, state) pairs: expand each once
    expansions: dict[tuple[int, State], list] = {}

    def expand(colour: int, state: State) -> list:
        if (colour, state) not in expansions:
            expansions[colour, state] = row_operator_expand(colour, state, t)
        return expansions[colour, state]

    for in_state in capped_states(n, N + 1, cap):
        a = _product_elems((i, 1), (j, 2), in_state, expand)  # C_i(x) C_j(y)
        b = _product_elems((j, 2), (i, 1), in_state, expand)  # C_j(y) C_i(x)
        c = _product_elems((j, 1), (i, 2), in_state, expand)  # C_j(x) C_i(y)
        outs = set(a) | set(b) | set(c)
        for out in sorted(outs):
            ea = a.get(out, XPolynomial.zero(2))
            eb = b.get(out, XPolynomial.zero(2))
            ec = c.get(out, XPolynomial.zero(2))
            if i == j:
                lhs = ea
                rhs = eb
            elif i < j:
                lhs = (ea * x_minus_y).scale(t)
                rhs = eb * x_minus_ty - (ec * x).scale(one - t)
            else:
                lhs = ea * x_minus_y
                rhs = eb * x_minus_ty - (ec * y).scale(one - t)
            report.count()
            if lhs != rhs:
                report.fail(
                    f"exchange mismatch for in={in_state} out={out}: {lhs} != {rhs}"
                )
    return report
