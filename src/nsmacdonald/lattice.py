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

Each is (1 - t^a) t^b x^xdeg, a = 0 read as t^b, and x^xdeg is one
factor of x exactly when the right edge is coloured.  The table is
written once, in that exponent form (``_face_form``); ``_weight``
evaluates a form's coefficient over the ring of ``t``.

The fundamental R-matrix R_z(i, j; k, l) (bottom, left; top, right) is
  R_z(i,i;i,i) = 1   and, for i < j,
  R_z(j,i;j,i) = t(1-z)/(1-tz)      R_z(i,j;i,j) = (1-z)/(1-tz)
  R_z(j,i;i,j) = (1-t)/(1-tz)       R_z(i,j;j,i) = (1-t)z/(1-tz),
all other patterns vanishing.  It is written once, in cleared form:
``_r_cleared`` is (x - t y) R_{y/x}, so R_z is its value at (x, y) =
(1, z) over 1 - t z; no certificate divides by that.  The RLL
(Yang-Baxter) relation times x - t y is a sum of terms, each a cleared
R entry times an x face times a y face (``_rll_terms``), all in
Z[t][x, y].  ``ybe_check_symbolic`` sums them as integer polynomials
in (x, y, t) (``_Poly``, dicts of ints), as ``exchange_check`` does the
row operators' products.  ``ybe_check`` sums them in integers at exact
rational sample points (none a pole): at (xn/xd, yn/yd, tn/td) the face
(a, b, xdeg) times td^D xd is (td^a - tn^a) tn^b td^(D-a-b) times xn or
xd by its x-degree (yn or yd for y), D bounding a + b, and a cleared R
entry is taken times lcm(xd, yd) td.  Both sides carry one nonzero
scale, so they are equal exactly when the rational sides are; no gcd is
computed.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from functools import cache
from typing import Sequence

from .qt import QTPolynomial, QTRational
from .reports import CheckReport
from .xpoly import XPolynomial

__all__ = [
    "ybe_check",
    "ybe_check_symbolic",
    "row_operator_expand",
    "exchange_check",
    "capped_states",
]

Occupation = tuple[int, ...]
State = tuple[Occupation, ...]


def _face_form(I: Sequence[int], j: int, K: Sequence[int], l: int) -> tuple | None:
    """L(I, j; K, l) as (a, b, xdeg), the weight (1 - t^a) t^b x^xdeg
    with a = 0 read as t^b, or None where it vanishes: off conservation
    and on the forbidden colour crossing."""
    diff = list(K)  # conservation: I + e_j = K + e_l
    if j:
        diff[j - 1] -= 1
    if l:
        diff[l - 1] += 1
    if tuple(diff) != tuple(I):
        return None
    if l == 0:  # no path, or colour j joining upwards
        return 0, 0, 0
    if j == l:
        return 0, sum(I[l:]), 1
    if j > l:  # the forbidden crossing
        return None
    # colour l peeling off downwards (j = 0) or crossing j < l: I_l >= 1
    return I[l - 1], sum(I[l:]), 1


def _weight(form: tuple, t):
    """The coefficient (1 - t^a) t^b of the form (a, b, xdeg), in the ring
    of ``t``."""
    a, b, _ = form
    return (t**0 - t**a) * t**b if a else t**b


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


class _Poly(dict):
    """A polynomial in Z[x, y, t]: exponents -> nonzero coefficient.  ``str``
    prints the XPolynomial over Q(q,t) it equals."""

    def __add__(self, other: _Poly) -> _Poly:
        out = _Poly(self)
        for e, c in other.items():
            out[e] = out.get(e, 0) + c
            if not out[e]:
                del out[e]
        return out

    def __sub__(self, other: _Poly) -> _Poly:
        return self + _Poly({e: -c for e, c in other.items()})

    def __mul__(self, other: _Poly) -> _Poly:
        out: dict = {}
        for (a, b, c), u in self.items():
            for (d, e, f), v in other.items():
                key = (a + d, b + e, c + f)
                out[key] = out.get(key, 0) + u * v
        return _Poly({e: c for e, c in out.items() if c})

    def __pow__(self, k: int) -> _Poly:  # only monomials are raised
        [(e, c)] = self.items()
        return _Poly({(e[0] * k, e[1] * k, e[2] * k): c**k})

    def __str__(self) -> str:
        coeffs: dict = {}
        for (xe, ye, te), c in self.items():
            coeffs.setdefault((xe, ye), {})[0, te] = c
        return str(XPolynomial(2, {e: QTRational(QTPolynomial(p)) for e, p in coeffs.items()}))


_X, _Y, _T = (_Poly({e: 1}) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))


# ---------------------------------------------------------------------------
# Yang-Baxter (RLL) verification.
# ---------------------------------------------------------------------------


def _vec_add(v: Occupation | None, colour: int, delta: int) -> Occupation | None:
    if v is None or colour == 0:
        return v
    out = list(v)
    out[colour - 1] += delta
    return tuple(out) if out[colour - 1] >= 0 else None


def _two_forms(I, J, left1, right1, left2, right2, face) -> tuple | None:
    """The forms of L(I, left1; K, right1) and L(K, left2; J, right2), K
    forced by conservation, or None if either face vanishes."""
    K = _vec_add(_vec_add(I, left1, +1), right1, -1)
    lower = K is not None and face(I, left1, K, right1)
    upper = lower and face(K, left2, J, right2)
    return upper and (lower, upper)


def _rll_terms(I, J, i1, i2, j1, j2, face) -> tuple[list, list]:
    """Both sides of RLL times x - t y as lists of terms (R labels, x face
    form, y face form): the sums over k1, k2 of R(i2, i1; k2, k1)
    L_x(I, k1; K, j1) L_y(K, k2; J, j2) and of L_y(I, i2; K, k2)
    L_x(K, i1; J, k1) R(k2, k1; j2, j1), over the (k2, k1) where R can
    be nonzero, with ``face`` for ``_face_form``."""
    lhs = [
        ((i2, i1, k2, k1), *forms)
        for k2, k1 in {(i2, i1), (i1, i2)}
        if (forms := _two_forms(I, J, k1, j1, k2, j2, face))
    ]
    rhs = [
        ((k2, k1, j2, j1), *forms[::-1])
        for k2, k1 in {(j2, j1), (j1, j2)}
        if (forms := _two_forms(I, J, i2, k2, i1, k1, face))
    ]
    return lhs, rhs


def _integer_point(x: Fraction, y: Fraction, t: Fraction, degree: int):
    """``value(key, f, g)``, the integer value of a term of ``_rll_terms``
    at (x, y, t) (module docstring; D = ``degree``), and the scale of both
    sides, lcm(xd, yd) td^(2 D + 1) xd yd."""
    tn, td = t.numerator, t.denominator
    r_scale = math.lcm(x.denominator, y.denominator) * td

    @cache
    def face(form: tuple, axis: int) -> int:
        a, b, xdeg = form
        if a + b > degree:
            raise ValueError(f"face weight of t-degree {a + b} exceeds {degree}")
        z = (x, y)[axis]
        return (td**a - tn**a if a else 1) * tn**b * td ** (degree - a - b) * (
            z.numerator if xdeg else z.denominator
        )

    @cache
    def r(key: tuple) -> int:
        entry = _r_cleared(*key, x, y, t)
        entry = Fraction(0 if entry is None else entry * r_scale)
        if entry.denominator != 1:
            raise ValueError(f"scaled RLL table entry {entry} is not an integer")
        return entry.numerator

    scale = r_scale * td ** (2 * degree) * x.denominator * y.denominator
    return lambda key, f, g: r(key) * face(f, 0) * face(g, 1), scale


def _rll_at(points: list, face):
    """``sides(I, J, i1, i2, j1, j2)``: both RLL sides at each of
    ``points`` (``_integer_point`` pairs), each term evaluated once."""

    @cache
    def term(*labels) -> list[int]:
        return [value(*labels) for value, _ in points]

    zeros = [0] * len(points)

    def sides(*boundary) -> list[list[int]]:
        return [
            [sum(column) for column in zip(zeros, *itertools.starmap(term, terms))]
            for terms in _rll_terms(*boundary, face)
        ]

    return sides


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
    compatible with colour conservation, the only ones with a nonzero
    term (a random sample of the others is evaluated too).  The sides
    are compared in integers: a face's bottom edge holds at most cap + 1
    paths of each colour, so its weight has t-degree at most n (cap + 1);
    one degree more lets a table off by a factor of t fail rather than
    raise.
    """
    report = CheckReport(f"ybe n={n} cap={occupation_cap}")
    occupations = _occupations(n, occupation_cap)
    boundaries = _boundaries(n, occupation_cap, occupation_cap)
    degree = n * (occupation_cap + 1) + 1
    points = [_integer_point(x, y, t, degree) for x, y, t in SAMPLE_POINTS]
    sides = _rll_at(points, cache(_face_form))
    for I, J, i1, i2, j1, j2 in boundaries:
        lhs, rhs = sides(I, J, i1, i2, j1, j2)
        report.count(len(points))
        if lhs == rhs:
            continue
        for left, right, (_, scale), (x, y, t) in zip(lhs, rhs, points, SAMPLE_POINTS):
            if left != right:
                report.fail(
                    f"RLL mismatch at I={I} J={J} colours=({i1},{i2};{j1},{j2}) "
                    f"point (x={x}, y={y}, t={t}): "
                    f"{Fraction(left, scale)} != {Fraction(right, scale)}"
                )
    rng = random.Random(seed)
    for drawn in range(NONCONSERVING_SAMPLES):
        I = rng.choice(occupations)
        J = rng.choice(occupations)
        i1, i2, j1, j2 = (rng.randrange(n + 1) for _ in range(4))
        if _vec_add(_vec_add(I, i1, +1), i2, +1) == _vec_add(_vec_add(J, j1, +1), j2, +1):
            # moving j2 changes J + e_j1 + e_j2 by e_j2' - e_j2 != 0 (e_0 = 0)
            j2 = (j2 + 1) % (n + 1)
        at = drawn % len(points)
        report.count()
        if any(side[at] for side in sides(I, J, i1, i2, j1, j2)):
            report.fail(
                f"non-conserving boundary I={I} J={J} colours=({i1},{i2};{j1},{j2}) "
                f"gave nonzero side"
            )
    report.note(
        f"{len(boundaries)} conserving boundaries x {len(SAMPLE_POINTS)} points; "
        f"{NONCONSERVING_SAMPLES} random non-conserving boundaries spot-checked"
    )
    return report


def ybe_check_symbolic(n: int = 1, occupation_cap: int = 2) -> CheckReport:
    """Certify RLL fully symbolically, as polynomials in Z[x, y, t].

    Intended for n = 1 (the sweep over larger n uses sample points).
    """
    report = CheckReport(f"ybe-symbolic n={n} cap={occupation_cap}")
    face = cache(_face_form)

    @cache
    def term(key: tuple, f: tuple, g: tuple) -> _Poly:
        r = _r_cleared(*key, _X, _Y, _T)
        return _Poly() if r is None else r * _weight(f, _T) * _X ** f[2] * _weight(g, _T) * _Y ** g[2]

    for I, J, i1, i2, j1, j2 in _boundaries(n, occupation_cap, occupation_cap + 2):
        lhs, rhs = (
            sum(itertools.starmap(term, terms), _Poly())
            for terms in _rll_terms(I, J, i1, i2, j1, j2, face)
        )
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


def row_operator_expand(colour: int, top_state: State, t) -> list[tuple[State, object, int]]:
    """Expand C_colour(x) applied to the ket carrying ``top_state``.

    The row operator maps the state on top of the row to states along its
    bottom; colour enters on the left and 0 exits on the right.  Returns
    triples (bottom_state, coefficient, x_degree), coefficients in the ring
    of ``t``; internal vertical edges are chosen face by face, and every
    returned element is nonzero.
    """
    n = len(top_state[0]) if top_state else 0
    if not 1 <= colour <= n:
        raise ValueError(f"row colour {colour} out of range 1..{n}")
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
            form = _face_form(bottom, left, top, right)
            if form is None:
                continue
            bottoms.append(bottom)
            walk(site + 1, right, bottoms, coeff * _weight(form, t), xdeg + form[2])
            bottoms.pop()

    walk(0, colour, [], t**0, 0)
    return results


def capped_states(n: int, nsites: int, cap: int) -> list[State]:
    """All states of nsites occupation vectors with entries <= cap."""
    site_choices = _occupations(n, cap)
    return [tuple(combo) for combo in itertools.product(site_choices, repeat=nsites)]


def _product_elems(
    left: tuple[int, int], right: tuple[int, int], in_state: State, expand
) -> dict[State, _Poly]:
    """Matrix elements of C_left C_right applied to |in_state> in Z[t][x, y].
    ``left`` and ``right`` are (colour, variable) pairs, the variable 0 for
    x and 1 for y; the right operator acts first, and ``expand(colour,
    state)`` gives its out states with their coefficients times x^deg and
    times y^deg."""
    out: dict[State, _Poly] = {}
    for mid, coeffs_r in expand(right[0], in_state):
        for final, coeffs_l in expand(left[0], mid):
            term = coeffs_l[left[1]] * coeffs_r[right[1]]
            cur = out.get(final)
            out[final] = term if cur is None else cur + term
    return {state: poly for state, poly in out.items() if poly}


def exchange_check(i: int, j: int, n: int, N: int = 1, cap: int = 1) -> CheckReport:
    """Certify the row-operator exchange relation for colours (i, j).

    The applicable relation (commutation for i = j, the t-twisted
    relations otherwise) is verified component-wise between all capped
    in-states and every reachable out-state, as an exact identity of
    polynomials in (x, y) over Z[t] after clearing the x - y denominator.
    """
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError("colours out of range")
    report = CheckReport(f"exchange i={i} j={j} n={n} N={N} cap={cap}")
    x, y, t = _X, _Y, _T
    # lhs = fa C_i(x) C_j(y), rhs = fb C_j(y) C_i(x) + fc C_j(x) C_i(y)
    if i == j:
        fa, fb, fc = t**0, t**0, _Poly()
    else:
        fa = t * (x - y) if i < j else x - y
        fb, fc = x - t * y, (t - t**0) * (x if i < j else y)
    # the three products meet the same (colour, state) pairs: expand each once
    @cache
    def expand(colour: int, state: State) -> list:
        expansion = row_operator_expand(colour, state, t)
        return [(bottom, [coeff * x**deg, coeff * y**deg]) for bottom, coeff, deg in expansion]

    for in_state in capped_states(n, N + 1, cap):
        a = _product_elems((i, 0), (j, 1), in_state, expand)  # C_i(x) C_j(y)
        b = _product_elems((j, 1), (i, 0), in_state, expand)  # C_j(y) C_i(x)
        c = _product_elems((j, 0), (i, 1), in_state, expand)  # C_j(x) C_i(y)
        for out in sorted(set(a) | set(b) | set(c)):
            lhs = fa * a.get(out, _Poly())
            rhs = fb * b.get(out, _Poly()) + fc * c.get(out, _Poly())
            report.count()
            if lhs != rhs:
                report.fail(
                    f"exchange mismatch for in={in_state} out={out}: {lhs} != {rhs}"
                )
    return report
