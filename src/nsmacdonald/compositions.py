"""Compositions and the combinatorial statistics the weight formulas consume.

Conventions match the formulas exactly: colour/row indices i are 1-based,
column indices j are 0-based.  A composition mu = (mu_1,..,mu_n) lists the
exit column of each colour; squares of its diagram are written (i, j) with
column i and row j, where 1 <= j <= mu_i (the extended diagram also carries
the basement row j = 0).

Statistics:

  eta_i      = -#{j<i : mu_j > mu_i} - #{j>i : mu_j >= mu_i}
  y_i        = q^{mu_i} t^{eta_i + i - 1}          (Cherednik-Dunkl eigenvalue)
  gamma_ij   = -#{k<i : mu_k > mu_i} + #{k>i : j <= mu_k < mu_i}
  alpha_ij   = #{k<i : mu_k = mu_i} + #{k!=i : j < mu_k < mu_i}
               + #{k>i : j = mu_k}
  v_ij       = q^{mu_i - j} t^{gamma_ij}  if mu_i > j, else 0   (twist)
  Omega_mu   = prod_i prod_{j=0}^{mu_i-1} (1 - q^{mu_i-j} t^{alpha_ij})
  leg(i,j)   = mu_i - j
  arm(i,j)   = alpha_{i,j-1}

``v_param`` gives a twist as its exponents (mu_i - j, gamma_ij), or None for
v_ij = 0: the column kernel only adds exponents.

Everything is recomputed on demand except the table of twists of every
column, ``column_twists``, one tuple per column, which the matrix route
reads per configuration: a bounded cache keeps one per composition
(Composition is read-only and the tuples immutable).  Omega_mu in exponent
form, ``omega_factors``, is read once per check: with f(p) =
#{l < p : mu_l > j}, gamma_pj + f(p) = alpha_pj, so Omega_mu cancels
the column kernel's phi factors 1/(1 - v_pj t^{f(p)}) and the route's
weights leave both out.  No route builds Omega_mu's value, ``omega_norm``.

``bracket_precedes`` (with the dominance order ``dominates``) is the
order in which f_mu is triangular, x^mu plus terms x^nu below mu; the
acceptance suite's triangularity criterion checks f_mu against it.
"""

from __future__ import annotations

import itertools
import re
from collections import Counter
from functools import lru_cache
from typing import Iterator

from .cyclotomic import Factors, cyclotomic_form
from .qt import QTRational

__all__ = [
    "Composition",
    "ReadOnly",
    "parse_int",
    "eta",
    "eigenvalue_y",
    "gamma",
    "alpha",
    "v_param",
    "omega_factors",
    "column_twists",
    "omega_norm",
    "leg",
    "arm",
    "dominates",
    "bracket_precedes",
    "compositions_with",
    "default_family",
]


def parse_int(text: str) -> int:
    """An optional minus sign and ASCII digits, spaces around them allowed,
    as an int; int() alone also reads 1_0 as 10 and takes non-ASCII digits."""
    if not re.fullmatch(r" *-?[0-9]+ *", text):
        raise ValueError(f"malformed integer {text!r}")
    return int(text)


class ReadOnly:
    """A value of the fields its ``__match_args__`` names, slots set once
    in ``__init__`` (through ``object.__setattr__``): assigning or deleting
    an attribute raises AttributeError.  Values of one class are equal
    when their fields are, and are hashed and shown by them; a value is
    pickled and copied as its constructor called on its fields, so that a
    copy is validated as the original was."""

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields()


class Composition(ReadOnly):
    """A vector mu in N^n indexing one nonsymmetric Macdonald polynomial.

    It keys the bounded caches read on every summand (``column_twists``,
    the filling tables), so its hash is taken once, here."""

    __slots__ = ("parts", "_hash")
    __match_args__ = ("parts",)

    def __init__(self, parts: tuple[int, ...]):
        if len(parts) < 1:
            raise ValueError("composition must have at least one part")
        if any(p < 0 for p in parts):
            raise ValueError(f"negative part in {parts}")
        parts = tuple(parts)
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "_hash", hash((parts,)))

    def __hash__(self) -> int:
        return self._hash

    @staticmethod
    def parse(text: str) -> "Composition":
        """Parse a comma-separated part list such as "0,4,4,1,5", each part
        an integer as ``parse_int`` reads it."""
        try:
            parts = tuple(map(parse_int, text.split(",")))
        except ValueError:
            raise ValueError(f"malformed composition string {text!r}") from None
        return Composition(parts)

    @property
    def n(self) -> int:
        return len(self.parts)

    @property
    def maxpart(self) -> int:
        return max(self.parts)

    @property
    def weight(self) -> int:
        return sum(self.parts)

    def part(self, i: int) -> int:
        """The part mu_i, i 1-based."""
        if not 1 <= i <= self.n:
            raise IndexError(f"part index {i} out of range 1..{self.n}")
        return self.parts[i - 1]

    def reverse(self) -> "Composition":
        return Composition(self.parts[::-1])

    def sorted_desc(self) -> tuple[int, ...]:
        """The underlying partition mu+ (parts in decreasing order)."""
        return tuple(sorted(self.parts, reverse=True))

    def __iter__(self):
        return iter(self.parts)

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")"


def _check_colour(mu: Composition, i: int) -> None:
    if not 1 <= i <= mu.n:
        raise IndexError(f"colour index {i} out of range 1..{mu.n}")


def eta(mu: Composition, i: int) -> int:
    """eta_i(mu) = -#{j<i : mu_j > mu_i} - #{j>i : mu_j >= mu_i}."""
    _check_colour(mu, i)
    mi = mu.parts[i - 1]
    before = sum(1 for p in mu.parts[: i - 1] if p > mi)
    after = sum(1 for p in mu.parts[i:] if p >= mi)
    return -before - after


def eigenvalue_y(mu: Composition, i: int) -> QTRational:
    """The eigenvalue y_i(mu) = q^{mu_i} t^{eta_i(mu) + i - 1}."""
    _check_colour(mu, i)
    return QTRational.monomial(mu.parts[i - 1], eta(mu, i) + i - 1)


def gamma(mu: Composition, i: int, j: int) -> int:
    """gamma_ij(mu) = -#{k<i : mu_k > mu_i} + #{k>i : j <= mu_k < mu_i}."""
    _check_colour(mu, i)
    if j < 0:
        raise IndexError(f"column index {j} must be >= 0")
    mi = mu.parts[i - 1]
    before = sum(1 for p in mu.parts[: i - 1] if p > mi)
    after = sum(1 for p in mu.parts[i:] if j <= p < mi)
    return -before + after


def alpha(mu: Composition, i: int, j: int) -> int:
    """alpha_ij(mu), the arm-type count entering Omega_mu and arm lengths."""
    _check_colour(mu, i)
    if j < 0:
        raise IndexError(f"column index {j} must be >= 0")
    mi = mu.parts[i - 1]
    equal_before = sum(1 for p in mu.parts[: i - 1] if p == mi)
    between = sum(
        1 for k, p in enumerate(mu.parts, start=1) if k != i and j < p < mi
    )
    hit_after = sum(1 for p in mu.parts[i:] if p == j)
    return equal_before + between + hit_after


def v_param(mu: Composition, i: int, j: int) -> tuple[int, int] | None:
    """The twist parameter v_ij = q^{mu_i - j} t^{gamma_ij} 1(mu_i > j) as
    its exponent pair (mu_i - j, gamma_ij), or None where v_ij = 0."""
    _check_colour(mu, i)
    if j < 0:
        raise IndexError(f"column index {j} must be >= 0")
    if mu.parts[i - 1] <= j:
        return None
    return mu.parts[i - 1] - j, gamma(mu, i, j)


def omega_factors(mu: Composition) -> Factors:
    """Omega_mu in exponent form: the binomials 1 - q^a t^b with labels
    (a, b) = (mu_i - j, alpha_ij), for j = 0..mu_i-1, i = 1..n."""
    labels = Counter(
        (mu.parts[i - 1] - j, alpha(mu, i, j))
        for i in range(1, mu.n + 1)
        for j in range(mu.parts[i - 1])
    )
    return 0, 0, labels


# 165 compositions make up the default family: a run over it keeps every value
@lru_cache(maxsize=165)
def column_twists(mu: Composition) -> tuple[tuple[tuple[int, int] | None, ...], ...]:
    """The twists (v_param(mu, 1, j), .., v_param(mu, n, j)) of every
    column j = 0..max(mu), one tuple per column, which is also the column
    kernel's cache key; from column max(mu) on every twist is 0 (None)."""
    return tuple(
        tuple(v_param(mu, p, j) for p in range(1, mu.n + 1)) for j in range(mu.maxpart + 1)
    )


def omega_norm(mu: Composition) -> QTRational:
    """The normalisation Omega_mu = prod (1 - q^{mu_i-j} t^{alpha_ij})."""
    return cyclotomic_form(omega_factors(mu)).value()


def leg(mu: Composition, s: tuple[int, int]) -> int:
    """Leg length of a diagram square: mu_i - j."""
    i, j = s
    _check_colour(mu, i)
    if not 1 <= j <= mu.parts[i - 1]:
        raise IndexError(f"square {(i, j)} outside the diagram of {mu}")
    return mu.parts[i - 1] - j


def arm(mu: Composition, s: tuple[int, int]) -> int:
    """Arm length of a diagram square: alpha_{i, j-1}."""
    i, j = s
    _check_colour(mu, i)
    if not 1 <= j <= mu.parts[i - 1]:
        raise IndexError(f"square {(i, j)} outside the diagram of {mu}")
    return alpha(mu, i, j - 1)


def dominates(nu: Composition, mu: Composition) -> bool:
    """Strict dominance nu < mu: every prefix sum of nu is <= that of mu,
    and nu != mu.  (For equal-weight compositions the final prefix sums
    coincide, so the order is strict in the usual dominance sense.)
    """
    if nu.n != mu.n:
        raise ValueError(f"length mismatch: {nu} vs {mu}")
    if nu.parts == mu.parts:
        return False
    total_nu = total_mu = 0
    for a, b in zip(nu.parts, mu.parts):
        total_nu += a
        total_mu += b
        if total_nu > total_mu:
            return False
    return True


def bracket_precedes(nu: Composition, mu: Composition) -> bool:
    """The order nu < mu refined by the underlying partitions:
    nu+ < mu+ in dominance, or nu+ = mu+ and nu < mu."""
    if nu.n != mu.n:
        raise ValueError(f"length mismatch: {nu} vs {mu}")
    nu_plus = Composition(nu.sorted_desc())
    mu_plus = Composition(mu.sorted_desc())
    if nu_plus.parts == mu_plus.parts:
        return dominates(nu, mu)
    return dominates(nu_plus, mu_plus)


def compositions_with(n: int, max_part: int) -> Iterator[Composition]:
    """All length-n compositions with parts in 0..max_part."""
    for parts in itertools.product(range(max_part + 1), repeat=n):
        yield Composition(parts)


def default_family() -> list[Composition]:
    """The standard verification family: n <= 3 with parts <= 3, plus
    n = 4 with parts <= 2."""
    family: list[Composition] = []
    for n in (1, 2, 3):
        family.extend(compositions_with(n, 3))
    family.extend(compositions_with(4, 2))
    return family
