"""Exact arithmetic in the coefficient field Q(q,t).

Q(q,t) is stored as the fraction field of Z[q,t], in two layers:

  QTPolynomial  -- sparse bivariate polynomials in (q, t) over Z, stored as
                   a dict mapping (qexp, texp) -> nonzero int.  Every
                   coefficient enters through ``_exact``, which refuses
                   anything but an integer (floats included), and every
                   coefficient quotient goes through ``_div``, which
                   raises ExactDivisionError when it is not an integer.
  QTRational    -- elements of the field Q(q,t), stored as a reduced pair
                   num/den of QTPolynomials.

Canonical form of a QTRational: num and den are coprime in Z[q,t], integer
content included, and the lexicographically greatest term of den (q-degree
major, t-degree minor) has a positive coefficient.  The units of Z[q,t]
are +-1, so equal field elements have identical stored representations,
which makes equality, hashing and serialisation trivial.  Rationals enter
only as values: the points of ``eval`` and the coefficient p/r of
``QTRational.monomial``, stored as num p over den r.

The gcd behind it (``qt_gcd``) is the heuristic gcd of Char, Geddes and
Gonnet on Python integers: q and then t are set to integers large
against the coefficients, one integer gcd is taken, and the bivariate
candidate is read back from its digits.  It is exact, not probabilistic:
a candidate is accepted only when it divides both inputs, and an
accepted candidate is provably the gcd.

Negative exponents of q or t (needed e.g. for eigenvalue monomials
q^a t^b with b < 0) are represented by placing the offending monomial in
the denominator; QTPolynomial itself only ever stores exponents >= 0.

Products of binomials 1 - q^a t^b, the shape of every weight, have their
own canonical form in module ``cyclotomic``, which builds on this one.

All values are immutable after construction and all operations are pure,
so they can be shared freely between threads.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd as _int_gcd
from typing import Iterable, Mapping, Union

# a rational value: an evaluation point or a monomial's coefficient
Scalar = Union[int, Fraction]

__all__ = [
    "Fraction",
    "QTPolynomial",
    "QTRational",
    "QTDivisionByZero",
    "VanishingDenominator",
    "ExactDivisionError",
    "qt_gcd",
    "qt_lcm",
]


class QTDivisionByZero(ZeroDivisionError):
    """Division of field elements by zero."""


class VanishingDenominator(ZeroDivisionError):
    """Evaluation of a QTRational at a point where its denominator vanishes."""

    def __init__(self, qval: Scalar, tval: Scalar):
        super().__init__(f"denominator vanishes at q={qval}, t={tval}")
        self.point = (qval, tval)


class ExactDivisionError(ArithmeticError):
    """Polynomial division that was required to be exact left a remainder."""


def _exact(value) -> int:
    """A coefficient in stored form, an int: an integral Fraction is taken
    as its int, and anything else is refused (a float in particular would
    carry its binary rounding error into the exact layers)."""
    if type(value) is int:
        return value
    if isinstance(value, (int, Fraction)) and value.denominator == 1:
        return int(value)
    raise TypeError(f"coefficient must be an integer, not {value!r}")


def _rational(value) -> Scalar:
    # an exact rational value, a point or a monomial's coefficient; floats
    # are refused as in ``_exact``
    if isinstance(value, (int, Fraction)):
        return value
    raise TypeError(f"exact value must be int or Fraction, not {type(value).__name__}")


def _div(a: int, b: int) -> int:
    """The exact quotient a / b of two coefficients.

    The one place coefficients are divided: ``a / b`` would give a float,
    and a remainder raises ExactDivisionError."""
    quot, rem = divmod(a, b)
    if rem:
        raise ExactDivisionError(f"{b} does not divide {a}")
    return quot


def join_signed(bodies: Iterable[str]) -> str:
    """``bodies`` joined by " + ", or by " - " in place of the leading minus
    sign of a body after the first."""
    text = ""
    for body in bodies:
        if not text:
            text = body
        elif body.startswith("-"):
            text += " - " + body[1:]
        else:
            text += " + " + body
    return text


class QTPolynomial:
    """A polynomial in (q, t) with integer coefficients, sparsely stored."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: Mapping[tuple[int, int], int] | None = None):
        clean: dict[tuple[int, int], int] = {}
        if terms:
            for key, coeff in terms.items():
                value = _exact(coeff)
                if value != 0:
                    qe, te = key
                    if qe < 0 or te < 0:
                        raise ValueError(f"negative exponent in term {key}")
                    clean[(qe, te)] = value
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("QTPolynomial is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "QTPolynomial":
        return _POLY_ZERO

    @staticmethod
    def one() -> "QTPolynomial":
        return _POLY_ONE

    @staticmethod
    def constant(value: int) -> "QTPolynomial":
        return QTPolynomial({(0, 0): value})

    @staticmethod
    def monomial(qexp: int, texp: int, coeff: int = 1) -> "QTPolynomial":
        return QTPolynomial({(qexp, texp): coeff})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {(0, 0): 1}

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def leading_term(self) -> tuple[tuple[int, int], int]:
        """Greatest term in the fixed lex order (q major, t minor), which is
        the tuple order of the (qexp, texp) keys."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        key = max(self.terms)
        return key, self.terms[key]

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "QTPolynomial") -> "QTPolynomial":
        if not self.terms:
            return other
        if not other.terms:
            return self
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            new = out.get(key, 0) + coeff
            if new:
                out[key] = new
            else:
                out.pop(key, None)
        return _poly_raw(out)

    def __sub__(self, other: "QTPolynomial") -> "QTPolynomial":
        if not other.terms:
            return self
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            new = out.get(key, 0) - coeff
            if new:
                out[key] = new
            else:
                out.pop(key, None)
        return _poly_raw(out)

    def __neg__(self) -> "QTPolynomial":
        return _poly_raw({key: -coeff for key, coeff in self.terms.items()})

    def __mul__(self, other: "QTPolynomial") -> "QTPolynomial":
        if not self.terms or not other.terms:
            return _POLY_ZERO
        out: dict[tuple[int, int], int] = {}
        for (qa, ta), ca in self.terms.items():
            for (qb, tb), cb in other.terms.items():
                key = (qa + qb, ta + tb)
                new = out.get(key, 0) + ca * cb
                if new:
                    out[key] = new
                else:
                    out.pop(key, None)
        return _poly_raw(out)

    # -- comparisons, hashing ---------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, QTPolynomial):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = hash(frozenset(self.terms.items()))
            object.__setattr__(self, "_hash", cached)
        return cached

    # -- evaluation and division -------------------------------------------

    def eval(self, qval: Scalar, tval: Scalar) -> Fraction:
        qv, tv = _rational(qval), _rational(tval)
        total = Fraction(0)
        for (qe, te), coeff in self.terms.items():
            total += coeff * qv**qe * tv**te
        return total

    def substitute_q(self, qval: int) -> "QTPolynomial":
        """Collapse q to an integer value, keeping t symbolic."""
        qv = _exact(qval)
        out: dict[tuple[int, int], int] = {}
        for (qe, te), coeff in self.terms.items():
            new = out.get((0, te), 0) + coeff * qv**qe
            if new:
                out[(0, te)] = new
            else:
                out.pop((0, te), None)
        return _poly_raw(out)

    def div_exact(self, divisor: "QTPolynomial") -> "QTPolynomial":
        """Exact polynomial quotient self / divisor.

        Raises ExactDivisionError if divisor does not divide self exactly.
        """
        if divisor.is_zero():
            raise ExactDivisionError("division by the zero polynomial")
        if self.is_zero():
            return _POLY_ZERO
        if divisor.is_one():
            return self
        if divisor.is_monomial():
            (dq, dt), dc = divisor.leading_term()
            out = {}
            for (qe, te), coeff in self.terms.items():
                if qe < dq or te < dt:
                    raise ExactDivisionError("monomial does not divide term")
                out[(qe - dq, te - dt)] = _div(coeff, dc)
            return _poly_raw(out)
        remainder = dict(self.terms)
        (dq, dt), dc = divisor.leading_term()
        quotient: dict[tuple[int, int], int] = {}
        while remainder:
            (rq, rt) = max(remainder)
            if rq < dq or rt < dt:
                raise ExactDivisionError("nonzero remainder in exact division")
            factor = _div(remainder[(rq, rt)], dc)
            mono = (rq - dq, rt - dt)
            quotient[mono] = factor
            for (qe, te), coeff in divisor.terms.items():
                key = (qe + mono[0], te + mono[1])
                new = remainder.get(key, 0) - factor * coeff
                if new:
                    remainder[key] = new
                else:
                    remainder.pop(key, None)
        return _poly_raw(quotient)

    # -- display and serialisation ------------------------------------------

    def sorted_terms(self) -> list[tuple[int, int, int]]:
        """Terms as (qexp, texp, coeff), descending in the fixed lex order."""
        return [
            (qe, te, self.terms[(qe, te)])
            for (qe, te) in sorted(self.terms, reverse=True)
        ]

    def write(self, power: str = "{}^{}", times: str = "*") -> str:
        """The terms joined by their signs, "0" for none: ``power`` formats
        q or t with an exponent above 1 and ``times`` joins a coefficient
        to its monomial, the two places where the text form (the defaults)
        and the LaTeX form (``"{}^{{{}}}"`` and ``" "``) differ."""
        bodies = []
        for qe, te, coeff in self.sorted_terms():
            mono = ""
            if qe:
                mono += "q" if qe == 1 else power.format("q", qe)
            if te:
                mono += "t" if te == 1 else power.format("t", te)
            if not mono:
                bodies.append(str(coeff))
            elif coeff == 1:
                bodies.append(mono)
            elif coeff == -1:
                bodies.append("-" + mono)
            else:
                bodies.append(f"{coeff}{times}{mono}")
        return join_signed(bodies) or "0"

    def __str__(self) -> str:
        return self.write()

    __repr__ = __str__

    def to_json(self) -> list[list]:
        return [[qe, te, str(c)] for qe, te, c in self.sorted_terms()]

    @staticmethod
    def from_json(data: Iterable[Iterable]) -> "QTPolynomial":
        # coefficients are written as strings (to_json); parse those only
        return QTPolynomial({
            (int(qe), int(te)): int(c) if isinstance(c, str) else c for qe, te, c in data
        })


def _poly_raw(terms: dict[tuple[int, int], int]) -> QTPolynomial:
    # internal fast constructor: terms already clean (no zeros, valid keys,
    # int coefficients)
    poly = QTPolynomial.__new__(QTPolynomial)
    object.__setattr__(poly, "terms", terms)
    object.__setattr__(poly, "_hash", None)
    return poly


_POLY_ZERO = QTPolynomial()
_POLY_ONE = QTPolynomial({(0, 0): 1})


# ---------------------------------------------------------------------------
# Bivariate gcd: the heuristic gcd GCDHEU of Char, Geddes and Gonnet
# (J. Symb. Comp. 1989; Geddes, Czapor and Labahn, Algorithms for Computer
# Algebra, section 7.7), on Python integers.
#
# q is set to an integer xi >= 2 min(|a|, |b|) + 2, |.| the largest
# absolute coefficient.  The gcd of the two images in Z[t] is found the
# same way, with t set to xi' (the same bound on the images) and one
# integer gcd, and it keeps its integer content.  The bivariate candidate
# is read back from it as symmetric xi-adic digits, and its primitive part
# is accepted only if it divides both inputs exactly
# (``QTPolynomial.div_exact``); otherwise xi grows.  With that bound an
# accepted candidate is the greatest common divisor, so the result is
# exact, and a large enough xi is always accepted; ``_heu_gcd`` proves
# both.
# ---------------------------------------------------------------------------


def qt_gcd(a: QTPolynomial, b: QTPolynomial) -> QTPolynomial:
    """Greatest common divisor in Z[q,t], integer content included, with a
    positive lex-leading coefficient.

    Computed by the heuristic gcd on integer images; the result divides
    both inputs exactly.  Both inputs zero is rejected.
    """
    if a.is_zero() and b.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    if a.is_zero():
        return _positive(b)
    if b.is_zero():
        return _positive(a)
    if a.is_monomial() or b.is_monomial():
        mono, other = (a, b) if a.is_monomial() else (b, a)
        (mq, mt), mc = mono.leading_term()
        gq = min([mq] + [qe for (qe, _te) in other.terms])
        gt = min([mt] + [te for (_qe, te) in other.terms])
        return QTPolynomial.monomial(gq, gt, _int_gcd(mc, *other.terms.values()))
    return _gcd_cached(a, b)


def qt_lcm(polys: Iterable[QTPolynomial]) -> QTPolynomial:
    """Least common multiple in Z[q,t] of nonzero polynomials, integer
    content included, with a positive lex-leading coefficient (the lcm of
    no polynomials is 1).

    One gcd per distinct input: lcm(L, p) = L * (p / gcd(L, p))."""
    lcm = _POLY_ONE
    for poly in dict.fromkeys(polys):
        if poly.is_zero():
            raise ValueError("lcm of the zero polynomial is undefined")
        if poly.is_one():
            continue
        lcm = lcm * poly.div_exact(qt_gcd(lcm, poly))
    return _positive(lcm)


@lru_cache(maxsize=1 << 14)
def _gcd_cached(a: QTPolynomial, b: QTPolynomial) -> QTPolynomial:
    return _positive(_poly_raw(_heu_gcd(a.terms, b.terms, 0)))


def _positive(poly: QTPolynomial) -> QTPolynomial:
    # the associate (poly or -poly) with a positive lex-leading coefficient
    return -poly if poly.leading_term()[1] < 0 else poly


def _digits(n: int, xi: int) -> list[int]:
    """The symmetric xi-adic digits of n, lowest first: n = sum d_i xi^i
    with -xi/2 < d_i <= xi/2."""
    digits = []
    while n:
        d = n % xi
        if 2 * d > xi:
            d -= xi
        digits.append(d)
        n = (n - d) // xi
    return digits


def _heu_gcd(a: dict, b: dict, var: int) -> dict:
    """gcd(a, b) in Z[q,t], integer content included, of integer
    polynomials (term dicts, not both zero) that are constant in the
    variables before ``var``: q is variable 0, t variable 1, and at
    ``var`` = 2 both are integers.

    Set variable ``var`` to xi >= 2 min(|a|, |b|) + 2 (|.| the largest
    absolute coefficient; say |a| <= |b|), take the gcd h of the two
    images recursively (content included), read h back as a candidate C
    whose coefficients in that variable are the symmetric xi-adic digits
    of h's, and accept P = pp(C) if it divides a and b; otherwise grow xi
    and repeat.

    Accepted means correct (the CGG theorem).  Let g = gcd(a, b) over Z;
    P | g by Gauss's lemma, say g = P k with k over Z.  The image g(xi)
    divides h = C(xi) = cont(C) P(xi), so k(xi) divides the integer
    cont(C), which is at most xi/2 in absolute value as it divides a
    digit.  A factor of a nonzero univariate p over Z with |p| <= |a| has
    its roots in |z| < 1 + |a| <= xi/2, so it is nonzero at xi and, when
    not constant, exceeds xi/2 in absolute value there.  At q = xi this
    applies first to the t-leading coefficient of k (it divides that of
    a, and would vanish at xi if k had positive t-degree), then to k
    itself (now in Z[q], a factor of a's t-leading coefficient); at
    t = xi it applies to k directly.  So k is constant and P = pp(g).
    The content of h is needed: without it g(xi) need not divide h, and
    a factor such as 1 - q, whose image 1 - xi is an integer, would be
    lost unseen.

    Rejection cannot repeat forever.  Write a = g a', b = g b' with a',
    b' coprime; the spurious factor h / g(xi) divides a'(xi) and b'(xi).
    At t = xi some combination u a' + v b' over Z[t] is a nonzero integer
    N (a resultant), which the spurious factor divides.  At q = xi some
    combination over Z[q,t] is a nonzero R(q) (the resultant in t), so
    once xi is not a root of R the spurious factor is an integer; it
    divides every t-coefficient of a'(xi) and b'(xi), and as a' and b'
    share no factor in q some combination of those coefficients over
    Z[q] is again a nonzero integer N.  Either way it divides a fixed N,
    so once xi > 2 |N| |g| the digits of h are the coefficients of a
    constant times g, whose primitive part is accepted.
    """
    if not a or not b:
        return a or b
    content = _int_gcd(*a.values(), *b.values())
    if var == 2:
        return {(0, 0): content}
    xi = 2 * min(max(map(abs, a.values())), max(map(abs, b.values()))) + 2
    poly_a, poly_b = _poly_raw(a), _poly_raw(b)
    while True:
        image = _heu_gcd(_at(a, var, xi), _at(b, var, xi), var + 1)
        candidate = {}
        for (qe, te), c in image.items():
            for i, d in enumerate(_digits(c, xi)):
                if d:
                    candidate[(i, te) if var == 0 else (qe, i)] = d
        unit = _int_gcd(*candidate.values())  # the candidate's content
        divisor = _poly_raw({key: c // unit for key, c in candidate.items()})
        try:
            poly_a.div_exact(divisor)
            poly_b.div_exact(divisor)
        except ExactDivisionError:
            xi = xi * 73794 // 27011  # the growth factor of GCDHEU
            continue
        return {key: c * content for key, c in divisor.terms.items()}


def _at(terms: dict, var: int, xi: int) -> dict:
    # the polynomial with variable var (0 for q, 1 for t) set to xi
    out: dict[tuple[int, int], int] = {}
    for (qe, te), c in terms.items():
        key, e = ((0, te), qe) if var == 0 else ((qe, 0), te)
        out[key] = out.get(key, 0) + c * xi**e
    return {key: c for key, c in out.items() if c}


# ---------------------------------------------------------------------------
# The field Q(q,t).
# ---------------------------------------------------------------------------


class QTRational:
    """An element of Q(q,t) in canonical reduced form."""

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: QTPolynomial, den: QTPolynomial | None = None):
        if den is None:
            den = _POLY_ONE
        if den.is_zero():
            raise QTDivisionByZero("zero denominator in Q(q,t)")
        num, den = _reduce(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("QTRational is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "QTRational":
        return _ZERO

    @staticmethod
    def one() -> "QTRational":
        return _ONE

    @staticmethod
    def q() -> "QTRational":
        return _Q

    @staticmethod
    def t() -> "QTRational":
        return _T

    @staticmethod
    def monomial(qexp: int, texp: int, coeff: Scalar = 1) -> "QTRational":
        """The element coeff * q^qexp * t^texp, coeff = p/r rational, stored
        as p q^qexp over r; negative exponents are moved to the denominator."""
        coeff = _rational(coeff)
        if coeff == 0:
            return _ZERO
        nq, nt = max(qexp, 0), max(texp, 0)
        dq, dt = max(-qexp, 0), max(-texp, 0)
        return _make_raw(
            QTPolynomial.monomial(nq, nt, coeff.numerator),
            QTPolynomial.monomial(dq, dt, coeff.denominator),
        )

    # -- queries -------------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num.is_one() and self.den.is_one()

    # -- field arithmetic ----------------------------------------------------

    def __add__(self, other: "QTRational") -> "QTRational":
        if self.num.is_zero():
            return other
        if other.num.is_zero():
            return self
        if self.den == other.den:
            num = self.num + other.num
            if num.is_zero():
                return _ZERO
            return QTRational(num, self.den)
        if self.den.is_one():
            return _make_raw(self.num * other.den + other.num, other.den)
        if other.den.is_one():
            return _make_raw(self.num + other.num * self.den, self.den)
        g = qt_gcd(self.den, other.den)
        if g.is_one():
            num = self.num * other.den + other.num * self.den
            if num.is_zero():
                return _ZERO
            return _make_raw(num, self.den * other.den)
        da = self.den.div_exact(g)
        db = other.den.div_exact(g)
        num = self.num * db + other.num * da
        if num.is_zero():
            return _ZERO
        h = qt_gcd(num, g)
        if not h.is_one():
            num = num.div_exact(h)
            g = g.div_exact(h)
        return _normalise(num, da * db * g)

    def __sub__(self, other: "QTRational") -> "QTRational":
        return self + (-other)

    def __neg__(self) -> "QTRational":
        if self.num.is_zero():
            return self
        return _make_raw(-self.num, self.den)

    def __mul__(self, other: "QTRational") -> "QTRational":
        if self.num.is_zero() or other.num.is_zero():
            return _ZERO
        # products with the shared one (QTRational.one(), t ** 0) are
        # frequent and would otherwise cost a gcd test and two products
        if self is _ONE:
            return other
        if other is _ONE:
            return self
        n1, d1 = self.num, self.den
        n2, d2 = other.num, other.den
        if not d2.is_one():
            g = qt_gcd(n1, d2)
            if not g.is_one():
                n1, d2 = n1.div_exact(g), d2.div_exact(g)
        if not d1.is_one():
            g = qt_gcd(n2, d1)
            if not g.is_one():
                n2, d1 = n2.div_exact(g), d1.div_exact(g)
        return _normalise(n1 * n2, d1 * d2)

    def __truediv__(self, other: "QTRational") -> "QTRational":
        return self * other.inverse()

    def inverse(self) -> "QTRational":
        if self.num.is_zero():
            raise QTDivisionByZero("inverse of zero in Q(q,t)")
        return _normalise(self.den, self.num)

    def __pow__(self, exponent: int) -> "QTRational":
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = _ONE
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    # -- comparisons, hashing -------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, QTRational):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = hash((self.num, self.den))
            object.__setattr__(self, "_hash", cached)
        return cached

    # -- evaluation -------------------------------------------------------------

    def eval(self, qval: Scalar, tval: Scalar) -> Fraction:
        """Exact value at an exact rational point (qval, tval)."""
        qv, tv = _rational(qval), _rational(tval)
        den = self.den.eval(qv, tv)
        if den == 0:
            raise VanishingDenominator(qv, tv)
        return self.num.eval(qv, tv) / den

    def substitute_q(self, qval: int) -> "QTRational":
        """The specialised element with q set to an integer value."""
        den = self.den.substitute_q(qval)
        if den.is_zero():
            raise QTDivisionByZero(f"denominator vanishes identically at q={qval}")
        return QTRational(self.num.substitute_q(qval), den)

    # -- display and serialisation ------------------------------------------------

    def __str__(self) -> str:
        if self.den.is_one():
            return str(self.num)
        num = str(self.num)
        if len(self.num.terms) > 1:
            num = f"({num})"
        den = str(self.den)
        if len(self.den.terms) > 1:
            den = f"({den})"
        return f"{num}/{den}"

    __repr__ = __str__

    def to_json(self) -> dict:
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    @staticmethod
    def from_json(data: Mapping) -> "QTRational":
        return QTRational(
            QTPolynomial.from_json(data["num"]), QTPolynomial.from_json(data["den"])
        )


def _reduce(num: QTPolynomial, den: QTPolynomial) -> tuple[QTPolynomial, QTPolynomial]:
    if num.is_zero():
        return _POLY_ZERO, _POLY_ONE
    if not den.is_one():
        g = qt_gcd(num, den)
        if not g.is_one():
            num = num.div_exact(g)
            den = den.div_exact(g)
    return (-num, -den) if den.leading_term()[1] < 0 else (num, den)


def _normalise(num: QTPolynomial, den: QTPolynomial) -> "QTRational":
    # num/den already coprime in Z[q,t]: only the sign of den's lead remains
    return _make_raw(-num, -den) if den.leading_term()[1] < 0 else _make_raw(num, den)


def _make_raw(num: QTPolynomial, den: QTPolynomial) -> QTRational:
    value = QTRational.__new__(QTRational)
    object.__setattr__(value, "num", num)
    object.__setattr__(value, "den", den)
    object.__setattr__(value, "_hash", None)
    return value


_ZERO = _make_raw(_POLY_ZERO, _POLY_ONE)
_ONE = _make_raw(_POLY_ONE, _POLY_ONE)
_Q = _make_raw(QTPolynomial.monomial(1, 0), _POLY_ONE)
_T = _make_raw(QTPolynomial.monomial(0, 1), _POLY_ONE)
