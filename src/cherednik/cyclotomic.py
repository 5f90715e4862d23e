"""Exact arithmetic in the cyclotomic fields Q(zeta_r).

An element is stored as its coordinate vector in the reduced power basis
1, zeta, ..., zeta^{phi(r)-1} of Q[x]/(Phi_r(x)), where Phi_r is the r-th
cyclotomic polynomial and phi is Euler's totient.  Working modulo Phi_r
(rather than x^r - 1) makes the quotient a field with a canonical form, so
equality of elements is equality of coefficient vectors.

The coordinates are kept as a tuple of Python ints ``num`` over one positive
int ``den``, with ``gcd(den, *num) == 1``.  Phi_r is monic with integer
coefficients, so reducing a product modulo Phi_r stays in the integers, and
only a result with ``den != 1`` needs a gcd.

The operators are the package's innermost loop, so each takes fast paths:

* an operand of the same order is used as it is; ints and Fractions are
  coerced, and a Cyc of another order raises ``ValueError``;
* operands with equal denominators add their numerators directly, a result
  with ``den == 1`` is built without a gcd, and so is a negation;
* for phi(r) <= 2 a sum, difference or product is written out on the one
  or two integer coordinates and its result built in place, with one gcd
  only when the denominator is not 1 (``_rat``, ``_pair``): phi = 1 is
  integer arithmetic, and a phi = 2 product folds z^2 = f0 + f1 z with the
  one row x^2 mod Phi_r.  Larger phi runs the general convolution and fold.
  phi(r) <= 2 exactly for r in {1, 2, 3, 4, 6}, which covers every group
  the benchmark runs;
* ``Cyc.root(r, k)`` returns one shared value per (r, k mod r), so a memo
  key holding a root matches by identity.  Values are never mutated.

A value prints as the sum of its coordinates through
``polynomials.render_terms``, the package's one renderer of a sum:
``1/2 - z + 3*z^2``.

>>> z = Cyc.root(4, 1)
>>> z * z
Cyc(4, [-1, 0])
>>> Cyc.root(4, 5) is z
True
>>> (1 + z) * (1 + z**3)
Cyc(4, [2, 0])
>>> Cyc(3, [Q(1, 2), Q(-1, 3)]).num, Cyc(3, [Q(1, 2), Q(-1, 3)]).den
((3, -2), 6)
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add, neg, sub

from .polynomials import render_terms

__all__ = ["Q", "Cyc", "cyclotomic_polynomial", "euler_phi"]

Q = Fraction  # the rational type of the package


def _divexact_int(num: list[int], den: tuple[int, ...]) -> list[int]:
    """Exact division of integer polynomials (ascending coefficients, monic divisor)."""
    num = list(num)
    dn = len(den) - 1
    quot = [0] * (len(num) - dn)
    for k in range(len(quot) - 1, -1, -1):
        c = num[k + dn]
        if c:
            quot[k] = c
            for i, d in enumerate(den):
                num[k + i] -= c * d
    if any(num):
        raise ArithmeticError("division was not exact")
    return quot


@lru_cache(maxsize=None)
def cyclotomic_polynomial(r: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_r, ascending degree.

    >>> cyclotomic_polynomial(4)
    (1, 0, 1)
    >>> cyclotomic_polynomial(6)
    (1, -1, 1)
    """
    if r < 1:
        raise ValueError("r must be positive")
    if r == 1:
        return (-1, 1)
    poly = [-1] + [0] * (r - 1) + [1]  # x^r - 1
    for d in range(1, r):
        if r % d == 0:
            poly = _divexact_int(poly, cyclotomic_polynomial(d))
    return tuple(poly)


def euler_phi(r: int) -> int:
    """Euler's totient, read off as deg Phi_r."""
    return len(cyclotomic_polynomial(r)) - 1


@lru_cache(maxsize=None)
def _ctx(r: int):
    """Per-r tables: (phi, rows, folds).

    rows[k] holds the integer coordinates of x^k mod Phi_r for k < max(r, 2 phi - 1);
    folds[k - phi] lists the nonzero (m, rows[k][m]) for phi <= k <= 2 phi - 2,
    the degrees a product of two reduced elements reaches.
    """
    coeffs = cyclotomic_polynomial(r)
    phi = len(coeffs) - 1
    top = tuple(-c for c in coeffs[:phi])  # x^phi mod Phi_r
    rows: list[tuple[int, ...]] = []
    for k in range(max(r, 2 * phi - 1)):
        if k < phi:
            rows.append(tuple(int(i == k) for i in range(phi)))
        else:
            prev = rows[k - 1]
            carry = prev[phi - 1]
            rows.append(tuple(s + carry * t
                              for s, t in zip((0,) + prev[:phi - 1], top)))
    folds = tuple(tuple((m, t) for m, t in enumerate(rows[k]) if t)
                  for k in range(phi, 2 * phi - 1))
    return phi, tuple(rows), folds


_new = object.__new__


def _cyc(r: int, num: tuple[int, ...], den: int = 1) -> "Cyc":
    """The Cyc num/den (den > 0), cancelling a common factor when den != 1."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = tuple(a // g for a in num)
            den //= g
    v = _new(Cyc)
    v.r = r
    v.num = num
    v.den = den
    return v


def _rat(r: int, n: int, d: int) -> "Cyc":
    """The Cyc n/d (d > 0) of a field with phi(r) = 1, built in place: one
    gcd, and only when d != 1."""
    if d != 1:
        g = gcd(n, d)
        if g != 1:
            n //= g
            d //= g
    v = _new(Cyc)
    v.r = r
    v.num = (n,)
    v.den = d
    return v


def _pair(r: int, n0: int, n1: int, d: int) -> "Cyc":
    """The Cyc (n0 + n1 zeta)/d (d > 0) of a field with phi(r) = 2, built
    in place as :func:`_rat` is."""
    if d != 1:
        g = gcd(n0, n1, d)
        if g != 1:
            n0 //= g
            n1 //= g
            d //= g
    v = _new(Cyc)
    v.r = r
    v.num = (n0, n1)
    v.den = d
    return v


def _rational(r: int, q) -> "Cyc":
    """The rational q (an int or a Fraction) as an element of Q(zeta_r)."""
    phi = _ctx(r)[0]
    if isinstance(q, int):
        return _cyc(r, (q,) + (0,) * (phi - 1))
    if isinstance(q, Fraction):
        return _cyc(r, (q.numerator,) + (0,) * (phi - 1), q.denominator)
    raise TypeError(f"expected an int or a Fraction, got {type(q).__name__}")


@lru_cache(maxsize=None)
def _roots(r: int) -> tuple["Cyc", ...]:
    """The shared values zeta_r^0, ..., zeta_r^{r-1}."""
    return tuple(_cyc(r, row) for row in _ctx(r)[1][:r])


class Cyc:
    """An element of Q(zeta_r), in canonical reduced-basis form."""

    __slots__ = ("r", "num", "den")

    def __init__(self, r: int, co):
        """The element with rational coordinates co (ints or Fractions),
        one for each of 1, zeta, ..., zeta^{phi(r)-1}."""
        co = tuple(co)
        phi = _ctx(r)[0]
        if len(co) != phi:
            raise ValueError(f"Q(zeta_{r}) needs {phi} coordinates, got {len(co)}")
        den = 1
        for c in co:
            if isinstance(c, Fraction):
                den = lcm(den, c.denominator)
            elif not isinstance(c, int):
                raise TypeError(
                    f"coordinates must be int or Fraction, got {type(c).__name__}")
        # den is the lcm of the denominators, so it is coprime to the numerators
        self.r = r
        self.num = tuple(int(c * den) for c in co)
        self.den = den

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, r: int) -> "Cyc":
        return _rational(r, 0)

    @classmethod
    def one(cls, r: int) -> "Cyc":
        return _rational(r, 1)

    @classmethod
    def from_rational(cls, r: int, a, b=1) -> "Cyc":
        return _rational(r, a if b == 1 else Fraction(a, b))

    @classmethod
    def root(cls, r: int, k: int) -> "Cyc":
        """zeta_r^k, reduced; periodic in k with period r.

        The value is shared: every call with the same r and k mod r returns
        one object, so memo keys holding a root match by identity.
        """
        return _roots(r)[k % r]

    def _coerce(self, other):
        """other as an element of this field, or None if it is no scalar.

        The operators test for a Cyc of the same order themselves and call
        this only for everything else."""
        if isinstance(other, Cyc):
            if other.r != self.r:
                raise ValueError(f"mixed cyclotomic orders {self.r} and {other.r}")
            return other
        if isinstance(other, (int, Fraction)):
            return _rational(self.r, other)
        return None

    # -- ring/field operations ---------------------------------------------

    def __add__(self, other):
        o = (other if other.__class__ is Cyc and other.r == self.r
             else self._coerce(other))
        if o is None:
            return NotImplemented
        da, db = self.den, o.den
        if len(self.num) == 1:
            if da == db:
                return _rat(self.r, self.num[0] + o.num[0], da)
            return _rat(self.r, self.num[0] * db + o.num[0] * da, da * db)
        if len(self.num) == 2:
            (a0, a1), (b0, b1) = self.num, o.num
            if da == db:
                return _pair(self.r, a0 + b0, a1 + b1, da)
            return _pair(self.r, a0 * db + b0 * da, a1 * db + b1 * da,
                         da * db)
        if da == db:
            return _cyc(self.r, tuple(map(add, self.num, o.num)), da)
        return _cyc(self.r, tuple([a * db + b * da
                                   for a, b in zip(self.num, o.num)]), da * db)

    __radd__ = __add__

    def __neg__(self):
        v = _new(Cyc)
        v.r, v.num, v.den = self.r, tuple(map(neg, self.num)), self.den
        return v

    def __sub__(self, other):
        o = (other if other.__class__ is Cyc and other.r == self.r
             else self._coerce(other))
        if o is None:
            return NotImplemented
        da, db = self.den, o.den
        if len(self.num) == 1:
            if da == db:
                return _rat(self.r, self.num[0] - o.num[0], da)
            return _rat(self.r, self.num[0] * db - o.num[0] * da, da * db)
        if len(self.num) == 2:
            (a0, a1), (b0, b1) = self.num, o.num
            if da == db:
                return _pair(self.r, a0 - b0, a1 - b1, da)
            return _pair(self.r, a0 * db - b0 * da, a1 * db - b1 * da,
                         da * db)
        if da == db:
            return _cyc(self.r, tuple(map(sub, self.num, o.num)), da)
        return _cyc(self.r, tuple([a * db - b * da
                                   for a, b in zip(self.num, o.num)]), da * db)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = (other if other.__class__ is Cyc and other.r == self.r
             else self._coerce(other))
        if o is None:
            return NotImplemented
        a, b = self.num, o.num
        phi = len(a)
        if phi == 1:
            return _rat(self.r, a[0] * b[0], self.den * o.den)
        if phi == 2:
            # (a0 + a1 z)(b0 + b1 z), folding z^2 = f0 + f1 z (mod Phi_r)
            a0, a1 = a
            b0, b1 = b
            top = a1 * b1
            f0, f1 = _ctx(self.r)[1][2]
            return _pair(self.r, a0 * b0 + top * f0,
                         a0 * b1 + a1 * b0 + top * f1, self.den * o.den)
        conv = [0] * (2 * phi - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] += ai * bj
        out = conv[:phi]
        for c, fold in zip(conv[phi:], _ctx(self.r)[2]):
            if c:
                for m, t in fold:
                    out[m] += c * t
        return _cyc(self.r, tuple(out), self.den * o.den)

    __rmul__ = __mul__

    def cmul(self, c: "Cyc") -> "Cyc":
        """Scale by a cyclotomic value (uniform interface with RatFunc)."""
        return self * c

    def inverse(self) -> "Cyc":
        """Multiplicative inverse, by solving a phi x phi linear system.

        The columns are the coordinates of self * zeta^j, which all share
        self.den; fraction-free Gauss-Jordan elimination (Bareiss) solves
        the integer system and leaves ±det on the diagonal.
        """
        if not self:
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        phi = len(self.num)
        if phi == 1:
            a = self.num[0]
            return _cyc(self.r, (self.den if a > 0 else -self.den,), abs(a))
        cols = [(self * Cyc.root(self.r, j)).num for j in range(phi)]
        mat = [[cols[j][i] for j in range(phi)] + [int(i == 0)]
               for i in range(phi)]
        prev = 1
        for c in range(phi):
            piv = next(rw for rw in range(c, phi) if mat[rw][c])
            mat[c], mat[piv] = mat[piv], mat[c]
            pivot_row = mat[c]
            p = pivot_row[c]
            for rw in range(phi):
                if rw != c:
                    f = mat[rw][c]
                    mat[rw] = [(p * v - f * w) // prev
                               for v, w in zip(mat[rw], pivot_row)]
            prev = p
        sign = 1 if prev > 0 else -1
        return _cyc(self.r, tuple(sign * self.den * mat[i][phi] for i in range(phi)),
                    sign * prev)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = Cyc.one(self.r)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- predicates and conversions ------------------------------------------

    def __bool__(self) -> bool:
        return any(self.num)

    def __eq__(self, other):
        o = (other if other.__class__ is Cyc and other.r == self.r
             else self._coerce(other))
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.r, self.num, self.den))

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self.num[0], self.den)

    def _coordinates(self):
        """The coordinates as ints (den == 1) or Fractions."""
        if self.den == 1:
            return self.num
        return tuple(Fraction(a, self.den) for a in self.num)

    def __complex__(self) -> complex:
        w = cmath.exp(2j * cmath.pi / self.r)
        return sum((a / self.den * w ** k for k, a in enumerate(self.num) if a),
                   start=0j)

    # -- rendering -----------------------------------------------------------

    def __str__(self) -> str:
        return render_terms([
            ("" if k == 0 else "z" if k == 1 else f"z^{k}", str(c))
            for k, c in enumerate(self._coordinates()) if c])

    def __repr__(self):
        return f"Cyc({self.r}, [{', '.join(str(c) for c in self._coordinates())}])"


if __name__ == "__main__":  # pragma: no cover
    import doctest

    doctest.testmod()
