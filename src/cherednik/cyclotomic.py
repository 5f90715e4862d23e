"""Exact arithmetic in the cyclotomic fields Q(zeta_r).

An element is stored as its coordinate vector in the reduced power basis
1, zeta, ..., zeta^{phi(r)-1} of Q[x]/(Phi_r(x)), where Phi_r is the r-th
cyclotomic polynomial and phi is Euler's totient.  Working modulo Phi_r
(rather than x^r - 1) makes the quotient a field with a canonical form, so
equality of elements is equality of coefficient vectors.

Rationals are gmpy2.mpq when available (much faster), else Fraction.

>>> z = Cyc.root(4, 1)
>>> z * z
Cyc(4, [-1, 0])
>>> (1 + z) * (1 + z**3)
Cyc(4, [2, 0])
"""

from __future__ import annotations

import cmath
from functools import lru_cache
from typing import Union

try:
    from gmpy2 import mpq as Q
except ImportError:  # pragma: no cover - gmpy2 is a declared dependency
    from fractions import Fraction as Q

from fractions import Fraction

__all__ = ["Q", "Cyc", "cyclotomic_polynomial", "euler_phi"]

Rat = Union[int, Fraction, type(Q(1))]

_Q0 = Q(0)
_Q1 = Q(1)


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
    """Per-r tables: (phi, rows) with rows[k] = coordinates of x^k mod Phi_r."""
    coeffs = cyclotomic_polynomial(r)
    phi = len(coeffs) - 1
    top = tuple(-Q(c) for c in coeffs[:phi])  # x^phi mod Phi_r
    rows: list[tuple] = []
    for k in range(max(r, 2 * phi - 1)):
        if k < phi:
            rows.append(tuple(_Q1 if i == k else _Q0 for i in range(phi)))
        else:
            prev = rows[k - 1]
            shifted = (_Q0,) + prev[: phi - 1]
            carry = prev[phi - 1]
            if carry:
                rows.append(tuple(s + carry * t for s, t in zip(shifted, top)))
            else:
                rows.append(shifted)
    return phi, tuple(rows)


class Cyc:
    """An element of Q(zeta_r), in canonical reduced-basis form."""

    __slots__ = ("r", "co")

    def __init__(self, r: int, co):
        self.r = r
        self.co = tuple(co)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, r: int) -> "Cyc":
        phi, _ = _ctx(r)
        return cls(r, (_Q0,) * phi)

    @classmethod
    def one(cls, r: int) -> "Cyc":
        return cls.from_rational(r, 1)

    @classmethod
    def from_rational(cls, r: int, a, b=1) -> "Cyc":
        phi, _ = _ctx(r)
        return cls(r, (Q(a) if b == 1 else Q(a) / Q(b),) + (_Q0,) * (phi - 1))

    @classmethod
    def root(cls, r: int, k: int) -> "Cyc":
        """zeta_r^k, reduced; periodic in k with period r."""
        phi, rows = _ctx(r)
        return cls(r, rows[k % r])

    def _coerce(self, other):
        if isinstance(other, Cyc):
            if other.r != self.r:
                raise ValueError(f"mixed cyclotomic orders {self.r} and {other.r}")
            return other
        if isinstance(other, (int, Fraction)) or type(other) is type(_Q0):
            return Cyc.from_rational(self.r, other)
        return None

    # -- ring/field operations ---------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Cyc(self.r, tuple(a + b for a, b in zip(self.co, o.co)))

    __radd__ = __add__

    def __neg__(self):
        return Cyc(self.r, tuple(-a for a in self.co))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Cyc(self.r, tuple(a - b for a, b in zip(self.co, o.co)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.co, o.co
        phi, rows = _ctx(self.r)
        if phi == 1:
            return Cyc(self.r, (a[0] * b[0],))
        out = [_Q0] * phi
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j, bj in enumerate(b):
                if not bj:
                    continue
                c = ai * bj
                k = i + j
                if k < phi:
                    out[k] += c
                else:
                    row = rows[k]
                    for m in range(phi):
                        if row[m]:
                            out[m] += c * row[m]
        return Cyc(self.r, out)

    __rmul__ = __mul__

    def cmul(self, c: "Cyc") -> "Cyc":
        """Scale by a cyclotomic value (uniform interface with RatFunc)."""
        return self * c

    def inverse(self) -> "Cyc":
        """Multiplicative inverse, by solving a phi x phi linear system."""
        if not self:
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        phi, _ = _ctx(self.r)
        if phi == 1:
            return Cyc(self.r, (_Q1 / self.co[0],))
        # columns: coordinates of self * zeta^j
        cols = [(self * Cyc.root(self.r, j)).co for j in range(phi)]
        mat = [[cols[j][i] for j in range(phi)] + [(_Q1 if i == 0 else _Q0)]
               for i in range(phi)]
        for c in range(phi):
            piv = next(rw for rw in range(c, phi) if mat[rw][c])
            mat[c], mat[piv] = mat[piv], mat[c]
            inv = _Q1 / mat[c][c]
            mat[c] = [v * inv for v in mat[c]]
            for rw in range(phi):
                if rw != c and mat[rw][c]:
                    f = mat[rw][c]
                    mat[rw] = [v - f * w for v, w in zip(mat[rw], mat[c])]
        return Cyc(self.r, tuple(mat[i][phi] for i in range(phi)))

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
        return any(self.co)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.co == o.co

    def __hash__(self):
        return hash((self.r, self.co))

    def is_rational(self) -> bool:
        return not any(self.co[1:])

    def rational_value(self):
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.co[0]

    def __complex__(self) -> complex:
        w = cmath.exp(2j * cmath.pi / self.r)
        return sum((float(c) * w ** k for k, c in enumerate(self.co) if c),
                   start=0j)

    # -- rendering -----------------------------------------------------------

    def __str__(self) -> str:
        parts = []
        for k, c in enumerate(self.co):
            if not c:
                continue
            mono = "1" if k == 0 else ("z" if k == 1 else f"z^{k}")
            if k == 0:
                body = str(c)
            elif c == 1:
                body = mono
            elif c == -1:
                body = "-" + mono
            else:
                body = f"{c}*{mono}"
            if not parts:
                parts.append(body)
            elif body.startswith("-"):
                parts.append(" - " + body[1:])
            else:
                parts.append(" + " + body)
        return "".join(parts) if parts else "0"

    def __repr__(self):
        return f"Cyc({self.r}, [{', '.join(str(c) for c in self.co)}])"


if __name__ == "__main__":  # pragma: no cover
    import doctest

    doctest.testmod()
