"""Sparse polynomials in x_1..x_n with scalar coefficients.

Coefficients are duck-typed: either Q(zeta_r) values (specialized mode) or
rational functions in the deformation parameters (generic mode).  Zero
coefficients are never stored; printing and JSON use the graded-lex-descending
term order, so renderings are canonical.

:class:`SparseTerms` holds the one copy of the term loops (``+``, ``-``,
negation, ``*``, scaling) for :class:`Poly` and for the parameter
polynomials ``scalars.MPoly``, which are siblings on it.  The loops stay
inline rather than feeding :func:`accumulate` a generator, which measured
about 10% slower in ``-`` and 5-40% slower in ``*`` on small operands.

:func:`render_terms` is the one text format of a sum: a ``Cyc``, an
``MPoly``, a :class:`Poly` and the ``jack`` command's ``polynomial`` field
print through it, each passing only its monomial spelling and whether it
is ``spaced``.
"""

from __future__ import annotations

from operator import add
from typing import Iterable

__all__ = ["Poly", "SparseTerms", "accumulate", "render_terms", "x_monomial"]


def accumulate(out: dict, items) -> dict:
    """Add each ``(key, value)`` of ``items`` into ``out`` and return ``out``.

    A key whose sum is zero is removed, so ``out`` never stores a zero.
    """
    for e, c in items:
        s = out.get(e)
        s = c if s is None else s + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def render_terms(terms, spaced: bool = False) -> str:
    """The text of a sum from its (monomial text, coefficient text) pairs in
    print order, "" being the monomial 1: signs fold into `` + ``/`` - ``, a
    coefficient 1 or -1 prints as a sign, and a compound one is parenthesized.
    ``spaced`` spells a :class:`Poly`: `` * `` for a product, and a ``/`` or
    a space also makes a coefficient compound, so ``(1/2) * x1`` but
    ``1/2*k``.  Plain ``in`` tests measured faster than a generator per
    coefficient."""
    times = " * " if spaced else "*"
    chunks = []
    for mono, cs in terms:
        if mono and cs == "1":
            body = mono
        elif mono and cs == "-1":
            body = "-" + mono
        else:
            tail = cs[1:]
            if "+" in tail or "-" in tail or "*" in cs \
                    or spaced and ("/" in cs or " " in cs):
                cs = f"({cs})"
            body = cs + times + mono if mono else cs
        if not chunks:
            chunks.append(body)
        elif body[0] == "-":
            chunks.append(" - " + body[1:])
        else:
            chunks.append(" + " + body)
    return "".join(chunks) if chunks else "0"


def x_monomial(e) -> str:
    """The spelling of x^e in a :class:`Poly`: ``x1^2 x2``."""
    return " ".join((f"x{i + 1}" if a == 1 else f"x{i + 1}^{a}")
                    for i, a in enumerate(e) if a)


def _key(e: tuple[int, ...]):
    return (sum(e), e)


class SparseTerms:
    """``terms`` maps exponent tuples to nonzero coefficients of a field;
    each result is built by the subclass's ``_like(terms)``.  ``*`` by a
    non-polynomial scales by it, and ``+`` and ``-`` lift it by ``_lift``
    (which only :class:`Poly` defines).  Two polynomials combine, or are
    equal, only in one ``space`` (a :class:`Poly`'s rank, an ``MPoly``'s
    ring); each subclass hashes its terms its own way.  A
    subclass prints with its ``_mono`` spelling and its ``SPACED`` flag."""

    __slots__ = ("terms", "_hash")

    def __add__(self, other):
        if not isinstance(other, SparseTerms):
            other = self._lift(other)
        elif other.space is not self.space and other.space != self.space:
            raise ValueError("mixed ranks")
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e)
            if s is None:
                out[e] = c
            else:
                s = s + c
                if s:
                    out[e] = s
                else:
                    del out[e]
        return self._like(out)

    def __sub__(self, other):
        if not isinstance(other, SparseTerms):
            other = self._lift(other)
        elif other.space is not self.space and other.space != self.space:
            raise ValueError("mixed ranks")
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e)
            if s is None:
                out[e] = -c
            else:
                s = s - c
                if s:
                    out[e] = s
                else:
                    del out[e]
        return self._like(out)

    def __neg__(self):
        return self._like({e: -c for e, c in self.terms.items()})

    def scaled(self, s):
        if not s:
            return self._like({})
        return self._like({e: c * s for e, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, SparseTerms):
            return self.scaled(other)
        if other.space is not self.space and other.space != self.space:
            raise ValueError("mixed ranks")
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out: dict = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(map(add, ea, eb))
                c = ca * cb
                s = out.get(e)
                if s is None:
                    out[e] = c
                else:
                    s = s + c
                    if s:
                        out[e] = s
                    else:
                        del out[e]
        return self._like(out)

    def __eq__(self, other):
        return (isinstance(other, type(self))
                and (other.space is self.space or other.space == self.space)
                and self.terms == other.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def degree(self) -> int:
        """Total degree (0 for the zero polynomial)."""
        return max((sum(e) for e in self.terms), default=0)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], object]]:
        t = self.terms
        return [(e, t[e]) for e in sorted(t, key=_key, reverse=True)]

    def __str__(self) -> str:
        mono = self._mono
        return render_terms([(mono(e), str(c)) for e, c in self.sorted_terms()],
                            self.SPACED)

    def __repr__(self):
        return f"{type(self).__name__}({self})"


class Poly(SparseTerms):
    """A sparse multivariate polynomial; ``terms`` maps exponents to scalars."""

    __slots__ = ("n",)

    def __init__(self, n: int, terms: dict | None = None):
        self.n = n
        self.terms = terms if terms is not None else {}
        self._hash = None

    def _like(self, terms: dict) -> "Poly":
        return Poly(self.n, terms)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "Poly":
        return cls(n, {})

    @classmethod
    def monomial(cls, mu: tuple[int, ...], coeff) -> "Poly":
        if not coeff:
            return cls(len(mu), {})
        return cls(len(mu), {tuple(mu): coeff})

    @classmethod
    def from_terms(cls, n: int, items: Iterable[tuple[tuple[int, ...], object]]) -> "Poly":
        return cls(n, accumulate({}, items))

    # -- arithmetic ------------------------------------------------------------

    def _lift(self, other) -> "Poly":
        return Poly.monomial((0,) * self.n, other)

    # the shared loops, bound here too so the benchmark's tracer (which
    # reads this class's own dict) counts them for Poly alone
    __add__ = __radd__ = SparseTerms.__add__
    __mul__ = SparseTerms.__mul__
    __rmul__ = SparseTerms.scaled

    def __rsub__(self, other) -> "Poly":
        return self._lift(other) - self

    # -- queries ------------------------------------------------------------

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.n, tuple(self.sorted_terms())))
        return self._hash

    def coeff(self, mu: tuple[int, ...]):
        return self.terms.get(tuple(mu))

    # -- rendering ------------------------------------------------------------

    SPACED = True
    _mono = staticmethod(x_monomial)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "terms": [{"exp": list(e), "coeff": str(c)}
                      for e, c in self.sorted_terms()],
        }


Poly.space = Poly.n  # the operands' space, which the core compares
