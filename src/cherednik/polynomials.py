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
"""

from __future__ import annotations

from operator import add
from typing import Iterable

__all__ = ["Poly", "SparseTerms", "accumulate", "render_terms"]


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


def render_terms(terms) -> str:
    """The text of a polynomial from its (exponent, coefficient text) pairs,
    in the order they are printed."""
    chunks = []
    for e, cs in terms:
        mono = " ".join(
            (f"x{i + 1}" if a == 1 else f"x{i + 1}^{a}")
            for i, a in enumerate(e) if a)
        simple = "+" not in cs[1:] and "-" not in cs[1:] and "/" not in cs \
            and "*" not in cs and " " not in cs
        if not mono:
            body = cs if simple else f"({cs})"
        elif cs == "1":
            body = mono
        elif cs == "-1":
            body = "-" + mono
        elif simple:
            body = f"{cs} * {mono}"
        else:
            body = f"({cs}) * {mono}"
        if not chunks:
            chunks.append(body)
        elif body.startswith("-"):
            chunks.append(" - " + body[1:])
        else:
            chunks.append(" + " + body)
    return "".join(chunks) if chunks else "0"


def _key(e: tuple[int, ...]):
    return (sum(e), e)


class SparseTerms:
    """``terms`` maps exponent tuples to nonzero coefficients of a field;
    each result is built by the subclass's ``_like(terms)``.  ``*`` by a
    non-polynomial scales by it, and ``+`` and ``-`` lift it by ``_lift``
    (which only :class:`Poly` defines)."""

    __slots__ = ("terms", "_hash")

    def __add__(self, other):
        if not isinstance(other, SparseTerms):
            other = self._lift(other)
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

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def degree(self) -> int:
        """Total degree (0 for the zero polynomial)."""
        return max((sum(e) for e in self.terms), default=0)


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

    def __eq__(self, other):
        return isinstance(other, Poly) and self.n == other.n \
            and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.n, tuple(self.sorted_terms())))
        return self._hash

    def coeff(self, mu: tuple[int, ...]):
        return self.terms.get(tuple(mu))

    def sorted_terms(self) -> list[tuple[tuple[int, ...], object]]:
        return [(e, self.terms[e]) for e in sorted(self.terms, key=_key,
                                                   reverse=True)]

    # -- rendering ------------------------------------------------------------

    def __str__(self) -> str:
        return render_terms((e, str(c)) for e, c in self.sorted_terms())

    def __repr__(self):
        return f"Poly({self})"

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "terms": [{"exp": list(e), "coeff": str(c)}
                      for e, c in self.sorted_terms()],
        }
