"""Sparse polynomials in x_1..x_n with scalar coefficients.

Coefficients are duck-typed: either Q(zeta_r) values (specialized mode) or
rational functions in the deformation parameters (generic mode).  Zero
coefficients are never stored; printing and JSON use the graded-lex-descending
term order, so renderings are canonical.
"""

from __future__ import annotations

from typing import Iterable

__all__ = ["Poly", "accumulate", "render_terms"]


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


class Poly:
    """A sparse multivariate polynomial; ``terms`` maps exponents to scalars."""

    __slots__ = ("n", "terms", "_hash")

    def __init__(self, n: int, terms: dict | None = None):
        self.n = n
        self.terms = terms if terms is not None else {}
        self._hash = None

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
        if isinstance(other, Poly):
            return other
        return Poly.monomial((0,) * self.n, other)

    def __add__(self, other) -> "Poly":
        other = self._lift(other)
        return Poly(self.n, accumulate(dict(self.terms), other.terms.items()))

    __radd__ = __add__

    def __sub__(self, other) -> "Poly":
        other = self._lift(other)
        out = dict(self.terms)
        # inline: accumulate() fed by a generator of -c measured ~10% slower
        for e, c in other.terms.items():
            s = out.get(e)
            s = -c if s is None else s - c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return Poly(self.n, out)

    def __rsub__(self, other) -> "Poly":
        return self._lift(other) - self

    def __neg__(self) -> "Poly":
        return Poly(self.n, {e: -c for e, c in self.terms.items()})

    def scaled(self, s) -> "Poly":
        if not s:
            return Poly(self.n, {})
        return Poly(self.n, {e: c * s for e, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.scaled(other)
        out: dict = {}
        # inline: accumulate() per row measured 5-40% slower on small operands
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = tuple(a + b for a, b in zip(ea, eb))
                c = ca * cb
                s = out.get(e)
                s = c if s is None else s + c
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return Poly(self.n, out)

    def __rmul__(self, other):
        return self.scaled(other)

    # -- queries ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.n == other.n \
            and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.n, tuple(self.sorted_terms())))
        return self._hash

    def coeff(self, mu: tuple[int, ...]):
        return self.terms.get(tuple(mu))

    def degree(self) -> int:
        """Total degree (0 for the zero polynomial)."""
        return max((sum(e) for e in self.terms), default=0)

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
