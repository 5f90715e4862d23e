"""Parsers for the text renderings used across the package.

One recursive-descent grammar covers cyclotomic numbers (``1 - 2*z^3``),
parameter scalars (``(k - c0)/(k + d1)``) and polynomials
(``(1 - z) * x1^2 x2 + 5``).  Adjacent variable powers multiply implicitly,
matching the printed form.  Everything printed by ``str`` parses back equal.
"""

from __future__ import annotations

import re

from .cyclotomic import Cyc
from .polynomials import Poly

__all__ = ["parse_cyc", "parse_scalar", "parse_poly", "poly_from_json"]

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9]*)|([-+*/^()]))")


def _tokenize(text: str) -> list[tuple[str, object]]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ValueError(f"cannot tokenize {text[pos:]!r}")
            break
        if m.group(1):
            out.append(("num", int(m.group(1))))
        elif m.group(2):
            out.append(("name", m.group(2)))
        else:
            out.append(("op", m.group(3)))
        pos = m.end()
    out.append(("end", None))
    return out


class _Parser:
    """Evaluates the expression directly over a value context."""

    def __init__(self, tokens, lookup, from_int):
        self.tokens = tokens
        self.pos = 0
        self.lookup = lookup
        self.from_int = from_int

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, val = self.take()
        if kind != "op" or val != op:
            raise ValueError(f"expected {op!r}, found {val!r}")

    def parse(self):
        val = self.expr()
        kind, tok = self.peek()
        if kind != "end":
            raise ValueError(f"trailing input at {tok!r}")
        return val

    def expr(self):
        kind, val = self.peek()
        negate = False
        if kind == "op" and val in "+-":
            self.take()
            negate = val == "-"
        out = self.term()
        if negate:
            out = -out
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.term()
                out = out - rhs if val == "-" else out + rhs
            else:
                return out

    def term(self):
        out = self.factor()
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "*/":
                self.take()
                rhs = self.factor()
                out = out * rhs if val == "*" else _divide(out, rhs)
            elif kind == "name" or (kind == "op" and val == "("):
                out = out * self.factor()  # implicit product: "x1^2 x2"
            else:
                return out

    def factor(self):
        kind, val = self.peek()
        if kind == "op" and val in "+-":
            self.take()
            f = self.factor()
            return -f if val == "-" else f
        base = self.atom()
        kind, val = self.peek()
        if kind == "op" and val == "^":
            self.take()
            sign = 1
            kind, val = self.peek()
            if kind == "op" and val == "-":
                self.take()
                sign = -1
            kind, val = self.take()
            if kind != "num":
                raise ValueError("exponent must be an integer")
            return _power(base, sign * val)
        return base

    def atom(self):
        kind, val = self.take()
        if kind == "num":
            return self.from_int(val)
        if kind == "name":
            return self.lookup(val)
        if kind == "op" and val == "(":
            out = self.expr()
            self.expect_op(")")
            return out
        raise ValueError(f"unexpected token {val!r}")


def _divide(a, b):
    if isinstance(a, Poly) and not isinstance(b, Poly):
        return a.scaled(b.inverse())
    if isinstance(a, Poly) or isinstance(b, Poly):
        raise ValueError("cannot divide by a polynomial")
    return a / b


def _power(base, n):
    if isinstance(base, Poly):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = None
        for _ in range(n):
            out = base if out is None else out * base
        if out is None:
            raise ValueError("x^0 is ambiguous; write 1")
        return out
    return base ** n


def _scalar_env(params):
    def lookup(name):
        if name == "z":
            return params.zeta(1)
        if params.specialized:
            raise ValueError(f"unknown name {name!r} in a specialized scalar")
        if name == "k":
            return params.kappa
        if name == "c0":
            return params.c0
        m = re.fullmatch(r"d(\d+)", name)
        if m:
            return params.d(int(m.group(1)))
        raise ValueError(f"unknown parameter {name!r}")
    return lookup, lambda v: params.rational(v)


def parse_cyc(text: str, r: int) -> Cyc:
    """Parse a cyclotomic number written in powers of ``z``."""
    lookup = lambda name: Cyc.root(r, 1) if name == "z" else _bad(name)
    p = _Parser(_tokenize(text), lookup, lambda v: Cyc.from_rational(r, v))
    out = p.parse()
    if not isinstance(out, Cyc):
        raise ValueError("expected a cyclotomic value")
    return out


def _bad(name):
    raise ValueError(f"unknown name {name!r}")


def parse_scalar(text: str, params):
    """Parse a scalar in the parameter field (generic or specialized)."""
    lookup, from_int = _scalar_env(params)
    out = _Parser(_tokenize(text), lookup, from_int).parse()
    if isinstance(out, Poly):
        raise ValueError("expected a scalar, found a polynomial")
    return out


def parse_poly(text: str, n: int, params) -> Poly:
    """Parse a polynomial in x1..xn with scalar coefficients."""
    slookup, from_int = _scalar_env(params)

    def lookup(name):
        m = re.fullmatch(r"x(\d+)", name)
        if m:
            i = int(m.group(1))
            if not 1 <= i <= n:
                raise ValueError(f"variable {name} out of range 1..{n}")
            mu = tuple(1 if j == i - 1 else 0 for j in range(n))
            return Poly.monomial(mu, params.one)
        return slookup(name)

    out = _Parser(_tokenize(text), lookup, from_int).parse()
    if not isinstance(out, Poly):
        out = Poly.monomial((0,) * n, out) if out else Poly.zero(n)
    return out


def poly_from_json(obj: dict, params) -> Poly:
    """Rebuild a polynomial from its JSON term list."""
    n = obj["n"]
    return Poly.from_terms(
        n, ((tuple(t["exp"]), parse_scalar(t["coeff"], params))
            for t in obj["terms"]))
