"""Parsers for the text renderings used across the package.

One grammar covers cyclotomic numbers (``1 - 2*z^3``), parameter scalars
(``(k - c0)/(k + d1)``) and polynomials (``(1 - z) * x1^2 x2 + 5``): Python
expression syntax restricted to names, digit-only integers, binary
``+ - * /``, unary ``+ -`` and parentheses, with ``^`` for powers (the
exponent an integer literal, optionally negated) and whitespace between two
factors for products, as printed.  Everything ``str`` prints parses back equal.

>>> from cherednik import GenericParameters
>>> par = GenericParameters(2, 1)
>>> print(parse_poly("x1^2 x2 - (k - c0)^2/(k + d1) x2^3 + 5", 2, par))
x1^2 x2 + ((-k^2 + 2*k*c0 - c0^2)/(k + d1)) * x2^3 + 5
>>> print(parse_cyc("z^-1 + 1/2", 3))
-1/2 - z
>>> for text in ["k**2", "k^(2)", "z^2^3", "f(k)", "1.5"]:
...     try: parse_scalar(text, par)
...     except ValueError as exc: print(exc)
cannot parse 'k**2'
exponent must be an integer
exponent must be an integer
cannot parse 'f(k)'
cannot parse '1.5'
"""

from __future__ import annotations

import ast
import operator
import re

from .cyclotomic import Cyc
from .polynomials import Poly

__all__ = ["parse_cyc", "parse_scalar", "parse_poly", "poly_from_json"]

_ALPHABET = re.compile(r"[\sA-Za-z0-9+\-*/^()]*")
# whitespace after a name, number or ")" and before a name or "(" multiplies
_IMPLICIT_PRODUCT = re.compile(r"(?<=[A-Za-z0-9)])\s+(?=[A-Za-z(])")


def _evaluate(text: str, lookup, from_int):
    """Evaluate ``text``: names by ``lookup``, integers by ``from_int``."""
    if "**" in text or not _ALPHABET.fullmatch(text):
        raise ValueError(f"cannot parse {text!r}")
    src = re.sub(r"\s+", " ", _IMPLICIT_PRODUCT.sub("*", text)).strip()
    src = src.replace("^", "**")
    try:
        tree = ast.parse(src, mode="eval").body
    except SyntaxError:
        raise ValueError(f"cannot parse {text!r}") from None

    def is_literal(node):
        return (isinstance(node, ast.Constant) and type(node.value) is int
                and src[node.col_offset:node.end_col_offset].isdigit())

    def value(node):
        # a sum nests one level per term on the left: walk that in a loop
        spine = []
        while isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
            spine.append(node)
            node = node.left
        out = factor(node)
        for op in reversed(spine):
            out = _BINARY[type(op.op)](out, value(op.right))
        return out

    def factor(node):
        if is_literal(node):
            return from_int(node.value)
        if isinstance(node, ast.Name):
            return lookup(node.id)
        if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY:
            return _UNARY[type(node.op)](value(node.operand))
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            exp, sign = node.right, 1
            if isinstance(exp, ast.UnaryOp) and isinstance(exp.op, ast.USub):
                exp, sign = exp.operand, -1
            # the literal ends the power, so "k^(2)" and "k^-(1)" are refused
            if not (is_literal(exp)
                    and exp.end_col_offset == node.end_col_offset):
                raise ValueError("exponent must be an integer")
            return _power(value(node.left), sign * exp.value)
        raise ValueError(f"cannot parse {text!r}")

    return value(tree)


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


_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub,
           ast.Mult: operator.mul, ast.Div: _divide}
_UNARY = {ast.UAdd: lambda v: v, ast.USub: operator.neg}


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
        if name[0] == "d" and name[1:].isdigit():
            return params.d(int(name[1:]))
        raise ValueError(f"unknown parameter {name!r}")
    return lookup, params.rational


def parse_cyc(text: str, r: int) -> Cyc:
    """Parse a cyclotomic number written in powers of ``z``."""
    lookup = lambda name: Cyc.root(r, 1) if name == "z" else _bad(name)
    return _evaluate(text, lookup, lambda v: Cyc.from_rational(r, v))


def _bad(name):
    raise ValueError(f"unknown name {name!r}")


def parse_scalar(text: str, params):
    """Parse a scalar in the parameter field (generic or specialized)."""
    return _evaluate(text, *_scalar_env(params))


def parse_poly(text: str, n: int, params) -> Poly:
    """Parse a polynomial in x1..xn with scalar coefficients."""
    slookup, from_int = _scalar_env(params)

    def lookup(name):
        if name[0] == "x" and name[1:].isdigit():
            i = int(name[1:])
            if not 1 <= i <= n:
                raise ValueError(f"variable {name} out of range 1..{n}")
            mu = tuple(1 if j == i - 1 else 0 for j in range(n))
            return Poly.monomial(mu, params.one)
        return slookup(name)

    out = _evaluate(text, lookup, from_int)
    return out if isinstance(out, Poly) else Poly.monomial((0,) * n, out)


def poly_from_json(obj: dict, params) -> Poly:
    """Rebuild a polynomial from its JSON term list."""
    return Poly.from_terms(obj["n"], (
        (tuple(t["exp"]), parse_scalar(t["coeff"], params))
        for t in obj["terms"]))
