"""Round trips and error behaviour of the text layer."""

import json
import pathlib

import pytest

from cherednik import (
    Cyc, GenericParameters, Poly, PolyRep, SpecializedParameters,
    jack_by_solve, parse_cyc, parse_poly, parse_scalar, poly_from_json,
)
from cherednik.reptheory import gordon_point

GOLDEN = pathlib.Path(__file__).parent / "golden"


def test_parse_cyc_expressions():
    assert parse_cyc("1 + z - z^3", 8) == 1 + Cyc.root(8, 1) - Cyc.root(8, 3)
    assert parse_cyc("-z", 4) == -Cyc.root(4, 1)
    assert parse_cyc("z^-1", 4) == Cyc.root(4, -1)
    assert parse_cyc("(1 + z)*(1 - z)", 4) \
        == (1 + Cyc.root(4, 1)) * (1 - Cyc.root(4, 1))
    assert parse_cyc("3/4", 2) == Cyc.from_rational(2, 3, 4)
    with pytest.raises(ValueError):
        parse_cyc("k + 1", 4)


def test_parse_scalar_expressions():
    par = GenericParameters(3, 1)
    assert parse_scalar("k", par) == par.kappa
    assert parse_scalar("(k - c0)/(k + c0)", par) \
        == (par.kappa - par.c0) / (par.kappa + par.c0)
    assert parse_scalar("d1*d2 - z*c0", par) \
        == par.d(1) * par.d(2) - par.zeta(1) * par.c0
    assert parse_scalar("k^2 - 2*k + 1", par) \
        == (par.kappa - par.one) * (par.kappa - par.one)
    assert parse_scalar("k^-1", par) == par.kappa.inverse()
    with pytest.raises(ValueError):
        parse_scalar("q + 1", par)
    with pytest.raises(ValueError):
        parse_scalar("k +", par)


def test_parse_poly_forms():
    par = GenericParameters(2, 1)
    f = parse_poly("x1^2 x2 - 2 * x2^3 + (k - c0) * x1 + 5", 2, par)
    assert f.coeff((2, 1)) == par.one
    assert f.coeff((0, 3)) == par.rational(-2)
    assert f.coeff((1, 0)) == par.kappa - par.c0
    assert f.coeff((0, 0)) == par.rational(5)
    assert parse_poly("0", 2, par).is_zero()
    with pytest.raises(ValueError):
        parse_poly("x3", 2, par)
    with pytest.raises(ValueError):
        parse_poly("1/x1", 2, par)


def test_eigenvector_rendering_roundtrip():
    for (r, p, n) in [(2, 1, 2), (3, 1, 2)]:
        rep = PolyRep(r, p, n)
        for mu in [(2, 0), (1, 1), (3, 1)]:
            jv = jack_by_solve(rep, mu)
            assert parse_poly(str(jv.poly), n, rep.params) == jv.poly
            assert poly_from_json(jv.poly.to_json(), rep.params) == jv.poly


def test_specialized_poly_roundtrip():
    rep = PolyRep(2, 1, 2, SpecializedParameters(gordon_point(2, 1, 2)))
    jv = jack_by_solve(rep, (0, 5))
    assert parse_poly(str(jv.poly), 2, rep.params) == jv.poly
    assert poly_from_json(jv.poly.to_json(), rep.params) == jv.poly


def test_implicit_products_match_printed_monomials():
    par = GenericParameters(2, 1)
    f = Poly.monomial((2, 3), par.one)
    assert parse_poly("x1^2 x2^3", 2, par) == f
    assert parse_poly("x1^2*x2^3", 2, par) == f


# Each row: an input, then what it parses to as printed by ``str`` (or the
# exception it raises) in four contexts: ``parse_cyc`` at r = 3,
# ``parse_scalar`` on G(3,1) generic and at the Gordon point of G(3,1,2),
# and ``parse_poly`` at n = 2 on G(3,1) generic.  The answers are those of
# the hand-written recursive-descent parser that fixed this grammar.
GRAMMAR = [
    ('z', 'z', 'z', 'z', 'z'),
    ('-z', '-z', '-z', '-z', '-z'),
    ('z^2', '-1 - z', '(-1 - z)', '-1 - z', '((-1 - z))'),
    ('z^-1', '-1 - z', '(-1 - z)', '-1 - z', '((-1 - z))'),
    ('z^ - 1', '-1 - z', '(-1 - z)', '-1 - z', '((-1 - z))'),
    ('(1 + z)*(1 - z)', '2 + z', '(2 + z)', '2 + z', '((2 + z))'),
    ('-z^2 + 1/2', '3/2 + z', '(3/2 + z)', '3/2 + z', '((3/2 + z))'),
    ('3/4', '3/4', '3/4', '3/4', '(3/4)'),
    ('1/0', ZeroDivisionError, ZeroDivisionError, ZeroDivisionError, ZeroDivisionError),
    ('k', ValueError, 'k', ValueError, 'k'),
    ('c0', ValueError, 'c0', ValueError, 'c0'),
    ('d1', ValueError, 'd1', ValueError, 'd1'),
    ('d2', ValueError, 'd2', ValueError, 'd2'),
    ('d0', ValueError, '-d1 - d2', ValueError, '(-d1 - d2)'),
    ('q', ValueError, ValueError, ValueError, ValueError),
    ('(k - c0)/(k + d1)', ValueError, '(k - c0)/(k + d1)', ValueError, '((k - c0)/(k + d1))'),
    ('k^2 - 2*k + 1', ValueError, 'k^2 - 2*k + 1', ValueError, '(k^2 - 2*k + 1)'),
    ('k^-2', ValueError, '(1)/(k^2)', ValueError, '((1)/(k^2))'),
    ('-k^2', ValueError, '-k^2', ValueError, '-k^2'),
    ('(z^2)^3', '1', '1', '1', '1'),
    ('+k', ValueError, 'k', ValueError, 'k'),
    ('--k', ValueError, 'k', ValueError, 'k'),
    ('- -k', ValueError, 'k', ValueError, 'k'),
    ('k*-c0', ValueError, '-k*c0', ValueError, '(-k*c0)'),
    ('k/c0*d1', ValueError, '(k*d1)/(c0)', ValueError, '((k*d1)/(c0))'),
    ('k c0', ValueError, 'k*c0', ValueError, '(k*c0)'),
    ('2 k', ValueError, '2*k', ValueError, '(2*k)'),
    ('(k) (c0)', ValueError, 'k*c0', ValueError, '(k*c0)'),
    ('k (c0)', ValueError, 'k*c0', ValueError, '(k*c0)'),
    ('2 (k)', ValueError, '2*k', ValueError, '(2*k)'),
    ('(k) c0', ValueError, 'k*c0', ValueError, '(k*c0)'),
    ('k^2 c0', ValueError, 'k^2*c0', ValueError, '(k^2*c0)'),
    ('z^2 z', '1', '1', '1', '1'),
    ('x1', ValueError, ValueError, ValueError, 'x1'),
    ('x2', ValueError, ValueError, ValueError, 'x2'),
    ('x3', ValueError, ValueError, ValueError, ValueError),
    ('x0', ValueError, ValueError, ValueError, ValueError),
    ('x1^2 x2', ValueError, ValueError, ValueError, 'x1^2 x2'),
    ('x1^2*x2', ValueError, ValueError, ValueError, 'x1^2 x2'),
    ('x1 x2', ValueError, ValueError, ValueError, 'x1 x2'),
    ('-x1', ValueError, ValueError, ValueError, '-x1'),
    ('x1^2 x2 - 2 * x2^3 + (k - c0) * x1 + 5', ValueError, ValueError, ValueError, 'x1^2 x2 - 2 * x2^3 + (k - c0) * x1 + 5'),
    ('x1^0', ValueError, ValueError, ValueError, ValueError),
    ('x1^-1', ValueError, ValueError, ValueError, ValueError),
    ('1/x1', ValueError, ValueError, ValueError, ValueError),
    ('x1/2', ValueError, ValueError, ValueError, '(1/2) * x1'),
    ('x1/k', ValueError, ValueError, ValueError, '((1)/(k)) * x1'),
    ('x1 x1', ValueError, ValueError, ValueError, 'x1^2'),
    ('k\n+1', ValueError, 'k + 1', ValueError, '(k + 1)'),
    ('k +\n1', ValueError, 'k + 1', ValueError, '(k + 1)'),
    ('  k  ', ValueError, 'k', ValueError, 'k'),
    ('\tk\t', ValueError, 'k', ValueError, 'k'),
    ('k\n', ValueError, 'k', ValueError, 'k'),
    ('\nk', ValueError, 'k', ValueError, 'k'),
    ('k**2', ValueError, ValueError, ValueError, ValueError),
    ('k ** 2', ValueError, ValueError, ValueError, ValueError),
    ('k^(2)', ValueError, ValueError, ValueError, ValueError),
    ('k^-(1)', ValueError, ValueError, ValueError, ValueError),
    ('k^(-1)', ValueError, ValueError, ValueError, ValueError),
    ('z^2^3', ValueError, ValueError, ValueError, ValueError),
    ('k^ - 2', ValueError, '(1)/(k^2)', ValueError, '((1)/(k^2))'),
    ('k^+2', ValueError, ValueError, ValueError, ValueError),
    ('k^--1', ValueError, ValueError, ValueError, ValueError),
    ('k^k', ValueError, ValueError, ValueError, ValueError),
    ('k^2.5', ValueError, ValueError, ValueError, ValueError),
    ('k*^2', ValueError, ValueError, ValueError, ValueError),
    ('k^^2', ValueError, ValueError, ValueError, ValueError),
    ('1 2', ValueError, ValueError, ValueError, ValueError),
    ('x1 2', ValueError, ValueError, ValueError, ValueError),
    ('x1x2', ValueError, ValueError, ValueError, ValueError),
    ('k c0 2', ValueError, ValueError, ValueError, ValueError),
    ('2x1', ValueError, ValueError, ValueError, '2 * x1'),
    ('2k', ValueError, '2*k', ValueError, '(2*k)'),
    ('x1^2x2', ValueError, ValueError, ValueError, 'x1^2 x2'),
    ('007', '7', '7', '7', '7'),
    ('00', '0', '0', '0', '0'),
    ('k(c0)', ValueError, 'k*c0', ValueError, '(k*c0)'),
    ('(k)(c0)', ValueError, 'k*c0', ValueError, '(k*c0)'),
    ('2(k)', ValueError, '2*k', ValueError, '(2*k)'),
    ('(k)x1', ValueError, ValueError, ValueError, 'k * x1'),
    ('1.5', ValueError, ValueError, ValueError, ValueError),
    ('1e3', ValueError, ValueError, ValueError, ValueError),
    ('1_000', ValueError, ValueError, ValueError, ValueError),
    ('0x10', ValueError, ValueError, ValueError, ValueError),
    ('0b1', ValueError, ValueError, ValueError, ValueError),
    ('1j', ValueError, ValueError, ValueError, ValueError),
    ('k // 2', ValueError, ValueError, ValueError, ValueError),
    ('k % 2', ValueError, ValueError, ValueError, ValueError),
    ('f(k)', ValueError, ValueError, ValueError, ValueError),
    ('k.x', ValueError, ValueError, ValueError, ValueError),
    ('k, c0', ValueError, ValueError, ValueError, ValueError),
    ('k < 1', ValueError, ValueError, ValueError, ValueError),
    ('~k', ValueError, ValueError, ValueError, ValueError),
    ('k # c', ValueError, ValueError, ValueError, ValueError),
    ('x_1', ValueError, ValueError, ValueError, ValueError),
    ('True', ValueError, ValueError, ValueError, ValueError),
    ('k[0]', ValueError, ValueError, ValueError, ValueError),
    ('k;1', ValueError, ValueError, ValueError, ValueError),
    ("'k'", ValueError, ValueError, ValueError, ValueError),
    ('', ValueError, ValueError, ValueError, ValueError),
    (' ', ValueError, ValueError, ValueError, ValueError),
    ('(k', ValueError, ValueError, ValueError, ValueError),
    ('k)', ValueError, ValueError, ValueError, ValueError),
    ('()', ValueError, ValueError, ValueError, ValueError),
    ('k +', ValueError, ValueError, ValueError, ValueError),
    ('* k', ValueError, ValueError, ValueError, ValueError),
]

# Inputs that grammar accepted and the ``ast``-based reader rejects in every
# context: a digit glued to a name, leading zeros, and a factor glued to a
# parenthesis (Python reads ``k(c0)`` as a call).  ``str`` prints none of them.
NARROWED = {"2x1", "2k", "x1^2x2", "007", "k(c0)", "(k)(c0)", "2(k)",
            "(k)x1"}


def _contexts():
    gen = GenericParameters(3, 1)
    spec = SpecializedParameters(gordon_point(3, 1, 2))
    return [lambda t: parse_cyc(t, 3), lambda t: parse_scalar(t, gen),
            lambda t: parse_scalar(t, spec), lambda t: parse_poly(t, 2, gen)]


@pytest.mark.parametrize("row", GRAMMAR, ids=[repr(row[0]) for row in GRAMMAR])
def test_grammar_table(row):
    text, *answers = row
    for parse, want in zip(_contexts(), answers):
        if text in NARROWED:
            want = ValueError
        if isinstance(want, str):
            assert str(parse(text)) == want
        else:
            with pytest.raises(want):
                parse(text)


def _printed(obj, keys):
    """Every string under one of ``keys``, at any depth of ``obj``."""
    if isinstance(obj, dict):
        for key, val in obj.items():
            if key in keys and isinstance(val, str):
                yield key, val
            elif key in keys and isinstance(val, list):
                yield from ((key, v) for v in val)
            else:
                yield from _printed(val, keys)
    elif isinstance(obj, list):
        for val in obj:
            yield from _printed(val, keys)


def test_golden_strings_parse_back_to_themselves():
    seen = set()
    for path in sorted(GOLDEN.glob("*.json")):
        data = json.loads(path.read_text())
        r, p, n = data["group"]
        assert data.get("mode", "generic") == "generic"
        par = GenericParameters(r, p)
        parsers = {
            "coeff": lambda t: parse_scalar(t, par),
            "z": lambda t: parse_scalar(t, par),
            "polynomial": lambda t: parse_poly(t, n, par),
            "defect": lambda t: parse_poly(t, n, par),
            "character_limit": lambda t: parse_cyc(t, r),
            "series": lambda t: parse_cyc(t, r),
        }
        for key, text in _printed(data, parsers):
            assert str(parsers[key](text)) == text, (path.name, key)
            seen.add(key)
    assert seen == {"coeff", "z", "polynomial", "defect",
                         "character_limit", "series"}


def test_long_sums_parse():
    # a sum nests one level deeper per term, and the ``jack`` budget admits
    # eigenvectors of 2,000 terms
    assert parse_cyc(" + ".join(["z"] * 2000), 3) == 2000 * Cyc.root(3, 1)
