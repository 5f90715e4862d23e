"""The one text renderer of a sum, ``polynomials.render_terms``, against the
three renderers it replaced: ``Cyc.__str__``'s own loop, ``scalars``'
``_poly_str``/``_mono_str`` for ``MPoly``, and the exponent-taking
``render_terms`` of ``Poly``.  They are restated below as oracles, and every
text must be byte for byte the same, on ``Cyc`` values of every r <= 12,
on ``MPoly``/``RatFunc`` values of five parameter rings, and on ``Poly``
values with ``Cyc`` and with compound ``RatFunc`` coefficients.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cherednik import (
    Cyc, GenericParameters, MPoly, Poly, PolyRep, RatFunc, euler_phi,
    jack_by_solve, parse_cyc,
)
from cherednik.cli import main
from cherednik.polynomials import render_terms

# ---------------------------------------------------------------------------
# the replaced renderers
# ---------------------------------------------------------------------------


def _chunk(chunks, body):
    if not chunks:
        chunks.append(body)
    elif body.startswith("-"):
        chunks.append(" - " + body[1:])
    else:
        chunks.append(" + " + body)


def cyc_str(x: Cyc) -> str:
    parts = []
    for k, c in enumerate(x._coordinates()):
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
        _chunk(parts, body)
    return "".join(parts) if parts else "0"


def mono_str(e, names) -> str:
    parts = []
    for i, x in enumerate(e):
        if x == 1:
            parts.append(names[i])
        elif x:
            parts.append(f"{names[i]}^{x}")
    return "*".join(parts)


def mpoly_str(p: MPoly) -> str:
    if not p.terms:
        return "0"
    chunks = []
    for e in sorted(p.terms, key=lambda e: (sum(e), e), reverse=True):
        c = p.terms[e]
        mono = mono_str(e, p.ring.names)
        cs = cyc_str(c)
        simple = "+" not in cs[1:] and "-" not in cs[1:] and "*" not in cs
        if not mono:
            body = cs if simple else f"({cs})"
        elif c == p.ring.cone:
            body = mono
        elif c == -p.ring.cone:
            body = "-" + mono
        elif simple:
            body = f"{cs}*{mono}"
        else:
            body = f"({cs})*{mono}"
        _chunk(chunks, body)
    return "".join(chunks)


def scalar_str(c) -> str:
    if isinstance(c, Cyc):
        return cyc_str(c)
    if c.den.is_one():
        return mpoly_str(c.num)
    return f"({mpoly_str(c.num)})/({mpoly_str(c.den)})"


def poly_render_terms(terms) -> str:
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
        _chunk(chunks, body)
    return "".join(chunks) if chunks else "0"


def poly_str(p: Poly) -> str:
    return poly_render_terms(
        (e, scalar_str(p.terms[e]))
        for e in sorted(p.terms, key=lambda e: (sum(e), e), reverse=True))


# ---------------------------------------------------------------------------
# values
# ---------------------------------------------------------------------------

RATIONALS = [0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-1, 2),
             Fraction(2, 3), Fraction(-5, 7)]
RINGS = [(1, 1), (2, 1), (3, 3), (4, 1), (4, 2)]
_FIELDS = {rp: GenericParameters(*rp) for rp in RINGS}


@st.composite
def cycs(draw, r=None):
    if r is None:
        r = draw(st.integers(1, 12))
    return Cyc(r, draw(st.lists(st.sampled_from(RATIONALS),
                                min_size=euler_phi(r), max_size=euler_phi(r))))


@st.composite
def mpolys(draw, rp, max_terms=4):
    ring = _FIELDS[rp].ring
    exps = draw(st.lists(
        st.tuples(*[st.integers(0, 2)] * ring.nvars), max_size=max_terms))
    return MPoly(ring, {e: c for e in exps
                        if (c := draw(cycs(ring.r)))})


@st.composite
def ratfuncs(draw, rp):
    num = draw(mpolys(rp))
    den = draw(mpolys(rp, max_terms=2))
    if den.is_zero():
        den = den.ring.one()
    return RatFunc(num, den)


@st.composite
def polys(draw, coeffs):
    n = draw(st.integers(1, 3))
    exps = draw(st.lists(st.tuples(*[st.integers(0, 2)] * n), max_size=4))
    return Poly(n, {e: c for e in exps if (c := draw(coeffs))})


def _g21():
    par = _FIELDS[2, 1]
    return par, par.kappa, par.c0, par.d(1), par.one


# ---------------------------------------------------------------------------
# the new renderer against the old ones
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("r", range(1, 13))
def test_cyc_text_of_each_order_matches_the_old_loop(r):
    phi = euler_phi(r)
    one, z = Cyc.one(r), Cyc.root(r, 1)
    values = [Cyc.zero(r), one, -one, Cyc.from_rational(r, -1, 2),
              z, -z, z * Fraction(3, 4) - 1]
    for k in range(phi):  # each coordinate alone: 1, -1 and a fraction
        for c in (1, -1, Fraction(-2, 5)):
            co = [0] * phi
            co[k] = c
            values.append(Cyc(r, co))
    values.append(Cyc(r, [Fraction(k + 1, 2) * (-1) ** k
                          for k in range(phi)]))
    for x in values:
        assert str(x) == cyc_str(x), repr(x)
        assert parse_cyc(str(x), r) == x


@settings(max_examples=300, deadline=None, derandomize=True)
@given(cycs())
@example(Cyc(12, [0, -1, Fraction(1, 2), 1]))
@example(Cyc(7, [Fraction(-1, 3), 0, 1, -1, 0, 2]))
def test_cyc_text_matches_the_old_loop(x):
    assert str(x) == cyc_str(x)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(RINGS).flatmap(mpolys))
@example(MPoly(_FIELDS[4, 1].ring, {}))
@example(MPoly(_FIELDS[4, 1].ring, {
    (0, 0, 0, 0, 0): Cyc(4, [1, -1]), (1, 0, 0, 0, 0): Cyc(4, [0, -1]),
    (0, 1, 0, 1, 0): Cyc(4, [Fraction(1, 2), 0]),
    (0, 0, 1, 0, 2): Cyc(4, [-1, 0])}))
def test_mpoly_text_matches_the_old_renderer(p):
    assert str(p) == mpoly_str(p)
    assert repr(p) == f"MPoly({mpoly_str(p)})"


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from(RINGS).flatmap(ratfuncs))
def test_ratfunc_text_matches_the_old_renderer(x):
    assert str(x) == scalar_str(x)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(polys(cycs(3)) | polys(cycs(5)) | polys(cycs(12)))
@example(Poly(2, {}))
@example(Poly(2, {(0, 0): Cyc.from_rational(3, -1, 2),
                  (1, 0): Cyc.from_rational(3, 1, 2),
                  (0, 1): Cyc(3, [1, 1]), (1, 1): Cyc.one(3),
                  (2, 0): -Cyc.one(3)}))
def test_poly_text_with_cyc_coefficients_matches_the_old_renderer(p):
    assert str(p) == poly_str(p)
    assert repr(p) == f"Poly({poly_str(p)})"


@settings(max_examples=100, deadline=None, derandomize=True)
@given(polys(st.sampled_from(RINGS).flatmap(ratfuncs)))
def test_poly_text_with_ratfunc_coefficients_matches_the_old_renderer(p):
    assert str(p) == poly_str(p)


def test_compound_ratfunc_coefficients_are_parenthesized_as_before():
    par, k, c0, d1, one = _g21()
    p = Poly(2, {(0, 0): one / 2, (1, 0): -k, (0, 1): k - c0,
                 (1, 1): k * c0, (2, 0): (k + d1) / (k - c0),
                 (0, 2): -one, (2, 1): one * 3})
    assert str(p) == poly_str(p) == (
        "3 * x1^2 x2 + ((k + d1)/(k - c0)) * x1^2 + (k*c0) * x1 x2 - x2^2"
        " - k * x1 + (k - c0) * x2 + (1/2)")
    # the same coefficient texts, unspaced as an MPoly prints them
    assert render_terms([("x", "1/2"), ("y", "-k"), ("", "k - c0")]) \
        == "1/2*x - k*y + (k - c0)"
    assert render_terms([]) == render_terms([], True) == "0"


def test_the_jack_polynomial_field_is_the_text_of_the_eigenvector(capsys):
    assert main(["jack", "--group", "2,1,2", "--mu", "2,0", "--json"]) == 0
    entry, = json.loads(capsys.readouterr().out)["eigenvectors"]
    jv = jack_by_solve(PolyRep(2, 1, 2, GenericParameters(2, 1)), (2, 0))
    assert entry["polynomial"] == str(jv.poly) == poly_str(jv.poly)
