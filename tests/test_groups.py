"""Colored permutations, reflections and the fixed action convention."""

import itertools
import random
from fractions import Fraction

import pytest

import oracles
from cherednik import (
    Cyc, GenericParameters, GroupElement, ParamPoint, Poly, PolyRep,
    SpecializedParameters, group_elements, group_order, parse_element,
    reflections,
)
from class_sums import conjugacy_classes
from cherednik import (
    c_from_d, catalan_series, coinvariant_series, coxeter_number, d_from_c,
    degrees, exponents_and_freeness, gordon_point, invariant_char_series,
    is_irreducible,
)


def random_element(rng, r, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return GroupElement.from_perm_col(
        r, perm, [rng.randrange(r) for _ in range(n)])


def mat_mul(a, b, r):
    n = len(a)
    zero = Cyc.zero(r)
    out = [[zero] * n for _ in range(n)]
    for i in range(n):
        for k in range(n):
            if a[i][k]:
                for j in range(n):
                    if b[k][j]:
                        out[i][j] = out[i][j] + a[i][k] * b[k][j]
    return out


def test_composition_matches_matrix_product():
    rng = random.Random(7)
    for _ in range(40):
        r, n = rng.choice([(2, 3), (3, 3), (4, 2)])
        w, v = random_element(rng, r, n), random_element(rng, r, n)
        assert (w * v).matrix() == mat_mul(w.matrix(), v.matrix(), r)


def test_group_axioms_and_inverses():
    rng = random.Random(11)
    for _ in range(60):
        r, n = rng.choice([(2, 2), (3, 2), (4, 3)])
        a, b, c = (random_element(rng, r, n) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        e = GroupElement.identity(r, n)
        assert a * e == a and e * a == a
        assert a * a.inverse() == e and a.inverse() * a == e
        assert (a * b).inverse() == b.inverse() * a.inverse()


@pytest.mark.parametrize("left,right", [
    (GroupElement.transposition(2, 3, 0, 2),
     GroupElement.transposition(2, 2, 0, 1)),
    (GroupElement.transposition(2, 2, 0, 1),
     GroupElement.transposition(2, 3, 0, 2)),
    (GroupElement.identity(3, 1), GroupElement.diagonal(3, 2, 1, 1)),
])
def test_products_of_mixed_ranks_are_refused(left, right):
    with pytest.raises(ValueError, match="mixed ranks"):
        left * right



# entry points that take a group: with a rank, and without one
RANKED_ENTRY_POINTS = {
    "group_order": group_order,
    "coxeter_number": coxeter_number,
    "degrees": degrees,
    "is_irreducible": is_irreducible,
    "reflections": reflections,
    "group_elements": lambda r, p, n: list(group_elements(r, p, n)),
    "PolyRep": PolyRep,
    "invariant_char_series": lambda r, p, n: invariant_char_series(
        r, p, n, 3, 4),
    "exponents_and_freeness": lambda r, p, n: exponents_and_freeness(
        r, p, n, 1),
    "gordon_point": gordon_point,
    "coinvariant_series": lambda r, p, n: coinvariant_series(r, p, n, 3),
    "catalan_series": lambda r, p, n: catalan_series(r, p, n, 3),
}
RANKLESS_ENTRY_POINTS = {
    "ParamPoint.make": lambda r, p: ParamPoint.make(r, p, 1, 2),
    "d_from_c": lambda r, p: d_from_c(r, p, []),
    "c_from_d": lambda r, p: c_from_d(r, p, [1]),
    "GenericParameters": GenericParameters,
}
BAD_GROUPS = [(2, 0, 2), (0, 1, 2), (-2, 1, 2), (2, -1, 2), (3, 2, 2)]
BAD_RANKS = [(2, 1, 0), (3, 3, -1)]


@pytest.mark.parametrize("name", sorted(RANKED_ENTRY_POINTS))
@pytest.mark.parametrize("r,p,n", BAD_GROUPS + BAD_RANKS)
def test_invalid_groups_are_refused_with_a_value_error(name, r, p, n):
    with pytest.raises(ValueError, match=rf"invalid group \({r},{p},{n}\)"):
        RANKED_ENTRY_POINTS[name](r, p, n)


@pytest.mark.parametrize("name", sorted(RANKLESS_ENTRY_POINTS))
@pytest.mark.parametrize("r,p", [(r, p) for r, p, _ in BAD_GROUPS])
def test_invalid_groups_without_a_rank_are_refused(name, r, p):
    with pytest.raises(ValueError, match=rf"invalid group \({r},{p},n\)"):
        RANKLESS_ENTRY_POINTS[name](r, p)

def test_group_orders_by_enumeration():
    for r in (1, 2, 3):
        for p in (q for q in (1, 2, 3) if r % q == 0):
            for n in (1, 2, 3):
                count = sum(1 for _ in group_elements(r, p, n))
                assert count == group_order(r, p, n)


def in_group(w: GroupElement, p: int) -> bool:
    """Membership in G(r,p,n): color sum divisible by p."""
    if w.r % p:
        raise ValueError(f"p={p} must divide r={w.r}")
    return sum(w.col) % p == 0


def test_membership_predicate():
    assert not in_group(GroupElement.diagonal(2, 2, 0, 1), 2)
    assert in_group(GroupElement.transposition(4, 2, 0, 1), 2)
    z1z2inv = GroupElement.diagonal(2, 2, 0, 1) \
        * GroupElement.diagonal(2, 2, 1, -1)
    assert in_group(z1z2inv, 2)
    with pytest.raises(ValueError):
        in_group(GroupElement.identity(4, 2), 3)


def test_reflection_counts():
    assert len(reflections(2, 1, 2)) == 4
    kinds = [s.kind for s in reflections(2, 1, 2)]
    assert kinds.count("transposition") == 2 and kinds.count("diagonal") == 2
    for (r, n) in [(2, 2), (3, 2), (4, 3)]:
        rs = reflections(r, r, n)
        assert len(rs) == r * n * (n - 1) // 2
        assert all(s.kind == "transposition" for s in rs)
    rs = reflections(3, 1, 1)
    assert len(rs) == 2 and all(s.kind == "diagonal" for s in rs)
    with pytest.raises(ValueError):
        reflections(4, 3, 2)


def _rank(mat, r):
    rows = [list(rw) for rw in mat]
    cols = len(rows[0]) if rows else 0
    rank = 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = rows[rank][c].inverse()
        rows[rank] = [v * inv for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_reflections_live_in_their_group_with_codim_one_fix():
    for (r, p, n) in [(2, 1, 2), (4, 2, 2), (3, 3, 3), (6, 2, 2)]:
        one = Cyc.one(r)
        for s in reflections(r, p, n):
            assert in_group(s.element, p)
            mat = s.element.matrix()
            shifted = [[mat[i][j] - one if i == j else mat[i][j]
                        for j in range(n)] for i in range(n)]
            assert _rank(shifted, r) == 1


def test_action_on_polynomials():
    rep = PolyRep(2, 1, 2)
    par = rep.params
    f = Poly.monomial((1, 2), par.one) + Poly.monomial((0, 1), par.rational(3))
    e = GroupElement.identity(2, 2)
    assert rep.t(e, f) == f
    z1 = GroupElement.diagonal(2, 2, 0, 1)
    x1 = Poly.monomial((1, 0), par.one)
    assert rep.t(z1, x1) == x1.scaled(par.rational(-1))
    s12 = GroupElement.transposition(2, 2, 0, 1)
    assert rep.t(s12, Poly.monomial((1, 2), par.one)) \
        == Poly.monomial((2, 1), par.one)
    # automorphism: w(fg) = (wf)(wg)
    g = Poly.monomial((2, 0), par.one) - Poly.monomial((1, 1), par.c0)
    w = z1 * s12
    assert rep.t(w, f * g) == rep.t(w, f) * rep.t(w, g)


@pytest.mark.parametrize("r,p,n", [(2, 1, 2), (3, 1, 2), (4, 2, 2),
                                   (2, 1, 3), (3, 3, 3), (2, 2, 3)])
def test_t_is_an_action(r, p, n):
    # t_{gh} f = t_g(t_h f) for every pair of elements, on a polynomial
    # whose terms have mixed degrees, colors and supports
    rep = PolyRep(r, p, n)
    par = rep.params
    f = Poly.zero(n)
    for i, mu in enumerate([(1, 0, 2), (0, 3, 1), (2, 2, 0), (1, 1, 1),
                            (4, 0, 0), (0, 0, 0)], start=1):
        f = f + Poly.monomial(mu[:n], par.rational(i) if i % 2 else par.c0)
    images = {h: rep.t(h, f) for h in group_elements(r, p, n)}
    for g in images:
        for h, th in images.items():
            assert rep.t(g * h, f) == rep.t(g, th), (g, h)


def test_conjugation_preserves_reflection_classes():
    for (r, p, n) in [(2, 1, 2), (3, 3, 2), (4, 2, 2)]:
        refl = reflections(r, p, n)
        table = {s.element: s.cclass for s in refl}
        for w in group_elements(r, p, n):
            for s in refl:
                conj = w * s.element * w.inverse()
                assert table[conj] == s.cclass


def test_alpha_data_defines_the_reflection():
    # s.x = x - <x, alpha_check> alpha on every coordinate line
    for (r, p, n) in [(2, 1, 2), (3, 1, 2), (4, 2, 3)]:
        par = GenericParameters(r, p)
        rep = PolyRep(r, p, n, par)
        for s in reflections(r, p, n):
            for i in range(n):
                xi = Poly.monomial(tuple(1 if j == i else 0 for j in range(n)),
                                   par.one)
                alpha_poly = Poly(
                    n, {tuple(1 if t == m else 0 for t in range(n)):
                        par.embed(v) for m, v in enumerate(s.alpha) if v})
                expected = xi - alpha_poly.scaled(par.embed(s.alpha_check[i]))
                assert rep.t(s.element, xi) == expected


def test_parse_print_roundtrip():
    rng = random.Random(3)
    for _ in range(50):
        r, n = rng.choice([(2, 2), (3, 3), (4, 4), (6, 1)])
        w = random_element(rng, r, n)
        assert parse_element(str(w), r) == w
    assert parse_element("(1 2)[0,1]", 2) == GroupElement.from_perm_col(
        2, (1, 0), (0, 1))
    with pytest.raises(ValueError):
        parse_element("(1 5)[0,0]", 2)


@pytest.mark.parametrize("text, slot", [
    ("(1 2)(1 2)[0,0]", 1), ("(1 2 3)(1 3 2)[0,0,0]", 1),
    ("(1 2)(3 2)[0,0,0]", 2), ("(1 2 1)[0,0]", 1),
])
def test_cycles_that_share_a_slot_are_refused(text, slot):
    with pytest.raises(ValueError, match=f"cycle entry {slot} appears twice"):
        parse_element(text, 2)


def _orbits_by_enumeration(r, p, n):
    """Map each element of G(r,p,n) to the index of its conjugacy class,
    and list the class sizes, by brute-force conjugation."""
    elems = list(group_elements(r, p, n))
    inverses = [g.inverse() for g in elems]
    class_of, sizes = {}, []
    for w in elems:
        if w in class_of:
            continue
        orbit = {g * w * gi for g, gi in zip(elems, inverses)}
        for v in orbit:
            class_of[v] = len(sizes)
        sizes.append(len(orbit))
    return class_of, sizes


def test_conjugacy_classes_match_orbit_enumeration():
    checked = 0
    for r in range(1, 5):
        for p in (q for q in range(1, r + 1) if r % q == 0):
            for n in range(1, 5):
                if group_order(r, p, n) > 1000:
                    continue
                classes = conjugacy_classes(r, p, n)
                class_of, sizes = _orbits_by_enumeration(r, p, n)
                hit = [class_of[w] for w, _ in classes]
                assert sorted(hit) == list(range(len(sizes))), (r, p, n)
                assert [size for _, size in classes] == [sizes[i] for i in hit]
                assert sum(size for _, size in classes) == group_order(r, p, n)
                checked += 1
    assert checked == 28


def test_conjugacy_classes_split_inside_g_r_p_n():
    # types with gcd(p, lengths, colors) = d > 1 split into d classes
    assert len(conjugacy_classes(2, 2, 4)) == 13
    assert len(conjugacy_classes(4, 4, 4)) == 33
    assert len(conjugacy_classes(4, 2, 3)) == 20
    # the wreath products: one class per colored cycle type
    assert len(conjugacy_classes(2, 1, 5)) == 36
    for (r, p, n) in [(2, 1, 6), (3, 1, 4), (6, 3, 3)]:
        assert sum(size for _, size in conjugacy_classes(r, p, n)) \
            == group_order(r, p, n)
    with pytest.raises(ValueError):
        conjugacy_classes(4, 3, 2)


def test_colored_transpositions_are_the_transposition_reflections():
    for (r, p, n) in [(1, 1, 3), (2, 1, 3), (3, 3, 3), (4, 2, 3), (6, 2, 2)]:
        for i, j in itertools.permutations(range(n), 2):
            for l in range(-r, 2 * r):
                literal = (GroupElement.diagonal(r, n, i, l)
                           * GroupElement.transposition(r, n, i, j)
                           * GroupElement.diagonal(r, n, i, -l))
                assert GroupElement.colored_transposition(
                    r, n, i, j, l) == literal
        trans = [s for s in reflections(r, p, n) if s.kind == "transposition"]
        assert len(trans) == r * n * (n - 1) // 2
        for s in trans:
            assert s.element == GroupElement.colored_transposition(
                r, n, s.i, s.j, s.l)


def test_coupling_matches_the_inline_class_constant():
    point = ParamPoint.from_c(4, 2, 1, Fraction(1, 3), [Fraction(2, 5)])
    for params in (GenericParameters(4, 2), SpecializedParameters(point)):
        refl = reflections(4, 2, 2)
        assert {s.kind for s in refl} == {"transposition", "diagonal"}
        for s in refl:
            assert s.coupling(params) == oracles.coupling(params, s)


def test_each_coupling_label_is_a_union_of_conjugacy_classes():
    # every colored transposition carries c0; for n = 2 and even p the even
    # and odd colors are two classes, so "generic" there means c_even = c_odd
    split = []
    for r in range(1, 7):
        for p in (q for q in range(1, r + 1) if r % q == 0):
            for n in range(1, 4):
                if group_order(r, p, n) > 400:
                    continue
                class_of, _ = _orbits_by_enumeration(r, p, n)
                size = {class_of[w]: s for w, s in conjugacy_classes(r, p, n)}
                labels: dict = {}
                for s in reflections(r, p, n):
                    labels.setdefault(s.cclass, set()).add(s.element)
                for label, members in labels.items():
                    spanned = {class_of[w] for w in members}
                    assert sum(size[c] for c in spanned) == len(members)
                    if len(spanned) > 1:
                        split.append((r, p, n, label, len(spanned)))
    assert split == [(r, p, 2, "c0", 2) for r in range(2, 7)
                     for p in range(2, r + 1, 2) if r % p == 0]
