"""Oracles for the ``gordon`` pipeline that the package replaced by closed
forms.

* ``conjugacy_classes`` gives one representative and the size of each
  conjugacy class of G(r,p,n) from the colored cycle types;
  ``invariant_char_series_by_classes`` sums the graded character over those
  classes, where the package sums the cycle index of the wreath product;
* ``singular_vector_check_per_vector`` applies y_1 to each of the n
  singular vectors, where the package applies y_1 and y_n to f over k e_n
  and carries a nonzero image back by a permutation;
* ``genericity_guard_scan`` builds the left side of every H_{l,j} it scans,
  where the package builds one per (l mod r/p, j);
* ``span_stability_check`` applies the reflections through slot 1 to each
  of the n singular vectors and peels off coordinates, where the package
  applies the generators of the stabilizer of slot n to f over k e_n.

They live apart from ``oracles.py``, which the benchmark harness imports.
"""

from __future__ import annotations

import itertools
from collections import Counter
from math import factorial, gcd
from typing import Iterator

from cherednik import (
    Cyc, GroupElement, PolyRep, SpecializedParameters, order_key,
)
from cherednik.groups import group_order
from cherednik.reptheory import (
    Hjk, coxeter_number, jack_by_solve, on_hyperplane,
    simple_spectrum_violations,
)
from oracles import graded_char_series_dense


def _partitions(n: int, largest: int) -> Iterator[tuple[int, ...]]:
    """Partitions of n into parts of at most ``largest``, descending."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _colored_cycle_types(r: int, n: int) -> Iterator[tuple]:
    """Every multiset of (cycle length, color sum mod r) with lengths summing
    to n, as a tuple sorted by descending length, then ascending color."""
    for lam in _partitions(n, n):
        per_length = [
            [tuple((length, c) for c in colors)
             for colors in itertools.combinations_with_replacement(range(r), m)]
            for length, m in Counter(lam).items()]
        for choice in itertools.product(*per_length):
            yield tuple(itertools.chain.from_iterable(choice))


def _cycle_type_element(r: int, n: int, ctype) -> GroupElement:
    """Consecutive cycles on slots 0..n-1, each carrying its color sum on
    its first slot."""
    perm = list(range(n))
    col = [0] * n
    start = 0
    for length, c in ctype:
        for i in range(start, start + length - 1):
            perm[i] = i + 1
        perm[start + length - 1] = start
        col[start] = c
        start += length
    return GroupElement(r, tuple(perm), tuple(col))


def conjugacy_classes(r: int, p: int,
                      n: int) -> list[tuple[GroupElement, int]]:
    """One representative and the size of every conjugacy class of G(r,p,n).

    A class of the wreath product G(r,1,n) is a colored cycle type, the
    multiset of pairs (l, c) of a cycle length l and the color sum c mod r
    along that cycle (Macdonald, Symmetric Functions, App. B), of size

        n! r^n / prod_{(l,c)} m_{l,c}! (r l)^{m_{l,c}}.

    The types inside G(r,p,n) are those of total color sum 0 mod p.  Such a
    type splits into d = gcd(p, every l, every c) classes of G(r,p,n) of
    equal size: the image of its centralizer under the color sum mod p is
    dZ/pZ.  Their representatives are delta^j w delta^{-j} for j < d, with
    delta the diagonal element of color 1 in slot 0.
    """
    if r % p:
        raise ValueError(f"p={p} must divide r={r}")
    if n < 1:
        raise ValueError("rank must be at least 1")
    wreath_order = group_order(r, 1, n)
    delta = GroupElement(r, tuple(range(n)), (1,) + (0,) * (n - 1))
    out = []
    for ctype in _colored_cycle_types(r, n):
        if sum(c for _, c in ctype) % p:
            continue
        centralizer = 1
        for (length, _), m in Counter(ctype).items():
            centralizer *= factorial(m) * (r * length) ** m
        d = gcd(p, *(length for length, _ in ctype), *(c for _, c in ctype))
        w = _cycle_type_element(r, n, ctype)
        for j in range(d):
            out.append((delta ** j * w * delta ** -j,
                        wreath_order // (centralizer * d)))
    return out


def invariant_char_series_by_classes(r: int, p: int, n: int, k: int,
                                     truncation: int) -> list:
    """(1/|W|) sum_w det(1 - t^k w_V)/det(1 - t w) over the conjugacy
    classes, each representative weighted by its class size."""
    total = [Cyc.zero(r)] * (truncation + 1)
    count = 0
    for w, size in conjugacy_classes(r, p, n):
        s = graded_char_series_dense(w, k, truncation)
        total = [a + b * size for a, b in zip(total, s)]
        count += size
    assert count == group_order(r, p, n), "class sizes do not sum to |W|"
    out = []
    for c in total:
        v = c / count
        assert v.is_rational(), "invariant series is not rational"
        out.append(v.rational_value())
    return out


def span_stability_check(rep: PolyRep, basis) -> dict | None:
    """Check that the span of ``basis`` is W-stable; None when it is.

    ``basis`` is a list of pairs (mu, f) with f monic at x^mu and
    triangular like the eigenvectors f_mu, so that coordinates are read off
    at each mu, peeling from the top of the triangularity order down:
    descending by :func:`~cherednik.jack.order_key`, a linear extension, so
    every f above mu is subtracted before the coordinate at mu is read.
    Stability is checked on the reflections through slot 1 (``s.i == 0``),
    which generate W: the colorless (1 j) generate S_n; (1 j) of color l
    times (1 j) is diagonal with colors l and -l (in some order) at slots 1
    and j, and with S_n these give G(r,r,n); the diagonal reflections at
    slot 1, of colors p, 2p, .., give the rest of G(r,p,n).  A failure is a
    record naming the witness reflection.
    """
    peel = sorted(basis, key=lambda pair: order_key(pair[0]), reverse=True)
    for s in rep.reflections:
        if s.i != 0:
            continue
        for mu, f in basis:
            g = rep.t(s.element, f)
            for nu, h in peel:
                c = g.coeff(nu)
                if c:
                    g = g - h.scaled(c)
            if not g.is_zero():
                return {"status": "fail", "reason": "span not group-stable",
                        "w": str(s.element), "mu": list(mu),
                        "residual": str(g)}
    return None


def singular_vector_check_per_vector(r: int, p: int, n: int, point,
                                     k: int) -> dict:
    """``singular_vector_check`` with the span checked by
    ``span_stability_check`` and y_1 applied to each f over k e_i."""
    if k <= 0 or k % r == 0:
        raise ValueError("k must be positive and nonzero mod r")
    rep = PolyRep(r, p, n, SpecializedParameters(point))
    tops = [tuple(k if j == i else 0 for j in range(n)) for i in range(n)]
    polys = [jack_by_solve(rep, tops[-1]).poly]
    for i in reversed(range(n - 1)):
        s_i = GroupElement.transposition(r, n, i, i + 1)
        polys.insert(0, rep.t(s_i, polys[0]))
    basis = list(zip(tops, polys))
    failure = span_stability_check(rep, basis)
    if failure is not None:
        return failure
    for mu, f in basis:
        img = rep.dunkl(0, f)
        if not img.is_zero():
            return {"status": "fail", "reason": "not annihilated",
                    "mu": list(mu), "y_index": 0, "image": str(img)}
    return {"status": "pass", "k": k, "dimension": n,
            "annihilated": True, "group_stable": True,
            "character_match": True}


def genericity_guard_scan(point, k: int, n: int,
                          bound: int | None = None) -> dict:
    """``genericity_guard`` with ``on_hyperplane`` called on every H_{l,j}
    it scans."""
    if point.kappa != Cyc.one(point.r):
        raise ValueError("the hyperplane arrangement lives at kappa = 1")
    if k <= 0 or k % point.r == 0:
        raise ValueError("k must be positive and nonzero mod r")
    r = point.r
    if bound is None:
        h = coxeter_number(r, point.p, n) if r > 1 else 1
        bound = max(2 * k, 4 * h)
    violations = []
    if not on_hyperplane(point, Hjk(k, 1), n):
        violations.append(f"point is not on H_{{{k},1}}")
    for l in range(1, bound + 1):
        if l % r == 0:
            continue
        for j in range(1, n + 1):
            if (l, j) == (k, 1):
                continue
            if on_hyperplane(point, Hjk(l, j), n):
                violations.append(f"point lies on H_{{{l},{j}}}")
    violations.extend(simple_spectrum_violations(point, n))
    return {"ok": not violations, "k": k, "bound": bound,
            "violations": violations}
