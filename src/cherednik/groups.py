"""The complex reflection groups G(r,p,n) as colored permutations.

An element is a permutation ``perm`` of 0..n-1 together with a color vector
``col`` in (Z/r)^n.  The fixed convention (respected by every operator in the
package) is that the element acts on the dual variables by

    w . x_i = zeta^{col[i]} x_{perm[i]},      zeta = exp(2*pi*i/r),

which corresponds to the monomial matrix on coordinates y_j -> zeta^{-col[j]}
y_{perm[j]}.  The product of the nonzero matrix entries is an (r/p)-th root of
unity exactly when sum(col) = 0 mod p, which is the G(r,p,n) membership test.

``diagonal(r, n, i, l)`` builds the diagonal element whose matrix entry at
coordinate i is zeta^l (so it scales x_i by zeta^{-l}); the conjugated
transpositions carry colors (l, -l) on the swapped slots.  All indices in the
Python API are 0-based; the text notation ``(1 2)[0,1]`` is 1-based cycles
plus the stored color vector.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Iterator, Optional

from .cyclotomic import Cyc

__all__ = [
    "GroupElement", "Reflection", "reflections", "group_order",
    "group_elements", "parse_element", "check_group",
]


def check_group(r: int, p: int, n: int | None = None) -> None:
    """A ValueError unless r, p and the rank n (if given) are at least 1
    and p divides r: the parameters of a group G(r,p,n)."""
    if r < 1 or p < 1 or r % p or (n is not None and n < 1):
        raise ValueError(f"invalid group ({r},{p},{'n' if n is None else n})")


class GroupElement:
    """A colored permutation; immutable and hashable."""

    __slots__ = ("r", "perm", "col", "_hash")

    def __init__(self, r: int, perm: tuple[int, ...], col: tuple[int, ...]):
        self.r = r
        self.perm = perm
        self.col = col
        self._hash = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, r: int, n: int) -> "GroupElement":
        return cls(r, tuple(range(n)), (0,) * n)

    @classmethod
    def transposition(cls, r: int, n: int, i: int, j: int) -> "GroupElement":
        return cls.colored_transposition(r, n, i, j, 0)

    @classmethod
    def colored_transposition(cls, r: int, n: int, i: int, j: int,
                              l: int) -> "GroupElement":
        """diagonal(i, l) * transposition(i, j) * diagonal(i, -l): swaps
        slots i and j with colors l at i and -l at j."""
        perm = list(range(n))
        perm[i], perm[j] = perm[j], perm[i]
        col = [0] * n
        col[i], col[j] = l % r, -l % r
        return cls(r, tuple(perm), tuple(col))

    @classmethod
    def diagonal(cls, r: int, n: int, i: int, l: int) -> "GroupElement":
        """diag(1, .., zeta^l, .., 1) on coordinates; acts on x_i by zeta^{-l}."""
        col = [0] * n
        col[i] = (-l) % r
        return cls(r, tuple(range(n)), tuple(col))

    @classmethod
    def from_perm_col(cls, r: int, perm, col) -> "GroupElement":
        perm = tuple(perm)
        if sorted(perm) != list(range(len(perm))):
            raise ValueError(f"not a permutation of 0..{len(perm) - 1}: {perm}")
        col = tuple(c % r for c in col)
        if len(col) != len(perm):
            raise ValueError("color vector length must match rank")
        return cls(r, perm, col)

    # -- group structure ------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.perm)

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        """Composition: (self*other).f = self.(other.f); other acts first."""
        if self.r != other.r:
            raise ValueError("mixed color orders")
        if len(self.perm) != len(other.perm):
            raise ValueError("mixed ranks")
        sp, sc = self.perm, self.col
        op, oc = other.perm, other.col
        perm = tuple(sp[op[i]] for i in range(len(op)))
        col = tuple((oc[i] + sc[op[i]]) % self.r for i in range(len(op)))
        return GroupElement(self.r, perm, col)

    def inverse(self) -> "GroupElement":
        n = self.n
        iperm = [0] * n
        icol = [0] * n
        for i in range(n):
            iperm[self.perm[i]] = i
            icol[self.perm[i]] = (-self.col[i]) % self.r
        return GroupElement(self.r, tuple(iperm), tuple(icol))

    def __pow__(self, k: int) -> "GroupElement":
        if k < 0:
            return self.inverse() ** (-k)
        out = GroupElement.identity(self.r, self.n)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- the action ------------------------------------------------------------

    def act_on_exponents(self, mu: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
        """w.x^mu = zeta^k x^nu; returns (k mod r, nu)."""
        nu = [0] * len(mu)
        k = 0
        for i, m in enumerate(mu):
            nu[self.perm[i]] = m
            k += self.col[i] * m
        return k % self.r, tuple(nu)

    def x_image(self, i: int) -> tuple[int, int]:
        """w.x_i = zeta^k x_j; returns (k, j)."""
        return self.col[i], self.perm[i]

    def y_image(self, j: int) -> tuple[int, int]:
        """w.y_j = zeta^k y_m; returns (k, m), the coordinate-side action."""
        return (-self.col[j]) % self.r, self.perm[j]

    def matrix(self) -> list[list[Cyc]]:
        """Monomial matrix on coordinates: column j has zeta^{-col[j]} in row perm[j]."""
        n = self.n
        zero = Cyc.zero(self.r)
        mat = [[zero] * n for _ in range(n)]
        for j in range(n):
            mat[self.perm[j]][j] = Cyc.root(self.r, -self.col[j])
        return mat

    # -- plumbing ------------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, GroupElement) and self.r == other.r
                and self.perm == other.perm and self.col == other.col)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.r, self.perm, self.col))
        return self._hash

    def __str__(self) -> str:
        return f"{_cycle_str(self.perm)}[{','.join(map(str, self.col))}]"

    def __repr__(self):
        return f"GroupElement(r={self.r}, {self})"


def _cycle_str(perm: tuple[int, ...]) -> str:
    seen = [False] * len(perm)
    cycles = []
    for i in range(len(perm)):
        if seen[i] or perm[i] == i:
            seen[i] = True
            continue
        cyc = [i]
        seen[i] = True
        j = perm[i]
        while j != i:
            cyc.append(j)
            seen[j] = True
            j = perm[j]
        cycles.append("(" + " ".join(str(k + 1) for k in cyc) + ")")
    return "".join(cycles) if cycles else "()"


_ELEM_RE = re.compile(r"^\s*((?:\(\s*[\d\s]*\))*)\s*\[([^\]]*)\]\s*$")


def parse_element(text: str, r: int) -> GroupElement:
    """Inverse of str(): cycles are 1-based, colors are the stored vector."""
    m = _ELEM_RE.match(text)
    if not m:
        raise ValueError(f"cannot parse group element: {text!r}")
    cyc_part, col_part = m.group(1), m.group(2)
    col = tuple(int(t) % r for t in col_part.split(",")) if col_part.strip() else ()
    n = len(col)
    perm = list(range(n))
    seen = set()
    for grp in re.findall(r"\(([^)]*)\)", cyc_part):
        entries = [int(t) - 1 for t in grp.split()]
        if not entries:
            continue
        for a, b in zip(entries, entries[1:] + entries[:1]):
            if not 0 <= a < n:
                raise ValueError(f"cycle entry {a + 1} out of range 1..{n}")
            if a in seen:
                raise ValueError(f"cycle entry {a + 1} appears twice; "
                                 "the cycles must be disjoint")
            seen.add(a)
            perm[a] = b
    return GroupElement.from_perm_col(r, perm, col)


# ---------------------------------------------------------------------------
# reflections
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Reflection:
    """A reflection with its root data.

    ``alpha`` / ``alpha_check`` are the coefficient vectors of alpha_s on the
    x-basis and of alpha_s^vee on the y-basis, normalized so that
    s.x = x - <x, alpha_s^vee> alpha_s on every x in the dual space.
    ``cclass`` labels the coupling constant, a union of conjugacy classes:
    "c0" for the colored transpositions, "c{l}" for the diagonal class of
    color l.  For n = 2 and even p, "c0" covers two classes, the even and
    odd colors, so "generic" there means c_even = c_odd.
    """

    element: GroupElement
    kind: str                      # "transposition" | "diagonal"
    i: int
    j: Optional[int]               # None for diagonal kind
    l: int
    cclass: str
    alpha: tuple[Cyc, ...]
    alpha_check: tuple[Cyc, ...]

    def coupling(self, params):
        """The coupling constant c_s of this reflection's class in
        ``params``: c0 for a transposition, c_l for a diagonal of color l."""
        return params.c0 if self.kind == "transposition" else params.c(self.l)


def reflections(r: int, p: int, n: int) -> list[Reflection]:
    """All reflections of G(r,p,n): r*n(n-1)/2 of transposition type plus
    n(r/p - 1) diagonal ones.
    """
    check_group(r, p, n)
    zero = Cyc.zero(r)
    out: list[Reflection] = []
    for i in range(n):
        for j in range(i + 1, n):
            for l in range(r):
                elem = GroupElement.colored_transposition(r, n, i, j, l)
                alpha = [zero] * n
                alpha[i] = Cyc.one(r)
                alpha[j] = -Cyc.root(r, l)
                alpha_check = [zero] * n
                alpha_check[i] = Cyc.one(r)
                alpha_check[j] = -Cyc.root(r, -l)
                out.append(Reflection(elem, "transposition", i, j, l, "c0",
                                      tuple(alpha), tuple(alpha_check)))
    for i in range(n):
        for t in range(1, r // p):
            l = t * p
            elem = GroupElement.diagonal(r, n, i, l)
            alpha = [zero] * n
            alpha[i] = Cyc.root(r, -l - 1)
            alpha_check = [zero] * n
            alpha_check[i] = Cyc.root(r, l + 1) - Cyc.root(r, 1)
            out.append(Reflection(elem, "diagonal", i, None, l, f"c{l}",
                                  tuple(alpha), tuple(alpha_check)))
    return out


def group_order(r: int, p: int, n: int) -> int:
    check_group(r, p, n)
    out = r ** n
    for k in range(2, n + 1):
        out *= k
    return out // p


def group_elements(r: int, p: int, n: int) -> Iterator[GroupElement]:
    """All r^n n!/p elements of G(r,p,n).  The package walks them only in
    ``pbw.check_pbw``, within ``pbw.PBW_COMPARISON_BUDGET``."""
    check_group(r, p, n)
    for perm in itertools.permutations(range(n)):
        for col in itertools.product(range(r), repeat=n):
            if sum(col) % p == 0:
                yield GroupElement(r, perm, col)
