"""Compositions, the triangularity order, weights, and the eigenbasis.

A composition mu in Z_{>=0}^n indexes a monomial x^mu and a simultaneous
eigenvector f_mu = x^mu + (lower order terms) of the commuting family
(z_1..z_n, group part).  Two independent constructions are provided:

* :func:`jack_by_solve` -- back-substitution in the triangular system cut out
  by the z-operators inside one graded piece;
* :func:`jack_by_intertwiners` -- recursion on raising/exchange operators
  (see :mod:`cherednik.intertwiners`).

Both return monic :class:`JackVector` objects and agree wherever both are
defined.  Indices are 0-based; permutation values are 0-based as well, so the
eigenvalue formula reads kappa(mu_i + 1) - (d_0 - d_{-mu_i-1}) - r*v[i]*c0
with v[i] = #{j<i : mu_j < mu_i} + #{j>i : mu_j <= mu_i}.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb

from .operators import PolyRep, monomials_of_degree
from .polynomials import Poly

__all__ = [
    "Composition", "Weight", "JackVector", "NonGenericError",
    "v_permutation", "bruhat_le", "bruhat_lt", "dominance_lt", "order_lt",
    "order_key", "weight_of", "z_eigenvalue", "zeta_compatible",
    "jack_by_solve", "jack_by_intertwiners", "require_jack_budget",
]

# the most monomials jack_by_solve may scan for one composition: G(1,1,3)
# at |mu| = 60 scans 1,891 and takes about 5 s with --check-both, at
# |mu| = 98 4,950 and about 97 s.  The count does not bound the scalar
# work, which grows with |mu| too: G(1,1,2) at |mu| = 599 scans 600 and
# ran for over 2 minutes.
JACK_MONOMIAL_BUDGET = 2_000


class NonGenericError(ValueError):
    """Eigenvalue collision or vanishing intertwiner at a specialized point."""

    def __init__(self, mu, nu, detail: str = "eigenvalue collision"):
        self.mu = tuple(mu)
        self.nu = tuple(nu) if nu is not None else None
        msg = f"{detail} for mu={self.mu}"
        if self.nu is not None:
            msg += f" against nu={self.nu}"
        super().__init__(msg)


# ---------------------------------------------------------------------------
# combinatorics of compositions
# ---------------------------------------------------------------------------


def v_permutation(mu) -> tuple[int, ...]:
    """The maximal-length permutation sorting mu to its nondecreasing
    rearrangement, by the closed formula (0-based values)."""
    mu = tuple(mu)
    n = len(mu)
    return tuple(
        sum(1 for j in range(i) if mu[j] < mu[i])
        + sum(1 for j in range(i + 1, n) if mu[j] <= mu[i])
        for i in range(n))


def bruhat_le(u, w) -> bool:
    """Bruhat order via the rank-matrix (Ehresmann) criterion."""
    n = len(u)
    for i in range(n - 1):
        cu = cw = 0
        for j in range(n - 1, 0, -1):
            cu += sum(1 for k in range(i + 1) if u[k] == j)
            cw += sum(1 for k in range(i + 1) if w[k] == j)
            if cu > cw:
                return False
    return True


def bruhat_lt(u, w) -> bool:
    return tuple(u) != tuple(w) and bruhat_le(u, w)


def dominance_lt(lam, mu) -> bool:
    """Strict dominance on equal-size vectors (compared as given)."""
    if sum(lam) != sum(mu) or tuple(lam) == tuple(mu):
        return False
    a = b = 0
    for x, y in zip(lam, mu):
        a += x
        b += y
        if a > b:
            return False
    return True


def order_lt(lam, mu) -> bool:
    """The triangularity order: dominance on the partition rearrangements,
    ties broken by Bruhat order on the sorting permutations."""
    lam, mu = tuple(lam), tuple(mu)
    if len(lam) != len(mu):
        raise ValueError("compositions must have equal length")
    lp = tuple(sorted(lam, reverse=True))
    mp = tuple(sorted(mu, reverse=True))
    if lp != mp:
        return dominance_lt(lp, mp)
    return bruhat_lt(v_permutation(lam), v_permutation(mu))


def order_key(mu) -> tuple:
    """A sort key that refines the triangularity order: order_lt(a, b)
    implies order_key(a) < order_key(b).

    Strict dominance makes the partition rearrangement lexicographically
    smaller, and a strictly smaller permutation in Bruhat order has fewer
    inversions; mu itself breaks the remaining ties.
    """
    mu = tuple(mu)
    v = v_permutation(mu)
    inversions = sum(1 for i in range(len(v)) for j in range(i + 1, len(v))
                     if v[i] > v[j])
    return tuple(sorted(mu, reverse=True)), inversions, mu


@dataclass(frozen=True)
class Composition:
    """A composition with its cached combinatorial companions."""

    entries: tuple[int, ...]

    def __post_init__(self):
        if any(e < 0 for e in self.entries):
            raise ValueError("composition entries must be nonnegative")

    @cached_property
    def plus(self) -> tuple[int, ...]:
        return tuple(sorted(self.entries, reverse=True))

    @cached_property
    def minus(self) -> tuple[int, ...]:
        return tuple(sorted(self.entries))

    @cached_property
    def v(self) -> tuple[int, ...]:
        return v_permutation(self.entries)

    def size(self) -> int:
        return sum(self.entries)

    def __lt__(self, other: "Composition") -> bool:
        return order_lt(self.entries, other.entries)

    def __str__(self):
        return "(" + ",".join(map(str, self.entries)) + ")"


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Weight:
    """The character of the commuting family on f_mu.

    ``zvals[i]`` is the z_i eigenvalue; ``zeta_exps[i] = -mu_i mod r`` records
    the diagonal group action.  For G(r,p,n) with p > 1 the group part only
    sees zeta_exps mod r/p together with consecutive differences mod r, which
    is what :meth:`t_equal` compares.
    """

    r: int
    p: int
    zvals: tuple
    zeta_exps: tuple[int, ...]

    def t_equal(self, other: "Weight") -> bool:
        return (self.r == other.r and self.p == other.p
                and self.zvals == other.zvals
                and zeta_compatible(self.zeta_exps, other.zeta_exps,
                                    self.r, self.p))

    def swap(self, i: int) -> "Weight":
        z = list(self.zvals)
        e = list(self.zeta_exps)
        z[i], z[i + 1] = z[i + 1], z[i]
        e[i], e[i + 1] = e[i + 1], e[i]
        return Weight(self.r, self.p, tuple(z), tuple(e))

    def to_json(self) -> dict:
        return {"z": [str(v) for v in self.zvals],
                "zeta": list(self.zeta_exps)}


def z_eigenvalue(params, m: int, v: int):
    """The z_i eigenvalue kappa(m+1) - (d_0 - d_{-m-1}) - r v c0 of a
    composition with mu_i = m and v[i] = v."""
    return params.kappa * params.rational(m + 1) \
        - (params.d(0) - params.d(-m - 1)) \
        - params.c0 * params.rational(params.r * v)


def weight_of(mu, params) -> Weight:
    """kappa(mu_i+1) - (d_0 - d_{-mu_i-1}) - r v[i] c0 on z_i; zeta^{-mu_i}
    on the i-th diagonal generator."""
    mu = tuple(mu)
    v = v_permutation(mu)
    return Weight(params.r, params.p,
                  tuple(z_eigenvalue(params, m, v[i])
                        for i, m in enumerate(mu)),
                  tuple((-m) % params.r for m in mu))


def zeta_compatible(nu, mu, r: int, p: int) -> bool:
    """Same diagonal-group character: needed for x^nu to appear in f_mu."""
    m = r // p
    if any((a - b) % m for a, b in zip(nu, mu)):
        return False
    return all(((nu[i] - nu[i + 1]) - (mu[i] - mu[i + 1])) % r == 0
               for i in range(len(mu) - 1))


# ---------------------------------------------------------------------------
# the eigenbasis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JackVector:
    """A monic simultaneous eigenvector f_mu = x^mu + lower order terms."""

    mu: tuple[int, ...]
    poly: Poly
    weight: Weight

    def to_json(self) -> dict:
        return {"mu": list(self.mu), "weight": self.weight.to_json(),
                "terms": self.poly.to_json()["terms"]}


def _linear_extension_desc(candidates: list[tuple[int, ...]]) -> list:
    """Order candidates so every element comes after all those above it."""
    return sorted(candidates, key=order_key, reverse=True)


def _pivot(params, mu, v_mu, zvals, nu):
    """The first (i, z_i(mu) - z_i(nu)) with a nonzero difference, or None.

    ``zvals`` are mu's eigenvalues; nu's are built one coordinate at a time,
    and a coordinate where (nu_i, v_nu[i]) equals (mu_i, v_mu[i]) has
    difference zero by the formula.
    """
    v_nu = v_permutation(nu)
    for i, z in enumerate(zvals):
        if nu[i] == mu[i] and v_nu[i] == v_mu[i]:
            continue
        diff = z - z_eigenvalue(params, nu[i], v_nu[i])
        if diff:
            return i, diff
    return None


def require_jack_budget(n: int, mu) -> int:
    """C(|mu|+n-1, n-1), the monomials of degree |mu| that
    :func:`jack_by_solve` scans; a ValueError when that is over
    ``JACK_MONOMIAL_BUDGET``.  The ``jack`` command checks it; ``gordon``'s
    singular-vector solve does not, since its one composition k e_n is
    fixed by the group (G(2,1,6) scans 8,568)."""
    deg = sum(mu)
    count = comb(deg + n - 1, n - 1)
    if count > JACK_MONOMIAL_BUDGET:
        raise ValueError(
            f"f_mu for mu={tuple(mu)} scans {count:,} monomials of degree "
            f"{deg} in {n} variables, over the budget of "
            f"{JACK_MONOMIAL_BUDGET:,}")
    return count


def jack_by_solve(rep: PolyRep, mu) -> JackVector:
    """Construct f_mu by back-substitution in one graded piece.

    Within span{x^nu : |nu| = |mu|, nu below mu, same diagonal character} the
    z-operators are triangular; visiting nu in decreasing order determines
    each coefficient from the already-known ones.  At a specialized point a
    collision wt(nu) = wt(mu) raises :class:`NonGenericError` naming nu.
    """
    mu = tuple(int(v) for v in mu)
    if len(mu) != rep.n or any(v < 0 for v in mu):
        raise ValueError(f"bad composition {mu} for rank {rep.n}")
    params = rep.params
    wt = weight_of(mu, params)
    deg = sum(mu)
    cands = [nu for nu in monomials_of_degree(rep.n, deg)
             if nu != mu and zeta_compatible(nu, mu, rep.r, rep.p)
             and order_lt(nu, mu)]
    v_mu = v_permutation(mu)
    coeffs: dict[tuple[int, ...], object] = {mu: params.one}
    for nu in _linear_extension_desc(cands):
        pivot = _pivot(params, mu, v_mu, wt.zvals, nu)
        if pivot is None:
            raise NonGenericError(mu, nu)
        i, diff = pivot
        resid = params.zero
        for eta, c_eta in coeffs.items():
            hit = rep.z_monomial(i, eta).terms.get(nu)
            if hit is not None:
                resid = resid + c_eta * hit
        c_nu = resid / diff
        if c_nu:
            coeffs[nu] = c_nu
    poly = Poly(rep.n, {e: c for e, c in coeffs.items() if c})
    return JackVector(mu, poly, wt)


def jack_by_intertwiners(rep: PolyRep, mu) -> JackVector:
    """Construct f_mu by the raising/exchange recursion.

    f_0 = 1; if mu_n >= 1 then f_mu is the raising operator applied to the
    vector over (mu_n - 1, mu_1, ..., mu_{n-1}); otherwise the exchange
    operator at the smallest descent is applied, which has unit coefficient
    on the increasing side.  Results are memoized per representation.
    """
    from .intertwiners import (
        SingularIntertwinerError, apply_phi, apply_sigma,
    )

    mu = tuple(int(v) for v in mu)
    if len(mu) != rep.n or any(v < 0 for v in mu):
        raise ValueError(f"bad composition {mu} for rank {rep.n}")
    memo = rep.jack_cache
    got = memo.get(mu)
    if got is not None:
        return got
    stack = [mu]
    while stack:
        cur = stack[-1]
        if cur in memo:
            stack.pop()
            continue
        if not any(cur):
            memo[cur] = JackVector(cur, Poly.monomial(cur, rep.params.one),
                                   weight_of(cur, rep.params))
            stack.pop()
            continue
        if cur[-1] >= 1:
            prev = (cur[-1] - 1,) + cur[:-1]
            if prev not in memo:
                stack.append(prev)
                continue
            memo[cur] = apply_phi(rep, memo[prev])
            stack.pop()
            continue
        i = next(i for i in range(rep.n - 1) if cur[i] > cur[i + 1])
        smu = list(cur)
        smu[i], smu[i + 1] = smu[i + 1], smu[i]
        smu = tuple(smu)
        if smu not in memo:
            stack.append(smu)
            continue
        try:
            res = apply_sigma(rep, i, memo[smu])
        except SingularIntertwinerError as exc:
            raise NonGenericError(cur, smu, str(exc)) from exc
        if res.vector is None:
            raise NonGenericError(cur, smu,
                                  "vanishing intertwiner coefficient")
        memo[cur] = res.vector
        stack.pop()
    return memo[mu]
