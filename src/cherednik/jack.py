"""Compositions, the triangularity order, weights, and the eigenbasis.

A composition mu in Z_{>=0}^n, a plain tuple, indexes a monomial x^mu and a
simultaneous eigenvector f_mu = x^mu + (lower order terms) of the commuting
family (z_1..z_n, group part).  Two independent constructions are provided:

* :func:`jack_by_solve` -- back-substitution in the triangular system cut out
  by the z-operators inside one graded piece;
* :func:`jack_by_intertwiners` -- the raising/exchange recursion (Griffeth,
  *Orthogonal functions generalizing Jack polynomials*, Trans. AMS 362,
  2010; see :mod:`cherednik.intertwiners`).  Each nonzero mu has one
  predecessor, so the recursion walks one chain down to 0.

Both return monic :class:`JackVector` objects and agree wherever both are
defined.  Indices are 0-based; permutation values are 0-based as well, so the
eigenvalue formula (``params.z_eigenvalue``) reads
kappa(mu_i + 1) - (d_0 - d_{-mu_i-1}) - r*v[i]*c0
with v[i] = #{j<i : mu_j < mu_i} + #{j>i : mu_j <= mu_i}.
"""

from __future__ import annotations

from math import comb

from .operators import PolyRep, monomials_of_degree
from .polynomials import Poly
from .value import Value

__all__ = [
    "Weight", "JackVector", "NonGenericError",
    "v_permutation", "bruhat_le", "bruhat_lt", "dominance_lt", "order_lt",
    "order_key", "weight_of",
    "jack_by_solve", "jack_by_intertwiners", "require_jack_budget",
]

# the most monomials of degree |mu| one composition may have, C(|mu|+n-1,
# n-1): for r = 1 these are the candidates jack_by_solve enumerates, for
# r > 1 a bound on them.  G(1,1,3) at |mu| = 60 has 1,891 and takes about
# 5 s with --check-both, at |mu| = 98 4,950 and about 97 s.
JACK_MONOMIAL_BUDGET = 2_000
# G(1,1,2) --check-both: (52,0) estimates 59,617,792, 3.5 s; (60,0) 6.5 s
JACK_WORK_BUDGET = 60_000_000


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
    rearrangement (0-based values)."""
    return _order_data(mu)[1]


def _order_data(mu) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """What the triangularity order compares of mu: its partition
    rearrangement and its sorting permutation v, from one sort.

    v[i] = #{j : mu_j < mu_i} + #{j > i : mu_j = mu_i}, the closed formula
    of the module docstring regrouped, is i's position when the slots are
    sorted by (mu_j, -j): equal entries go right to left.  Read backwards,
    that order lists the partition.
    """
    mu = tuple(mu)
    slots = sorted(range(len(mu)), key=lambda j: (mu[j], -j))
    v = [0] * len(mu)
    for pos, j in enumerate(slots):
        v[j] = pos
    return tuple(mu[j] for j in reversed(slots)), tuple(v)


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


def _data_lt(a, b) -> bool:
    """order_lt on two :func:`_order_data` values."""
    if a[0] != b[0]:
        return dominance_lt(a[0], b[0])
    return bruhat_lt(a[1], b[1])


def _data_key(data, mu) -> tuple:
    """order_key from mu's :func:`_order_data`.  The inversions of the
    sorting permutation v are read off mu: for i < j, v[i] > v[j] exactly
    when mu_i >= mu_j."""
    n = len(mu)
    inversions = sum(mu[i] >= mu[j] for i in range(n) for j in range(i + 1, n))
    return data[0], inversions, mu


def order_lt(lam, mu) -> bool:
    """The triangularity order: dominance on the partition rearrangements,
    ties broken by Bruhat order on the sorting permutations."""
    lam, mu = tuple(lam), tuple(mu)
    if len(lam) != len(mu):
        raise ValueError("compositions must have equal length")
    return _data_lt(_order_data(lam), _order_data(mu))


def order_key(mu) -> tuple:
    """A sort key that refines the triangularity order: order_lt(a, b)
    implies order_key(a) < order_key(b).

    Strict dominance makes the partition rearrangement lexicographically
    smaller, and a strictly smaller permutation in Bruhat order has fewer
    inversions; mu itself breaks the remaining ties.
    """
    mu = tuple(mu)
    return _data_key(_order_data(mu), mu)


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------


class Weight(Value):
    """The character of the commuting family on f_mu.

    ``zvals[i]`` is the z_i eigenvalue; ``zeta_exps[i] = -mu_i mod r`` records
    the diagonal group action.  Weights compare with ``==``, field by field.
    """

    zvals: tuple
    zeta_exps: tuple[int, ...]

    def swap(self, i: int) -> "Weight":
        z = list(self.zvals)
        e = list(self.zeta_exps)
        z[i], z[i + 1] = z[i + 1], z[i]
        e[i], e[i + 1] = e[i + 1], e[i]
        return Weight(tuple(z), tuple(e))

    def to_json(self) -> dict:
        return {"z": [str(v) for v in self.zvals],
                "zeta": list(self.zeta_exps)}


def weight_of(mu, params) -> Weight:
    """kappa(mu_i+1) - (d_0 - d_{-mu_i-1}) - r v[i] c0 on z_i; zeta^{-mu_i}
    on the i-th diagonal generator."""
    mu = tuple(mu)
    return _weight(mu, v_permutation(mu), params)


def _weight(mu, v, params) -> Weight:
    return Weight(tuple(params.z_eigenvalue(m, v[i])
                        for i, m in enumerate(mu)),
                  tuple((-m) % params.r for m in mu))


# ---------------------------------------------------------------------------
# the eigenbasis
# ---------------------------------------------------------------------------


class JackVector(Value):
    """A monic simultaneous eigenvector f_mu = x^mu + lower order terms."""

    mu: tuple[int, ...]
    poly: Poly
    weight: Weight

    def to_json(self) -> dict:
        return {"mu": list(self.mu), "weight": self.weight.to_json(),
                "terms": self.poly.to_json()["terms"]}


def require_jack_budget(n: int, mu, r: int = 1, generic: bool = True) -> int:
    """C(|mu|+n-1, n-1), the monomials of degree |mu|; a ValueError when
    that is over ``JACK_MONOMIAL_BUDGET`` or, at generic parameters, the
    work estimate C(E+n-1, n-1) (nD)^3 is over ``JACK_WORK_BUDGET``
    (README, Command line).  E = (|mu| - n min mu) // r bounds the terms of
    f_mu, whose x^nu have nu_i >= min mu and nu = mu mod r, and
    D = (max mu - min mu) // r grows with the parameter degree of its
    coefficients.  :func:`jack_by_solve` enumerates the
    C((|mu| - |rho|)/r + n-1, n-1) compositions on mu's lattice
    rho + r Z^n, rho = mu mod r, so for r > 1 the monomial count is only an
    upper bound on its candidates.  ``gordon``'s
    solve over k e_n checks ``reptheory.GORDON_MONOMIAL_BUDGET`` instead
    (G(2,1,6) has 8,568 monomials of degree 13 and enumerates 462,
    G(2,1,7) 54,264 and 1,716)."""
    deg, low = sum(mu), min(mu)
    count = comb(deg + n - 1, n - 1)
    if count > JACK_MONOMIAL_BUDGET:
        raise ValueError(
            f"f_mu for mu={tuple(mu)} has {count:,} monomials of degree "
            f"{deg} in {n} variables, over the budget of "
            f"{JACK_MONOMIAL_BUDGET:,}")
    e, d = (deg - n * low) // r, (max(mu) - low) // r
    work = comb(e + n - 1, n - 1) * (n * d) ** 3
    if generic and work > JACK_WORK_BUDGET:
        raise ValueError(
            f"f_mu for mu={tuple(mu)} has the work estimate "
            f"C(E+n-1, n-1) (nD)^3 = {work:,} with E = {e}, D = {d}, "
            f"n = {n}, over the budget of {JACK_WORK_BUDGET:,}")
    return count


def _candidates_desc(mu, mu_data, r: int) -> list:
    """(nu, v_permutation(nu)) for every nu = mu mod r of degree |mu|
    below mu, in decreasing ``order_key``.

    nu = rho + r lam with rho = mu mod r slot by slot, and lam runs over
    the compositions of (|mu| - |rho|)/r: C((|mu| - |rho|)/r + n - 1, n - 1)
    lattice points, not every monomial of degree |mu|.  Dominance on the
    partition rearrangement rejects most of them before their sorting
    permutation is built.
    """
    rho = tuple(m % r for m in mu)
    top, v_mu = mu_data
    out = []
    for lam in monomials_of_degree(len(mu), (sum(mu) - sum(rho)) // r):
        nu = tuple(a + r * b for a, b in zip(rho, lam))
        part = tuple(sorted(nu, reverse=True))
        if part == top or dominance_lt(part, top):
            v = v_permutation(nu)
            if part != top or bruhat_lt(v, v_mu):
                out.append((_data_key((part, v), nu), nu, v))
    out.sort(reverse=True)
    return [(nu, v) for _, nu, v in out]


def jack_by_solve(rep: PolyRep, mu) -> JackVector:
    """Construct f_mu by back-substitution in one graded piece.

    Within span{x^nu : |nu| = |mu|, nu below mu, nu = mu mod r} the
    z-operators are triangular; visiting nu in decreasing order determines
    each coefficient from the already-known ones.  At a specialized point a
    collision wt(nu) = wt(mu) raises :class:`NonGenericError` naming nu.

    The candidates are the nu = mu mod r; when p > 1 some zeta-compatible
    nu are not.  Let T be the diagonal subgroup of G(r,1,n).  Conjugation by
    t in T keeps the parameter of every reflection of G(r,p,n): it permutes
    the colored transpositions, which all carry c0, and fixes the diagonal
    reflections.  So t y_i t^{-1} is a multiple of y_i, and y_i x_i, the
    class sums phi_i and every z_i commute with T.  T acts on x^nu by the
    character nu mod r, so each z_i keeps the span of the x^nu with
    nu = mu mod r, and f_mu lies in it: any other candidate would get
    coefficient zero.  They are enumerated on that lattice
    (:func:`_candidates_desc`), each with its sorting permutation, which
    serves the order test, the sort key and the pivot.

    The pivot of nu is the first i with z_i(mu) != z_i(nu); z_i(nu) depends
    on nu only through (nu_i, v_nu[i]), so one table per call, keyed by
    (i, nu_i, v_nu[i]), holds 1/(z_i(mu) - z_i(nu)), or None where the
    difference vanishes.  c_nu is the residual times that inverse; a zero
    residual leaves x^nu out.
    """
    mu = tuple(int(v) for v in mu)
    if len(mu) != rep.n or any(v < 0 for v in mu):
        raise ValueError(f"bad composition {mu} for rank {rep.n}")
    params = rep.params
    mu_data = _order_data(mu)
    v_mu = mu_data[1]
    wt = _weight(mu, v_mu, params)
    inverses: dict[tuple[int, int, int], object] = {}
    coeffs: dict[tuple[int, ...], object] = {mu: params.one}
    for nu, v_nu in _candidates_desc(mu, mu_data, rep.r):
        for i, z in enumerate(wt.zvals):
            if nu[i] == mu[i] and v_nu[i] == v_mu[i]:
                continue
            key = (i, nu[i], v_nu[i])
            if key not in inverses:
                diff = z - params.z_eigenvalue(nu[i], v_nu[i])
                inverses[key] = diff.inverse() if diff else None
            inv = inverses[key]
            if inv is not None:
                break
        else:
            raise NonGenericError(mu, nu)
        resid = params.dot(
            (c_eta, hit) for eta, c_eta in coeffs.items()
            if (hit := rep.z_monomial(i, eta).terms.get(nu)) is not None)
        if resid:
            coeffs[nu] = resid * inv
    return JackVector(mu, Poly(rep.n, coeffs), wt)


def _predecessor(mu) -> tuple[tuple[int, ...], int | None]:
    """(nu, i) with f_mu = sigma_i f_nu, or with i None when f_mu is the
    raising operator on f_nu; mu must be nonzero.

    Raising when mu_n >= 1, from (mu_n - 1, mu_1, ..., mu_{n-1}); otherwise
    the exchange at the smallest descent mu_i > mu_{i+1}, from mu with those
    two entries swapped, where sigma_i has unit coefficient.
    """
    if mu[-1] >= 1:
        return (mu[-1] - 1,) + mu[:-1], None
    i = next(i for i in range(len(mu) - 1) if mu[i] > mu[i + 1])
    return mu[:i] + (mu[i + 1], mu[i]) + mu[i + 2:], i


def jack_by_intertwiners(rep: PolyRep, mu) -> JackVector:
    """Construct f_mu by the raising/exchange recursion.

    f_0 = 1, and every other f_mu is one operator applied to the vector of
    its :func:`_predecessor`.  The walk goes down that chain to the first
    vector in ``rep.jack_cache`` (or to 0), then applies the operators going
    up and memoizes each vector it builds.
    """
    from .intertwiners import (
        SingularIntertwinerError, apply_phi, apply_sigma,
    )

    mu = tuple(int(v) for v in mu)
    if len(mu) != rep.n or any(v < 0 for v in mu):
        raise ValueError(f"bad composition {mu} for rank {rep.n}")
    memo = rep.jack_cache
    chain = []
    cur = mu
    while cur not in memo:
        if not any(cur):
            memo[cur] = JackVector(cur, Poly.monomial(cur, rep.params.one),
                                   weight_of(cur, rep.params))
            break
        prev, i = _predecessor(cur)
        chain.append((cur, i))
        cur = prev
    for nxt, i in reversed(chain):
        if i is None:
            memo[nxt] = apply_phi(rep, memo[cur])
        else:
            try:
                res = apply_sigma(rep, i, memo[cur])
            except SingularIntertwinerError as exc:
                raise NonGenericError(nxt, cur, str(exc)) from exc
            if res.vector is None:
                raise NonGenericError(nxt, cur,
                                      "vanishing intertwiner coefficient")
            memo[nxt] = res.vector
        cur = nxt
    return memo[mu]
