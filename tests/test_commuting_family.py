"""The commuting family: z-operators against the group generators.

These are the operator identities that make the exchange operators work:
z_i commutes with the diagonal elements and with distant transpositions,
and braids past the adjacent transposition up to the class-sum correction

    z_i t_{s_i} = t_{s_i} z_{i+1} - c0 * pi_i,
    pi_i = sum_l t_{(diagonal l at i)(diagonal -l at i+1)}.
"""

from cherednik import GroupElement, Poly, PolyRep
from cherednik.operators import monomials_up_to


def epsilon(rep, i: int, j: int, f: Poly) -> Poly:
    """The primitive idempotent (1/r) sum_l zeta^{-lj} t_{diag(i,l)} of the
    cyclic reflection subgroup at slot i: it keeps the monomials whose i-th
    exponent is congruent to -j mod r."""
    return Poly(rep.n, {e: c for e, c in f.terms.items()
                        if (e[i] + j) % rep.r == 0})


def _pi(rep, i, f):
    out = Poly.zero(rep.n)
    for l in range(rep.r):
        w = GroupElement.diagonal(rep.r, rep.n, i, l) \
            * GroupElement.diagonal(rep.r, rep.n, i + 1, -l)
        out = out + rep.t(w, f)
    return out


def test_z_commutes_with_diagonals():
    for (r, p, n) in [(2, 1, 2), (3, 1, 3), (4, 2, 2)]:
        rep = PolyRep(r, p, n)
        for mu in monomials_up_to(n, 3):
            f = Poly.monomial(mu, rep.params.one)
            for i in range(n):
                for j in range(n):
                    w = GroupElement.diagonal(r, n, j, 1)
                    assert rep.z(i, rep.t(w, f)) == rep.t(w, rep.z(i, f))


def test_z_commutes_with_distant_transpositions():
    rep = PolyRep(2, 1, 3)
    s23 = GroupElement.transposition(2, 3, 1, 2)
    for mu in monomials_up_to(3, 3):
        f = Poly.monomial(mu, rep.params.one)
        # z_1 (0-based z(0)) commutes with s_2 = (2 3)
        assert rep.z(0, rep.t(s23, f)) == rep.t(s23, rep.z(0, f))


def test_z_exchange_past_adjacent_transposition():
    for (r, p, n) in [(2, 1, 2), (3, 1, 2), (2, 1, 3), (4, 2, 2)]:
        rep = PolyRep(r, p, n)
        c0 = rep.params.c0
        for i in range(n - 1):
            si = GroupElement.transposition(r, n, i, i + 1)
            for mu in monomials_up_to(n, 3):
                f = Poly.monomial(mu, rep.params.one)
                lhs = rep.z(i, rep.t(si, f))
                rhs = rep.t(si, rep.z(i + 1, f)) - _pi(rep, i, f).scaled(c0)
                assert lhs == rhs, (r, p, n, i, mu)


def test_pi_acts_by_scalar_on_congruent_monomials():
    rep = PolyRep(3, 1, 2)
    for mu in monomials_up_to(2, 4):
        f = Poly.monomial(mu, rep.params.one)
        expected = f.scaled(rep.params.rational(3)) \
            if (mu[0] - mu[1]) % 3 == 0 else Poly.zero(2)
        assert _pi(rep, 0, f) == expected


def test_epsilon_idempotents_resolve_identity():
    rep = PolyRep(4, 1, 2)
    for mu in monomials_up_to(2, 3):
        f = Poly.monomial(mu, rep.params.one)
        # sum_j eps_{ij} = 1 and eps are orthogonal projections
        total = Poly.zero(2)
        for j in range(4):
            ej = epsilon(rep, 0, j, f)
            assert epsilon(rep, 0, j, ej) == ej
            for jj in range(4):
                if jj != j:
                    assert epsilon(rep, 0, jj, ej).is_zero()
            total = total + ej
        assert total == f
        # literal group-average realization agrees
        for j in range(4):
            avg = Poly.zero(2)
            for l in range(4):
                w = GroupElement.diagonal(4, 2, 0, l)
                avg = avg + rep.t(w, f).scaled(
                    rep.params.zeta(-l * j) * rep.params.rational(1, 4))
            assert avg == epsilon(rep, 0, j, f)


def test_same_slot_relation_in_d_form():
    # y_i x_i - x_i y_i = kappa - sum_j (d_j - d_{j-1}) eps_{ij} - c0 * (sums)
    for (r, p, n) in [(2, 1, 2), (3, 1, 2), (4, 2, 2)]:
        rep = PolyRep(r, p, n)
        par = rep.params
        for mu in monomials_up_to(n, 3):
            f = Poly.monomial(mu, par.one)
            for i in range(n):
                lhs = rep.dunkl(i, rep.x(i, f)) - rep.x(i, rep.dunkl(i, f))
                rhs = f.scaled(par.kappa)
                for j in range(r):
                    rhs = rhs - epsilon(rep, i, j, f).scaled(
                        par.d(j) - par.d(j - 1))
                for jj in range(n):
                    if jj == i:
                        continue
                    for l in range(r):
                        w = (GroupElement.diagonal(r, n, i, l)
                             * GroupElement.transposition(r, n, i, jj)
                             * GroupElement.diagonal(r, n, i, -l))
                        rhs = rhs - rep.t(w, f).scaled(par.c0)
                assert lhs == rhs, (r, p, n, i, mu)
