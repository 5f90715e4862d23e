"""Exchange and raising/lowering operators on the eigenbasis.

On a simultaneous eigenvector with weight w the exchange operator at slot i
acts as t_{s_i} + q, q = c0 * pi_i / (w(z_i) - w(z_{i+1})), where the class
sum pi_i acts by the scalar r (if mu_i = mu_{i+1} mod r) or 0, and its
square acts by 1 - q^2 (Griffeth, *Orthogonal functions generalizing Jack
polynomials*, Trans. AMS 362, 2010).  ``_exchange_q`` is the one definition
of q, for the operator and for the check of its square.  The raising operator
is multiplication by x_n after the long cycle; the lowering operator is the
first Dunkl operator after the inverse cycle.  All applications here are raw
operator applications to the polynomial; the closed-form scalars from the
eigenbasis theory are verified against them in the test suite, not assumed.

Exchange at equal neighbouring entries returns zero by convention (the raw
formula is singular there); a vanishing denominator with a nonzero class-sum
action at a specialized point raises :class:`SingularIntertwinerError`.

Each exchange image is built once per representation: ``apply_sigma``
keeps it in ``PolyRep.sigma_cache`` with its input, next to the
eigenvectors of ``jack_cache``.  The quadratic check applies sigma_i to
f_mu and to the image, and the grid it walks is closed under s_i, so each
image is asked for twice; the construction of the eigenvectors fills the
same memo.
"""

from __future__ import annotations

from .groups import GroupElement
from .jack import JackVector, NonGenericError, v_permutation, weight_of
from .operators import PolyRep
from .polynomials import Poly
from .value import Value

__all__ = [
    "Scaled", "SingularIntertwinerError", "apply_sigma", "apply_phi",
    "apply_psi", "phi_on_poly", "psi_on_poly", "psi_scalar",
    "phi_psi_scalar", "verify_braid_and_quadratic",
]


class SingularIntertwinerError(ArithmeticError):
    """sigma_i hit a vanishing denominator with a nonzero class-sum action."""


class Scaled(Value):
    """scalar * (monic eigenvector); vector is None exactly for zero."""

    scalar: object
    vector: JackVector | None

    def is_zero(self) -> bool:
        return self.vector is None


def _exchange_q(rep: PolyRep, jv: JackVector, i: int):
    """q, the scalar by which the class-sum term c0 pi_i / (z_i - z_{i+1})
    of sigma_i acts on f_mu; sigma_i^2 acts by 1 - q^2.

    pi_i acts by r if mu_i = mu_{i+1} mod r and by 0 otherwise, and then q
    is None.  A vanishing weight difference where pi_i acts by r raises
    :class:`SingularIntertwinerError`.
    """
    mu = jv.mu
    if (mu[i] - mu[i + 1]) % rep.r:
        return None
    delta = jv.weight.zvals[i] - jv.weight.zvals[i + 1]
    if not delta:
        raise SingularIntertwinerError(
            f"sigma_{i + 1} singular on f_{mu}: weight difference "
            f"vanishes while the class sum acts by {rep.r}")
    params = rep.params
    return params.c0 * params.rational(rep.r) / delta


def apply_sigma(rep: PolyRep, i: int, jv: JackVector, *,
                fault_pi_sign: bool = False) -> Scaled:
    """Apply the exchange operator at slot i (0-based) to an eigenvector.

    The image is memoized in ``rep.sigma_cache`` under (i, mu,
    fault_pi_sign) together with its input, and served again only for
    that input or an equal one (the same mu, poly and weight).  A raised
    error is not stored.
    """
    if not 0 <= i < rep.n - 1:
        raise ValueError(f"exchange slot {i} out of range")
    key = (i, jv.mu, fault_pi_sign)
    got = rep.sigma_cache.get(key)
    if got is not None and (got[0] is jv or got[0] == jv):
        return got[1]
    out = _sigma_image(rep, i, jv, fault_pi_sign)
    rep.sigma_cache[key] = (jv, out)
    return out


def _sigma_image(rep: PolyRep, i: int, jv: JackVector,
                 fault_pi_sign: bool) -> Scaled:
    """sigma_i f_mu as built by :func:`apply_sigma`, with no memo."""
    mu = jv.mu
    params = rep.params
    if mu[i] == mu[i + 1]:
        return Scaled(params.zero, None)
    q = _exchange_q(rep, jv, i)
    si = GroupElement.transposition(rep.r, rep.n, i, i + 1)
    out = rep.t(si, jv.poly)
    if q is not None:
        out = _plus_scaled(params, out, -q if fault_pi_sign else q, jv.poly)
    if out.is_zero():
        return Scaled(params.zero, None)
    smu = mu[:i] + (mu[i + 1], mu[i]) + mu[i + 2:]
    return _as_scaled_eigenvector(params, out, smu,
                                  f"sigma_{i + 1} output on f_{mu}")


def _plus_scaled(params, g: Poly, s, f: Poly) -> Poly:
    """g + s f; a coefficient that both have is one ``params.dot``."""
    out = dict(g.terms)
    for e, c in f.terms.items():
        got = out.get(e)
        v = s * c if got is None else params.dot(((params.one, got), (s, c)))
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return Poly(g.n, out)


def _as_scaled_eigenvector(params, poly: Poly, nu, what: str) -> Scaled:
    """poly as its coefficient at x^nu times the monic eigenvector over nu;
    ``what`` names poly in the error when that coefficient is zero."""
    lead = poly.coeff(nu)
    if not lead:
        raise SingularIntertwinerError(f"{what} has no x^{nu} term")
    monic = poly if lead == params.one else poly.scaled(params.one / lead)
    return Scaled(lead, JackVector(nu, monic, weight_of(nu, params)))


def _long_cycle_down(rep: PolyRep) -> GroupElement:
    """s_{n-1} ... s_1 as a group element: slot 0 -> n-1, slot k -> k-1."""
    n = rep.n
    perm = tuple([n - 1] + list(range(n - 1)))
    return GroupElement.from_perm_col(rep.r, perm, (0,) * n)


def phi_on_poly(rep: PolyRep, f: Poly) -> Poly:
    """The raising operator x_n t_{s_{n-1}...s_1} on any polynomial."""
    return rep.x(rep.n - 1, rep.t(_long_cycle_down(rep), f))


def psi_on_poly(rep: PolyRep, f: Poly) -> Poly:
    """The lowering operator y_1 t_{s_1...s_{n-1}} on any polynomial."""
    return rep.dunkl(0, rep.t(_long_cycle_down(rep).inverse(), f))


def apply_phi(rep: PolyRep, jv: JackVector) -> JackVector:
    """The raising operator applied to an eigenvector; the image is the
    monic f over (mu_2, ..., mu_n, mu_1 + 1) with coefficient one."""
    poly = phi_on_poly(rep, jv.poly)
    phimu = jv.mu[1:] + (jv.mu[0] + 1,)
    return JackVector(phimu, poly, weight_of(phimu, rep.params))


def psi_scalar(rep: PolyRep, mu):
    """kappa mu_n - (d_0 - d_{-mu_n}) - c0 r (v_mu(n)-1): the lowering
    coefficient, the z_n eigenvalue formula at mu_n - 1; it vanishes
    exactly on singular vectors."""
    return rep.params.z_eigenvalue(mu[-1] - 1, v_permutation(mu)[-1])


def apply_psi(rep: PolyRep, jv: JackVector) -> Scaled:
    """The lowering operator on an eigenvector: zero iff mu_n = 0 or the
    lowering coefficient vanishes; otherwise that scalar times the monic f
    over (mu_n - 1, mu_1, ..., mu_{n-1})."""
    params = rep.params
    mu = jv.mu
    poly = psi_on_poly(rep, jv.poly)
    if mu[-1] == 0:
        if not poly.is_zero():
            raise AssertionError("lowering operator failed to annihilate")
        return Scaled(params.zero, None)
    if poly.is_zero():
        return Scaled(params.zero, None)
    return _as_scaled_eigenvector(params, poly, (mu[-1] - 1,) + mu[:-1],
                                  f"lowering output on f_{mu}")


def phi_psi_scalar(rep: PolyRep, jv: JackVector):
    """Closed-form scalar of (raise after lower) on f_mu:
    w(z_n) - kappa + d_{-mu_n} - d_{-mu_n-1}.

    The composite equals x_n y_n, so the cyclic-subgroup idempotents act at
    the last slot; on f_mu they pick out the residue -mu_n mod r.
    """
    params = rep.params
    j = -jv.mu[-1]
    return jv.weight.zvals[-1] - params.kappa + params.d(j) - params.d(j - 1)


def verify_braid_and_quadratic(rep: PolyRep, mus, *,
                               fault_pi_sign: bool = False) -> dict:
    """On each grid eigenvector check the quadratic relation
    sigma_i^2 = 1 - (c0 pi_i / (z_i - z_{i+1}))^2 and the z-exchange
    wt(sigma_i v) = s_i . wt(v), as exact scalars.  A sigma_i or a sigma_i^2
    that vanishes where that square is 0, or a sigma_i whose weight
    difference vanishes while pi_i does not, marks a non-generic point:
    NonGenericError."""
    from .jack import jack_by_intertwiners

    params = rep.params
    checked = 0
    for mu in mus:
        mu = tuple(mu)
        jv = jack_by_intertwiners(rep, mu)
        for i in range(rep.n - 1):
            if mu[i] == mu[i + 1]:
                res = apply_sigma(rep, i, jv, fault_pi_sign=fault_pi_sign)
                if not res.is_zero():
                    return {"status": "fail", "identity": "sigma on equal entries",
                            "mu": list(mu), "i": i}
                checked += 1
                continue
            nu = mu[:i] + (mu[i + 1], mu[i]) + mu[i + 2:]
            try:
                res1 = apply_sigma(rep, i, jv, fault_pi_sign=fault_pi_sign)
            except SingularIntertwinerError as exc:
                raise NonGenericError(mu, nu, str(exc)) from exc
            q = _exchange_q(rep, jv, i)
            predicted = params.one if q is None else params.one - q * q
            if res1.vector is None:
                if not predicted:
                    raise NonGenericError(
                        mu, nu, f"sigma_{i + 1} and its square "
                        f"1 - (c0 pi_{i + 1}/delta)^2 both vanish")
                return {"status": "fail", "identity": "sigma vanished",
                        "mu": list(mu), "i": i}
            if res1.vector.weight != jv.weight.swap(i):
                return {"status": "fail", "identity": "z-exchange",
                        "mu": list(mu), "i": i}
            # raw eigen-equation on the image
            zi = rep.z(i, res1.vector.poly)
            if zi != res1.vector.poly.scaled(res1.vector.weight.zvals[i]):
                return {"status": "fail", "identity": "image eigenvector",
                        "mu": list(mu), "i": i}
            res2 = apply_sigma(rep, i, res1.vector,
                               fault_pi_sign=fault_pi_sign)
            if res2.vector is None and not predicted:
                raise NonGenericError(
                    mu, nu, f"the square of sigma_{i + 1} and "
                    f"1 - (c0 pi_{i + 1}/delta)^2 both vanish")
            square = res1.scalar * res2.scalar
            if square != predicted or res2.vector is None \
                    or res2.vector.poly != jv.poly:
                return {"status": "fail", "identity": "sigma squared",
                        "mu": list(mu), "i": i,
                        "got": str(square), "expected": str(predicted)}
            checked += 1
    return {"status": "pass", "group": [rep.r, rep.p, rep.n],
            "checked": checked}
