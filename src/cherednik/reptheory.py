"""Parameter loci and the finite-dimensional quotient at the Coxeter point.

With kappa = 1 the reducibility locus of the polynomial representation is cut
out by affine hyperplanes

    H_{j,k}:  d_0 - d_{-j} + r c_0 (n - k) = j      (j > 0, j != 0 mod r)
    H_x:      c_0 = x                               (x in (1/n) Z_{>0})

If the parameters lie on H_{k,1} and on no other hyperplane (and c_0 avoids
the union of (1/j) Z_{>0} for j <= n, which keeps the spectrum simple), the
radical of the polynomial representation is spanned by the eigenvectors f_mu
with some part of size >= k, the quotient has dimension k^n, and its graded
group character is det(1 - t^k w_V)/det(1 - t w) for V the span of the k-th
powers of the variables.  At the identity that is ((1 - t^k)/(1 - t))^n, so
the graded dimension of the quotient is one integer series
(:func:`l1_graded_dimension`).  The character at the other elements is
only summed here (the invariant part, below); the tests check it element
by element against a dense product oracle.  At
c_s = (h+1)/h (h the Coxeter number) this reproduces the diagonal
coinvariant quotient and the q-Catalan series
prod (1 - t^{h+d_i})/(1 - t^{d_i}).

The singular vectors f over k e_i come from one eigenvector solve: H_{k,1}
needs k != 0 mod r, so the class sum pi_i kills f over k e_{i+1} and the
exchange operator sigma_i is t_{s_i} there.  Their span is W-stable when
the stabilizer of slot n fixes the line of f = f over k e_n; its character
then equals that of V by a unitriangular comparison of leading terms; and
y_1 f and y_n f test annihilation (see :func:`singular_vector_check`).  The
invariant part of the character is summed by the cycle index of the wreath
product (see :func:`invariant_char_series`).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .cyclotomic import Cyc
from .groups import GroupElement, check_group
from .jack import jack_by_solve
from .operators import PolyRep
from .scalars import ParamPoint, SpecializedParameters
from .value import Value

__all__ = [
    "Hjk", "Hx", "coxeter_number", "degrees", "is_irreducible",
    "gordon_point", "on_hyperplane", "genericity_guard",
    "simple_spectrum_violations", "slot_n_stabilizer_generators",
    "singular_vector_check", "l1_graded_dimension",
    "invariant_char_series", "catalan_series", "coinvariant_series",
    "exponents_and_freeness", "require_gordon_budget",
    "require_truncation_budget",
]

# the largest truncation of the series `gordon` prints: at 20,000 it takes
# about 1.3 s on G(2,1,6) and 0.6 s on G(2,1,4), and prints 0.4 MB of JSON
TRUNCATION_BUDGET = 20_000
# the most monomials of degree k = h+1, C(k+n-1, n-1), for the solve over
# k e_n, which enumerates only the C((k - k mod r)/r + n-1, n-1) on its
# lattice.  Set when the solve scanned every monomial: G(2,1,7) 54,264 in
# 2.1 s, G(2,2,8) 170,544 in 6.0 s, G(2,1,8) 346,104 in 19 s; now they
# enumerate 1,716, 3,432 and 6,435.
GORDON_MONOMIAL_BUDGET = 100_000


# ---------------------------------------------------------------------------
# numerology of G(r,p,n)
# ---------------------------------------------------------------------------


def coxeter_number(r: int, p: int, n: int) -> int:
    """r(n-1) + r/p for p < r, r(n-1) for p = r; undefined at r = 1."""
    check_group(r, p, n)
    if r == 1:
        raise ValueError("the Coxeter number is only used for r > 1")
    return r * (n - 1) + (r // p if p < r else 0)


def degrees(r: int, p: int, n: int) -> list[int]:
    """Degrees of the basic invariants: r, 2r, .., (n-1)r, n*r/p (p < r)
    or r, 2r, .., (n-1)r, n (p = r)."""
    check_group(r, p, n)
    out = [i * r for i in range(1, n)]
    out.append(n * (r // p) if p < r else n)
    return sorted(out)


def is_irreducible(r: int, p: int, n: int) -> bool:
    """Whether G(r,p,n) acts irreducibly on C^n (standard classification)."""
    check_group(r, p, n)
    if n == 1:
        return r > p
    return r > 1 and (r, p, n) != (2, 2, 2)


def is_well_generated(r: int, p: int, n: int) -> bool:
    """Whether the Coxeter number is the largest degree (equivalently the
    group needs only n generating reflections); the q-Catalan identity is
    asserted only in this case."""
    return coxeter_number(r, p, n) == max(degrees(r, p, n))


def gordon_point(r: int, p: int, n: int) -> ParamPoint:
    """kappa = 1 and c_s = (h+1)/h for every reflection class; a
    ValueError on the trivial group G(r,r,1), where h = 0.

    With every c_l equal to c, d_j = c sum_{t=1}^{r/p-1} zeta^{tpj} is
    (r/p - 1) c for j = 0 and -c otherwise, so no ``Cyc`` product is
    needed (``ParamPoint.from_c`` makes (r/p)^2)."""
    h = coxeter_number(r, p, n)
    if h == 0:
        raise ValueError(f"G({r},{p},{n}) is the trivial group: h = 0, so "
                         "c = (h+1)/h is undefined")
    c = Fraction(h + 1, h)
    return ParamPoint.make(r, p, 1, c, [-c] * (r // p - 1))


# ---------------------------------------------------------------------------
# hyperplanes
# ---------------------------------------------------------------------------


class Hjk(Value):
    j: int
    k: int

    def __init__(self, *fields):
        super().__init__(*fields)
        if self.j <= 0:
            raise ValueError("j must be positive")
        if self.k <= 0:
            raise ValueError("k must be in 1..n")

    def __str__(self):
        return f"H_{{{self.j},{self.k}}}"


class Hx(Value):
    x: Fraction

    def __str__(self):
        return f"H_{{c0={self.x}}}"


def _hjk_lhs(point: ParamPoint, j: int, k: int, n: int) -> Cyc:
    """The left side d_0 - d_{-j} + r c_0 (n - k) of H_{j,k}; it depends on
    j only mod r/p, since d is r/p-periodic."""
    return point.d_value(0) - point.d_value(-j) \
        + point.c0 * (point.r * (n - k))


def on_hyperplane(point: ParamPoint, hid, n: int) -> bool:
    """Exact membership test (kappa = 1 assumed for the H_{j,k} family)."""
    if isinstance(hid, Hx):
        return point.c0 == Cyc.from_rational(point.r, hid.x)
    if hid.j % point.r == 0:
        raise ValueError(f"H_{{j,k}} requires j != 0 mod r, got j={hid.j}")
    if not 1 <= hid.k <= n:
        raise ValueError(f"k={hid.k} out of range 1..{n}")
    return _hjk_lhs(point, hid.j, hid.k, n) \
        == Cyc.from_rational(point.r, hid.j)


def simple_spectrum_violations(point: ParamPoint, n: int) -> list[str]:
    """Why the z-spectrum may fail to be simple at ``point``: one entry for
    each j <= n with j c0 a positive integer (none unless c0 is rational)."""
    out = []
    if not point.c0.is_rational():
        return out
    c0 = point.c0.rational_value()
    for j in range(1, n + 1):
        v = c0 * j
        if v > 0 and v == int(v):
            out.append(f"c0 = {int(v)}/{j} lies in (1/{j})Z_>0")
    return out


def genericity_guard(point: ParamPoint, k: int, n: int) -> dict:
    """Certify the submodule-structure hypotheses up to a scanning bound.

    Verifies membership in H_{k,1}, absence from every other H_{l,j} with
    l <= bound = max(2k, 4h) (h the Coxeter number, 1 for r = 1), and the
    simple-spectrum condition on c_0.  The left side of H_{l,j}
    (``_hjk_lhs``) is built once per (l mod r/p, j) and compared with each
    l of that residue, in the order l, then j.
    """
    if point.kappa != Cyc.one(point.r):
        raise ValueError("the hyperplane arrangement lives at kappa = 1")
    if k <= 0 or k % point.r == 0:
        raise ValueError("k must be positive and nonzero mod r")
    r = point.r
    period = r // point.p
    h = coxeter_number(r, point.p, n) if r > 1 else 1
    bound = max(2 * k, 4 * h)
    violations = []
    if not on_hyperplane(point, Hjk(k, 1), n):
        violations.append(f"point is not on H_{{{k},1}}")
    lhs = {}
    for l in range(1, bound + 1):
        if l % r == 0:
            continue
        value = Cyc.from_rational(r, l)
        for j in range(1, n + 1):
            if (l, j) == (k, 1):
                continue
            key = (l % period, j)
            if key not in lhs:
                lhs[key] = _hjk_lhs(point, l, j, n)
            if lhs[key] == value:
                violations.append(f"point lies on H_{{{l},{j}}}")
    violations.extend(simple_spectrum_violations(point, n))
    return {"ok": not violations, "k": k, "bound": bound,
            "violations": violations}


# ---------------------------------------------------------------------------
# singular vectors
# ---------------------------------------------------------------------------


def slot_n_stabilizer_generators(r: int, p: int,
                                 n: int) -> list[GroupElement]:
    """Generators of the stabilizer H of slot n in G(r,p,n), of order |W|/n.

    The colorless s_i (i < n-1) give S_{n-1} on slots 1..n-1.  Conjugated
    by them, the diagonal element of colors 1 and -1 at slots 1 and n (not
    a reflection) carries colors 1 and -1 at slots i and n, and these
    generate the color vectors of sum 0 mod r (the colored (1 2) is one
    product).  For p < r the diagonal element of color p at slot 1 gives
    the rest."""
    gens = [GroupElement.transposition(r, n, i, i + 1) for i in range(n - 2)]
    if n >= 2:
        gens.append(GroupElement.from_perm_col(
            r, range(n), (1,) + (0,) * (n - 2) + (-1,)))
    if p < r:
        gens.append(GroupElement.diagonal(r, n, 0, p))
    return gens


def singular_vector_check(r: int, p: int, n: int, point: ParamPoint,
                          k: int) -> dict:
    """Construct the f over (0..k..0) at the point; check that their span U
    is group-stable with the same character as the span V_k of the k-th
    powers of the variables, and that every Dunkl operator kills U.

    Only f = f over k e_n is solved for (``jack_by_solve``); f over k e_i is
    t_{w_i} f with w_i = s_i ... s_{n-1}, s_i the colorless (i i+1).  This
    needs k != 0 mod r, as H_{k,1} does, and a ValueError says so
    otherwise.  The exchange operator
    sigma_i = t_{s_i} + c_0 pi_i/(z_i - z_{i+1}) sends f_mu to a multiple of
    f_{s_i mu}, and the class sum pi_i acts on f_mu by 0 unless
    mu_i = mu_{i+1} mod r (see :mod:`~cherednik.intertwiners`).  The entries
    0 and k of k e_{i+1} differ mod r, so sigma_i is t_{s_i} on f over
    k e_{i+1}, and its image is monic at x^{k e_i}: it is f over k e_i.

    Stability is read off f alone.  w_i sends slot n to slot i, so the w_i
    represent the cosets of the stabilizer H of slot n.  If each generator
    h of H (:func:`slot_n_stabilizer_generators`) has t_h f in C f, so has
    all of H, since t is an action; and for g in W, g w_i = w_m h with h in
    H, so t_g t_{w_i} f = t_{w_m} t_h f lies in U.  Conversely, let P read
    off the coefficients at the monomials x_j^k.  Every w sends x_j^k to a
    multiple of x_{w(j)}^k and every other monomial to another monomial, so
    P commutes with t_w.  f has no x_j^k term with j != n, since its support
    lies below k e_n, and h fixes slot n, so P t_h f = c P f with c the
    coefficient of t_h f at x^{k e_n}.  Each f over k e_i is x_i^k plus
    lower terms, so P maps U onto V_k by a unitriangular matrix.  If U is
    W-stable, t_h f - c f lies in U and P kills it, so t_h f = c f.  The
    check compares t_h f with c f (f itself when c is ``params.one``) as
    polynomials, which is exact: every coefficient is in normal form and a
    ``Poly`` stores no zero.  A failure names h, mu = k e_n and the
    residual t_h f - c f, built only for that record.  Once U is
    W-stable, P is a W-isomorphism from U onto V_k, so
    ``"character_match"`` needs no check of its own.

    Once U is W-stable, y_1 alone decides the annihilation: S_n lies in
    G(r,p,n) and t_w y_1 t_w^{-1} = y_{w(1)} for w in S_n, so with
    w = (1 j), y_j U = t_w y_1 t_w^{-1} U = t_w y_1 U.  A span failure is
    therefore reported before an annihilation failure, whose witness always
    has ``y_index`` 0.

    y_1 U is in turn read off two images of f: w_i fixes slot 1 for
    i >= 2 and w_1 sends n to 1, so y_1 t_{w_i} f = t_{w_i} y_1 f for
    i >= 2 and y_1 t_{w_1} f = t_{w_1} y_n f.  Hence y_1 U = 0 iff
    y_1 f = 0 and y_n f = 0 (y_1 alone when n = 1).  Nothing reads a
    monomial image of f again, so both are applied in one pass over f
    (``PolyRep.dunkl_once``), with no memo.  A nonzero image is
    carried back by t_{w_i} to the witness that y_1 on each f over k e_i,
    in order, would find: mu = k e_1 with t_{w_1} y_n f if y_n f != 0, else
    mu = k e_2 with t_{w_2} y_1 f.

    In fact y_1 f = 0 (generically, so wherever f specializes): w_1 is
    colorless with w_1(n) = 1, so y_1 f = t_{w_1} y_n t_{w_1}^{-1} f, and
    t_{w_1}^{-1} f = t_{s_{n-1}} ... t_{s_1} f.  For i <= n-2, sigma_i f
    has the weight of k e_n with two entries swapped, which no composition
    has, so sigma_i f = 0 and t_{s_i} f is a multiple of f, monic at
    x^{k e_n}: f.  The last step is the exchange step above, to f over
    k e_{n-1}, and y_n kills f_nu when nu_n = 0 (so does the lowering
    operator y_1 t_{w_1} = t_{w_1} y_n, as ``apply_psi`` asserts).  The
    y_1 check stays; ROADMAP records the decision on dropping it.
    """
    if k <= 0 or k % r == 0:
        raise ValueError("k must be positive and nonzero mod r")
    rep = PolyRep(r, p, n, SpecializedParameters(point))
    tops = [tuple(k if j == i else 0 for j in range(n)) for i in range(n)]
    f = jack_by_solve(rep, tops[-1]).poly
    for h in slot_n_stabilizer_generators(r, p, n):
        g = rep.t(h, f)
        c = g.coeff(tops[-1])
        cf = f if c is rep.params.one else f.scaled(c)
        if g != cf:
            return {"status": "fail", "reason": "span not group-stable",
                    "w": str(h), "mu": list(tops[-1]),
                    "residual": str(g - cf)}
    y1 = rep.dunkl_once(0, f)
    yn = rep.dunkl_once(n - 1, f) if n > 1 else y1
    for i, img in ((0, yn), (1, y1)):
        if not img.is_zero():
            for j in reversed(range(i, n - 1)):  # t_{w_i}
                img = rep.t(GroupElement.transposition(r, n, j, j + 1), img)
            return {"status": "fail", "reason": "not annihilated",
                    "mu": list(tops[i]), "y_index": 0, "image": str(img)}
    return {"status": "pass", "k": k, "dimension": n,
            "annihilated": True, "group_stable": True,
            "character_match": True}


# ---------------------------------------------------------------------------
# graded characters
# ---------------------------------------------------------------------------


def _one_minus_product(exponents) -> list[int]:
    """prod (1 - t^a) over the exponents a, coefficients ascending."""
    out = [1]
    for a in exponents:
        nxt = out + [0] * a
        for i, c in enumerate(out):
            if c:
                nxt[i + a] -= c
        out = nxt
    return out


def _series_quotient(num, den, truncation: int) -> list[int]:
    """The power series num(t)/den(t) up to t^truncation, for den[0] = 1."""
    num = list(num) + [0] * (truncation + 1)
    out = []
    for m in range(truncation + 1):
        acc = num[m]
        for j in range(1, min(m, len(den) - 1) + 1):
            if den[j]:
                acc -= den[j] * out[m - j]
        out.append(acc)
    return out


def _int_series(num_factors, den_factors, truncation: int) -> list[int]:
    """prod (1 - t^a)/prod (1 - t^b) as integer coefficients."""
    return _series_quotient(_one_minus_product(num_factors),
                            _one_minus_product(den_factors), truncation)


def l1_graded_dimension(n: int, k: int, truncation: int) -> list[int]:
    """((1 - t^k)/(1 - t))^n to t^max(n(k-1), truncation): the graded
    dimension of the quotient, the identity value of its graded character
    det(1 - t^k w_V)/det(1 - t w).  It is a polynomial of degree n(k-1)
    whose coefficients sum to k^n; the list runs at least that far, so the
    whole polynomial and the series to t^truncation are both prefixes."""
    return _int_series([k] * n, [1] * n, max(n * (k - 1), truncation))


def invariant_char_series(r: int, p: int, n: int, k: int,
                          truncation: int) -> list:
    """(1/|W|) sum_w det(1 - t^k w_V)/det(1 - t w), coefficientwise, by the
    cycle index of the wreath product G(r,1,n) (Macdonald, *Symmetric
    Functions and Hall Polynomials*, App. B).

    A cycle of w of length l and color sum c contributes the factor
    (1 - zeta^{ck} t^{kl})/(1 - zeta^c t^l) = sum_{m<k} zeta^{cm} t^{lm}.
    It has r^{l-1} colorings of each color sum, so the exponential formula
    sums the product over G(r,1,n); the characters omega^{a (total color)},
    omega = zeta^{r/p} and a = 0..p-1, cut out G(r,p,n).  That gives

        (1/|W|) sum_{w in W} = sum_{a<p} [u^n] exp(sum_{l<=n} A_{a,l} u^l / l)

    with A_{a,l}(t) = sum of t^{lm} over 0 <= m < k, m = -a r/p (mod r).
    The coefficients are integers: with G_0 = 1 and
    G_j = sum_{l<=j} ((j-1)!/(j-l)!) A_{a,l} G_{j-l}, cut at t^truncation,
    the series is sum_a G_n / n!.
    """
    check_group(r, p, n)
    total = [0] * (truncation + 1)
    for a in range(p):
        residue = -a * (r // p) % r
        g = [[1] + [0] * truncation]
        for j in range(1, n + 1):
            gj = [0] * (truncation + 1)
            for l in range(1, j + 1):
                weight = factorial(j - 1) // factorial(j - l)
                for m in range(residue, min(k - 1, truncation // l) + 1, r):
                    shift = l * m
                    for i, c in enumerate(g[j - l][:truncation + 1 - shift]):
                        gj[i + shift] += weight * c
            g.append(gj)
        total = [x + y for x, y in zip(total, g[n])]
    return [Fraction(c, factorial(n)) for c in total]


# ---------------------------------------------------------------------------
# Catalan and coinvariant series
# ---------------------------------------------------------------------------


def require_truncation_budget(truncation: int) -> None:
    """A ValueError when ``truncation`` is over ``TRUNCATION_BUDGET``; each
    series `gordon` prints has truncation + 1 coefficients."""
    if truncation > TRUNCATION_BUDGET:
        raise ValueError(
            f"a truncation of {truncation:,} is over the budget of "
            f"{TRUNCATION_BUDGET:,}")


def require_gordon_budget(n: int, k: int) -> int:
    """C(k+n-1, n-1), the monomials of degree k; a ValueError when that is
    over ``GORDON_MONOMIAL_BUDGET``.  The solve over k e_n enumerates only
    the C((k - k mod r)/r + n-1, n-1) of them on its lattice, so the count
    bounds its candidates."""
    count = comb(k + n - 1, n - 1)
    if count > GORDON_MONOMIAL_BUDGET:
        raise ValueError(
            f"the singular vector over {k} e_{n} has {count:,} monomials "
            f"of degree {k} in {n} variables, over the budget of "
            f"{GORDON_MONOMIAL_BUDGET:,}")
    return count


def catalan_series(r: int, p: int, n: int, truncation: int) -> dict:
    """prod_i (1 - t^{h+d_i})/(1 - t^{d_i}) to the truncation, plus its
    exact value at t = 1, prod (h + d_i)/d_i.

    The value is an integer whenever the group is well-generated (h equals
    the largest degree); otherwise the exact fraction is reported as a
    string.
    """
    if not is_irreducible(r, p, n):
        raise ValueError(f"G({r},{p},{n}) does not act irreducibly")
    h = coxeter_number(r, p, n)
    degs = degrees(r, p, n)
    coeffs = _int_series([h + d for d in degs], degs, truncation)
    val = Fraction(1)
    for d in degs:
        val *= Fraction(h + d, d)
    return {"h": h, "degrees": degs, "coefficients": coeffs,
            "at_one": int(val) if val.denominator == 1 else str(val)}


def coinvariant_series(r: int, p: int, n: int, truncation: int) -> list[int]:
    """prod (1 - t^{d_i})/(1 - t)^n: the ordinary coinvariant Hilbert series."""
    return _int_series(degrees(r, p, n), [1] * n, truncation)


# ---------------------------------------------------------------------------
# free representations spanned by power monomials
# ---------------------------------------------------------------------------


def _alternant_sign(rows, r: int, shift: int) -> int:
    """s in {1, -1} with det = s x^(shift,..,shift) prod_{i<j} (x_i^r - x_j^r),
    else 0, for the matrix whose row i, the pair (b_i, a_i), has entries
    x^(b_i,..,b_i) x_j^(a_i).

    det is x^(sum b_i) times the alternant det[x_j^(a_i)], whose monomials
    are the permutations of the a_i (none when two agree); the right side's
    are those of shift + r(0, 1, .., n-1).  So the sorted a_i must be
    c, c+r, .., c+(n-1)r with sum b_i + c = shift.  Then the alternant is
    sgn(sorting) x^c det[(x_j^r)^i], and det[y_j^i] is
    (-1)^(n(n-1)/2) prod_{i<j} (y_i - y_j): -1 to the number of u < v with
    a_u < a_v in all.
    """
    a = [e for _, e in rows]
    c = min(a)
    if sorted(a) != [c + i * r for i in range(len(a))] \
            or sum(b for b, _ in rows) + c != shift:
        return 0
    ascents = sum(a[u] < a[v] for u in range(len(a))
                  for v in range(u + 1, len(a)))
    return (-1) ** ascents


def exponents_and_freeness(r: int, p: int, n: int, m: int) -> dict:
    """Closed-form exponents of the span of the m-th power monomials, the
    determinant identities behind freeness (signs from
    :func:`_alternant_sign`, 0 where one fails), and, at m = h+1, the
    multiset equality {m - e_i} = {degrees}."""
    check_group(r, p, n)
    if m % r == 0:
        raise ValueError(f"m={m} must not be divisible by r={r}")
    mbar = m % r
    mprime = m % (r // p)
    if p == 1:
        exps = [mbar + i * r for i in range(n)]
    else:
        exps = [mbar + i * r for i in range(n - 1)]
        exps.append((n - 1) * (r - mbar) + n * mprime)
    f_rows = [(0, i * r + mbar) for i in range(n)]
    sign_f = _alternant_sign(f_rows, r, mbar)
    result = {
        "exponents": sorted(exps),
        "m_bar": mbar,
        "m_prime": mprime,
        "det_identity": sign_f != 0,
        "det_sign": sign_f,
    }
    if p > 1:
        rows = f_rows[:-1] + [(r - mbar + mprime, mbar - r)]
        sign_a = _alternant_sign(rows, r, mprime)
        result["det_identity"] = result["det_identity"] and sign_a != 0
        result["det_sign_alt"] = sign_a
    if r > 1 and m == coxeter_number(r, p, n) + 1:
        degs = degrees(r, p, n)
        result["multiset_match"] = sorted(m - e for e in exps) == degs
        result["degrees"] = degs
    else:
        result["multiset_match"] = None
    return result
