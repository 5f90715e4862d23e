"""Independent oracles for the test suite.

Everything here deliberately avoids the production code paths it checks:

* ``act_on_poly_accumulating`` sums the images of colliding terms, where
  the package relies on w permuting exponent vectors injectively;
* ``poly_divexact`` does sparse long division (the package uses geometric
  series for divided differences);
* ``oracle_dunkl`` / ``oracle_z`` rebuild the operators from the literal
  reflection sum;
* ``dd_transposition_terms``, ``dd_diagonal_terms`` and
  ``dunkl_mono_per_term`` build each term of a divided difference and of
  y_i x^mu with a fresh root of unity and its own products by
  <alpha_s, y_i> and -c_s, where the package sums the r colors of each
  pair of slots out in closed form; ``dd_y_mono_per_term`` is the y-side
  divided difference built the same way;
* ``apply_y_monomial`` and ``x_side_commutator_defect`` rebuild y^nu f and
  the x-side commutator defect of one (nu, j) from scratch, where the
  package reads one table of y-images per monomial;
* ``x_side_defects_per_reflection`` reads the same y-image tables as the
  package but builds each defect as the difference of ``Poly``
  temporaries, moving each y-side divided difference by t_s and scaling
  by ``params.embed`` of every cyclotomic factor and by c_s once per
  reflection, where the package applies no group element: it scales each
  term of y^ev f once by the plan's weight for its residue mod r, a sum
  over the colors of a pair of slots (or over the diagonals at a slot),
  at the swapped exponent, and compares the two sides before it
  subtracts;
* ``commutator_failure_by_difference`` tests each commutator's difference
  for zero, where the package compares the two orders;
* ``relation_failure`` and ``check_relations_per_monomial`` build, per
  monomial x^mu, the y-image tables of x^mu and of every x_j x^mu and each
  t_w x^mu and w x_j afresh, and read the x-side defects off
  ``x_side_defects_per_reflection``, where ``PolyRep.check_relations``
  builds each monomial's table once in one sweep and each w x_j once per
  call, and reads ``PolyRep.x_side_defects``;
* ``yx_commutator_defect_explicit`` is the defining relation
  [y_i, x_j] = kappa delta_ij - sum_s c_s <alpha_s, y_i> <x_j, alpha_s^vee>
  t_s written out over colored transpositions and diagonals, the way the
  relation check coded it before it read the |nu| = 1 x-side defects;
* ``dense_eigenvector`` finds simultaneous eigenvectors by Gaussian
  elimination on one whole graded piece, with no triangularity, ordering or
  character filtering;
* ``dot_pairwise`` sums a * b with one ``*`` and one ``+`` per pair, where
  ``params.dot`` puts every product over one common denominator and
  trial-divides the sum once; ``jack_by_solve_zeta_compatible`` is the
  triangular solve with these sums over every zeta-compatible candidate,
  where the package keeps only the nu = mu mod r; ``div_linear_synthetic``
  is synthetic division by a linear form without the shortcuts that return
  None for an x_v-free or single-term dividend;
* ``v_permutation_counts`` is the closed formula for the sorting
  permutation counted slot by slot, where the package sorts the slots once;
* ``bruhat_le_cover`` computes Bruhat order by transitive closure of the
  covering relation;
* ``linear_extension_desc_pairwise`` orders the candidates of an
  eigenvector by comparing every pair with ``order_lt`` and peeling off the
  maximal ones layer by layer, where the package sorts by ``order_key``;
* ``jack_by_solve_scan`` is the triangular solve as the package ran it
  before: ``solve_candidates_scan`` filters every monomial of degree |mu|,
  ``linear_extension_desc`` sorts them by ``order_key``, ``pivot_scan``
  rebuilds each candidate's sorting permutation and weight differences, and
  each coefficient is ``resid / diff``, where the package enumerates mu's
  lattice mu mod r + r Z^n, computes each sorting permutation once and
  reuses each inverse 1/(z_i(mu) - z_i(nu)) within the call;
* ``span_character_check_all_of_w``, ``singular_vector_check_all_of_w`` and
  ``invariant_char_series_all_of_w`` walk every element of W where the
  package uses the reflections through slot 1 or the cycle index of the
  wreath product; the first also compares characters, which the package
  derives from stability; the second also solves for each of the n
  singular vectors, where the package solves for one and applies
  transpositions;
* ``l1_dimension_by_counting`` and ``l1_series_by_counting`` count the
  compositions with every part below k, where the package reads the
  graded dimension of the quotient off the identity character in closed
  form; ``radical_membership`` is the radical's indexing rule;
* ``det_leibniz`` expands a determinant of ``Poly`` entries over all n!
  permutations; ``alternant_sign_leibniz`` and ``freeness_dets_leibniz``
  compare it with the expanded Vandermonde-type products, where the package
  reads the freeness determinants off the row exponents;
* ``coupling`` and ``class_sum`` write out c_s and the colored
  transpositions inline; ``phi_class_sum`` sums the same class through
  ``GroupElement.colored_transposition``;
* ``c_from_d_sum`` and ``int_series_dense`` are the summation and series
  loops the package replaced by one shared definition each;
  ``graded_char_series_dense`` is the graded character at any element of W
  as a dense product, where the package builds only its value at the
  identity, as one integer series;
* ``sigma_uncached`` builds sigma_i f_mu from scratch with ``Poly``
  arithmetic, where ``apply_sigma`` keeps each image in
  ``PolyRep.sigma_cache`` and sums a shared coefficient with one
  ``params.dot``; ``apply_by_monomials_per_term`` extends a monomial image
  linearly term by term, where ``PolyRep._apply_by_monomials`` returns the
  memoized image itself for a single monomial with coefficient
  ``params.one``;
* ``FractionCyc`` is the cyclotomic number with one ``Fraction`` per
  coordinate, which the package replaced by integer coordinates over one
  common denominator.  It keeps the reduction rows, the Gauss-Jordan
  inverse and the rendering of ``Cyc``, with a dense product and powers by
  repeated multiplication, all over ``Fraction``.
"""

from __future__ import annotations

import cmath
import itertools
from fractions import Fraction

from cherednik import (
    Cyc, GroupElement, JackVector, NonGenericError, Poly, PolyRep, Q,
    SpecializedParameters, group_elements, jack_by_solve, order_key,
    order_lt, v_permutation, weight_of, z_eigenvalue, zeta_compatible,
)
from cherednik.cyclotomic import cyclotomic_polynomial
from cherednik.operators import monomials_of_degree, monomials_up_to
from cherednik.polynomials import accumulate


def act_on_poly_accumulating(w: GroupElement, f: Poly) -> Poly:
    """The group action x^mu -> zeta^k x^{w.mu}, adding up the images of
    terms that land on the same exponent vector."""
    out: dict = {}
    for e, c in f.terms.items():
        k, nu = w.act_on_exponents(e)
        v = c.cmul(Cyc.root(w.r, k))
        s = out.get(nu)
        s = v if s is None else s + v
        if s:
            out[nu] = s
        else:
            out.pop(nu, None)
    return Poly(f.n, out)


def poly_divexact(f: Poly, g: Poly):
    """Long division f/g in graded-lex order; None unless exact."""
    if g.is_zero():
        raise ZeroDivisionError
    rem = dict(f.terms)
    ge = max(g.terms, key=lambda e: (sum(e), e))
    gc = g.terms[ge]
    quot: dict = {}

    def key(e):
        return (sum(e), e)

    while rem:
        e = max(rem, key=key)
        c = rem[e]
        qe = tuple(a - b for a, b in zip(e, ge))
        if any(x < 0 for x in qe):
            return None
        qc = c / gc
        quot[qe] = qc
        for oe, oc in g.terms.items():
            t = tuple(a + b for a, b in zip(qe, oe))
            s = rem.get(t)
            s = -(qc * oc) if s is None else s - qc * oc
            if s:
                rem[t] = s
            else:
                rem.pop(t, None)
    return Poly(f.n, quot)


def oracle_dunkl(rep, i: int, f: Poly) -> Poly:
    """The literal reflection-sum Dunkl operator, via long division."""
    params = rep.params
    n = rep.n
    out = Poly.zero(n)
    for mu, c in f.terms.items():
        if mu[i]:
            down = list(mu)
            down[i] -= 1
            out = out + Poly.monomial(tuple(down),
                                      c * params.kappa * params.rational(mu[i]))
    for s in rep.reflections:
        a = s.alpha[i]
        if not a:
            continue
        cs = coupling(params, s)
        alpha_poly = Poly(n, {tuple(1 if t == m else 0 for t in range(n)):
                              params.embed(v)
                              for m, v in enumerate(s.alpha) if v})
        diff = f - rep.t(s.element, f)
        quot = poly_divexact(diff, alpha_poly)
        assert quot is not None, "reflection difference not divisible"
        out = out - quot.scaled(cs.cmul(a))
    return out


def dd_transposition_terms(mu, a, b, l, r):
    """(x^mu - s x^mu)/(x_a - zeta^l x_b) for s the colored transposition,
    as (exponents, Cyc) pairs, by the geometric series."""
    ea, eb = mu[a], mu[b]
    if ea == eb:
        return []
    out = []
    if ea > eb:
        for t in range(ea - eb):
            nu = list(mu)
            nu[a] = ea - 1 - t
            nu[b] = eb + t
            out.append((tuple(nu), Cyc.root(r, l * t)))
    else:
        for t in range(eb - ea):
            nu = list(mu)
            nu[a] = eb - 1 - t
            nu[b] = ea + t
            out.append((tuple(nu), -Cyc.root(r, l * (ea - eb + t))))
    return out


def dd_diagonal_terms(mu, i, l, r):
    """(x^mu - s x^mu)/(zeta^{-l-1} x_i) for s the diagonal reflection."""
    a = mu[i]
    if a == 0 or (l * a) % r == 0:
        return []
    nu = list(mu)
    nu[i] = a - 1
    coeff = Cyc.root(r, l + 1) * (Cyc.one(r) - Cyc.root(r, -l * a))
    return [(tuple(nu), coeff)]


def dd_per_term(rep, mu, s):
    """(x^mu - s x^mu)/alpha_s as (exponents, Cyc) pairs."""
    if s.kind == "transposition":
        return dd_transposition_terms(mu, s.i, s.j, s.l, rep.r)
    return dd_diagonal_terms(mu, s.i, s.l, rep.r)


def dunkl_mono_per_term(rep, i: int, mu: tuple[int, ...],
                        fault_dunkl_sign: bool = False) -> Poly:
    """y_i x^mu, scaling each divided-difference term by <alpha_s, y_i>
    and -c_s on the spot (+c_s on the transpositions under the fault)."""
    params = rep.params
    out: dict = {}
    if mu[i]:
        nu = list(mu)
        nu[i] -= 1
        accumulate(out, [(tuple(nu), params.kappa * mu[i])])
    for s in rep.reflections:
        a = s.alpha[i]
        if not a:
            continue
        cs = coupling(params, s)
        factor = cs if fault_dunkl_sign and s.kind == "transposition" else -cs
        accumulate(out, [(nu, factor.cmul(a * cy))
                         for nu, cy in dd_per_term(rep, mu, s)])
    return Poly(rep.n, out)


def dd_y_mono_per_term(rep, nu, s):
    """(y^nu - s^{-1} y^nu)/alpha_s^vee as (exponents, Cyc) pairs."""
    r = rep.r
    if s.kind == "transposition":
        return dd_transposition_terms(nu, s.i, s.j, -s.l, r)
    a = nu[s.i]
    if a == 0 or (s.l * a) % r == 0:
        return []
    out = list(nu)
    out[s.i] = a - 1
    denom = Cyc.root(r, s.l + 1) - Cyc.root(r, 1)
    return [(tuple(out), (Cyc.one(r) - Cyc.root(r, -s.l * a)) / denom)]


def coupling(params, s):
    """c_s: c0 on the transpositions, c_l on the diagonals of color l."""
    return params.c0 if s.kind == "transposition" else params.c(s.l)


def class_sum(rep, i: int, f: Poly) -> Poly:
    """phi_i f, summing the colored transpositions of slots j < i."""
    acc = Poly.zero(rep.n)
    for j in range(i):
        for l in range(rep.r):
            w = (GroupElement.diagonal(rep.r, rep.n, i, l)
                 * GroupElement.transposition(rep.r, rep.n, j, i)
                 * GroupElement.diagonal(rep.r, rep.n, i, -l))
            acc = acc + rep.t(w, f)
    return acc


def phi_class_sum(rep, i: int, f: Poly) -> Poly:
    """phi_i f as the sum of the colored transpositions of slots j < i."""
    acc = Poly.zero(rep.n)
    for j in range(i):
        for l in range(rep.r):
            w = GroupElement.colored_transposition(rep.r, rep.n, i, j, l)
            acc = acc + rep.t(w, f)
    return acc


def oracle_z(rep, i: int, f: Poly) -> Poly:
    """z_i = y_i x_i + c0 * (literal group class sum)."""
    out = oracle_dunkl(rep, i, rep.x(i, f))
    return out + class_sum(rep, i, f).scaled(rep.params.c0)


def apply_y_monomial(rep, nu: tuple[int, ...], f: Poly) -> Poly:
    """y^nu f by repeated Dunkl operators, y_1 first (the y_i commute)."""
    out = f
    for i, e in enumerate(nu):
        for _ in range(e):
            out = rep.dunkl(i, out)
    return out


def x_side_commutator_defect(rep, nu: tuple[int, ...], j: int,
                             f: Poly) -> Poly:
    """[y^nu, x_j] f minus the dual commutator formula, rebuilding every
    y-image and every moved divided difference for this one (nu, j)."""
    params = rep.params
    g_of = lambda ev: apply_y_monomial(rep, ev, f)
    lhs = apply_y_monomial(rep, nu, rep.x(j, f)) \
        - rep.x(j, apply_y_monomial(rep, nu, f))
    rhs = Poly.zero(rep.n)
    if nu[j]:
        dn = list(nu)
        dn[j] -= 1
        rhs = rhs + g_of(tuple(dn)).scaled(params.kappa
                                           * params.rational(nu[j]))
    for s in rep.reflections:
        b = s.alpha_check[j]
        if not b:
            continue
        acc = Poly.zero(rep.n)
        for ev, cy in rep._dd_y_mono(nu, s):
            acc = acc + g_of(ev).scaled(params.embed(cy))
        if acc:
            rhs = rhs - rep.t(s.element, acc).scaled(
                coupling(params, s).cmul(b))
    return lhs - rhs


def x_side_defects_per_reflection(rep, yf: dict, yxf: list[dict]):
    """``PolyRep.x_side_defects`` with one scaled ``Poly`` per y-side
    divided-difference term and one c_s <alpha_s^vee, y_j> scale per
    reflection; same arguments, same yield order."""
    params = rep.params
    kappa = params.kappa
    for nu in monomials_up_to(rep.n, 2):
        if sum(nu) == 0:
            continue
        moved = []
        for s in rep.reflections:
            acc = Poly.zero(rep.n)
            for ev, cy in rep._dd_y_mono(nu, s):
                acc = acc + yf[ev].scaled(params.embed(cy))
            if acc:
                moved.append((s, coupling(params, s), rep.t(s.element, acc)))
        for j in range(rep.n):
            lhs = yxf[j][nu] - rep.x(j, yf[nu])
            rhs = Poly.zero(rep.n)
            if nu[j]:
                dn = list(nu)
                dn[j] -= 1
                rhs = rhs + yf[tuple(dn)].scaled(
                    kappa * params.rational(nu[j]))
            for s, cs, tacc in moved:
                b = s.alpha_check[j]
                if b:
                    rhs = rhs - tacc.scaled(cs.cmul(b))
            yield nu, j, lhs - rhs


def yx_commutator_defect_explicit(rep, mu: tuple[int, ...], i: int,
                                  j: int) -> Poly:
    """[y_i, x_j] x^mu minus kappa delta_ij x^mu - sum_s c_s <alpha_s, y_i>
    <x_j, alpha_s^vee> t_s x^mu, the sum written out over group elements:
    for i != j the r colored transpositions of slots i and j, weighted by
    c_0 zeta^{-l}; for i = j the diagonals of color t at slot i, weighted by
    c_t (1 - zeta^{-t}), and every colored transposition through slot i,
    weighted by c_0."""
    n, r, params = rep.n, rep.r, rep.params
    m = Poly.monomial(mu, params.one)
    lhs = rep.dunkl(i, rep.x(j, m)) - rep.x(j, rep.dunkl(i, m))
    if i == j:
        rhs = m.scaled(params.kappa)
        for t in range(1, r):
            if t % rep.p == 0:
                w = GroupElement.diagonal(r, n, i, t)
                rhs = rhs - rep.t(w, m).scaled(
                    params.c(t).cmul(Cyc.one(r) - Cyc.root(r, -t)))
        for k in range(n):
            if k == i:
                continue
            for l in range(r):
                w = GroupElement.colored_transposition(r, n, i, k, l)
                rhs = rhs - rep.t(w, m).scaled(params.c0)
    else:
        rhs = Poly.zero(n)
        for l in range(r):
            w = GroupElement.colored_transposition(r, n, i, j, l)
            rhs = rhs + rep.t(w, m).scaled(params.c0.cmul(Cyc.root(r, -l)))
    return lhs - rhs


def relation_failure(rep, mu: tuple[int, ...]) -> dict | None:
    """The first relation that fails on x^mu, or None: t_w x_j, then the
    x-side defects of :func:`x_side_defects_per_reflection` in order,
    [y_i, x_j] (|nu| = 1) before |nu| = 2.

    Builds the y-image table of x^mu and of each x_j x^mu afresh, and
    t_w x^mu and w x_j for every (w, j), where ``PolyRep.check_relations``
    builds each monomial's table once per sweep and each w x_j once.
    """
    n = rep.n
    m = Poly.monomial(mu, rep.params.one)
    ym = rep.y_images(m, 2)
    yxm = [rep.y_images(rep.x(j, m), 2) for j in range(n)]
    for s in rep.reflections:
        w = s.element
        for j in range(n):
            k, jj = w.x_image(j)  # w x_j = zeta^k x_jj
            wx = rep.x_poly(jj).scaled(rep.params.zeta(k))
            if rep.t(w, rep.x(j, m)) != wx * rep.t(w, m):
                return {"relation": "t_w x = (wx) t_w", "w": str(w),
                        "j": j, "mu": list(mu)}
    for nu, j, defect in x_side_defects_per_reflection(rep, ym, yxm):
        if not defect:
            continue
        if sum(nu) == 1:
            return {"relation": "y_i x_j commutator", "i": nu.index(1),
                    "j": j, "mu": list(mu), "defect": str(defect)}
        return {"relation": "x-side commutator", "y_monomial": list(nu),
                "j": j, "mu": list(mu), "defect": str(defect)}
    return None


def check_relations_per_monomial(rep, max_deg: int) -> dict:
    """``PolyRep.check_relations`` with :func:`relation_failure` on each
    monomial in turn: the same records, every table rebuilt per monomial."""
    return rep._first_failure(max_deg, lambda mu: relation_failure(rep, mu))


def commutator_failure_by_difference(rep, mu: tuple[int, ...]):
    """``PolyRep._commutator_failure`` by the difference of the two
    orders: the same first failure on x^mu, or None."""
    m = Poly.monomial(mu, rep.params.one)
    for i, j in itertools.combinations(range(rep.n), 2):
        for name, op in (("[y_i,y_j]", rep.dunkl), ("[z_i,z_j]", rep.z)):
            d = op(i, op(j, m)) - op(j, op(i, m))
            if d:
                return {"commutator": name, "i": i, "j": j, "mu": list(mu),
                        "defect": str(d)}
    return None


def c_from_d_sum(r: int, p: int, l: int, d_of, zero):
    """c_l = (p/r) (sum_{j<r/p} zeta^{-lj} d_j), summing before scaling;
    ``d_of(j)`` may be a Cyc or a RatFunc."""
    if l % p:
        return zero
    total = zero
    for j in range(r // p):
        total = total + Cyc.root(r, -l * j) * d_of(j)
    return Cyc.from_rational(r, p, r) * total


def _dense_mul(a: list, b: list, zero) -> list:
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def _dense_quotient(num: list, den: list, truncation: int, zero) -> list:
    """num/den to t^truncation by long division; den[0] must be 1."""
    num = list(num) + [zero] * (truncation + 1)
    out = []
    for m in range(truncation + 1):
        acc = num[m]
        for j in range(1, min(m, len(den) - 1) + 1):
            acc = acc - den[j] * out[m - j]
        out.append(acc)
    return out


def graded_char_series_dense(w: GroupElement, k: int, truncation: int):
    """det(1 - t^k w_V)/det(1 - t w) to t^truncation, each determinant a
    dense product of one factor 1 - (entry product) T^length per cycle."""
    r, n = w.r, w.n
    zero, one = Cyc.zero(r), Cyc.one(r)
    num, den = [one], [one]
    seen = set()
    for i in range(n):
        cycle = []
        j = i
        while j not in seen:
            seen.add(j)
            cycle.append(j)
            j = w.perm[j]
        if not cycle:
            continue
        colors = sum(w.col[j] for j in cycle)
        length = len(cycle)
        num = _dense_mul(num, [one] + [zero] * (k * length - 1)
                         + [-Cyc.root(r, k * colors)], zero)
        den = _dense_mul(den, [one] + [zero] * (length - 1)
                         + [-Cyc.root(r, colors)], zero)
    return _dense_quotient(num, den, truncation, zero)


def int_series_dense(num_exps, den_exps, truncation: int) -> list[int]:
    """prod (1 - t^a)/prod (1 - t^b) to t^truncation over the integers."""
    num, den = [1], [1]
    for a in num_exps:
        num = _dense_mul(num, [1] + [0] * (a - 1) + [-1], 0)
    for b in den_exps:
        den = _dense_mul(den, [1] + [0] * (b - 1) + [-1], 0)
    return _dense_quotient(num, den, truncation, 0)


def gaussian_kernel(rows: list[list], zero, one) -> list[list]:
    """Kernel basis of the matrix given by rows, over a duck-typed field."""
    if not rows:
        return []
    m = len(rows[0])
    mat = [list(r) for r in rows]
    pivots = []
    rank = 0
    for col in range(m):
        piv = None
        for rw in range(rank, len(mat)):
            if mat[rw][col]:
                piv = rw
                break
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = one / mat[rank][col]
        mat[rank] = [v * inv for v in mat[rank]]
        for rw in range(len(mat)):
            if rw != rank and mat[rw][col]:
                factor = mat[rw][col]
                mat[rw] = [v - factor * w for v, w in zip(mat[rw], mat[rank])]
        pivots.append(col)
        rank += 1
    free = [c for c in range(m) if c not in pivots]
    basis = []
    for fc in free:
        vec = [zero] * m
        vec[fc] = one
        for rnk, pc in enumerate(pivots):
            vec[pc] = -mat[rnk][fc]
        basis.append(vec)
    return basis


def dense_eigenvector(rep, mu, z_of=None):
    """Simultaneous eigenvector for the weight of mu inside the full graded
    piece, by stacked kernels; returns (kernel dimension, monic Poly or None).
    """
    from cherednik import weight_of

    if z_of is None:
        z_of = oracle_z
    mu = tuple(mu)
    n = rep.n
    basis = list(monomials_of_degree(n, sum(mu)))
    index = {b: k for k, b in enumerate(basis)}
    wt = weight_of(mu, rep.params)
    params = rep.params
    rows = []
    for i in range(n):
        cols = []
        for b in basis:
            img = z_of(rep, i, Poly.monomial(b, params.one))
            cols.append(img)
        for ridx, target in enumerate(basis):
            row = []
            for cidx, b in enumerate(basis):
                v = cols[cidx].coeff(target)
                if v is None:
                    v = params.zero
                if cidx == ridx:
                    v = v - wt.zvals[i]
                row.append(v)
            rows.append(row)
    kern = gaussian_kernel(rows, params.zero, params.one)
    dim = len(kern)
    vec = None
    for cand in kern:
        lead = cand[index[mu]]
        if lead:
            inv = params.one / lead
            vec = Poly(n, {b: c * inv for b, c in zip(basis, cand) if c})
            break
    return dim, vec


def bruhat_le_cover(u: tuple[int, ...], w: tuple[int, ...]) -> bool:
    """Bruhat order by upward closure of the covering relation."""

    def inv(p):
        return sum(1 for a, b in itertools.combinations(p, 2) if a > b)

    if inv(u) > inv(w):
        return False
    seen = {u}
    frontier = {u}
    n = len(u)
    while frontier:
        if w in seen:
            return True
        nxt = set()
        for p in frontier:
            lp = inv(p)
            for i in range(n):
                for j in range(i + 1, n):
                    q = list(p)
                    q[i], q[j] = q[j], q[i]
                    q = tuple(q)
                    if inv(q) == lp + 1 and q not in seen:
                        nxt.add(q)
        seen |= nxt
        frontier = nxt
    return w in seen


def linear_extension_desc_pairwise(candidates: list) -> list:
    """Order candidates so every element comes after all those above it,
    from the ``order_lt`` table of all pairs."""
    above = {nu: set() for nu in candidates}
    for a in candidates:
        for b in candidates:
            if a is not b and order_lt(a, b):
                above[a].add(b)
    out = []
    remaining = set(candidates)
    while remaining:
        layer = [nu for nu in remaining if not (above[nu] & remaining)]
        layer.sort(reverse=True)  # deterministic
        for nu in layer:
            out.append(nu)
            remaining.discard(nu)
    return out


def dot_pairwise(params, pairs):
    """The sum of a * b over pairs, one ``*`` and one ``+`` per pair."""
    out = params.zero
    for a, b in pairs:
        out = out + a * b
    return out


def sigma_uncached(rep, i: int, jv: JackVector, fault_pi_sign=False):
    """sigma_i f_mu = t_{s_i} f + (c0 pi_i / delta) f, pi_i = r or 0 by
    mu_i - mu_{i+1} mod r, as its coefficient at x^{s_i mu} times the monic
    vector; zero on equal entries.  Reads and fills no memo."""
    from cherednik.intertwiners import Scaled, SingularIntertwinerError

    params, mu = rep.params, jv.mu
    if mu[i] == mu[i + 1]:
        return Scaled(params.zero, None)
    delta = jv.weight.zvals[i] - jv.weight.zvals[i + 1]
    pi = rep.r if (mu[i] - mu[i + 1]) % rep.r == 0 else 0
    si = GroupElement.transposition(rep.r, rep.n, i, i + 1)
    out = act_on_poly_accumulating(si, jv.poly)
    if pi:
        if not delta:
            raise SingularIntertwinerError(f"delta vanishes on f_{mu}")
        coeff = params.c0 * params.rational(pi) / delta
        out = out + jv.poly.scaled(-coeff if fault_pi_sign else coeff)
    if out.is_zero():
        return Scaled(params.zero, None)
    nu = mu[:i] + (mu[i + 1], mu[i]) + mu[i + 2:]
    lead = out.coeff(nu)
    if not lead:
        raise SingularIntertwinerError(f"no x^{nu} term")
    return Scaled(lead, JackVector(nu, out.scaled(params.one / lead),
                                   weight_of(nu, params)))


def apply_by_monomials_per_term(rep, image, i: int, f: Poly) -> Poly:
    """The sum over the terms c x^e of f of c * image(i, e), accumulated
    term by term, with no shortcut for a single monomial."""
    out: dict = {}
    for e, c in f.terms.items():
        accumulate(out, [(nu, c * v) for nu, v in image(i, e).terms.items()])
    return Poly(rep.n, out)


def jack_by_solve_zeta_compatible(rep, mu):
    """f_mu by back-substitution over every zeta-compatible candidate nu,
    each residual summed by ``dot_pairwise``; the polynomial and the number
    of candidates off the lattice mu + (rZ)^n."""
    params = rep.params
    mu = tuple(mu)
    zmu = weight_of(mu, params).zvals
    cands = [nu for nu in monomials_of_degree(rep.n, sum(mu))
             if nu != mu and zeta_compatible(nu, mu, rep.r, rep.p)
             and order_lt(nu, mu)]
    coeffs = {mu: params.one}
    for nu in linear_extension_desc_pairwise(cands):
        znu = weight_of(nu, params).zvals
        i = next((i for i, (a, b) in enumerate(zip(zmu, znu)) if a != b),
                 None)
        if i is None:
            raise NonGenericError(mu, nu)
        images = [(c, rep.z_monomial(i, eta).terms) for eta, c in
                  coeffs.items()]
        resid = dot_pairwise(params, [(c, img[nu]) for c, img in images
                                      if nu in img])
        c_nu = resid / (zmu[i] - znu[i])
        if c_nu:
            coeffs[nu] = c_nu
    off = sum(1 for nu in cands
              if any((a - b) % rep.r for a, b in zip(nu, mu)))
    return Poly(rep.n, coeffs), off


def linear_extension_desc(candidates: list) -> list:
    """Order candidates so every element comes after all those above it."""
    return sorted(candidates, key=order_key, reverse=True)


def pivot_scan(params, mu, v_mu, zvals, nu):
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


def solve_candidates_scan(rep, mu) -> list:
    """Every monomial of degree |mu| with nu = mu mod r below mu, filtered
    from all C(|mu|+n-1, n-1) of them."""
    return [nu for nu in monomials_of_degree(rep.n, sum(mu))
            if nu != mu and all((a - b) % rep.r == 0 for a, b in zip(nu, mu))
            and order_lt(nu, mu)]


def jack_by_solve_scan(rep, mu, order=linear_extension_desc) -> JackVector:
    """f_mu by the triangular solve as ``jack_by_solve`` ran it before its
    candidates were enumerated on mu's lattice: the filter over every
    monomial of degree |mu|, the sort by ``order`` (``order_key``
    descending), one pivot scan and one ``resid / diff`` per candidate."""
    mu = tuple(int(v) for v in mu)
    params = rep.params
    wt = weight_of(mu, params)
    v_mu = v_permutation(mu)
    coeffs = {mu: params.one}
    for nu in order(solve_candidates_scan(rep, mu)):
        pivot = pivot_scan(params, mu, v_mu, wt.zvals, nu)
        if pivot is None:
            raise NonGenericError(mu, nu)
        i, diff = pivot
        resid = params.dot(
            (c_eta, hit) for eta, c_eta in coeffs.items()
            if (hit := rep.z_monomial(i, eta).terms.get(nu)) is not None)
        c_nu = resid / diff
        if c_nu:
            coeffs[nu] = c_nu
    poly = Poly(rep.n, {e: c for e, c in coeffs.items() if c})
    return JackVector(mu, poly, wt)


def div_linear_synthetic(p, f):
    """p / f for a monic linear form f = x_v + g, or None: synthetic division
    in x_v over every x_v-degree of p, with no shortcut."""
    lead = max(f.terms, key=lambda e: (sum(e), e))
    v = lead.index(1)
    g = [(e, c) for e, c in f.terms.items() if e != lead]
    layers: dict = {}
    for e, c in p.terms.items():
        layers.setdefault(e[v], {})[e] = c
    quot: dict = {}
    for d in range(max(layers, default=0), 0, -1):
        for e, c in layers.pop(d, {}).items():
            qe = e[:v] + (d - 1,) + e[v + 1:]
            quot[qe] = c
            below = layers.setdefault(d - 1, {})
            for ge, gc in g:
                t = tuple(a + b for a, b in zip(qe, ge))
                accumulate(below, [(t, -(c * gc))])
    if layers.get(0):
        return None
    return type(p)(p.ring, quot)


def v_permutation_counts(mu) -> tuple[int, ...]:
    """v[i] = #{j<i : mu_j < mu_i} + #{j>i : mu_j <= mu_i}, counted slot by
    slot, where the package sorts the slots once."""
    n = len(mu)
    return tuple(
        sum(1 for j in range(i) if mu[j] < mu[i])
        + sum(1 for j in range(i + 1, n) if mu[j] <= mu[i])
        for i in range(n))


def max_length_sorting_permutation(mu) -> tuple[int, ...]:
    """Brute force: the longest v (0-based values) with (v.mu)_{v[i]} = mu_i
    nondecreasing."""
    n = len(mu)
    minus = tuple(sorted(mu))

    def inv(p):
        return sum(1 for a, b in itertools.combinations(p, 2) if a > b)

    best = None
    for perm in itertools.permutations(range(n)):
        arranged = [0] * n
        for i in range(n):
            arranged[perm[i]] = mu[i]
        if tuple(arranged) == minus:
            if best is None or inv(perm) > inv(best):
                best = perm
    return best


def span_character_check_all_of_w(rep, basis, k: int):
    """Stability of the span of the (mu, f) pairs and its character against
    that of the k-th powers, on every element of W; None when both hold."""
    n = rep.n
    mus = [mu for mu, _ in basis]
    expand_order = sorted(range(len(basis)),
                          key=lambda i: sum(1 for jdx in range(len(basis))
                                            if jdx != i and
                                            order_lt(mus[jdx], mus[i])),
                          reverse=True)
    zero = rep.params.zero
    for w in group_elements(rep.r, rep.p, n):
        trace = zero
        trace_v = zero
        for i, (mu, f) in enumerate(basis):
            g = rep.t(w, f)
            coefs = [zero] * len(basis)
            for jdx in expand_order:
                c = g.coeff(mus[jdx])
                if c:
                    coefs[jdx] = c
                    g = g - basis[jdx][1].scaled(c)
            if not g.is_zero():
                return {"status": "fail", "reason": "span not group-stable",
                        "w": str(w), "mu": list(mu), "residual": str(g)}
            trace = trace + coefs[i]
        for i in range(n):
            kk, j = w.x_image(i)
            if j == i:
                trace_v = trace_v + rep.params.zeta(kk * k)
        if trace != trace_v:
            return {"status": "fail", "reason": "character mismatch",
                    "w": str(w), "span_trace": str(trace),
                    "power_trace": str(trace_v)}
    return None


def singular_vector_check_all_of_w(r: int, p: int, n: int, point, k: int):
    """``singular_vector_check`` with its span check run over all of W."""
    rep = PolyRep(r, p, n, SpecializedParameters(point))
    basis = [jack_by_solve(rep, tuple(k if j == i else 0 for j in range(n)))
             for i in range(n)]
    for jv in basis:
        for j in range(n):
            img = rep.dunkl(j, jv.poly)
            if not img.is_zero():
                return {"status": "fail", "reason": "not annihilated",
                        "mu": list(jv.mu), "y_index": j, "image": str(img)}
    failure = span_character_check_all_of_w(
        rep, [(jv.mu, jv.poly) for jv in basis], k)
    if failure is not None:
        return failure
    return {"status": "pass", "k": k, "dimension": n, "annihilated": True,
            "group_stable": True, "character_match": True}


def invariant_char_series_all_of_w(r: int, p: int, n: int, k: int,
                                   truncation: int) -> list:
    """(1/|W|) sum over every w of det(1 - t^k w_V)/det(1 - t w)."""
    total = [Cyc.zero(r)] * (truncation + 1)
    count = 0
    for w in group_elements(r, p, n):
        s = graded_char_series_dense(w, k, truncation)
        total = [a + b for a, b in zip(total, s)]
        count += 1
    out = []
    for c in total:
        v = c / Q(count)
        assert v.is_rational(), "invariant series is not rational"
        out.append(v.rational_value())
    return out


def radical_membership(mu, k: int) -> bool:
    """f_mu lies in the radical iff some part of mu reaches k."""
    return max(mu) >= k


def l1_dimension_by_counting(n: int, k: int) -> int:
    """Count the quotient basis {f_mu : all parts < k} by enumeration."""
    return sum(1 for _ in itertools.product(range(k), repeat=n))


def l1_series_by_counting(n: int, k: int, truncation: int) -> list[int]:
    """Graded dimension of the quotient from the eigenbasis indexing."""
    out = [0] * (truncation + 1)
    for mu in itertools.product(range(k), repeat=n):
        d = sum(mu)
        if d <= truncation:
            out[d] += 1
    return out



def det_leibniz(entries, n_vars: int, one) -> Poly:
    """det of a square matrix of ``Poly`` entries: the Leibniz sum over all
    n! permutations, each sign from the permutation's even cycles."""
    n = len(entries)
    out = Poly.zero(n_vars)
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = [False] * n
        for i in range(n):
            if seen[i]:
                continue
            j = perm[i]
            length = 1
            seen[i] = True
            while j != i:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        term = Poly.monomial((0,) * n_vars, one)
        for i in range(n):
            term = term * entries[i][perm[i]]
        out = out + term if sign > 0 else out - term
    return out


def _sign_against_vandermonde(det: Poly, r: int, shift: int) -> int:
    """s with det = s x^(shift,..,shift) prod_{i<j} (x_i^r - x_j^r), the
    product expanded; 0 when neither sign matches."""
    n, one = det.n, Cyc.one(r)

    def xpow(j, e):
        return Poly.monomial(tuple(e if i == j else 0 for i in range(n)), one)

    target = Poly.monomial((shift,) * n, one)
    for i in range(n):
        for j in range(i + 1, n):
            target = target * (xpow(i, r) - xpow(j, r))
    return 1 if det == target else (-1 if det == -target else 0)


def alternant_sign_leibniz(rows, r: int, shift: int) -> int:
    """``reptheory._alternant_sign`` by expanding the determinant of the
    matrix with entries x^(b_i,..,b_i) x_j^(a_i) (every b_i and b_i + a_i
    nonnegative)."""
    n, one = len(rows), Cyc.one(r)
    entries = [[Poly.monomial(tuple(b + (a if i == j else 0)
                                    for i in range(n)), one)
                for j in range(n)] for b, a in rows]
    return _sign_against_vandermonde(det_leibniz(entries, n, one), r, shift)


def freeness_dets_leibniz(r: int, p: int, n: int, m: int) -> dict:
    """The determinant fields of ``exponents_and_freeness`` (``det_identity``,
    ``det_sign`` and, for p > 1, ``det_sign_alt``), from the two matrices of
    monomials built entry by entry and expanded by the Leibniz sum."""
    mbar, mprime = m % r, m % (r // p)
    one = Cyc.one(r)

    def entry(ev):
        return Poly.monomial(tuple(ev), one)

    rows = [[entry(i * r + mbar if k == j else 0 for k in range(n))
             for j in range(n)] for i in range(n)]
    sign_f = _sign_against_vandermonde(det_leibniz(rows, n, one), r, mbar)
    out = {"det_identity": sign_f != 0, "det_sign": sign_f}
    if p > 1:
        rows[-1] = [entry(mprime if k == j else r - mbar + mprime
                          for k in range(n)) for j in range(n)]
        sign_a = _sign_against_vandermonde(det_leibniz(rows, n, one), r,
                                           mprime)
        out["det_identity"] = sign_f != 0 and sign_a != 0
        out["det_sign_alt"] = sign_a
    return out

def _fraction_rows(r: int):
    """(phi, rows) with rows[k] = Fraction coordinates of x^k mod Phi_r."""
    coeffs = cyclotomic_polynomial(r)
    phi = len(coeffs) - 1
    top = tuple(-Fraction(c) for c in coeffs[:phi])
    rows: list[tuple] = []
    for k in range(max(r, 2 * phi - 1)):
        if k < phi:
            rows.append(tuple(Fraction(int(i == k)) for i in range(phi)))
        else:
            prev = rows[k - 1]
            carry = prev[phi - 1]
            rows.append(tuple(s + carry * t
                              for s, t in zip((Fraction(0),) + prev[:phi - 1], top)))
    return phi, rows


class FractionCyc:
    """An element of Q(zeta_r) as a tuple ``co`` of Fraction coordinates."""

    __slots__ = ("r", "co")

    def __init__(self, r: int, co):
        self.r = r
        self.co = tuple(Fraction(c) for c in co)

    @classmethod
    def from_rational(cls, r: int, a, b=1):
        phi, _ = _fraction_rows(r)
        return cls(r, (Fraction(a, b),) + (0,) * (phi - 1))

    @classmethod
    def one(cls, r: int):
        return cls.from_rational(r, 1)

    @classmethod
    def root(cls, r: int, k: int):
        return cls(r, _fraction_rows(r)[1][k % r])

    def _coerce(self, other):
        if isinstance(other, FractionCyc):
            return other
        if isinstance(other, (int, Fraction)):
            return FractionCyc.from_rational(self.r, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        return FractionCyc(self.r, (a + b for a, b in zip(self.co, o.co)))

    __radd__ = __add__

    def __neg__(self):
        return FractionCyc(self.r, (-a for a in self.co))

    def __sub__(self, other):
        return self + -self._coerce(other)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        phi, rows = _fraction_rows(self.r)
        out = [Fraction(0)] * phi
        for i, ai in enumerate(self.co):
            for j, bj in enumerate(o.co):
                for m in range(phi):
                    out[m] += ai * bj * rows[i + j][m]
        return FractionCyc(self.r, out)

    __rmul__ = __mul__

    def inverse(self):
        if not self:
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        phi = len(self.co)
        cols = [(self * FractionCyc.root(self.r, j)).co for j in range(phi)]
        mat = [[cols[j][i] for j in range(phi)] + [Fraction(int(i == 0))]
               for i in range(phi)]
        for c in range(phi):
            piv = next(rw for rw in range(c, phi) if mat[rw][c])
            mat[c], mat[piv] = mat[piv], mat[c]
            inv = 1 / mat[c][c]
            mat[c] = [v * inv for v in mat[c]]
            for rw in range(phi):
                if rw != c and mat[rw][c]:
                    f = mat[rw][c]
                    mat[rw] = [v - f * w for v, w in zip(mat[rw], mat[c])]
        return FractionCyc(self.r, (mat[i][phi] for i in range(phi)))

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = FractionCyc.one(self.r)
        for _ in range(n):
            out = out * self
        return out

    def __bool__(self) -> bool:
        return any(self.co)

    def __eq__(self, other):
        return self.co == self._coerce(other).co

    def __hash__(self):
        return hash((self.r, self.co))

    def is_rational(self) -> bool:
        return not any(self.co[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.co[0]

    def __complex__(self) -> complex:
        w = cmath.exp(2j * cmath.pi / self.r)
        return sum((float(c) * w ** k for k, c in enumerate(self.co) if c),
                   start=0j)

    def __str__(self) -> str:
        parts = []
        for k, c in enumerate(self.co):
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
            if not parts:
                parts.append(body)
            elif body.startswith("-"):
                parts.append(" - " + body[1:])
            else:
                parts.append(" + " + body)
        return "".join(parts) if parts else "0"

    def __repr__(self):
        return f"Cyc({self.r}, [{', '.join(str(c) for c in self.co)}])"
