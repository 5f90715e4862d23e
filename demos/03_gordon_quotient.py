"""The finite-dimensional quotient at the Coxeter point, for G(2,1,2).

With kappa = 1 and every coupling constant equal to (h+1)/h (h the Coxeter
number), the polynomial representation acquires a radical spanned by the
eigenvectors with a part of size h+1, and the quotient is (h+1)^n
dimensional -- the diagonal-coinvariant quotient in disguise.  This script
replays the whole story at desk scale.
"""

from cherednik import (
    PolyRep, SpecializedParameters, coxeter_number, genericity_guard,
    gordon_point, jack_by_solve, l1_graded_dimension, psi_scalar,
    singular_vector_check,
)

r, p, n = 2, 1, 2
h = coxeter_number(r, p, n)
k = h + 1
point = gordon_point(r, p, n)
print(f"== G(2,1,2): h = {h}, specializing every c_s to {k}/{h} ==")
print(f"point: {point}")
print()

guard = genericity_guard(point, k, n, bound=20)
print(f"hyperplane certificate (target H_{{{k},1}}, scanning bound "
      f"{guard['bound']}): {'clean' if guard['ok'] else guard['violations']}")
print()

rep = PolyRep(r, p, n, SpecializedParameters(point))
for mu in [(k, 0), (0, k)]:
    jv = jack_by_solve(rep, mu)
    images = [rep.dunkl(j, jv.poly) for j in range(n)]
    print(f"f_{mu} = {jv.poly}")
    print(f"   every Dunkl operator kills it: "
          f"{all(im.is_zero() for im in images)}")
    print(f"   lowering coefficient at this point: {psi_scalar(rep, mu)}")
print()

print("their span is group-stable with the character of the k-th powers:")
print(f"  {singular_vector_check(r, p, n, point, k)}")
print()

by_degree = l1_graded_dimension(n, k, 0)
print(f"graded character at the identity, ((1 - t^k)/(1 - t))^n: "
      f"{by_degree}")
print(f"its value at t = 1, the dimension of the quotient: "
      f"{sum(by_degree)} = (h+1)^n = {k ** n}")
print()

print("membership of f_mu in the radical is reading off max(mu) >= k:")
for mu in [(0, 0), (4, 4), (5, 0), (2, 7)]:
    print(f"  mu = {mu}: {max(mu) >= k}")
