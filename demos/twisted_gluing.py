"""Cech-level twisted sheaves on a finite cover nerve: cocycle checks,
deciding coboundaries with replayable witnesses, twisted bundle gluing,
and the untwisting of endomorphism algebras.

Run:  python3 demos/twisted_gluing.py
"""

import random
from fractions import Fraction

from azumaya import (Cochain1, CoverNerve, Mu, Qstar, TwistedBundle,
                     UnitCochain2, check_2cocycle, coboundary,
                     endomorphism_azumaya, is_coboundary, refine,
                     twist_of_hom, twist_of_tensor, twisted_gluing_check)

rng = random.Random(0)
nerve = CoverNerve(4)

print("== coboundaries are cocycles ==")
beta = Cochain1(nerve, Mu(4), {(0, 1): 1, (0, 2): 3, (1, 3): 2, (2, 3): 1})
alpha = coboundary(beta)
print("delta(beta) passes the 2-cocycle identity:", check_2cocycle(alpha).ok)

print()
print("== deciding coboundaries in mu_4 ==")
ok, witness = is_coboundary(alpha)
print("alpha is a coboundary:", ok)
print("witness replays exactly:", coboundary(witness) == alpha)
lone = UnitCochain2(nerve, Mu(2), {(0, 1, 2): 1})
print("a lone ordered triple (not alternating) is rejected:",
      is_coboundary(lone))

print()
print("== twist arithmetic ==")
print("hom(alpha, alpha) is untwisted:",
      twist_of_hom(alpha, alpha).is_trivial())
sigma = [0, 1, 1, 2, 3]
print("refinement along", sigma, "stays a cocycle:",
      check_2cocycle(refine(alpha, sigma)).ok)

print()
print("== a twisted bundle from scalar gluing ==")
beta_q = Cochain1(nerve, Qstar(),
                  {(i, j): Fraction(rng.choice([1, 2, 3, -1]), rng.choice([1, 2]))
                   for i in range(4) for j in range(4) if i < j})
alpha_q = coboundary(beta_q)
gluing = {}
for i in range(4):
    for j in range(4):
        if i != j:
            b = beta_q.value(i, j)
            gluing[(i, j)] = [[b, 0], [0, b]]
bundle = TwistedBundle(2, nerve, gluing, alpha_q)
print("twisted gluing check:", twisted_gluing_check(bundle).ok)

bad = {k: [list(m.row(i)) for i in range(m.rows)] for k, m in bundle.gluing.items()}
bad[(0, 1)][0][1] = Fraction(9)
res = twisted_gluing_check(TwistedBundle(2, nerve, bad, alpha_q))
print("perturbing one entry is caught at", res.where, "->", res.detail)

print()
print("== End(E) descends untwisted ==")
endo = endomorphism_azumaya(bundle)
print("conjugation gluing has rank", endo.rank,
      "and passes the ordinary cocycle check:",
      twisted_gluing_check(endo).ok)
