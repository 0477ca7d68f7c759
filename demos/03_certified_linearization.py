"""Certifying a pencil as a linearization, exactly.

Alongside each pencil the package grows two unimodular matrix polynomials
U and V such that U L V equals the original system matrix padded with
identity blocks.  The certificate forms U L V coefficient by coefficient
and compares it with the padded system matrix entry by entry, relative to
|U| |L| |V|; unimodularity comes from an exact expansion of det U and
det V.  Every entry of the pencil and the witnesses is 0, +-1 or a
coefficient entry, so on a correct construction every figure is exactly
zero, and an error of one part in a million in one pencil entry shows.
"""

import numpy as np

import rosenpencil as rp
from rosenpencil.blocks import Pencil
from rosenpencil.sampling import random_rsmp

rng = np.random.default_rng(21)
system = random_rsmp(rng, n=2, p=3, m=1, d_a=3, d_d=3)
s = rp.SigmaSeq("IC")

pencil, u, v = rp.linearization_with_witnesses(system, s)
print(f"pencil: {pencil.shape[0]} x {pencil.shape[1]}, witnesses {u.shape} and {v.shape}")
print(f"witness degrees: {u.degree} and {v.degree} (bounded by pencil degree - 1)")

report = rp.verify_theorem(system, s, pencil, u, v)
print(f"\nmax residual against the padded system matrix: {report.max_residual:.2e}")
print(f"residual of the permuted block-diagonal form:   {report.corollary_residual:.2e}")
print(f"unimodularity deviations: U {report.u_unimodularity:.2e}, V {report.v_unimodularity:.2e}")
print("verdict:", "pass" if report.verdict else "fail")

tail = pencil.tail.copy()
i, j = np.argwhere(tail != 0)[-1]
tail[i, j] *= 1 + 1e-6
wrong = Pencil(pencil.lead, tail, pencil.row_sizes, pencil.col_sizes)
bad = rp.verify_theorem(system, s, wrong, u, v)
print(f"\nwith tail entry ({i}, {j}) off by one part in a million: residual {bad.max_residual:.2e},",
      "verdict", "pass" if bad.verdict else "fail")
print("worst residual per target block (1-based four-block partition):")
for (bi, bj), val in sorted(bad.block_residuals.items()):
    if val > 0:
        print(f"  block ({bi},{bj}): {val:.2e}")
print("  (absent blocks were exactly zero)")

print("\nAt a sample point, U(z) L(z) V(z) reproduces the padded system matrix:")
z = 0.8 + 0.4j
t = u.eval(z) @ pencil.eval(z) @ v.eval(z)
np.set_printoptions(precision=3, suppress=True, linewidth=120)
print(np.round(t, 10))
print("\ncompare the middle blocks with A(z) and D(z):")
print("A(z) =", np.round(system.A.eval(z), 3).tolist())
print("D(z) =", np.round(system.D.eval(z), 3).tolist())
