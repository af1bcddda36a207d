"""A rank-2 bundle with a mixed-parity degenerate level.

With frequency 2 and endomorphism eigenvalues (0, 4), the model eigenvalues
(2a+1)*2 + mu collide at 6 for (a=1, fiber 1) and (a=0, fiber 2): one odd
member and one even member. Mixed parity lifts the usual vanishing of
half-integer terms, and indeed the level splits already at order h^(1/2),
driven by the linear off-diagonal endomorphism slope (a connection
coefficient rides along to exercise the covariant machinery).
"""

from fractions import Fraction

from qmf import compute_quasimodes, eigen_residual, transport_residual
from qmf.cli_io import preset_problem

print(__doc__)

spec = preset_problem("rank2", order=Fraction(7, 2))
result = compute_quasimodes(spec.problem, spec.order, e0=spec.level_value)
lvl = result.level
print(f"level E0 = {lvl.E0}: members {[(m.alpha, m.k + 1) for m in lvl.members]}, "
      f"parity {lvl.parity}")
for i, e in enumerate(result.eigenvalues, start=1):
    print(f"  E_{i}(h) = {e}")

half = 3  # doubled absolute exponent 3/2 = h * h^(1/2)
gap = result.eigenvalues[1].at2(half) - result.eigenvalues[0].at2(half)
print(f"\nhalf-integer splitting at h^(3/2): gap = {gap}")

print("independent residual checks:")
for rep in (transport_residual(result), eigen_residual(result)):
    print(f"  {rep.name}: max residual {rep.max_residual} -> "
          f"{'ok' if rep.passed else 'BROKEN'}")
