"""A doubly degenerate level in two dimensions.

The isotropic well x1^2 + x2^2 + c (x1^3 + x1 x2^2) keeps the reflection
x2 -> -x2, but its first excited model level (eigenvalue 4) is doubly
degenerate, which is exactly the regime where naive order-by-order transport
constructions break down. The projector route handles it: the level carries
a 2x2 matrix pencil whose eigenvalue series split at order h^1, and the two
quasimodes come out asymptotically orthonormal with half-integer leading
offset h^(-1/2).
"""

from fractions import Fraction

from qmf import compute_quasimodes, orthonormality_report
from qmf.cli_io import preset_problem

print(__doc__)

spec = preset_problem("iso2d:c=1", order=4)
result = compute_quasimodes(spec.problem, spec.order, e0=spec.level_value)
lvl = result.level
print(f"level E0 = {lvl.E0}: multiplicity {lvl.m0}, parity {lvl.parity}, "
      f"offset exponent -K = -{Fraction(lvl.K2, 2)}")
for i, e in enumerate(result.eigenvalues, start=1):
    print(f"  E_{i}(h) = {e}")

print("\nParity theorem in action: an odd level, so the eigenvalue series")
print("carry only integer powers, and the eigenfunction jets only live on")
print("the half-integer exponent class:")
for a in result.eigenfunctions:
    exponents = sorted(k - a.K2 for k in a.coeffs2)
    print(f"  doubled exponents present: {exponents}")

rep = orthonormality_report(result)
print(f"\northonormality: pairing Gram = diag{tuple(str(c) for c in result.norm2_constants)}"
      f" exactly; defect = {rep.max_residual}")
print("(the constants are the squared norms of the monic level basis;")
print(" float mode divides them out and returns the literal identity)")
