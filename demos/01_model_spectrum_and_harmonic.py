"""The local model at a potential minimum and its exactly solvable case.

Near a non-degenerate minimum, the operator h^2 L + h W + V is governed by a
harmonic model whose eigenvalues are sum_nu (2 alpha_nu + 1) lambda_nu + mu_k.
For a purely quadratic potential the quasimode machinery terminates at order
zero: the eigenvalue series is h * E0 on the nose, with no corrections at any
order. This script tabulates a small spectrum and demonstrates that exactness.
"""

from fractions import Fraction

from qmf import EXACT, JetProblem, build_spectrum, compute_quasimodes

F = Fraction

print(__doc__)

print("Model spectrum for frequencies (1, 2) and endomorphism eigenvalue -3:")
table = build_spectrum(EXACT, (F(1), F(2)), (F(-3),), degree=2)
for index, energy in table.sorted_entries():
    print(f"  alpha = {index.alpha}, fiber {index.k + 1}:  E = {energy}")

print("\nAnisotropic harmonic well in two dimensions, bottom level, order 4:")
problem = JetProblem.create(EXACT, 2, 1, 10, (F(1), F(2)))
result = compute_quasimodes(problem, 4, level_index=0)
(energy,) = result.eigenvalues
print(f"  E(h) = {energy}   (a single exact term: no corrections ever appear)")
(mode,) = result.eigenfunctions
print(f"  eigenfunction jet: {mode}")
