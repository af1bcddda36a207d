"""A supersymmetric fixture with an exact zero mode.

For V = (f')^2 and W = -f'' built from f = x^2/2 + c x^3/6, the operator
h^2 L + h W + V annihilates the weighted constant section exactly, so its
bottom eigenvalue series must vanish identically -- every coefficient, at
every order -- and the transport equations must hold with zero residual.
This is the sharpest end-to-end cancellation test the engine has: a single
sign error anywhere breaks it.
"""

from fractions import Fraction

from qmf import compute_quasimodes, transport_residual
from qmf.cli_io import preset_problem

print(__doc__)

for c in ("1/2", "1", "2"):
    spec = preset_problem(f"witten1d:c={c}", order=4)
    result = compute_quasimodes(spec.problem, spec.order, e0=Fraction(0))
    (energy,) = result.eigenvalues
    report = transport_residual(result)
    print(f"c = {c}:  E(h) = {energy or 0}"
          f"   transport residual = {report.max_residual}  -> "
          f"{'ok' if report.passed else 'BROKEN'}")

print("\nThe quasimode itself is the constant section times the scalar series")
print("that normalizes it against the Gaussian weight:")
spec = preset_problem("witten1d:c=1", order=3)
result = compute_quasimodes(spec.problem, spec.order, e0=Fraction(0))
for k, jet in result.eigenfunctions[0].items2():  # k is the doubled index
    print(f"  h^{Fraction(k, 2)} * {jet.components[0].coefficient((0,))}")
