"""Comparing the formal series against a numeric eigensolver.

For the confining quartic well the truncated series evaluated at finite h
must approach the true bottom eigenvalue with an error of order
h^(order + 3/2) or better; here the order-2 truncation gives slope ~4 on a
log-log plot. The numeric side is a Galerkin solve in the sine basis of a
Dirichlet box whose walls sit where the ground weight has decayed below
1e-14; the basis doubles from 64 functions until two sizes agree to 1e-9.
"""

from qmf import HalfInt, compute_quasimodes, crosscheck_eigenvalue_1d
from qmf.cli_io import preset_problem

print(__doc__)

spec = preset_problem("quartic1d:c=1", order=HalfInt(4))
result = compute_quasimodes(spec.problem, spec.order, e0=spec.level_value)
(energy,) = result.eigenvalues
print(f"series: E(h) = {energy}\n")

report = crosscheck_eigenvalue_1d(result, hbars=[0.2, 0.1, 0.05], grid=2048)
print("   h        |E_numeric - E_series|")
for hb, err in zip(report.data["hbars"], report.data["errors"]):
    print(f"  {hb:<8} {err:.3e}")
print(f"\nlog-log slope: {report.data['slope']:.3f} "
      f"(required >= {report.data['required_slope']}) -> "
      f"{'ok' if report.passed else 'BROKEN'}")
