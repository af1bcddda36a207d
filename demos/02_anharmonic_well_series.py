"""Eigenvalue series of anharmonic 1-D wells, cross-checked two ways.

The cubic well x^2 + c x^3 and the quartic well x^2 + c x^4 have ground
eigenvalue series

    cubic:    E(h) = h (1 - (11/16) c^2 h + ...)
    quartic:  E(h) = h (1 + (3/4) c h - (21/16) c^2 h^2 + ...)

whose leading corrections are classical second-order sums over oscillator
matrix elements. The pipeline obtains them through Bloch's wave operator
and the series pencil. The rs check reads the spectral projector's Laurent
residues instead: Kato's residue eigenvalue (Q P e)_m / (P e)_m must equal
the pipeline's series coefficient for coefficient, so its residual is 0.
"""

from qmf import compute_quasimodes, rs_oracle
from qmf.cli_io import preset_problem

print(__doc__)

for preset in ("cubic1d:c=1", "quartic1d:c=1"):
    spec = preset_problem(preset, order=4)
    result = compute_quasimodes(spec.problem, spec.order, e0=spec.level_value)
    (energy,) = result.eigenvalues
    print(f"{preset}:")
    print(f"  pipeline:   E(h) = {energy}")
    report = rs_oracle(result)
    print(f"  rs check through order {spec.order}: "
          f"{'pass' if report.passed else 'FAIL'}, residual {report.max_residual} "
          f"({report.detail})\n")
