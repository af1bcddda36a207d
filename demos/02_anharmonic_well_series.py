"""Eigenvalue series of anharmonic 1-D wells, cross-checked two ways.

The cubic well x^2 + c x^3 and the quartic well x^2 + c x^4 have ground
eigenvalue series

    cubic:    E(h) = h (1 - (11/16) c^2 h + ...)
    quartic:  E(h) = h (1 + (3/4) c h - (21/16) c^2 h^2 + ...)

whose leading corrections are classical second-order sums over oscillator
matrix elements. The pipeline obtains them through the spectral projector
and the series pencil; the independent Rayleigh-Schrodinger recursion must
reproduce every coefficient exactly.
"""

from qmf import HalfInt, compute_quasimodes, rs_oracle
from qmf.cli_io import preset_problem

print(__doc__)

for preset in ("cubic1d:c=1", "quartic1d:c=1"):
    spec = preset_problem(preset, order=HalfInt(8))
    result = compute_quasimodes(spec.problem, spec.order, e0=spec.level_value)
    (energy,) = result.eigenvalues
    print(f"{preset}:")
    print(f"  pipeline:   E(h) = {energy}")
    oracle = rs_oracle(result)
    print(f"  recursion:  E(h) = h * ({oracle})")
    inner = energy.shift(HalfInt(-2))
    diff = inner - oracle
    print(f"  agreement through order {spec.order}: "
          f"max coefficient difference = {diff.max_abs_coeff(spec.order)}\n")
