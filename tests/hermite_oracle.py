"""The monomial-to-Hermite change of basis by triangular elimination.

The program applies operators to the monic Hermite family directly
(``HermiteBasis.apply``). These tests keep the long way round as its oracle:
synthesize the basis polynomial, apply the operator to its monomials
(``DiffOpJet.apply``), and strip the image back to Hermite coefficients.
"""

from math import gcd

from qmf.harmonic_oscillator import HermiteIndex
from qmf.series_algebra import grow_den, mono_degree


def expand_scalar(basis, q) -> tuple[dict, int]:
    """Coefficients of a scalar polynomial over the monic family, as
    numerators keyed by alpha over one denominator.

    The family member for alpha is monic with leading monomial y^alpha, so
    repeatedly stripping a maximal-degree monomial terminates and is exact.
    It runs on numerators: the common denominator grows, rescaling the
    remainder and the result, only when a stripped coefficient times a family
    member needs a new factor.
    """
    is_zero = basis.mode.is_zero
    work = dict(q.num)
    den = q.den
    out: dict[tuple, object] = {}
    while work:
        alpha = max(work, key=lambda a: (mono_degree(a), a))
        c = work.pop(alpha)
        if is_zero(c):
            continue
        out[alpha] = c
        tail = basis.poly(alpha)
        f = tail.den
        if f != 1:
            # (c / den) * (cb / f) is a multiple of 1 / e
            g = gcd(c, den)
            c, e = c // g, den // g * f
            if den % e:
                grow_den(out, den, e)
                den = grow_den(work, den, e)
            c *= den // e
        for beta, cb in tail.num.items():
            if beta == alpha:
                continue
            s = work.get(beta, 0) - c * cb
            if is_zero(s):
                work.pop(beta, None)
            else:
                work[beta] = s
    return out, den


def expand_num(basis, q) -> tuple[dict, int]:
    """Hermite coefficients of a fibre polynomial as numerators keyed by
    ``HermiteIndex`` over one denominator."""
    num, den = {}, 1
    for k, comp in enumerate(q.components):
        if comp.is_zero():
            continue
        cnum, cden = expand_scalar(basis, comp)
        if den % cden:
            den = grow_den(num, den, cden)
        f = den // cden
        for alpha, c in cnum.items():
            num[HermiteIndex(alpha, k)] = c * f
    return num, den


def expand(basis, q) -> dict:
    """Hermite coefficients of a fibre polynomial as mode values."""
    num, den = expand_num(basis, q)
    join = basis.mode.join
    return {idx: join(c, den) for idx, c in num.items()}


def apply_by_elimination(basis, op, index) -> dict:
    """``op`` applied to the basis vector at ``index``, as mode values: the
    oracle of ``HermiteBasis.apply``."""
    return expand(basis, op.apply(basis.fiber(index)))
