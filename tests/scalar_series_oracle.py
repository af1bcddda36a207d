"""The scalar series kernels with one Fraction per product.

``FormalScalarSeries.__mul__`` convolves integer numerators over the lcm of
the coefficient denominators, and Miller's recurrence (``euler_recurrence``)
sums integer weights over one denominator per grade. These tests keep the
per-term form as their reference: every product and every weight is a mode
value, so each term is normalized on its own. They read a series only
through ``items2()``, ``order2()`` and ``at2()``, and build one only through
``from_terms2`` and ``const``.
"""

from fractions import Fraction

from qmf.series_algebra import FormalScalarSeries, _min_trunc, convolution_bound


def product(a: FormalScalarSeries, b: FormalScalarSeries) -> FormalScalarSeries:
    """a * b, one mode-value product per pair of coefficients."""
    trunc = convolution_bound((a.trunc2, a.order2()), (b.trunc2, b.order2()))
    terms: dict = {}
    for ea, ca in a.items2():
        for eb, cb in b.items2():
            e = ea + eb
            if trunc is not None and e > trunc:
                continue
            v = terms.get(e)
            terms[e] = ca * cb if v is None else v + ca * cb
    return FormalScalarSeries.from_terms2(a.mode, terms, trunc)


def euler_recurrence(parts: dict, top: int, mode, exponent: Fraction) -> dict:
    """g_k = sum_j w(j, k) a_j g_(k-j) for (1 + sum_j parts[j])^exponent,
    each weight w = ((exponent + 1) j - k) / k a mode value."""
    g = {0: mode.one()}
    for k in range(1, top + 1):
        acc = None
        for j, aj in parts.items():
            if j <= k and k - j in g:
                term = aj * g[k - j] * mode.coeff(Fraction((exponent + 1) * j - k, k))
                acc = term if acc is None else acc + term
        if acc is not None:
            g[k] = acc
    return g


def binomial_series(v: FormalScalarSeries, exponent: Fraction, through2=None):
    """(1 + v)^exponent through v's bound, or ``through2`` when lower."""
    trunc = _min_trunc(v.trunc2, through2)
    if trunc is None:
        if v.is_zero():
            return FormalScalarSeries.const(v.mode, 1)
        raise ValueError("binomial series of an untruncated series needs an explicit order")
    parts = euler_recurrence(dict(v.items2()), trunc, v.mode, exponent)
    return FormalScalarSeries.from_terms2(v.mode, parts, trunc)


def inverse(a: FormalScalarSeries, through2=None) -> FormalScalarSeries:
    """1 / a: lead * h^lo * (1 + v), inverted as (1 + v)^(-1)."""
    lo = a.order2()
    lead = a.at2(lo)
    rel_trunc = None if a.trunc2 is None else a.trunc2 - lo
    rel = FormalScalarSeries.from_terms2(a.mode, {e - lo: c / lead for e, c in a.items2()},
                                         rel_trunc)
    v = rel - FormalScalarSeries.const(a.mode, rel.at2(0), rel_trunc)
    inv_rel = binomial_series(v, Fraction(-1), None if through2 is None else through2 + lo)
    return inv_rel.scale(a.mode.one() / lead).shift2(-lo)


def inverse_sqrt_series(a: FormalScalarSeries, through2=None) -> FormalScalarSeries:
    """a^(-1/2) for a = 1 + (terms of positive order)."""
    v = a - FormalScalarSeries.const(a.mode, a.at2(0), a.trunc2)
    return binomial_series(v, Fraction(-1, 2), through2)
