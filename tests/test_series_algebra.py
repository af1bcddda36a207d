from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_series_oracle as per_term
from qmf.cli_io import SpecFileError, _parse_order
from qmf.gaussian_pairing import WeightExpansion, pair_s0
from qmf.operator_calculus import DiffOpJet, OperatorFamily
from qmf.series_algebra import (
    EXACT,
    EXPONENT_BITS,
    MAX_DEGREE,
    FiberPoly,
    FormalScalarSeries,
    Poly,
    S0DegreeError,
    S0Series,
    XJetSeries,
    accumulate,
    accumulate_product,
    float_mode,
    binomial_series,
    doubled_order,
    hermitian_eigh,
    inverse_sqrt_series,
    pack,
    unpack,
    unrescale,
)

F = Fraction


def series(terms, trunc=None):
    return FormalScalarSeries.from_terms2(EXACT, {d: F(v) for d, v in terms.items()}, trunc)


class TestDoubledOrder:
    def test_ints_and_half_integer_fractions(self):
        assert doubled_order(3) == 6
        assert doubled_order(F(5, 2)) == 5
        assert doubled_order(F(4, 2)) == 4
        assert doubled_order(-1) == -2

    def test_rejects_non_half(self):
        with pytest.raises(ValueError, match="not a half-integer: 1/3"):
            doubled_order(F(1, 3))

    @pytest.mark.parametrize("value", [True, False, 2.5, "3", None])
    def test_rejects_other_types(self, value):
        with pytest.raises(TypeError, match="as a half-integer"):
            doubled_order(value)

    def test_parse_accepts_half_integers_and_rejects_the_rest(self):
        assert _parse_order("3/2") == F(3, 2)
        assert _parse_order("1.5") == F(3, 2)
        assert _parse_order("2.0") == 2
        assert _parse_order("5/2") == F(5, 2)
        assert _parse_order(" 3 ") == 3
        for text in ("1.3", "1/3", "0.25", "abc"):
            with pytest.raises(SpecFileError, match="cannot parse order"):
                _parse_order(text)


class TestPoly:
    def test_mul_and_diff(self):
        x = Poly.variable(EXACT, 2, 0)
        y = Poly.variable(EXACT, 2, 1)
        p = (x + y) * (x - y)
        assert p == x * x - y * y
        assert p.diff(0) == x.scale(2)
        assert p.degree() == 2

    def test_components(self):
        x = Poly.variable(EXACT, 1, 0)
        p = x * x + Poly.const(EXACT, 1, 3)
        comps = (p + x).components_by_degree()
        assert sorted(comps) == [0, 1, 2]

    def test_zero_degree_sentinel(self):
        z = Poly.zero(EXACT, 2)
        assert z.degree() == float("-inf")

    def test_float_mode_keeps_small(self):
        # float arithmetic drops only exact zeros, as exact arithmetic does
        m = float_mode()
        p = Poly(m, 1, {(1,): 1e-15})
        assert not p.is_zero() and p.coefficient((1,)) == 1e-15
        assert (p + p).coefficient((1,)) == 2e-15
        assert (p * p).coefficient((2,)) == 1e-15 * 1e-15
        assert (p - p).is_zero()


# -- the fraction-free Poly kernel against a Fraction-dict reference

FRACS = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))
# real parts with exact cancellations and tiny values, imaginary parts mostly
# zero of either sign, as the pipeline's float mode produces them
FLOATS = st.one_of(st.integers(-4, 4).map(float), st.floats(-10, 10), st.sampled_from([1e-13, -0.0]))
COMPLEXES = st.builds(complex, FLOATS, st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1, 1)))


def sparse_dicts(n, values):
    return st.dictionaries(st.tuples(*[st.integers(0, 4)] * n), values, max_size=6)


def poly_pairs(values, max_n=2):
    """(n, a, b): two sparse coefficient dicts in the same 1 to max_n variables."""
    return st.integers(1, max_n).flatmap(
        lambda n: st.tuples(st.just(n), sparse_dicts(n, values), sparse_dicts(n, values)))


def ref_clean(t, is_zero=lambda c: c == 0):
    return {a: c for a, c in t.items() if not is_zero(c)}


# the loops of the Fraction-valued Poly that the kernel replaced, kept here as
# the reference; in float mode they fix the order of every complex operation

def ref_add(a, b, is_zero=lambda c: c == 0):
    out = dict(a)
    for k, c in b.items():
        s = out.get(k)
        if s is not None:
            c = s + c
        if is_zero(c):
            out.pop(k, None)
        else:
            out[k] = c
    return out


def ref_mul(a, b, is_zero=lambda c: c == 0):
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            key = tuple(x + y for x, y in zip(ka, kb))
            s = out.get(key)
            out[key] = ca * cb if s is None else s + ca * cb
    return ref_clean(out, is_zero)


def ref_diff(a, i):
    return {k[:i] + (k[i] - 1,) + k[i + 1:]: c * k[i] for k, c in a.items() if k[i]}


def ref_ops(n, a, b, c, is_zero=lambda c: c == 0):
    """name -> (kernel result from Polys pa, pb; reference dict)."""
    return {
        "add": (lambda pa, pb: pa + pb, ref_add(a, b, is_zero)),
        "sub": (lambda pa, pb: pa - pb, ref_add(a, {k: -v for k, v in b.items()}, is_zero)),
        "neg": (lambda pa, pb: -pa, {k: -v for k, v in a.items()}),
        "mul": (lambda pa, pb: pa * pb, ref_mul(a, b, is_zero)),
        "diff": (lambda pa, pb: pa.diff(n - 1), ref_diff(a, n - 1)),
        "scale": (lambda pa, pb: pa.scale(c), ref_clean({k: v * c for k, v in a.items()}, is_zero)),
        "truncate": (lambda pa, pb: pa.truncate_degree(3),
                     {k: v for k, v in a.items() if sum(k) <= 3}),
    }


def bits(t):
    return {k: (c.real.hex(), c.imag.hex()) for k, c in t.items()}


def packed(t):
    """A dict keyed by exponent tuple, keyed by packed monomial instead."""
    return {pack(k): c for k, c in t.items()}


class TestPolyKernel:
    @given(poly_pairs(FRACS), FRACS)
    @settings(max_examples=150, deadline=None)
    def test_exact_ops_match_fraction_reference(self, nab, c):
        n, a, b = nab
        a, b = ref_clean(a), ref_clean(b)
        pa, pb = Poly(EXACT, n, a), Poly(EXACT, n, b)
        for name, (op, want) in ref_ops(n, a, b, c).items():
            got = op(pa, pb)
            assert got.terms == want, name
            assert all(type(v) is Fraction for v in got.terms.values()), name
            # reduced: one positive denominator, no zero numerator, no common factor
            assert got.den > 0 and all(got.num.values()), name
            assert gcd(got.den, *got.num.values()) == 1, name
            # the kernel's result and the same polynomial built from Fractions
            built = Poly(EXACT, n, want)
            assert got == built, name

    @given(poly_pairs(COMPLEXES), COMPLEXES)
    @settings(max_examples=150, deadline=None)
    def test_float_ops_match_complex_loops_bit_for_bit(self, nab, c):
        mode = float_mode()
        n, a, b = nab
        a, b = ref_clean(a, mode.is_zero), ref_clean(b, mode.is_zero)
        pa, pb = Poly(mode, n, a), Poly(mode, n, b)
        assert bits(pa.num) == bits(packed(a))
        for name, (op, want) in ref_ops(n, a, b, c, mode.is_zero).items():
            got = op(pa, pb)
            assert got.den == 1, name
            assert bits(got.num) == bits(packed(want)), name
            assert bits(got.terms) == bits(want), name

    @given(poly_pairs(FRACS, max_n=3), st.integers(-2, 12))
    @settings(max_examples=150, deadline=None)
    def test_exact_bounded_product_is_the_cut_product(self, nab, d):
        n, a, b = nab
        pa, pb = Poly(EXACT, n, ref_clean(a)), Poly(EXACT, n, ref_clean(b))
        assert pa.mul(pb, d) == (pa * pb).truncate_degree(d)

    @given(poly_pairs(COMPLEXES, max_n=3), st.integers(-2, 12))
    @settings(max_examples=150, deadline=None)
    def test_float_bounded_product_is_the_cut_product_bit_for_bit(self, nab, d):
        mode = float_mode()
        n, a, b = nab
        pa, pb = Poly(mode, n, ref_clean(a, mode.is_zero)), Poly(mode, n, ref_clean(b, mode.is_zero))
        got, want = pa.mul(pb, d), (pa * pb).truncate_degree(d)
        assert bits(got.num) == bits(want.num)

    @given(poly_pairs(FRACS, max_n=3), sparse_dicts(1, FRACS), st.integers(-5, 5),
           st.integers(1, 12), st.one_of(st.none(), st.integers(-2, 12)))
    @settings(max_examples=150, deadline=None)
    def test_accumulate_product_is_product_then_accumulate(self, nab, start, w, d, through):
        # (w / d) a b added in place to an accumulator that already holds c
        n, a, b = nab
        pa, pb = Poly(EXACT, n, ref_clean(a)), Poly(EXACT, n, ref_clean(b))
        # (e,) * n: the monomial (y_0 ... y_(n-1))^e
        c = Poly(EXACT, n, {k * n: v for k, v in ref_clean(start).items()})
        acc, den = dict(c.num), c.den
        den = accumulate_product(acc, den, pa, pb, w, d, through)
        prod = pa.mul(pb) if through is None else (pa * pb).truncate_degree(through)
        want, want_den = dict(c.num), c.den
        want_den = accumulate(want, want_den, prod.num, w, d * prod.den)
        assert Poly._reduced(EXACT, n, acc, den) == Poly._reduced(EXACT, n, want, want_den)

    @given(poly_pairs(COMPLEXES, max_n=3), st.integers(-2, 12))
    @settings(max_examples=150, deadline=None)
    def test_float_accumulated_product_is_the_reference_loop_bit_for_bit(self, nab, d):
        mode = float_mode()
        n, a, b = nab
        a, b = ref_clean(a, mode.is_zero), ref_clean(b, mode.is_zero)
        acc = {}
        assert accumulate_product(acc, 1, Poly(mode, n, a), Poly(mode, n, b), 1, 1) == 1
        assert bits(ref_clean(acc, mode.is_zero)) == bits(packed(ref_mul(a, b, mode.is_zero)))
        cut = {}
        accumulate_product(cut, 1, Poly(mode, n, a), Poly(mode, n, b), 1, 1, d)
        assert bits(cut) == bits({k: c for k, c in acc.items() if k >> n * EXPONENT_BITS <= d})

    def test_denominators_combine_by_lcm(self):
        y = Poly.variable(EXACT, 1, 0)
        p = Poly(EXACT, 1, {(0,): F(1, 6), (1,): F(1, 4)}) + y.scale(F(1, 10))
        assert (p.num, p.den) == (packed({(0,): 10, (1,): 21}), 60)
        half = p.truncate_degree(0)   # 10/60 reduces to 1/6
        assert (half.num, half.den) == (packed({(0,): 1}), 6)
        assert (p - p).den == 1 and (p - p).is_zero()


class TestPackedKeys:
    """``Poly.num`` is keyed by packed monomials: the degree in the top field,
    each exponent in a field of ``EXPONENT_BITS`` bits. Tuples stay at the
    edge (``Poly(mode, n, terms)``, ``terms``, ``coefficient``)."""

    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(
        st.just(n), st.dictionaries(st.tuples(*[st.integers(0, 9)] * n), FRACS.filter(bool),
                                    min_size=1, max_size=8))))
    @settings(max_examples=100, deadline=None)
    def test_terms_round_trip(self, case):
        n, terms = case
        p = Poly(EXACT, n, terms)
        assert p.terms == terms
        assert all(p.coefficient(a) == c for a, c in terms.items())
        assert p.coefficient((10,) * n) == 0
        assert {unpack(k, n) for k in p.num} == terms.keys()
        assert (p.degree(), p.min_degree()) == (max(map(sum, terms)), min(map(sum, terms)))

    @given(poly_pairs(FRACS, max_n=3))
    @settings(max_examples=100, deadline=None)
    def test_product_keys_are_the_tuple_sums(self, nab):
        n, a, b = nab
        for x in a:
            for y in b:
                assert pack(x) + pack(y) == pack(tuple(u + v for u, v in zip(x, y)))
        got = Poly(EXACT, n, ref_clean(a)) * Poly(EXACT, n, ref_clean(b))
        assert got.terms == ref_mul(ref_clean(a), ref_clean(b))

    def test_keys_sort_by_degree_then_exponents(self):
        alphas = [(0, 3, 1), (2, 0, 0), (1, 1, 0), (0, 0, 2), (4, 0, 0), (0, 0, 0)]
        assert sorted(alphas, key=pack) == sorted(alphas, key=lambda a: (sum(a), a))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_degree_past_the_field_raises_and_never_spills(self, n):
        top = (MAX_DEGREE,) + (0,) * (n - 1)
        for alpha in (top, top[::-1]):  # the largest exponent in the first or last field
            assert unpack(pack(alpha), n) == alpha
            assert Poly.monomial(EXACT, n, alpha).terms == {alpha: 1}
        over = (MAX_DEGREE + 1,) + (0,) * (n - 1)
        with pytest.raises(ValueError, match=f"degree {MAX_DEGREE + 1}"):
            Poly.monomial(EXACT, n, over)
        # a product past the field raises instead of carrying into the next one
        y = Poly.variable(EXACT, n, n - 1)
        big = Poly.monomial(EXACT, n, (0,) * (n - 1) + (MAX_DEGREE,))
        with pytest.raises(ValueError, match=f"degree {MAX_DEGREE + 1}"):
            big * y
        assert big.mul(y, through=MAX_DEGREE).is_zero()
        op = DiffOpJet(EXACT, n, 1, {(0,) * n: ((y,),)})
        with pytest.raises(ValueError, match=f"degree {MAX_DEGREE + 1}"):
            op.apply(FiberPoly([big]))
        assert (big.diff(n - 1) * y).terms == {(0,) * (n - 1) + (MAX_DEGREE,): MAX_DEGREE}


class TestFormalScalarSeries:
    def test_mul_simple(self):
        one_plus = series({0: 1, 2: 1})   # 1 + h
        one_minus = series({0: 1, 2: -1})  # 1 - h
        prod = one_plus * one_minus
        assert prod == series({0: 1, 4: -1})  # 1 - h^2

    def test_mul_halfpowers_cancel(self):
        a = series({-1: 1})
        b = series({1: 1})
        assert a * b == series({0: 1})

    def test_square_of_one_plus_root(self):
        a = series({0: 1, 1: 1})  # 1 + h^(1/2)
        assert a * a == series({0: 1, 1: 2, 2: 1})

    def test_truncation_respected(self):
        a = series({0: 1, 2: 1}, trunc=2)
        b = series({0: 1, 2: 1}, trunc=2)
        prod = a * b
        assert prod.trunc2 == 2
        assert prod.at2(4) == 0  # beyond truncation: dropped

    def test_laurent_product_truncation_is_sound(self):
        # a known through h^(5/2) with leading h^(-1/2): product with b
        # (leading h^(1/2), known through h^(3/2)) is exact only through h^2.
        a = series({-1: 1}, trunc=5)
        b = series({1: 1, 3: 2}, trunc=3)
        prod = a * b
        assert prod.trunc2 == 2

    def test_inverse(self):
        a = series({0: 1, 2: 3}, trunc=8)
        inv = a.inverse()
        assert (a * inv).equals_through(series({0: 1}), 8)

    def test_inverse_laurent(self):
        a = series({-2: 2, 0: 1}, trunc=4)
        inv = a.inverse()
        prod = a * inv
        assert prod.at2(0) == 1
        assert prod.equals_through(series({0: 1}), prod.trunc2)

    def test_shift_and_order(self):
        a = series({0: 1}).shift2(-1)
        assert a.order2() == -1

    @given(st.lists(st.integers(-4, 4), min_size=1, max_size=5),
           st.lists(st.integers(-4, 4), min_size=1, max_size=5),
           st.lists(st.integers(-4, 4), min_size=1, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_mul_associative_commutative(self, xs, ys, zs):
        def mk(vals):
            return FormalScalarSeries(EXACT, 0, [F(v) for v in vals], 12)
        a, b, c = mk(xs), mk(ys), mk(zs)
        assert a * b == b * a
        lhs = (a * b) * c
        rhs = a * (b * c)
        assert lhs.equals_through(rhs, 12)


# -- the dense FormalScalarSeries sum and product against dicts keyed by doubled exponent


def ref_min_trunc(a, b):
    known = [t for t in (a, b) if t is not None]
    return min(known) if known else None


def ref_low(s):
    """The lowest order of the true series: a zero series' first unknown term
    may lie just past its bound."""
    if not s.is_zero():
        return s.order2()
    return 0 if s.trunc2 is None else min(0, s.trunc2 + 1)


def ref_product_trunc(a, b):
    candidates = []
    if a.trunc2 is not None:
        candidates.append(a.trunc2 + ref_low(b))
    if b.trunc2 is not None:
        candidates.append(b.trunc2 + ref_low(a))
    return min(candidates) if candidates else None


# the loops the dense sum and product replaced, kept here as the reference; in
# float mode they fix the order of every complex operation

def ref_series_add(a, b):
    terms = dict(a.items2())
    for e, c in b.items2():
        s = terms.get(e)
        terms[e] = c if s is None else s + c
    return FormalScalarSeries.from_terms2(a.mode, terms, ref_min_trunc(a.trunc2, b.trunc2))


def ref_series_mul(a, b):
    trunc = ref_product_trunc(a, b)
    terms = {}
    for ea, ca in a.items2():
        for eb, cb in b.items2():
            e = ea + eb
            if trunc is not None and e > trunc:
                continue
            s = terms.get(e)
            terms[e] = ca * cb if s is None else s + ca * cb
    return FormalScalarSeries.from_terms2(a.mode, terms, trunc)


def scalar_series(mode, values):
    """Series with negative offsets, interior and edge zeros, the zero series, and
    truncation orders that are absent, below, inside or beyond the stored range."""
    return st.builds(
        lambda off, cs, t: FormalScalarSeries(mode, off, cs, t),
        st.integers(-5, 4), st.lists(values, max_size=7),
        st.one_of(st.none(), st.integers(-8, 10)))


def series_state(s, coeff=lambda c: c):
    return s.offset2, tuple(map(coeff, s.coeffs)), s.trunc2


def hex_coeff(c):
    return c.real.hex(), c.imag.hex()


FRACS_OR_ZERO = st.one_of(st.just(F(0)), FRACS)


class TestDenseScalarSeries:
    @given(scalar_series(EXACT, FRACS_OR_ZERO), scalar_series(EXACT, FRACS_OR_ZERO))
    @settings(max_examples=200, deadline=None)
    def test_exact_sum_and_product_match_dict_reference(self, a, b):
        assert series_state(a + b) == series_state(ref_series_add(a, b))
        assert series_state(a - b) == series_state(ref_series_add(a, -b))
        assert series_state(a * b) == series_state(ref_series_mul(a, b))

    @given(scalar_series(float_mode(), COMPLEXES), scalar_series(float_mode(), COMPLEXES))
    @settings(max_examples=200, deadline=None)
    def test_float_sum_and_product_match_dict_reference_bit_for_bit(self, a, b):
        for got, want in ((a + b, ref_series_add(a, b)), (a * b, ref_series_mul(a, b)),
                          (b * a, ref_series_mul(b, a))):
            assert series_state(got, hex_coeff) == series_state(want, hex_coeff)

    def test_zero_and_disjoint_cases(self):
        z = FormalScalarSeries.zero(EXACT, 3)
        a = series({-3: 2, 1: 1}, trunc=6)
        assert series_state(z + a) == series_state(ref_series_add(z, a))
        assert series_state(a * z) == series_state(ref_series_mul(a, z))
        assert (a * z).trunc2 == 0   # 3/2 + ord(a) = 3/2 - 3/2
        # a product whose every term lies beyond the truncation order
        b = series({4: 1}, trunc=2)
        assert series_state(a * b) == series_state(ref_series_mul(a, b))


class TestInverseSqrt:
    def test_identity(self):
        assert inverse_sqrt_series(series({0: 1}, trunc=6)) == series({0: 1})

    def test_one_plus_2h_matches_binomial_oracle(self):
        # oracle: (1+x)^(-1/2) = sum binom(-1/2, k) x^k with x = 2h
        a = series({0: 1, 2: 2}, trunc=8)
        r = inverse_sqrt_series(a)
        coeff, expected = F(1), {}
        for k in range(5):
            expected[2 * k] = coeff * F(2) ** k
            coeff = coeff * (F(-1, 2) - k) / (k + 1)
        assert r == series(expected, trunc=8)
        assert (r * r * a).equals_through(series({0: 1}), 8)

    def test_one_plus_root_h(self):
        a = series({0: 1, 1: 1}, trunc=4)
        r = inverse_sqrt_series(a)
        assert r.at2(1) == F(-1, 2)
        assert r.at2(2) == F(3, 8)
        assert (r * r * a).equals_through(series({0: 1}), 4)

    def test_rejects_wrong_leading(self):
        with pytest.raises(ValueError):
            inverse_sqrt_series(series({0: 2}, trunc=4))
        with pytest.raises(ValueError):
            inverse_sqrt_series(series({1: 1}, trunc=4))

    @given(st.lists(st.integers(-3, 3), min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_defect_zero_randomized(self, tail):
        # a.inverse() and inverse_sqrt_series(a) both come from binomial_series
        a = FormalScalarSeries(EXACT, 0, [F(1)] + [F(v) for v in tail], 24)
        r = inverse_sqrt_series(a)
        assert (r * r * a).trunc2 == 24
        assert (r * r * a).equals_through(series({0: 1}), 24)
        assert (a.inverse() * a).equals_through(series({0: 1}), 24)


# -- the binomial series against the k-fold power sum it replaced


def ref_binomial(v, exponent, through=None):
    """(1 + v)^exponent as sum_k binom(exponent, k) v^k, one product per power."""
    trunc = min(t for t in (v.trunc2, through) if t is not None)
    out = term = FormalScalarSeries.const(v.mode, 1, trunc)
    coeff = F(1)
    for k in range(1, trunc // v.order2() + 1):
        coeff = coeff * (exponent - (k - 1)) / k
        term = term * v
        out = out + term.scale(v.mode.coeff(coeff))
    return out


EXPONENTS = st.sampled_from([F(-1), F(-1, 2), F(1, 2), F(3)])


@st.composite
def perturbations(draw, mode=EXACT, values=FRACS_OR_ZERO):
    """v of order 1/2 to 3/2, exact through a bound or everywhere, and a
    ``through`` wherever v has no bound."""
    offset = draw(st.integers(1, 3))
    coeffs = [draw(FRACS.filter(bool))] + draw(st.lists(values, max_size=6))
    trunc = draw(st.one_of(st.none(), st.integers(offset, 14)))
    through = draw(st.integers(0, 14) if trunc is None else st.one_of(st.none(), st.integers(0, 14)))
    v = FormalScalarSeries(mode, offset, [mode.coeff(c) for c in coeffs], trunc)
    return v, through


class TestBinomialSeries:
    @given(perturbations(), EXPONENTS)
    @settings(max_examples=300, deadline=None)
    def test_exact_matches_power_sum(self, case, exponent):
        v, through = case
        got = binomial_series(v, exponent, through)
        assert series_state(got) == series_state(ref_binomial(v, exponent, through))

    def test_float_within_tolerance_of_exact(self):
        v = series({1: F(1, 3), 2: F(-2, 5), 3: F(1, 7)}, trunc=20)
        vf = FormalScalarSeries(float_mode(), v.offset2, [complex(c) for c in v.coeffs],
                                v.trunc2)
        for exponent in (F(-1), F(-1, 2), F(1, 2), F(3)):
            want, got = binomial_series(v, exponent), binomial_series(vf, exponent)
            # judged against the largest coefficient: at exponent 3 the
            # recurrence cancels to rounding residue past (1 + v)^3's degree
            scale = want.max_abs_coeff()
            assert got.trunc2 == want.trunc2
            assert all(float_mode().negligible(got.at2(e) - complex(want.at2(e)), scale)
                       for e in range(21)), exponent

    def test_zero_perturbation(self):
        z = FormalScalarSeries.zero(EXACT, 5)
        assert binomial_series(z, F(-1, 2)) == series({0: 1})
        assert binomial_series(z, F(-1, 2)).trunc2 == 5


def outcome(f, *args):
    """The state of f(*args), or the type of the error it raises."""
    try:
        return series_state(f(*args))
    except (ValueError, ZeroDivisionError) as err:
        return type(err)


NONZERO_SERIES = scalar_series(EXACT, FRACS_OR_ZERO).filter(lambda a: not a.is_zero())
THROUGH = st.one_of(st.none(), st.integers(-4, 14))


class TestPerTermReference:
    """The integer-numerator kernels equal the per-term Fraction code they
    replaced (``scalar_series_oracle``) exactly, and bit for bit in float
    products."""

    @given(scalar_series(EXACT, FRACS_OR_ZERO), scalar_series(EXACT, FRACS_OR_ZERO))
    @settings(max_examples=200, deadline=None)
    def test_exact_product(self, a, b):
        assert series_state(a * b) == series_state(per_term.product(a, b))

    @given(scalar_series(float_mode(), COMPLEXES), scalar_series(float_mode(), COMPLEXES))
    @settings(max_examples=200, deadline=None)
    def test_float_product_bit_for_bit(self, a, b):
        got, want = a * b, per_term.product(a, b)
        assert series_state(got, hex_coeff) == series_state(want, hex_coeff)

    @given(perturbations(), EXPONENTS)
    @settings(max_examples=200, deadline=None)
    def test_exact_binomial(self, case, exponent):
        v, through = case
        assert (series_state(binomial_series(v, exponent, through))
                == series_state(per_term.binomial_series(v, exponent, through)))

    @given(NONZERO_SERIES, THROUGH)
    @settings(max_examples=200, deadline=None)
    def test_exact_inverse(self, a, through):
        assert outcome(a.inverse, through) == outcome(per_term.inverse, a, through)

    @given(perturbations(), st.one_of(st.none(), st.integers(0, 14)))
    @settings(max_examples=200, deadline=None)
    def test_exact_inverse_sqrt(self, case, through):
        v, _ = case
        a = v + FormalScalarSeries.const(EXACT, 1)
        assert (outcome(inverse_sqrt_series, a, through)
                == outcome(per_term.inverse_sqrt_series, a, through))

    def test_zero_series(self):
        z = FormalScalarSeries.zero(EXACT, 6)
        one = series({0: 1, 3: F(2, 3)}, trunc=6)
        assert series_state(z * one) == series_state(per_term.product(z, one))
        for exponent in (F(-1), F(-1, 2), F(1, 2), F(3)):
            assert (series_state(binomial_series(z, exponent))
                    == series_state(per_term.binomial_series(z, exponent)))

    def test_float_inverse_sqrt_at_doubled_order_200(self):
        # the weights are integers over q k, so nothing grows like k!: the
        # float series stays finite and within 1e-12 of the rounded exact one
        exact = series({0: 1, 1: F(1, 3), 2: F(-1, 5), 3: F(1, 7)}, trunc=200)
        flt = FormalScalarSeries(float_mode(), 0, [complex(c) for c in exact.coeffs], 200)
        want, got = inverse_sqrt_series(exact), inverse_sqrt_series(flt)
        assert got.trunc2 == want.trunc2 == 200
        for e in range(201):
            c, w = got.at2(e), complex(want.at2(e))
            assert np.isfinite(c.real) and np.isfinite(c.imag)
            assert abs(c - w) <= 1e-12 * max(1.0, abs(w)), e


def fiber_mono(alpha, value=1, n=None, rank=1, k=0):
    n = n if n is not None else len(alpha)
    return FiberPoly.unit(Poly.monomial(EXACT, n, alpha, value), rank, k)


def at_absolute(u, t: int) -> FiberPoly:
    """The coefficient of the series at the doubled absolute exponent t."""
    return u.at2(t + u.K2)


def rescale(u: XJetSeries) -> S0Series:
    """Substitute x = sqrt(h) * y, the inverse of ``unrescale``: the x-monomial
    x^alpha at doubled index k moves to k + |alpha| with polynomial y^alpha."""
    coeffs = {}
    for k, p in u.items2():
        for ci, comp in enumerate(p.components):
            for alpha, c in comp.terms.items():
                mono = FiberPoly.unit(Poly.monomial(u.mode, u.n, alpha, c), u.rank, ci)
                j = k + sum(alpha)
                coeffs[j] = coeffs[j] + mono if j in coeffs else mono
    return S0Series(u.mode, u.n, u.rank, u.K2, coeffs, u.trunc2)


class TestRescaling:
    def test_x_squared_moves_one_order_up(self):
        # x^2 at order 0 becomes y^2 at order 1
        u = XJetSeries(EXACT, 1, 1, 0, {0: fiber_mono((2,))}, None)
        v = rescale(u)
        assert v.K2 == 0
        assert at_absolute(v, 2) == fiber_mono((2,))
        assert at_absolute(v, 0).is_zero()

    def test_constant_stays(self):
        u = XJetSeries(EXACT, 1, 1, 0, {0: fiber_mono((0,), 7)}, None)
        v = rescale(u)
        assert at_absolute(v, 0) == fiber_mono((0,), 7)

    def test_half_order_x(self):
        # h^(1/2) x  ->  h^1 y, and the round trip returns the input
        u = XJetSeries(EXACT, 1, 1, 0, {1: fiber_mono((1,))}, None)
        v = rescale(u)
        assert at_absolute(v, 2) == fiber_mono((1,))
        assert unrescale(v) == u

    def test_unrescale_single_monomial_with_offset(self):
        # y at index 1/2 with K = 1/2 (absolute order 0) -> x at absolute -1/2
        v = S0Series(EXACT, 1, 1, 1, {1: fiber_mono((1,))}, None)
        u = unrescale(v)
        assert u.K2 == 1
        assert at_absolute(u, -1) == fiber_mono((1,))

    def test_unrescale_keeps_the_one_joint_bound(self):
        # degree d at absolute exponent s came from order s + d/2 <= T
        T = 5  # doubled
        v = S0Series(EXACT, 1, 1, 1, {1: fiber_mono((1,)), 4: fiber_mono((3,), 2)}, T)
        u = unrescale(v)
        assert u.trunc2 == T
        for s2 in range(-1, 12):
            assert u.degree_bound_at2(s2) == T - s2
        for k, p in u.items2():
            assert p.degree() <= u.degree_bound_at2(k - u.K2)
        assert rescale(u) == v and rescale(u).trunc2 == T
        assert unrescale(S0Series(EXACT, 1, 1, 0, {}, None)).degree_bound_at2(0) is None

    def test_degree_invariant_enforced(self):
        with pytest.raises(S0DegreeError):
            S0Series(EXACT, 1, 1, 0, {1: fiber_mono((2,))}, None)

    def test_rescale_linear(self):
        u1 = XJetSeries(EXACT, 1, 1, 0, {0: fiber_mono((2,), 3)}, None)
        u2 = XJetSeries(EXACT, 1, 1, 0, {1: fiber_mono((1,), 5)}, None)
        both = XJetSeries(EXACT, 1, 1, 0,
                          {0: fiber_mono((2,), 3), 1: fiber_mono((1,), 5)}, None)
        assert rescale(both) == rescale(u1) + rescale(u2)

    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 3), st.integers(-5, 5)),
                    min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_random(self, raw):
        coeffs = {}
        for k2, deg, val in raw:
            if val == 0:
                continue
            mono = fiber_mono((deg,))
            cur = coeffs.get(k2, FiberPoly.zero(EXACT, 1, 1))
            coeffs[k2] = cur + mono.scale(F(val))
        u = XJetSeries(EXACT, 1, 1, 0, coeffs, None)
        assert unrescale(rescale(u)) == u

    def test_worked_cubic_ground_block_round_trip(self):
        # hand-rescaled check: u = 1 + h*(q2(x)) with q2 = x^2/6 maps to
        # 1 + h^2 y^2/6; independently substitute x = sqrt(h) y by hand.
        q2 = fiber_mono((2,), F(1, 6))
        u = XJetSeries(EXACT, 1, 1, 0, {0: fiber_mono((0,)), 2: q2}, None)
        v = rescale(u)
        assert at_absolute(v, 0) == fiber_mono((0,))
        assert at_absolute(v, 4) == q2
        assert unrescale(v) == u


class TestS0Series:
    def test_add_aligns_offsets(self):
        a = S0Series(EXACT, 1, 1, 1, {1: fiber_mono((1,))}, None)
        b = S0Series(EXACT, 1, 1, 0, {0: fiber_mono((0,), 2)}, None)
        c = a + b
        assert c.K2 == 1
        assert at_absolute(c, 0) == fiber_mono((1,)) + fiber_mono((0,), 2)
        assert at_absolute(c, -1).is_zero()

    def test_scale_series_by_laurent_raises_K(self):
        a = S0Series(EXACT, 1, 1, 0, {0: fiber_mono((0,))}, None)
        s = FormalScalarSeries.from_terms2(EXACT, {-1: F(1)}, None)
        b = a.scale_series(s)
        assert b.K2 == 1
        assert at_absolute(b, -1) == fiber_mono((0,))

    def test_with_K2_lowers_K_under_the_degree_check(self):
        a = S0Series(EXACT, 1, 1, 2, {2: fiber_mono((0,))}, None)
        m = a.with_K2(0)
        assert m.K2 == 0
        assert m == a
        b = S0Series(EXACT, 1, 1, 2, {2: fiber_mono((2,))}, None)
        assert b.with_K2(4) == b
        with pytest.raises(S0DegreeError):
            b.with_K2(1)

    def test_order_is_the_lowest_absolute_exponent(self):
        a = S0Series(EXACT, 1, 1, 3, {2: fiber_mono((0,)), 5: fiber_mono((1,))}, None)
        assert a.order2() == -1
        assert S0Series.zero(EXACT, 1, 1).order2() is None


# -- the product bound: exact through the returned order, and no further.
# Each factor is known through its bound; the true factor may differ from the
# stored one at any order past it. Changing every bounded factor there must
# leave the product unchanged through the returned order, and when no factor
# is zero, changing the factor that sets the bound must move the next order.
# Exact mode, n = rank = 1; a factor's absolute exponents are doubled ints.

BIG_K = 20  # a doubled offset under which every drawn exponent and degree fits

BOUNDS = st.one_of(st.none(), st.integers(-3, 6))
SMALL = st.integers(-3, 3).filter(bool)


@st.composite
def s0_terms(draw):
    """{doubled absolute exponent: {degree: coefficient}} for y-polynomials."""
    out = {}
    for t, d, c in draw(st.lists(st.tuples(st.integers(-2, 5), st.integers(0, 3), SMALL),
                                 max_size=4)):
        out.setdefault(t, {})[d] = c
    return out


def ypoly(terms: dict) -> Poly:
    """The polynomial with coefficient c at y^d for each d: c of ``terms``."""
    return Poly(EXACT, 1, {(d,): F(c) for d, c in terms.items()})


def s0(terms: dict, bound=None) -> S0Series:
    """The series at the least offset K its kept terms allow: degree d at
    doubled exponent t needs K.doubled >= d - t."""
    coeffs = {t + BIG_K: FiberPoly([ypoly(p)]) for t, p in terms.items()}
    K = max([0] + [max(p) - t for t, p in terms.items() if bound is None or t <= bound])
    return S0Series(EXACT, 1, 1, BIG_K, coeffs, bound).with_K2(K)


def s0_stored(u: S0Series) -> dict:
    """The terms of ``s0`` that ``u`` stores."""
    return {j - u.K2: {a[0]: c for a, c in p.components[0].terms.items()}
            for j, p in u.coeffs2.items()}


def scalar(terms: dict, bound=None) -> FormalScalarSeries:
    return FormalScalarSeries.from_terms2(EXACT, {t: F(c) for t, c in terms.items()}, bound)


def past(bound, extra: dict) -> dict:
    """``extra``'s terms moved past ``bound``: doubled exponent bound + 1 + t."""
    return {} if bound is None else {bound + 1 + t: c for t, c in extra.items()}


def s0_through(u: S0Series, t: int) -> dict:
    return {j - u.K2: p for j, p in u.coeffs2.items() if j - u.K2 <= t}


def s0_at(u: S0Series, t: int) -> FiberPoly:
    return at_absolute(u, t) if t + u.K2 >= 0 else FiberPoly.zero(EXACT, 1, 1)


EXTRA_S0 = st.dictionaries(st.integers(0, 3), st.dictionaries(st.integers(0, 2), SMALL,
                                                              min_size=1), max_size=2)
EXTRA_SCALAR = st.dictionaries(st.integers(0, 3), SMALL, max_size=2)
EXTRA_Q = st.dictionaries(st.integers(0, 1), SMALL, min_size=1)
ONE = {0: 1}


class TestProductBound:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(s0_terms(), BOUNDS, st.dictionaries(st.integers(-3, 4), SMALL, max_size=4), BOUNDS,
           EXTRA_S0, EXTRA_SCALAR)
    def test_scale_series(self, u_terms, tu, s_terms, ts, du, ds):
        u, s = s0(u_terms, tu), scalar(s_terms, ts)
        got = u.scale_series(s)
        bound = got.trunc2
        if bound is None:
            assert tu is None and ts is None
            return
        u_full, s_full = s0_stored(u), dict(s.items2())

        def product(u_terms, s_terms):
            return s0(u_terms).scale_series(scalar(s_terms))

        # sound: the stored terms are all that the product reads through the bound
        changed = product({**u_full, **past(tu, du)}, {**s_full, **past(ts, ds)})
        assert s0_through(changed, bound) == s0_through(got, bound)
        # tight: one change past a bound moves the product's next order
        if u.order2() is None or s.is_zero():
            return
        exact = product(u_full, s_full)
        nxt = bound + 1
        moved = [s0_at(product({**u_full, **past(tu, {0: ONE})}, s_full), nxt),
                 s0_at(product(u_full, {**s_full, **past(ts, ONE)}), nxt)]
        assert any(m != s0_at(exact, nxt) for m in moved)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(s0_terms(), BOUNDS, s0_terms(), BOUNDS, st.integers(0, 4),
           st.dictionaries(st.integers(1, 4), st.dictionaries(st.integers(0, 4), SMALL,
                                                              min_size=1), max_size=2),
           EXTRA_S0, EXTRA_S0, EXTRA_S0)
    def test_pair_s0(self, u_terms, tu, v_terms, tv, tw, w_terms, du, dv, dw):
        lam = (F(1),)

        def weight(terms, complete):
            # omega_0 = 1 and the drawn orders through ``complete`` (doubled)
            omega = {0: Poly.const(EXACT, 1, 1)}
            for m, p in terms.items():
                if m <= complete:
                    omega[m] = ypoly(p)
            return WeightExpansion(EXACT, lam, omega, complete)

        def pairing(u_terms, v_terms, w_terms, complete=40):
            return pair_s0(s0(u_terms), s0(v_terms), weight(w_terms, complete))

        u, v = s0(u_terms, tu), s0(v_terms, tv)
        got = pair_s0(u, v, weight(w_terms, tw))
        bound = got.trunc2
        u_full, v_full = s0_stored(u), s0_stored(v)
        w_full = {m: p for m, p in w_terms.items() if m <= tw}
        changed = pairing({**u_full, **past(tu, du)}, {**v_full, **past(tv, dv)},
                          {**w_full, **past(tw, dw)})
        assert changed.equals_through(got, bound)
        if u.order2() is None or v.order2() is None:
            return
        # each change pairs against the others' leading terms: a Gaussian
        # integral of a square, which does not vanish
        exact = pairing(u_full, v_full, w_full)
        nxt = bound + 1
        lead_u, lead_v = u_full[u.order2()], v_full[v.order2()]
        lead_uv = ypoly(lead_u) * ypoly(lead_v)
        moved = [pairing({**u_full, **past(tu, {0: lead_v})}, v_full, w_full),
                 pairing(u_full, {**v_full, **past(tv, {0: lead_u})}, w_full),
                 pairing(u_full, v_full, {**w_full, **past(tw, {0: {
                     a[0]: c for a, c in lead_uv.terms.items()}})})]
        assert any(m.at2(nxt) != exact.at2(nxt) for m in moved)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(s0_terms(), BOUNDS, st.integers(0, 4), SMALL,
           st.dictionaries(st.integers(1, 4), EXTRA_Q, max_size=2), EXTRA_S0,
           st.dictionaries(st.integers(0, 3), EXTRA_Q, max_size=2))
    def test_apply_series(self, u_terms, tu, top, c0, q_terms, du, dq):
        y = Poly.variable(EXACT, 1, 0)

        def op(p: dict) -> DiffOpJet:
            # Q_j for j >= 1/2 multiplies by a polynomial of degree <= 1 <= 2j,
            # which keeps Q_j u power-counted
            return DiffOpJet(EXACT, 1, 1, {(0,): ((ypoly(p),),)})

        def family(terms, max_order):
            # Q_0 = c0 + y d/dy, and the drawn orders through ``max_order`` (doubled)
            ops = {0: op({0: c0}) + DiffOpJet(EXACT, 1, 1, {(1,): ((y,),)})}
            for j, p in terms.items():
                if j <= max_order:
                    ops[j] = op(p)
            return OperatorFamily(ops, max_order, EXACT, 1, 1)

        def applied(u_terms, q_terms, max_order=40):
            return family(q_terms, max_order).apply_series(s0(u_terms))

        u = s0(u_terms, tu)
        got = family(q_terms, top).apply_series(u)
        bound = got.trunc2
        u_full = s0_stored(u)
        q_full = {j: p for j, p in q_terms.items() if j <= top}
        changed = applied({**u_full, **past(tu, du)}, {**q_full, **past(top, dq)})
        assert s0_through(changed, bound) == s0_through(got, bound)
        if u.order2() is None:
            return
        exact = applied(u_full, q_full)
        nxt = bound + 1
        moved = [applied({**u_full, **past(tu, {0: ONE})}, q_full),  # Q_0 1 = c0
                 applied(u_full, {**q_full, **past(top, {0: ONE})})]
        assert any(s0_at(m, nxt) != s0_at(exact, nxt) for m in moved)


def hermitian_case(rng, m: int, kind: str) -> np.ndarray:
    """A seeded m x m hermitian matrix of the given kind."""
    def gauss(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    if kind == "ties":
        u, _ = np.linalg.qr(gauss(m, m))
        h = u @ np.diag(rng.integers(-2, 3, size=m).astype(float)) @ u.conj().T
    elif kind == "diagonal":
        h = np.diag(rng.normal(size=m)).astype(complex)
    elif kind == "spread":
        h = gauss(m, m) * 10.0 ** rng.uniform(-12, 3, size=(m, m))
    elif kind == "underflow":
        # tied diagonal entries, zeros among them, whose rotations would be
        # the largest; one entry of unit size makes the sweeps run
        h = np.diag(rng.integers(-1, 2, size=m).astype(float)) + np.triu(
            gauss(m, m) * 10.0 ** rng.uniform(-320, -290, size=(m, m)), 1)
        h[0, -1] += 1
    else:
        h = gauss(m, m)
    return (h + h.conj().T) / 2


KINDS = ["generic", "ties", "diagonal", "spread", "underflow"]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("m", range(1, 7))
def test_hermitian_eigh_matches_numpy(m, kind):
    """Jacobi's eigenvalues against LAPACK's; its columns orthonormal and
    eigenvectors, to 1e-13 relative to the largest eigenvalue modulus."""
    rng = np.random.default_rng([m, KINDS.index(kind)])
    for _ in range(40):
        h = hermitian_case(rng, m, kind)
        vals, cols = hermitian_eigh(h.tolist())
        v = np.array(cols).T
        want = np.linalg.eigh(h).eigenvalues
        top = np.max(np.abs(want))
        assert np.max(np.abs(np.array(vals) - want)) <= 1e-13 * top
        assert np.max(np.abs(v.conj().T @ v - np.eye(m))) <= 1e-13
        assert np.max(np.abs(h @ v - v * vals)) <= 1e-13 * top
        for col in cols:
            last = next(x for x in reversed(col) if abs(x) > 2 ** -26)
            assert last.imag == 0 < last.real
