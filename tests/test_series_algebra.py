from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmf.series_algebra import (
    EXACT,
    FiberPoly,
    FormalScalarSeries,
    HI0,
    HalfInt,
    Poly,
    S0DegreeError,
    S0Series,
    XJetSeries,
    float_mode,
    half_range,
    inverse_sqrt_series,
    rescale,
    unrescale,
)

F = Fraction


def series(terms, trunc=None):
    return FormalScalarSeries.from_terms(
        EXACT, {HalfInt(d): F(v) for d, v in terms.items()},
        None if trunc is None else HalfInt(trunc))


class TestHalfInt:
    def test_arithmetic_and_order(self):
        a, b = HalfInt(3), HalfInt(4)  # 3/2 and 2
        assert a + b == HalfInt(7)
        assert b - a == HalfInt(1)
        assert -a == HalfInt(-3)
        assert a * 2 == HalfInt(6)
        assert a < b and b > a and a == HalfInt(3)
        assert not a.is_integer and b.is_integer

    def test_parse_and_str(self):
        assert HalfInt.parse("3/2") == HalfInt(3)
        assert HalfInt.parse("2") == HalfInt(4)
        assert HalfInt.parse("1.5") == HalfInt(3)
        assert str(HalfInt(3)) == "3/2"
        assert str(HalfInt(4)) == "2"

    def test_of_rejects_non_half(self):
        with pytest.raises(ValueError):
            HalfInt.of(F(1, 3))

    def test_parse_accepts_half_integers_and_rejects_the_rest(self):
        assert HalfInt.parse("1.5") == HalfInt(3)
        assert HalfInt.parse("2.0") == HalfInt(4)
        assert HalfInt.parse("5/2") == HalfInt(5)
        assert HalfInt.parse(" 3 ") == HalfInt(6)
        for text in ("1.3", "1/3", "0.25", "abc"):
            with pytest.raises(ValueError):
                HalfInt.parse(text)

    @given(st.integers(-50, 50), st.integers(-50, 50))
    @settings(max_examples=60, deadline=None)
    def test_total_order_consistent_with_fraction(self, a, b):
        ha, hb = HalfInt(a), HalfInt(b)
        assert (ha < hb) == (ha.as_fraction() < hb.as_fraction())

    def test_half_range(self):
        assert [h.doubled for h in half_range(0, HalfInt(3))] == [0, 1, 2, 3]


class TestPoly:
    def test_mul_and_diff(self):
        x = Poly.variable(EXACT, 2, 0)
        y = Poly.variable(EXACT, 2, 1)
        p = (x + y) * (x - y)
        assert p == x * x - y * y
        assert p.diff(0) == x.scale(2)
        assert p.degree() == 2

    def test_parity_and_components(self):
        x = Poly.variable(EXACT, 1, 0)
        p = x * x + Poly.const(EXACT, 1, 3)
        assert p.parity() == 1
        assert (x * x * x).parity() == -1
        assert (p + x).parity() == 0
        comps = (p + x).components_by_degree()
        assert sorted(comps) == [0, 1, 2]

    def test_zero_degree_sentinel(self):
        z = Poly.zero(EXACT, 2)
        assert z.degree() == float("-inf")
        assert z.parity() is None

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


def poly_pairs(values):
    """(n, a, b): two sparse coefficient dicts in the same 1 or 2 variables."""
    return st.integers(1, 2).flatmap(
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
            assert got == built and hash(got) == hash(built), name

    @given(poly_pairs(COMPLEXES), COMPLEXES)
    @settings(max_examples=150, deadline=None)
    def test_float_ops_match_complex_loops_bit_for_bit(self, nab, c):
        mode = float_mode()
        n, a, b = nab
        a, b = ref_clean(a, mode.is_zero), ref_clean(b, mode.is_zero)
        pa, pb = Poly(mode, n, a), Poly(mode, n, b)
        assert bits(pa.num) == bits(a)
        for name, (op, want) in ref_ops(n, a, b, c, mode.is_zero).items():
            got = op(pa, pb)
            assert got.den == 1, name
            assert bits(got.num) == bits(want), name
            assert bits(got.terms) == bits(want), name

    def test_denominators_combine_by_lcm(self):
        y = Poly.variable(EXACT, 1, 0)
        p = Poly(EXACT, 1, {(0,): F(1, 6), (1,): F(1, 4)}) + y.scale(F(1, 10))
        assert (p.num, p.den) == ({(0,): 10, (1,): 21}, 60)
        half = p.truncate_degree(0)   # 10/60 reduces to 1/6
        assert (half.num, half.den) == ({(0,): 1}, 6)
        assert (p - p).den == 1 and (p - p).is_zero()


class TestFiberPoly:
    def test_parity_mixed(self):
        x = Poly.variable(EXACT, 1, 0)
        v = FiberPoly([x, Poly.const(EXACT, 1, 1)])
        assert v.parity() == 0
        assert FiberPoly([x, x * x * x]).parity() == -1


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
        assert prod.truncation_order == HalfInt(2)
        assert prod.coefficient(HalfInt(4)) == 0  # beyond truncation: dropped

    def test_laurent_product_truncation_is_sound(self):
        # a known through h^(5/2) with leading h^(-1/2): product with b
        # (leading h^(1/2), known through h^(3/2)) is exact only through h^2.
        a = series({-1: 1}, trunc=5)
        b = series({1: 1, 3: 2}, trunc=3)
        prod = a * b
        assert prod.truncation_order == HalfInt(2)

    def test_inverse(self):
        a = series({0: 1, 2: 3}, trunc=8)
        inv = a.inverse()
        assert (a * inv).equals_through(series({0: 1}), HalfInt(8))

    def test_inverse_laurent(self):
        a = series({-2: 2, 0: 1}, trunc=4)
        inv = a.inverse()
        prod = a * inv
        assert prod.coefficient(HI0) == 1
        assert prod.equals_through(series({0: 1}), prod.truncation_order)

    def test_shift_and_order(self):
        a = series({0: 1}).shift(HalfInt(-1))
        assert a.order() == HalfInt(-1)

    @given(st.lists(st.integers(-4, 4), min_size=1, max_size=5),
           st.lists(st.integers(-4, 4), min_size=1, max_size=5),
           st.lists(st.integers(-4, 4), min_size=1, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_mul_associative_commutative(self, xs, ys, zs):
        def mk(vals):
            return FormalScalarSeries(EXACT, HI0, [F(v) for v in vals], HalfInt(12))
        a, b, c = mk(xs), mk(ys), mk(zs)
        assert a * b == b * a
        lhs = (a * b) * c
        rhs = a * (b * c)
        assert lhs.equals_through(rhs, HalfInt(12))


# -- the dense FormalScalarSeries sum and product against HalfInt-keyed dicts


def ref_min_trunc(a, b):
    known = [t for t in (a, b) if t is not None]
    return min(known) if known else None


def ref_product_trunc(a, b):
    candidates = []
    if a.truncation_order is not None:
        candidates.append(a.truncation_order + (b.order() or HI0))
    if b.truncation_order is not None:
        candidates.append(b.truncation_order + (a.order() or HI0))
    return min(candidates) if candidates else None


# the loops the dense sum and product replaced, kept here as the reference; in
# float mode they fix the order of every complex operation

def ref_series_add(a, b):
    terms = dict(a.items())
    for e, c in b.items():
        s = terms.get(e)
        terms[e] = c if s is None else s + c
    return FormalScalarSeries.from_terms(a.mode, terms, ref_min_trunc(a.truncation_order,
                                                                      b.truncation_order))


def ref_series_mul(a, b):
    trunc = ref_product_trunc(a, b)
    terms = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            if trunc is not None and e > trunc:
                continue
            s = terms.get(e)
            terms[e] = ca * cb if s is None else s + ca * cb
    return FormalScalarSeries.from_terms(a.mode, terms, trunc)


def scalar_series(mode, values):
    """Series with negative offsets, interior and edge zeros, the zero series, and
    truncation orders that are absent, below, inside or beyond the stored range."""
    return st.builds(
        lambda off, cs, t: FormalScalarSeries(mode, HalfInt(off), cs,
                                              None if t is None else HalfInt(t)),
        st.integers(-5, 4), st.lists(values, max_size=7),
        st.one_of(st.none(), st.integers(-8, 10)))


def series_state(s, coeff=lambda c: c):
    return s.offset, tuple(map(coeff, s.coeffs)), s.truncation_order


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
        z = FormalScalarSeries.zero(EXACT, HalfInt(3))
        a = series({-3: 2, 1: 1}, trunc=6)
        assert series_state(z + a) == series_state(ref_series_add(z, a))
        assert series_state(a * z) == series_state(ref_series_mul(a, z))
        assert (a * z).truncation_order == HI0   # 3/2 + ord(a) = 3/2 - 3/2
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
        assert (r * r * a).equals_through(series({0: 1}), HalfInt(8))

    def test_one_plus_root_h(self):
        a = series({0: 1, 1: 1}, trunc=4)
        r = inverse_sqrt_series(a)
        assert r.coefficient(HalfInt(1)) == F(-1, 2)
        assert r.coefficient(HalfInt(2)) == F(3, 8)
        assert (r * r * a).equals_through(series({0: 1}), HalfInt(4))

    def test_rejects_wrong_leading(self):
        with pytest.raises(ValueError):
            inverse_sqrt_series(series({0: 2}, trunc=4))
        with pytest.raises(ValueError):
            inverse_sqrt_series(series({1: 1}, trunc=4))

    @given(st.lists(st.integers(-3, 3), min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_defect_zero_randomized(self, tail):
        a = FormalScalarSeries(EXACT, HI0, [F(1)] + [F(v) for v in tail], HalfInt(10))
        r = inverse_sqrt_series(a)
        assert (r * r * a).equals_through(series({0: 1}), HalfInt(10))


def fiber_mono(alpha, value=1, n=None, rank=1, k=0):
    n = n if n is not None else len(alpha)
    return FiberPoly.unit(Poly.monomial(EXACT, n, alpha, value), rank, k)


class TestRescaling:
    def test_x_squared_moves_one_order_up(self):
        # x^2 at order 0 becomes y^2 at order 1
        u = XJetSeries(EXACT, 1, 1, HI0, {HI0: fiber_mono((2,))},
                       hbar_truncation=None, degree_truncation=None)
        v = rescale(u)
        assert v.K == HI0
        assert v.at_absolute(HalfInt(2)) == fiber_mono((2,))
        assert v.at_absolute(HI0).is_zero()

    def test_constant_stays(self):
        u = XJetSeries(EXACT, 1, 1, HI0, {HI0: fiber_mono((0,), 7)},
                       hbar_truncation=None, degree_truncation=None)
        v = rescale(u)
        assert v.at_absolute(HI0) == fiber_mono((0,), 7)

    def test_half_order_x(self):
        # h^(1/2) x  ->  h^1 y, and the round trip returns the input
        u = XJetSeries(EXACT, 1, 1, HI0, {HalfInt(1): fiber_mono((1,))},
                       hbar_truncation=None, degree_truncation=None)
        v = rescale(u)
        assert v.at_absolute(HalfInt(2)) == fiber_mono((1,))
        assert unrescale(v) == u

    def test_unrescale_single_monomial_with_offset(self):
        # y at index 1/2 with K = 1/2 (absolute order 0) -> x at absolute -1/2
        v = S0Series(EXACT, 1, 1, HalfInt(1), {HalfInt(1): fiber_mono((1,))}, None)
        u = unrescale(v)
        assert u.K == HalfInt(1)
        assert u.at_absolute(HalfInt(-1)) == fiber_mono((1,))

    def test_degree_invariant_enforced(self):
        with pytest.raises(S0DegreeError):
            S0Series(EXACT, 1, 1, HI0, {HalfInt(1): fiber_mono((2,))}, None)

    def test_rescale_linear(self):
        u1 = XJetSeries(EXACT, 1, 1, HI0, {HI0: fiber_mono((2,), 3)},
                        hbar_truncation=None, degree_truncation=None)
        u2 = XJetSeries(EXACT, 1, 1, HI0, {HalfInt(1): fiber_mono((1,), 5)},
                        hbar_truncation=None, degree_truncation=None)
        both = XJetSeries(EXACT, 1, 1, HI0,
                          {HI0: fiber_mono((2,), 3), HalfInt(1): fiber_mono((1,), 5)},
                          hbar_truncation=None, degree_truncation=None)
        assert rescale(both) == rescale(u1) + rescale(u2)

    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 3), st.integers(-5, 5)),
                    min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_random(self, raw):
        coeffs = {}
        for k2, deg, val in raw:
            if val == 0:
                continue
            k = HalfInt(k2)
            mono = fiber_mono((deg,))
            cur = coeffs.get(k, FiberPoly.zero(EXACT, 1, 1))
            coeffs[k] = cur + mono.scale(F(val))
        u = XJetSeries(EXACT, 1, 1, HI0, coeffs,
                       hbar_truncation=None, degree_truncation=None)
        assert unrescale(rescale(u)) == u

    def test_worked_cubic_ground_block_round_trip(self):
        # hand-rescaled check: u = 1 + h*(q2(x)) with q2 = x^2/6 maps to
        # 1 + h^2 y^2/6; independently substitute x = sqrt(h) y by hand.
        q2 = fiber_mono((2,), F(1, 6))
        u = XJetSeries(EXACT, 1, 1, HI0, {HI0: fiber_mono((0,)), HalfInt(2): q2},
                       hbar_truncation=None, degree_truncation=None)
        v = rescale(u)
        assert v.at_absolute(HI0) == fiber_mono((0,))
        assert v.at_absolute(HalfInt(4)) == q2
        assert unrescale(v) == u


class TestS0Series:
    def test_add_aligns_offsets(self):
        a = S0Series(EXACT, 1, 1, HalfInt(1), {HalfInt(1): fiber_mono((1,))}, None)
        b = S0Series(EXACT, 1, 1, HI0, {HI0: fiber_mono((0,), 2)}, None)
        c = a + b
        assert c.K == HalfInt(1)
        assert c.at_absolute(HI0) == fiber_mono((1,)) + fiber_mono((0,), 2)
        assert c.at_absolute(HalfInt(-1)).is_zero()

    def test_scale_series_by_laurent_raises_K(self):
        a = S0Series(EXACT, 1, 1, HI0, {HI0: fiber_mono((0,))}, None)
        s = FormalScalarSeries.from_terms(EXACT, {HalfInt(-1): F(1)})
        b = a.scale_series(s)
        assert b.K == HalfInt(1)
        assert b.at_absolute(HalfInt(-1)) == fiber_mono((0,))

    def test_minimal_K(self):
        a = S0Series(EXACT, 1, 1, HalfInt(2), {HalfInt(2): fiber_mono((0,))}, None)
        m = a.minimal_K()
        assert m.K == HI0
        assert m == a
