"""Hermitian matrices over the half-power series field and their eigendecomposition.

The level data on a basis f_a of the perturbed level's span, here Bloch's
wave-operator images f_a = Omega e_a (C. Bloch, Nucl. Phys. 6 (1958) 329;
I. Lindgren, J. Phys. B 7 (1974) 2441), is a Gram matrix A_ab = (f_a, f_b),
whose leading term is a positive diagonal for the monic level basis, and an
interaction matrix C_ab = (f_a, Q f_b). Since Q Omega = Omega H_eff, C is the
series product A H_eff and needs no pairing. The eigenvalue series of the
pencil are the output of the whole construction. They are found from the
generalized (pencil) problem C v = E A v, which has the eigenvalue series of
the normalized matrix A^(-1/2) C A^(-1/2) but stays inside the rational field
for unnormalized bases.

The eigendecomposition splits recursively: at the first order where the
deflated coefficient is not a scalar multiple of the leading Gram term, the
constant generalized eigenproblem fixes blocks, a series congruence
decouples them to the working order (a Sylvester-type solve with the
spectral gaps as denominators, built one coefficient per step), and each
block recurses. Each leaf, a 1x1 block or a block whose eigenvalues never
split, scales its columns to the constant squared norm of their leading
order; the congruence keeps that norm when a column maps back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Sequence

from .series_algebra import (
    FormalScalarSeries,
    S0Series,
    _min_trunc,
    hermitian_eigh,
    inverse_sqrt_series,
    matmul,
)
from .gaussian_pairing import WeightExpansion, pair_s0

__all__ = [
    "EigenResult",
    "gram_matrix",
    "interaction_matrix",
    "formal_eigendecomposition",
    "ExactSplitUnavailable",
    "SplitAmbiguityError",
]


class ExactSplitUnavailable(ValueError):
    """A spectral split needs irrational eigenvalues; rerun in float mode."""


class SplitAmbiguityError(ValueError):
    """Float-mode eigenvalue clustering is ambiguous at the reported order."""

    def __init__(self, order2: int, gap: float, scale: float):
        self.order2 = order2
        super().__init__(
            f"eigenvalue clusters separated by {gap:.3e} at order {Fraction(order2, 2)} are "
            f"neither equal nor resolved against the magnitude {scale:.3e}; splitting stalled")


# ---------------------------------------------------------------------------
# Level matrices


def gram_matrix(fs: Sequence[S0Series], omega: WeightExpansion,
                through2: int | None = None) -> list:
    """Pairing Gram matrix (f_a, f_b) of the level basis, as rows of scalar
    series.

    The pairing is hermitian: only the entries on and above the diagonal are
    paired, and each one below is the conjugate of its mirror. The monic
    basis is orthogonal at leading order, so the leading term is the positive
    diagonal that ``formal_eigendecomposition`` requires.
    """
    m = len(fs)
    pairs = {(i, j): pair_s0(fs[i], fs[j], omega, through2)
             for i in range(m) for j in range(i, m)}
    return [[pairs[i, j] if i <= j else pairs[j, i].conj() for j in range(m)] for i in range(m)]


def interaction_matrix(gram: list, h_eff: list) -> list:
    """Interaction matrix (f_a, Q f_b) = (A H_eff)_ab over the series field.

    For the wave-operator basis Q f_b = sum_c f_c H_eff[c][b], so the pairing
    of f_a with Q f_b is the series product of the Gram rows ``gram`` with the
    columns of ``h_eff``.
    """
    return matmul(gram, h_eff)


# ---------------------------------------------------------------------------
# Exact linear algebra on constant rational matrices


def _char_poly(t) -> list:
    """det(nu I - T) coefficients [c_0, ..., c_m] with c_m = 1 (Faddeev-LeVerrier)."""
    m = len(t)
    coeffs = [Fraction(0)] * (m + 1)
    coeffs[m] = Fraction(1)
    mk = [[Fraction(0)] * m for _ in range(m)]
    c = Fraction(1)
    for k in range(1, m + 1):
        for i in range(m):
            mk[i][i] = mk[i][i] + c
        mk = matmul(t, mk)
        tr = sum(mk[i][i] for i in range(m))
        c = -tr / k
        coeffs[m - k] = c
    return coeffs


def _rational_roots(coeffs: list) -> list:
    """All rational roots with multiplicity of a rational polynomial (constant term first)."""
    roots = []
    work = [Fraction(c) for c in coeffs]
    while len(work) > 1:
        root = _rational_root(work)
        if root is None:
            return roots  # remaining factor has no rational root
        while len(work) > 1 and _poly_eval(work, root) == 0:
            roots.append(root)
            work = _deflate(work, root)
    return roots


def _rational_root(f: list):
    """One rational root of f, or None, in time polynomial in its bit size.

    A linear f has the root -c0/c1. A quadratic's roots are rational exactly
    when its discriminant is the square of a fraction, that is, when the
    reduced discriminant's numerator and denominator are perfect squares.
    Higher degrees go to ``_sturm_root``.
    """
    if len(f) == 2:
        return -f[0] / f[1]
    if len(f) > 3:
        return _sturm_root(f)
    disc = f[1] * f[1] - 4 * f[0] * f[2]
    if disc < 0:
        return None
    rn, rd = math.isqrt(disc.numerator), math.isqrt(disc.denominator)
    if rn * rn != disc.numerator or rd * rd != disc.denominator:
        return None
    return (Fraction(rn, rd) - f[1]) / (2 * f[2])


def _sturm_root(f: list):
    """One rational root of f, or None, by bisection on Sturm counts.

    Sturm's theorem counts the distinct real roots in (lo, hi], so bisection
    isolates each one. A rational root p/q has q dividing the leading
    coefficient q_f of f's integer multiple, and such fractions lie 1/q_f^2
    apart, so a root isolated closer than that is rational exactly when the
    nearest fraction with denominator <= q_f is a root.
    """
    chain = _sturm_chain(f)
    q = abs(f[-1] * math.lcm(*(c.denominator for c in f)))
    bound = 1 + max(abs(c / f[-1]) for c in f[:-1])
    stack = [(-bound, bound)]
    while stack:
        lo, hi = stack.pop()
        count = _sign_changes(chain, lo) - _sign_changes(chain, hi)
        if count == 1 and (hi - lo) * q * q < 1:
            cand = ((lo + hi) / 2).limit_denominator(q)
            if _poly_eval(f, cand) == 0:
                return cand
        elif count:
            mid = (lo + hi) / 2
            if _poly_eval(f, mid) == 0:
                return mid
            stack += [(lo, mid), (mid, hi)]
    return None


def _sturm_chain(f: list) -> list:
    """f, f' and the negated remainders of Euclid's algorithm on them."""
    chain = [f, [i * c for i, c in enumerate(f)][1:]]
    while True:
        rem = list(chain[-2])
        divisor = chain[-1]
        while len(rem) >= len(divisor):
            k = rem[-1] / divisor[-1]
            for i, c in enumerate(divisor, start=len(rem) - len(divisor)):
                rem[i] -= k * c
            rem.pop()
        while rem and rem[-1] == 0:
            rem.pop()
        if not rem:
            return chain
        chain.append([-c for c in rem])


def _sign_changes(chain: list, x) -> int:
    signs = [v > 0 for v in (_poly_eval(p, x) for p in chain) if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _poly_eval(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _deflate(coeffs, root):
    """Synthetic division by (x - root); exact for a true root."""
    m = len(coeffs) - 1
    q = [Fraction(0)] * m
    q[m - 1] = Fraction(coeffs[m])
    for i in range(m - 1, 0, -1):
        q[i - 1] = Fraction(coeffs[i]) + root * q[i]
    return q


def _rref(mat) -> tuple:
    """Gauss-Jordan reduced row echelon form of a rational matrix, and its pivot columns."""
    a = [list(row) for row in mat]
    pivots = []
    for c in range(len(a[0])):
        r = len(pivots)
        pivot = next((rr for rr in range(r, len(a)) if a[rr][c] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        pv = a[r][c]
        a[r] = [x / pv for x in a[r]]
        for rr in range(len(a)):
            if rr != r and a[rr][c] != 0:
                f = a[rr][c]
                a[rr] = [x - f * y for x, y in zip(a[rr], a[r])]
        pivots.append(c)
        if len(pivots) == len(a):
            break
    return a, pivots


def _nullspace(mat) -> list:
    """Rational basis of the nullspace."""
    a, pivots = _rref(mat)
    basis = []
    for fc in (c for c in range(len(a[0])) if c not in pivots):
        v = [Fraction(0)] * len(a[0])
        v[fc] = Fraction(1)
        for ri, pc in enumerate(pivots):
            v[pc] = -a[ri][fc]
        basis.append(v)
    return basis


def _gen_eig_exact(r, d):
    """Blocks of the constant hermitian pencil (R, diag(d)) over the rationals.

    Returns [(nu, columns)] sorted by nu; raises if the characteristic
    polynomial has an irrational root.
    """
    m = len(r)
    coeffs = _char_poly([[x / di for x in row] for row, di in zip(r, d)])
    roots = _rational_roots(coeffs)
    if len(roots) != m:
        raise ExactSplitUnavailable(
            "spectral split has irrational eigenvalues; rerun in float mode")
    out = []
    for nu in sorted(set(roots)):
        shifted = [[r[i][j] - (nu * d[i] if i == j else 0) for j in range(m)] for i in range(m)]
        basis = _nullspace(shifted)
        if len(basis) != roots.count(nu):
            raise ExactSplitUnavailable("eigenspace dimension mismatch in exact split")
        out.append((nu, _d_orthogonalize(basis, d)))
    return out


def _d_orthogonalize(vectors, d):
    """Gram-Schmidt in the diag(d) inner product, without normalization."""

    def ip(u, v):
        return sum(ui * di * vi for ui, di, vi in zip(u, d, v))

    out = []
    for v in vectors:
        w = list(v)
        for u in out:
            c = ip(u, w) / ip(u, u)
            w = [wi - c * ui for wi, ui in zip(w, u)]
        out.append(w)
    return out


def _gen_eig_float(r, d, scale: float, order2: int, mode):
    """Clustered blocks of the constant hermitian pencil (r, diag(d)) in float mode.

    Diagonal scaling: with l = sqrt(d), the hermitian matrix
    M[j][i] = conj(r[i][j] / l_i) / l_j has the pencil's eigenvalues, and
    dividing row i of its orthonormal eigenvectors (``hermitian_eigh``'s
    Jacobi sweeps) by l_i gives diag(d)-orthonormal columns. ``scale`` bounds
    the entries cancelled into ``r``; over min(d) it bounds their effect on
    the eigenvalues, which are equal when their gap is negligible against
    it, ambiguous within 100 times.
    """
    m = len(r)
    low = [complex(math.sqrt(di.real)) for di in d]
    vals, w = hermitian_eigh([[(r[i][j] / low[i]).conjugate() / low[j] for i in range(m)]
                              for j in range(m)])
    vecs = [[x / li for x, li in zip(col, low)] for col in w]
    scale = max(scale / min(di.real for di in d), max(abs(v) for v in vals))
    clusters: list[list[int]] = []
    for i, v in enumerate(vals):
        if clusters and mode.negligible(v - vals[clusters[-1][0]], scale):
            clusters[-1].append(i)
        else:
            clusters.append([i])
    for a, b in zip(clusters, clusters[1:]):
        gap = abs(vals[b[0]] - vals[a[-1]])
        if mode.negligible(gap, 100 * scale):
            raise SplitAmbiguityError(order2, float(gap), scale)
    return [(complex(sum(vals[i] for i in cl) / len(cl)), [vecs[i] for i in cl])
            for cl in clusters]


# ---------------------------------------------------------------------------
# Eigendecomposition over the series field


@dataclass
class EigenResult:
    """Eigenvalue series and eigenvector columns of a hermitian series pencil.

    Columns are orthogonal in the Gram form, and their squared norms are the
    constants ``norms2``. ``normalized`` records that every constant is 1,
    which is always possible in float mode, and in exact mode when every
    leading squared norm is a rational square.
    """

    eigenvalues: list
    vectors: list       # list of columns; each column is a list of series
    norms2: list        # constant coefficients
    normalized: bool


def _is_hermitian(x: list, through2: int) -> bool:
    """Whether the series matrix ``x`` equals its conjugate transpose through
    the doubled ``through2``; the pairs i <= j decide it, (j, i) being their mirror."""
    return all(x[i][j].equals_through(x[j][i].conj(), through2)
               for i in range(len(x)) for j in range(i, len(x)))


def formal_eigendecomposition(m_matrix: list, gram: list, through2: int) -> EigenResult:
    """Eigenvalue and eigenvector series of a hermitian pencil over the series field.

    Solves the generalized problem M v = E (gram) v through the smaller of
    the doubled ``through2`` and the entries' truncation orders; M and gram are rows of
    scalar series, and the leading gram coefficient must be a positive
    diagonal (in float mode, off-diagonal entries negligible against it), as
    it is for the monic level basis. Splitting follows the first order whose
    deflated coefficient is not a scalar multiple of the leading gram; blocks
    are decoupled by a series congruence before recursing, so eigenvalues are
    exact through the working order.

    Each column arrives from its leaf of the recursion already scaled by a
    scalar series so that its squared norm is the constant n0 of its leading
    order (``_unit_column``); it is then scaled by 1/sqrt(n0) when every n0
    has a square root in the field (always in float mode).
    """
    mode = m_matrix[0][0].mode
    trunc = reduce(_min_trunc, (e.trunc2 for x in (m_matrix, gram)
                                for row in x for e in row), through2)
    if not _is_hermitian(m_matrix, trunc) or not _is_hermitian(gram, trunc):
        raise ValueError("pencil must be hermitian")
    lead = [[e.at2(0) for e in row] for row in gram]
    scale = max(mode.abs(row[i]) for i, row in enumerate(lead))
    if any(mode.to_float(mode.real(row[i])) <= 0 or
           any(j != i and not mode.negligible(x, scale) for j, x in enumerate(row))
           for i, row in enumerate(lead)):
        raise ValueError("leading Gram term is not a positive diagonal")

    b, a = ([[e.truncate2(trunc) for e in row] for row in x] for x in (m_matrix, gram))
    solved = _pencil_solve(b, a, trunc, mode)

    # deterministic order: sort by eigenvalue coefficient sequences
    def eig_key(triple):
        e = triple[0]
        return tuple((t, round(mode.to_float(mode.real(e.at2(t))), 12))
                     for t in range(trunc + 1))

    solved.sort(key=eig_key)
    eigenvalues, vectors, norms2 = map(list, zip(*solved))

    # phase convention: largest-magnitude leading entry real positive
    fixed = []
    for col in vectors:
        lead_order = min((e.order2() for e in col if not e.is_zero()), default=None)
        if lead_order is None:
            fixed.append(col)
            continue
        entries = [e.at2(lead_order) for e in col]
        # the first entry of largest magnitude, float magnitudes equal when close
        mags = [mode.abs(c) for c in entries]
        best = next(i for i, a in enumerate(mags) if mode.close(a, max(mags)))
        pivot = entries[best]
        phase = pivot / mode.abs(pivot) if not mode.is_zero(pivot) else mode.one()
        inv_phase = mode.one() / phase
        fixed.append([e.scale(inv_phase) for e in col])
    vectors = fixed

    # unit norms when the field has every square root, else the constants stay
    try:
        roots = [_field_sqrt(mode, n0) for n0 in norms2]
    except ExactSplitUnavailable:
        normalized = False
    else:
        vectors = [[e.scale(mode.one() / r) for e in col] for col, r in zip(vectors, roots)]
        norms2 = [mode.one() for _ in vectors]
        normalized = True

    return EigenResult(eigenvalues=eigenvalues, vectors=vectors, norms2=norms2,
                       normalized=normalized)


def _field_sqrt(mode, c):
    """Square root of a coefficient; in exact mode it must be a rational square."""
    if mode.name != "exact":
        return complex(c) ** 0.5
    rn, rd = math.isqrt(max(c.numerator, 0)), math.isqrt(c.denominator)
    if c < 0 or rn * rn != c.numerator or rd * rd != c.denominator:
        raise ExactSplitUnavailable(f"no exact square root of {c}")
    return Fraction(rn, rd)


def _pencil_solve(b: list, a: list, order: int, mode) -> list:
    """Recursive splitting; returns [(eigenvalue series, column of series, n0)],
    each column scaled at its leaf to the constant squared norm n0. Orders
    are doubled ints, here and in the helpers below.

    ``b`` and ``a`` are rows of series truncated at ``order``. The deflated coefficient
    B_t - (E A)_t vanishes when each entry's two terms are ``mode.close``;
    (E A)_t is one convolution of the eigenvalue coefficients found so far
    with those of A."""
    m = len(b)
    if m == 1:
        e = (b[0][0] / a[0][0]).truncate2(order)
        one = FormalScalarSeries.const(mode, 1, order)
        return [(e, *_unit_column([one], a[0][0], order, mode))]

    d = [row[i].at2(0) for i, row in enumerate(a)]  # the leading Gram, a diagonal
    e_terms: list = []  # (order, coefficient) of the common eigenvalue so far
    for t in range(order + 1):
        terms = [[(b[i][j].at2(t), _convolve(e_terms, a[i][j], t, mode))
                  for j in range(m)] for i in range(m)]
        if all(mode.close(x, y) for row in terms for x, y in row):
            continue
        r_t = [[x - y for x, y in row] for row in terms]
        if mode.name == "exact":
            blocks = _gen_eig_exact(r_t, d)
        else:
            scale = max(max(abs(x), abs(y)) for row in terms for x, y in row)
            blocks = _gen_eig_float(r_t, d, scale, t, mode)
        if len(blocks) == 1:
            e_terms.append((t, blocks[0][0]))
            continue
        e_accum = FormalScalarSeries.from_terms2(mode, dict(e_terms), order)
        return _split_and_recurse(b, a, order, mode, e_accum, t, blocks)

    # no split through the working order: all eigenvalues coincide
    e_accum = FormalScalarSeries.from_terms2(mode, dict(e_terms), order)
    return [(e_accum, col, n0) for col, n0 in _series_gram_schmidt(a, order, mode)]


def _convolve(e_terms: list, x: FormalScalarSeries, t: int, mode):
    """Coefficient t of E x, for E the sum of c h^s over (s, c) in ``e_terms``."""
    out = None
    for s, c in e_terms:
        v = x.at2(t - s)
        if not mode.is_zero(v):
            out = c * v if out is None else out + c * v
    return mode.zero() if out is None else out


def _lin_comb(mode, order: int, terms) -> FormalScalarSeries:
    """The sum of c h^s x over (c, s, x) in ``terms``, truncated at ``order``:
    constants times shifted series, formed without a series product."""
    slots: dict[int, object] = {}
    for c, s, x in terms:
        if mode.is_zero(c):
            continue
        for e, v in x.items2():
            k = e + s
            if k > order:
                break
            w = slots.get(k)
            slots[k] = c * v if w is None else w + c * v
    return FormalScalarSeries.from_terms2(mode, slots, order)


def _split_and_recurse(b, a, order, mode, e_accum, t, blocks):
    """Decouple the blocks of a split at order t, then solve each block.

    The constant block matrix U rotates the pencil so that its deflated
    order-t coefficient is block diagonal; ``_decouple`` finds the series
    congruence V that keeps it so through the order, and each diagonal block
    of the rotated and decoupled pencil recurses. A column of a block maps
    back through W = U V.
    """
    m = len(b)
    nus, ranges, u_cols = [], [], []
    for nu, cols in blocks:
        nus.append(nu)
        ranges.append(range(len(u_cols), len(u_cols) + len(cols)))
        u_cols.extend(cols)
    u = [[mode.coeff(u_cols[j][i]) for j in range(m)] for i in range(m)]

    def rotate(x):
        """U^H x U, a constant congruence."""
        return [[_lin_comb(mode, order, [(mode.conj(u[k][i]) * u[l][j], 0, x[k][l])
                                         for k in range(m) for l in range(m)])
                 for j in range(m)] for i in range(m)]

    a_rot = rotate(a)
    p_rot = rotate([[x - y * e_accum for x, y in zip(rb, ra)] for rb, ra in zip(b, a)])
    v_terms, av, pv = _decouple(a_rot, p_rot, t, nus, ranges, order, mode)

    def decoupled(xv, rng):
        """The diagonal block of V^H X V on ``rng``, from xv = X V."""
        return [[_lin_comb(
            mode, order, [(mode.one(), 0, xv[i][j])] + [(mode.conj(vr[k][i]), r, xv[k][j])
                                                          for r, vr in v_terms for k in range(m)])
            for j in rng] for i in rng]

    # W = U V, as (coefficient, order) terms per entry
    w = [[[(u[i][j], 0)] + [(sum((u[i][k] * vr[k][j] for k in range(m)), mode.zero()), r)
                              for r, vr in v_terms]
          for j in range(m)] for i in range(m)]

    out = []
    for rng in ranges:
        for e_sub, col, n0 in _pencil_solve(decoupled(pv, rng), decoupled(av, rng), order, mode):
            full_col = [_lin_comb(mode, order, [(c, r, col[cc]) for cc, j in enumerate(rng)
                                                for c, r in w[i][j]])
                        for i in range(m)]
            out.append(((e_accum + e_sub).truncate2(order), full_col, n0))
    return out


def _decouple(a_rot, p_rot, t, nus, ranges, order, mode):
    """Series congruence that block-diagonalizes a rotated pencil.

    ``a_rot`` and ``p_rot`` (rows of series truncated at ``order``) are the
    rotated A and P = B - E A, whose order-t deflated coefficient is
    nus[b] * A0 on the block ``ranges[b]``. Returns (V terms, A V, P V) for
    V = 1 + sum_s h^s V_s with zero diagonal blocks, which makes V^H A V and
    V^H P V block diagonal through the order: each V_s solves a
    Sylvester-type equation, with the spectral gaps as denominators, that
    clears the off-diagonal blocks of (V^H A V)_s and (V^H P V)_(t+s). The
    rotated leading Gram A0 is diagonal (in float mode, to rounding), so
    each entry of V_s is solved on its own.

    Only A V and P V are kept. A new V_s adds the constant product X V_s,
    shifted by h^s, to X V, and a coefficient of V^H X V is read as
    sum_r V_r^H (X V)_(e-r). The operands are truncated at the order, so
    every coefficient past it is zero.
    """
    m = len(a_rot)
    zero, one = mode.zero(), mode.one()
    av, pv = a_rot, p_rot
    v_terms: list = []  # (r, V_r)

    def vh_coeff(xv, i, j, e):
        """Coefficient e of (V^H X V)[i][j], given xv = X V."""
        if e > order:
            return zero
        acc = xv[i][j].at2(e)
        for r, vr in v_terms:
            for k in range(m):
                c = vr[k][i]
                if not mode.is_zero(c):
                    acc = acc + mode.conj(c) * xv[k][j].at2(e - r)
        return acc

    d = [row[i].at2(0) for i, row in enumerate(a_rot)]  # the leading Gram, a diagonal

    for s_ord in range(1, order + 1):
        vs = [[zero] * m for _ in range(m)]
        dirty = False
        for bi in range(len(ranges)):
            for ci in range(bi + 1, len(ranges)):
                gap = nus[bi] - nus[ci]
                for i in ranges[bi]:
                    for j in ranges[ci]:
                        k1, k2 = vh_coeff(av, i, j, s_ord), vh_coeff(pv, i, j, t + s_ord)
                        if mode.is_zero(k1) and mode.is_zero(k2):
                            continue
                        dirty = True
                        # X = A0_b^-1 (nu_c K1 - K2) / gap, and V_s on the
                        # mirrored block is Y^H for Y = (-K1 - A0_b X) A0_c^-1
                        x = (one / d[i]) * (nus[ci] * k1 - k2) / gap
                        vs[i][j] = x
                        vs[j][i] = mode.conj((-k1 - d[i] * x) * (one / d[j]))
        if dirty:
            v_terms.append((s_ord, vs))
            av, pv = ([[_lin_comb(mode, order, [(mode.one(), 0, xv[i][j])] +
                                  [(vs[k][j], s_ord, x_rot[i][k]) for k in range(m)])
                        for j in range(m)] for i in range(m)]
                      for xv, x_rot in ((av, a_rot), (pv, p_rot)))
    return v_terms, av, pv


def _form(u: list, a: list, v: list, order: int, mode) -> FormalScalarSeries:
    """The hermitian form u^H a v of two columns of series."""
    acc = FormalScalarSeries.zero(mode, order)
    for i in range(len(a)):
        for j in range(len(a)):
            acc = acc + u[i].conj() * a[i][j] * v[j]
    return acc


def _unit_column(col: list, norm2: FormalScalarSeries, order: int, mode) -> tuple:
    """``col`` scaled by a scalar series so that its squared norm ``norm2``
    becomes the constant n0 of its leading order; returns (column, n0)."""
    n0 = norm2.at2(0)
    factor = inverse_sqrt_series(norm2.truncate2(order).scale(mode.one() / n0), through2=order)
    return [e * factor for e in col], n0


def _series_gram_schmidt(a: list, order: int, mode) -> list:
    """A-orthogonal columns from the identity basis, lexicographic pivoting,
    as [(column, n0)] scaled by ``_unit_column``."""
    m = len(a)
    cols, norms = [], []
    for k in range(m):
        col = [FormalScalarSeries.const(mode, 1 if i == k else 0, order) for i in range(m)]
        for prev, norm in zip(cols, norms):
            c = _form(prev, a, col, order, mode) / norm
            col = [ci - c * pi for ci, pi in zip(col, prev)]
        col = [c.truncate2(order) for c in col]
        cols.append(col)
        norms.append(_form(col, a, col, order, mode))
    return [_unit_column(col, norm, order, mode) for col, norm in zip(cols, norms)]
