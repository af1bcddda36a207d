"""Hermitian matrices over the half-power series field and their eigendecomposition.

The level data produced by the projector is a Gram matrix A, whose leading
term is a positive diagonal for the monic level basis, and an interaction
matrix C = E0 * A + (higher order). Their eigenvalue series are the output of
the whole construction. They are found from the generalized (pencil) problem
C v = E A v, which has the eigenvalue series of the normalized matrix
A^(-1/2) C A^(-1/2) but stays inside the rational field for unnormalized
bases.

The eigendecomposition splits recursively: at the first order where the
deflated coefficient is not a scalar multiple of the leading Gram term, the
constant generalized eigenproblem fixes blocks, a series congruence
decouples them to the working order (a Sylvester-type solve with the
spectral gaps as denominators), and each block recurses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .series_algebra import (
    FormalScalarSeries,
    HI0,
    HalfInt,
    S0Series,
    _min_trunc,
    half_range,
    inverse_sqrt_series,
)
from .gaussian_pairing import WeightExpansion, pair_s0

__all__ = [
    "SeriesMatrix",
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

    def __init__(self, order: HalfInt, gap: float, scale: float):
        self.order = order
        super().__init__(
            f"eigenvalue clusters separated by {gap:.3e} at order {order} are neither "
            f"equal nor resolved against the magnitude {scale:.3e}; splitting stalled")


# ---------------------------------------------------------------------------
# Series matrices


@dataclass(frozen=True)
class SeriesMatrix:
    """Square matrix of scalar half-power series."""

    mode: object
    entries: tuple  # tuple[tuple[FormalScalarSeries, ...], ...]

    @property
    def size(self) -> int:
        return len(self.entries)

    @staticmethod
    def from_rows(mode, rows: Sequence[Sequence[FormalScalarSeries]]) -> "SeriesMatrix":
        return SeriesMatrix(mode, tuple(tuple(r) for r in rows))

    @staticmethod
    def constant(mode, mat: Sequence[Sequence[object]], trunc: HalfInt | None = None) -> "SeriesMatrix":
        return SeriesMatrix.from_rows(
            mode, [[FormalScalarSeries.const(mode, c, trunc) for c in row] for row in mat])

    @staticmethod
    def identity(mode, m: int, trunc: HalfInt | None = None) -> "SeriesMatrix":
        return SeriesMatrix.constant(
            mode, [[1 if i == j else 0 for j in range(m)] for i in range(m)], trunc)

    def entry(self, i: int, j: int) -> FormalScalarSeries:
        return self.entries[i][j]

    def __add__(self, other: "SeriesMatrix") -> "SeriesMatrix":
        return SeriesMatrix.from_rows(self.mode, [
            [a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)])

    def __sub__(self, other: "SeriesMatrix") -> "SeriesMatrix":
        return SeriesMatrix.from_rows(self.mode, [
            [a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)])

    def __matmul__(self, other: "SeriesMatrix") -> "SeriesMatrix":
        m = self.size
        rows = []
        for i in range(m):
            row = []
            for j in range(m):
                acc = FormalScalarSeries.zero(self.mode)
                for k in range(m):
                    acc = acc + self.entries[i][k] * other.entries[k][j]
                row.append(acc)
            rows.append(row)
        return SeriesMatrix.from_rows(self.mode, rows)

    def scale_series(self, s: FormalScalarSeries) -> "SeriesMatrix":
        return SeriesMatrix.from_rows(self.mode, [[e * s for e in row] for row in self.entries])

    def adjoint(self) -> "SeriesMatrix":
        m = self.size
        return SeriesMatrix.from_rows(self.mode, [
            [self.entries[j][i].conj() for j in range(m)] for i in range(m)])

    def coeff_at(self, t: HalfInt) -> list:
        return [[e.coefficient(t) for e in row] for row in self.entries]

    def truncate(self, t: HalfInt | None) -> "SeriesMatrix":
        return SeriesMatrix.from_rows(self.mode, [[e.truncate(t) for e in row] for row in self.entries])

    def truncation_order(self) -> HalfInt | None:
        out = None
        for row in self.entries:
            for e in row:
                if e.truncation_order is not None:
                    out = e.truncation_order if out is None else min(out, e.truncation_order)
        return out

    def max_abs_coeff(self, through: HalfInt | None = None) -> float:
        return max((e.max_abs_coeff(through) for row in self.entries for e in row), default=0.0)

    def is_hermitian(self, through: HalfInt | None = None) -> bool:
        m = self.size
        for i in range(m):
            for j in range(m):
                a, b = self.entries[i][j], self.entries[j][i].conj()
                bound = through if through is not None else \
                    _min_trunc(a.truncation_order, b.truncation_order)
                if not a.equals_through(b, bound):
                    return False
        return True


# ---------------------------------------------------------------------------
# Level matrices


def gram_matrix(fs: Sequence[S0Series], omega: WeightExpansion,
                through: HalfInt | None = None) -> SeriesMatrix:
    """Pairing Gram matrix of the projected level basis.

    The pairing is hermitian: each entry below the diagonal is the conjugate
    of the one above. Validates a leading positive diagonal (the monic basis
    is orthogonal at leading order); a violation signals a projector or
    pairing inconsistency upstream; an off-diagonal lead must be negligible
    against the diagonal.
    """
    mode = fs[0].mode
    m = len(fs)
    pairs = {(i, j): pair_s0(fs[i], fs[j], omega, through) for i in range(m) for j in range(i, m)}
    rows = [[pairs[i, j] if i <= j else pairs[j, i].conj() for j in range(m)] for i in range(m)]
    a = SeriesMatrix.from_rows(mode, rows)
    lead = a.coeff_at(HI0)
    scale = max(mode.abs(lead[i][i]) for i in range(m))
    for i in range(m):
        for j in range(m):
            off_diagonal = i != j and not mode.negligible(lead[i][j], scale)
            nonpositive = i == j and mode.to_float(mode.real(lead[i][i])) <= 0
            if off_diagonal or nonpositive:
                raise ValueError("Gram leading term is not a positive diagonal; "
                                 "projected basis and pairing are inconsistent")
    return a


def interaction_matrix(fs: Sequence[S0Series], family, omega: WeightExpansion,
                       through: HalfInt | None = None) -> SeriesMatrix:
    """Matrix of pairings (f_i, Q f_j) over the series field."""
    mode = fs[0].mode
    qfs = [family.apply_series(f, out_trunc=through) for f in fs]
    m = len(fs)
    rows = [[pair_s0(fs[i], qfs[j], omega, through) for j in range(m)] for i in range(m)]
    return SeriesMatrix.from_rows(mode, rows)


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
        mk = _block_mul(t, mk)
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


def _gen_eig_exact(r, a0):
    """Blocks of the constant hermitian pencil (R, A0) over the rationals.

    Returns [(nu, columns)] sorted by nu; raises if the characteristic
    polynomial has an irrational root.
    """
    m = len(r)
    a0_inv = _const_inverse(a0)
    t = _block_mul(a0_inv, r)
    coeffs = _char_poly(t)
    roots = _rational_roots(coeffs)
    if len(roots) != m:
        raise ExactSplitUnavailable(
            "spectral split has irrational eigenvalues; rerun in float mode")
    out = []
    for nu in sorted(set(roots)):
        shifted = [[r[i][j] - nu * a0[i][j] for j in range(m)] for i in range(m)]
        basis = _nullspace(shifted)
        if len(basis) != roots.count(nu):
            raise ExactSplitUnavailable("eigenspace dimension mismatch in exact split")
        basis = _a0_orthogonalize(basis, a0)
        out.append((nu, basis))
    return out


def _a0_orthogonalize(vectors, a0):
    """Gram-Schmidt in the A0 inner product, without normalization."""
    m = len(a0)

    def ip(u, v):
        return sum(u[i] * a0[i][j] * v[j] for i in range(m) for j in range(m))

    out = []
    for v in vectors:
        w = list(v)
        for u in out:
            c = ip(u, w) / ip(u, u)
            w = [wi - c * ui for wi, ui in zip(w, u)]
        out.append(w)
    return out


def _const_inverse(a):
    m = len(a)
    aug, pivots = _rref([list(row) + [Fraction(int(i == j)) for j in range(m)]
                         for i, row in enumerate(a)])
    if pivots != list(range(m)):
        raise ValueError("singular matrix")
    return [row[m:] for row in aug]


def _gen_eig_float(r, a0, scale: float, order: HalfInt, mode):
    """Clustered blocks of the constant hermitian pencil in float mode.

    Cholesky reduction (G. H. Golub and C. F. Van Loan, Matrix Computations,
    4th ed., 8.7): with a0 = L L^H, L^-1 r L^-H = L^-1 (L^-1 r)^H (r being
    hermitian) has the pencil's eigenvalues, and L^-H maps its orthonormal
    eigenvectors to a0-orthonormal columns. ``scale`` bounds the entries
    cancelled into ``r``; over the least eigenvalue of ``a0`` it bounds their
    effect on the eigenvalues, which are equal when their gap is negligible
    against it, ambiguous within 100 times.
    """
    import numpy as np

    rm = np.array(r, dtype=complex)
    am = np.array(a0, dtype=complex)
    low = np.linalg.cholesky(am)
    vals, w = np.linalg.eigh(np.linalg.solve(low, np.linalg.solve(low, rm).conj().T))
    vecs = np.linalg.solve(low.conj().T, w)
    scale = max(scale / float(np.min(np.linalg.eigvalsh(am))), float(np.max(np.abs(vals))))
    clusters: list[list[int]] = []
    for i, v in enumerate(vals):
        if clusters and mode.negligible(v - vals[clusters[-1][0]], scale):
            clusters[-1].append(i)
        else:
            clusters.append([i])
    for a, b in zip(clusters, clusters[1:]):
        gap = abs(vals[b[0]] - vals[a[-1]])
        if mode.negligible(gap, 100 * scale):
            raise SplitAmbiguityError(order, float(gap), scale)
    out = []
    for cl in clusters:
        nu = complex(np.mean(vals[cl]))
        cols = [[complex(vecs[i, j]) for i in range(len(r))] for j in cl]
        out.append((nu, cols))
    return out


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
    order: HalfInt


def formal_eigendecomposition(m_matrix: SeriesMatrix, gram: SeriesMatrix | None = None,
                              through: HalfInt | None = None) -> EigenResult:
    """Eigenvalue and eigenvector series of a hermitian matrix over the series field.

    With ``gram`` given, solves the generalized problem M v = E (gram) v; the
    leading gram coefficient must be hermitian positive definite. Splitting
    follows the first order whose deflated coefficient is not a scalar
    multiple of the leading gram; blocks are decoupled by a series congruence
    before recursing, so eigenvalues are exact through the working order.

    Each column is scaled by a scalar series so that its squared norm is the
    constant n0 of its leading order, and then by 1/sqrt(n0) when every n0
    has a square root in the field (always in float mode).
    """
    mode = m_matrix.mode
    m = m_matrix.size
    trunc = m_matrix.truncation_order()
    if gram is not None:
        gt = gram.truncation_order()
        trunc = gt if trunc is None else (trunc if gt is None else min(trunc, gt))
    if through is not None:
        through = HalfInt.of(through)
        trunc = through if trunc is None else min(trunc, through)
    if trunc is None:
        raise ValueError("need a truncation order for the eigendecomposition")
    if gram is None:
        gram = SeriesMatrix.identity(mode, m, trunc)
    if not m_matrix.is_hermitian(trunc) or not gram.is_hermitian(trunc):
        raise ValueError("pencil must be hermitian")

    pairs = _pencil_solve(m_matrix.truncate(trunc), gram.truncate(trunc), trunc, mode)

    # deterministic order: sort by eigenvalue coefficient sequences
    def eig_key(pair):
        e = pair[0]
        return tuple((t.doubled, round(mode.to_float(mode.real(e.coefficient(t))), 12))
                     for t in half_range(HI0, trunc))

    pairs.sort(key=eig_key)
    eigenvalues = [p[0] for p in pairs]
    vectors = [p[1] for p in pairs]

    # phase convention: largest-magnitude leading entry real positive
    fixed = []
    for col in vectors:
        lead_order = None
        for e in col:
            o = e.order()
            if o is not None and (lead_order is None or o < lead_order):
                lead_order = o
        if lead_order is None:
            fixed.append(col)
            continue
        entries = [e.coefficient(lead_order) for e in col]
        # the first entry of largest magnitude, float magnitudes equal when close
        mags = [mode.abs(c) for c in entries]
        best = next(i for i, a in enumerate(mags) if mode.close(a, max(mags)))
        pivot = entries[best]
        phase = pivot / mode.abs(pivot) if not mode.is_zero(pivot) else mode.one()
        inv_phase = mode.one() / phase
        fixed.append([e.scale(inv_phase) for e in col])
    vectors = fixed

    # flatten each squared norm to its constant n0
    flat = []
    norms2 = []
    for col in vectors:
        acc = FormalScalarSeries.zero(mode, trunc)
        for i in range(m):
            for j in range(m):
                acc = acc + col[i].conj() * gram.entry(i, j) * col[j]
        n0 = acc.coefficient(HI0)
        factor = inverse_sqrt_series(acc.truncate(trunc).scale(mode.one() / n0), through=trunc)
        flat.append([e * factor for e in col])
        norms2.append(n0)
    vectors = flat

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
                       normalized=normalized, order=trunc)


def _field_sqrt(mode, c):
    """Square root of a coefficient; in exact mode it must be a rational square."""
    if mode.name != "exact":
        return complex(c) ** 0.5
    rn, rd = math.isqrt(max(c.numerator, 0)), math.isqrt(c.denominator)
    if c < 0 or rn * rn != c.numerator or rd * rd != c.denominator:
        raise ExactSplitUnavailable(f"no exact square root of {c}")
    return Fraction(rn, rd)


def _pencil_solve(b: SeriesMatrix, a: SeriesMatrix, order: HalfInt, mode) -> list:
    """Recursive splitting; returns [(eigenvalue series, column of series)].

    The deflated coefficient B_t - (E A)_t vanishes when each entry's two
    terms are ``mode.close``."""
    m = b.size
    if m == 1:
        e = (b.entry(0, 0) / a.entry(0, 0)).truncate(order)
        one = FormalScalarSeries.const(mode, 1, order)
        return [(e, [one])]

    a0 = a.coeff_at(HI0)
    e_accum = FormalScalarSeries.zero(mode, order)
    for t in half_range(HI0, order):
        terms = [[(b.entry(i, j).coefficient(t), (e_accum * a.entry(i, j)).coefficient(t))
                  for j in range(m)] for i in range(m)]
        if all(mode.close(x, y) for row in terms for x, y in row):
            continue
        r_t = [[x - y for x, y in row] for row in terms]
        if mode.name == "exact":
            blocks = _gen_eig_exact(r_t, a0)
        else:
            scale = max(max(abs(x), abs(y)) for row in terms for x, y in row)
            blocks = _gen_eig_float(r_t, a0, scale, t, mode)
        if len(blocks) == 1:
            nu = blocks[0][0]
            e_accum = e_accum + FormalScalarSeries.hbar_power(mode, t, nu, order)
            continue
        return _split_and_recurse(b, a, order, mode, e_accum, t, blocks)

    # no split through the working order: all eigenvalues coincide
    cols = _series_gram_schmidt(a, order, mode)
    return [(e_accum, col) for col in cols]


def _split_and_recurse(b, a, order, mode, e_accum, t, blocks):
    m = b.size
    # change of basis by the constant block matrix
    u_cols = []
    nus = []
    sizes = []
    for nu, cols in blocks:
        nus.append(nu)
        sizes.append(len(cols))
        u_cols.extend(cols)
    u = SeriesMatrix.constant(mode, [[u_cols[j][i] for j in range(m)] for i in range(m)],
                              b.truncation_order())
    ustar = u.adjoint()
    p = b - a.scale_series(e_accum)
    a_rot = (ustar @ a) @ u
    p_rot = (ustar @ p) @ u

    # block index ranges
    starts = []
    s = 0
    for size in sizes:
        starts.append(s)
        s += size
    ranges = [range(st, st + size) for st, size in zip(starts, sizes)]

    a0_rot = a_rot.coeff_at(HI0)
    a0_blocks = [[[a0_rot[i][j] for j in rng] for i in rng] for rng in ranges]
    a0_invs = [_const_inverse(blk) for blk in a0_blocks]

    # series congruence V = 1 + sum_s h^s V_s with zero diagonal blocks,
    # chosen so both a_rot and p_rot become block diagonal through the order
    v = SeriesMatrix.identity(mode, m, b.truncation_order())
    for s_ord in half_range(HalfInt(1), order):
        a_cur = (v.adjoint() @ a_rot) @ v
        p_cur = (v.adjoint() @ p_rot) @ v
        vs = [[mode.zero() for _ in range(m)] for _ in range(m)]
        dirty = False
        for bi in range(len(ranges)):
            for ci in range(len(ranges)):
                if bi >= ci:
                    continue
                k1 = [[a_cur.entry(i, j).coefficient(s_ord) for j in ranges[ci]]
                      for i in ranges[bi]]
                k2 = [[p_cur.entry(i, j).coefficient(t + s_ord) for j in ranges[ci]]
                      for i in ranges[bi]]
                if all(mode.is_zero(x) for row in k1 for x in row) and \
                   all(mode.is_zero(x) for row in k2 for x in row):
                    continue
                dirty = True
                gap = nus[bi] - nus[ci]
                rhs = [[nus[ci] * k1[r][c] - k2[r][c] for c in range(len(k1[0]))]
                       for r in range(len(k1))]
                x = _block_mul(a0_invs[bi], rhs)
                x = [[e / gap for e in row] for row in x]
                # Y = (-K1 - A0_b X) A0_c^{-1},  V_s^{(cb)} = Y^dagger
                tmp = _block_mul(a0_blocks[bi], x)
                y = [[-k1[r][c] - tmp[r][c] for c in range(len(k1[0]))] for r in range(len(k1))]
                y = _block_mul(y, a0_invs[ci])
                for rr, i in enumerate(ranges[bi]):
                    for cc, j in enumerate(ranges[ci]):
                        vs[i][j] = x[rr][cc]
                        vs[j][i] = mode.conj(y[rr][cc])
        if dirty:
            v = v + SeriesMatrix.constant(mode, vs, b.truncation_order()).scale_series(
                FormalScalarSeries.hbar_power(mode, s_ord, 1, b.truncation_order()))

    a_fin = (v.adjoint() @ a_rot) @ v
    p_fin = (v.adjoint() @ p_rot) @ v
    w = u @ v

    out = []
    for blk, rng in enumerate(ranges):
        sub_b = SeriesMatrix.from_rows(mode, [[p_fin.entry(i, j) for j in rng] for i in rng])
        sub_a = SeriesMatrix.from_rows(mode, [[a_fin.entry(i, j) for j in rng] for i in rng])
        for e_sub, col in _pencil_solve(sub_b, sub_a, order, mode):
            full_col = []
            for i in range(m):
                acc = FormalScalarSeries.zero(mode, order)
                for cc, j in enumerate(rng):
                    acc = acc + w.entry(i, j) * col[cc]
                full_col.append(acc.truncate(order))
            out.append(((e_accum + e_sub).truncate(order), full_col))
    return out


def _block_mul(a, b):
    rows = len(a)
    inner = len(b)
    cols = len(b[0]) if b else 0
    return [[sum((a[i][k] * b[k][j] for k in range(inner)), a[0][0] * 0)
             for j in range(cols)] for i in range(rows)]


def _series_gram_schmidt(a: SeriesMatrix, order: HalfInt, mode) -> list:
    """A-orthogonal columns from the identity basis, lexicographic pivoting."""
    m = a.size
    cols = []
    for k in range(m):
        col = [FormalScalarSeries.const(mode, 1 if i == k else 0, order) for i in range(m)]
        for prev in cols:
            num = FormalScalarSeries.zero(mode, order)
            den = FormalScalarSeries.zero(mode, order)
            for i in range(m):
                for j in range(m):
                    num = num + prev[i].conj() * a.entry(i, j) * col[j]
                    den = den + prev[i].conj() * a.entry(i, j) * prev[j]
            c = num / den
            col = [ci - c * pi for ci, pi in zip(col, prev)]
        cols.append([c.truncate(order) for c in col])
    return cols
