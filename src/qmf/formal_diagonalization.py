"""Hermitian matrices over the half-power series field and their eigendecomposition.

The level data produced by the projector P is a Gram matrix A, whose leading
term is a positive diagonal for the monic level basis, and an interaction
matrix C = E0 * A + (higher order). Both are built in Kato-Bloch form
(C. Bloch, Nucl. Phys. 6 (1958) 329; T. Kato, Perturbation Theory for
Linear Operators, ch. II, sec. 2): since P is idempotent, symmetric for the
pairing and commutes with the operator family Q,

    A_ab = (P e_a, P e_b) = (e_a, P e_b),   C_ab = (P e_a, Q P e_b) = (e_a, Q P e_b),

so each bare level member e_a is paired against the images. Those three laws
are what ``projector_diagnostics`` checks. The eigenvalue series of the pencil
are the output of the whole construction. They are found from the
generalized (pencil) problem C v = E A v, which has the eigenvalue series of
the normalized matrix A^(-1/2) C A^(-1/2) but stays inside the rational field
for unnormalized bases.

The eigendecomposition splits recursively: at the first order where the
deflated coefficient is not a scalar multiple of the leading Gram term, the
constant generalized eigenproblem fixes blocks, a series congruence
decouples them to the working order (a Sylvester-type solve with the
spectral gaps as denominators, built one coefficient per step), and each
block recurses.
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

    def __sub__(self, other: "SeriesMatrix") -> "SeriesMatrix":
        return SeriesMatrix.from_rows(self.mode, [
            [a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)])

    def scale_series(self, s: FormalScalarSeries) -> "SeriesMatrix":
        return SeriesMatrix.from_rows(self.mode, [[e * s for e in row] for row in self.entries])

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


def gram_matrix(es: Sequence[S0Series], fs: Sequence[S0Series], omega: WeightExpansion,
                through: HalfInt | None = None) -> SeriesMatrix:
    """Pairing Gram matrix (P e_a, P e_b) of the projected level basis.

    ``es`` are the bare level members e_a and ``fs`` their images P e_a.
    Each entry pairs a bare member against an image, by the Kato-Bloch
    identity (P e_a, P e_b) = (e_a, P e_b), which holds because P is
    idempotent and symmetric for the pairing: the laws that
    ``projector_diagnostics`` checks. The pairing is hermitian: each entry
    below the diagonal is the conjugate of the one above. Validates a leading
    positive diagonal (the monic basis is orthogonal at leading order); a
    violation signals a projector or pairing inconsistency upstream; an
    off-diagonal lead must be negligible against the diagonal.
    """
    mode = fs[0].mode
    m = len(fs)
    pairs = {(i, j): pair_s0(es[i], fs[j], omega, through) for i in range(m) for j in range(i, m)}
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


def interaction_matrix(es: Sequence[S0Series], fs: Sequence[S0Series], family,
                       omega: WeightExpansion, through: HalfInt | None = None) -> SeriesMatrix:
    """Interaction matrix (P e_a, Q P e_b) over the series field.

    Pairs each bare member e_a against the image Q P e_b: since P commutes
    with the family Q as well, (P e_a, Q P e_b) = (e_a, P Q P e_b) =
    (e_a, Q P e_b), as for ``gram_matrix``.
    """
    mode = fs[0].mode
    qfs = [family.apply_series(f, out_trunc=through) for f in fs]
    m = len(fs)
    rows = [[pair_s0(es[i], qfs[j], omega, through) for j in range(m)] for i in range(m)]
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

    ``b`` and ``a`` are truncated at ``order``. The deflated coefficient
    B_t - (E A)_t vanishes when each entry's two terms are ``mode.close``;
    (E A)_t is one convolution of the eigenvalue coefficients found so far
    with those of A."""
    m = b.size
    if m == 1:
        e = (b.entry(0, 0) / a.entry(0, 0)).truncate(order)
        one = FormalScalarSeries.const(mode, 1, order)
        return [(e, [one])]

    a0 = a.coeff_at(HI0)
    e_terms: list = []  # (order, coefficient) of the common eigenvalue so far
    for t in half_range(HI0, order):
        terms = [[(b.entry(i, j).coefficient(t), _convolve(e_terms, a.entry(i, j), t, mode))
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
            e_terms.append((t, blocks[0][0]))
            continue
        e_accum = FormalScalarSeries.from_terms(mode, dict(e_terms), order)
        return _split_and_recurse(b, a, order, mode, e_accum, t, blocks)

    # no split through the working order: all eigenvalues coincide
    e_accum = FormalScalarSeries.from_terms(mode, dict(e_terms), order)
    cols = _series_gram_schmidt(a, order, mode)
    return [(e_accum, col) for col in cols]


def _convolve(e_terms: list, x: FormalScalarSeries, t: HalfInt, mode):
    """Coefficient t of E x, for E the sum of c h^s over (s, c) in ``e_terms``."""
    out = None
    for s, c in e_terms:
        v = x.coefficient(t - s)
        if not mode.is_zero(v):
            out = c * v if out is None else out + c * v
    return mode.zero() if out is None else out


def _lin_comb(mode, order: HalfInt, terms) -> FormalScalarSeries:
    """The sum of c h^s x over (c, s, x) in ``terms``, truncated at ``order``:
    constants times shifted series, formed without a series product."""
    top = order.doubled
    slots: dict[int, object] = {}
    for c, s, x in terms:
        if mode.is_zero(c):
            continue
        for e, v in x.items():
            k = e.doubled + s.doubled
            if k > top:
                break
            w = slots.get(k)
            slots[k] = c * v if w is None else w + c * v
    return FormalScalarSeries.from_terms(mode, {HalfInt(k): v for k, v in slots.items()}, order)


def _split_and_recurse(b, a, order, mode, e_accum, t, blocks):
    """Decouple the blocks of a split at order t, then solve each block.

    The constant block matrix U rotates the pencil so that its deflated
    order-t coefficient is block diagonal; ``_decouple`` finds the series
    congruence V that keeps it so through the order, and each diagonal block
    of the rotated and decoupled pencil recurses. A column of a block maps
    back through W = U V.
    """
    m = b.size
    nus, ranges, u_cols = [], [], []
    for nu, cols in blocks:
        nus.append(nu)
        ranges.append(range(len(u_cols), len(u_cols) + len(cols)))
        u_cols.extend(cols)
    u = [[mode.coeff(u_cols[j][i]) for j in range(m)] for i in range(m)]

    def rotate(x):
        """U^H x U, a constant congruence."""
        return [[_lin_comb(mode, order, [(mode.conj(u[k][i]) * u[l][j], HI0, x.entry(k, l))
                                         for k in range(m) for l in range(m)])
                 for j in range(m)] for i in range(m)]

    a_rot = rotate(a)
    p_rot = rotate(b - a.scale_series(e_accum))
    v_terms, av, pv = _decouple(a_rot, p_rot, t, nus, ranges, order, mode)

    def decoupled(xv, rng):
        """The diagonal block of V^H X V on ``rng``, from xv = X V."""
        return SeriesMatrix.from_rows(mode, [[_lin_comb(
            mode, order, [(mode.one(), HI0, xv[i][j])] + [(mode.conj(vr[k][i]), r, xv[k][j])
                                                          for r, vr in v_terms for k in range(m)])
            for j in rng] for i in rng])

    # W = U V, as (coefficient, order) terms per entry
    w = [[[(u[i][j], HI0)] + [(sum((u[i][k] * vr[k][j] for k in range(m)), mode.zero()), r)
                              for r, vr in v_terms]
          for j in range(m)] for i in range(m)]

    out = []
    for rng in ranges:
        for e_sub, col in _pencil_solve(decoupled(pv, rng), decoupled(av, rng), order, mode):
            full_col = [_lin_comb(mode, order, [(c, r, col[cc]) for cc, j in enumerate(rng)
                                                for c, r in w[i][j]])
                        for i in range(m)]
            out.append(((e_accum + e_sub).truncate(order), full_col))
    return out


def _decouple(a_rot, p_rot, t, nus, ranges, order, mode):
    """Series congruence that block-diagonalizes a rotated pencil.

    ``a_rot`` and ``p_rot`` (rows of series truncated at ``order``) are the
    rotated A and P = B - E A, whose order-t deflated coefficient is
    nus[b] * A0 on the block ``ranges[b]``. Returns (V terms, A V, P V) for
    V = 1 + sum_s h^s V_s with zero diagonal blocks, which makes V^H A V and
    V^H P V block diagonal through the order: each V_s solves a
    Sylvester-type equation, with the spectral gaps as denominators, that
    clears the off-diagonal blocks of (V^H A V)_s and (V^H P V)_(t+s).

    Only A V and P V are kept. A new V_s adds the constant product X V_s,
    shifted by h^s, to X V, and a coefficient of V^H X V is read as
    sum_r V_r^H (X V)_(e-r). The operands are truncated at the order, so
    every coefficient past it is zero.
    """
    m = len(a_rot)
    zero = mode.zero()
    av, pv = a_rot, p_rot
    v_terms: list = []  # (r, V_r)

    def vh_coeff(xv, i, j, e):
        """Coefficient e of (V^H X V)[i][j], given xv = X V."""
        if e > order:
            return zero
        acc = xv[i][j].coefficient(e)
        for r, vr in v_terms:
            for k in range(m):
                c = vr[k][i]
                if not mode.is_zero(c):
                    acc = acc + mode.conj(c) * xv[k][j].coefficient(e - r)
        return acc

    a0_blocks = [[[a_rot[i][j].coefficient(HI0) for j in rng] for i in rng] for rng in ranges]
    a0_invs = [_const_inverse(blk) for blk in a0_blocks]

    for s_ord in half_range(HalfInt(1), order):
        vs = [[zero] * m for _ in range(m)]
        dirty = False
        for bi in range(len(ranges)):
            for ci in range(bi + 1, len(ranges)):
                k1 = [[vh_coeff(av, i, j, s_ord) for j in ranges[ci]] for i in ranges[bi]]
                k2 = [[vh_coeff(pv, i, j, t + s_ord) for j in ranges[ci]] for i in ranges[bi]]
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
            v_terms.append((s_ord, vs))
            av, pv = ([[_lin_comb(mode, order, [(mode.one(), HI0, xv[i][j])] +
                                  [(vs[k][j], s_ord, x_rot[i][k]) for k in range(m)])
                        for j in range(m)] for i in range(m)]
                      for xv, x_rot in ((av, a_rot), (pv, p_rot)))
    return v_terms, av, pv


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
