"""The level stage the long way round.

The program builds the level basis by Bloch's wave operator, pairs image
against image for the Gram matrix (``gram_matrix``), forms the interaction
matrix as the series product A H_eff (``interaction_matrix``) and decouples a
split pencil with a series congruence built one coefficient per step
(``_decouple``). These tests keep the other forms as their oracles: the
projector's residue images P e_a with the Kato-Bloch matrices (e_a, P e_b)
and (e_a, Q P e_b), each image paired against each image of Q, and the full
products V^H A V and V^H P V recomputed at every step of the congruence.
"""

from fractions import Fraction

from qmf import formal_diagonalization as fd
from qmf.gaussian_pairing import pair_s0
from qmf.series_algebra import FormalScalarSeries, S0Series, matmul
from residue_oracle import residue_images_s0

# A series matrix is a list of rows of ``FormalScalarSeries``, as in the
# program, and an order is its doubled int.


def constant(mode, mat, trunc=None) -> list:
    """The series matrix with constant entries ``mat``."""
    return [[FormalScalarSeries.const(mode, c, trunc) for c in row] for row in mat]


def identity(mode, m: int, trunc=None) -> list:
    return constant(mode, [[int(i == j) for j in range(m)] for i in range(m)], trunc)


def coeff_at(x: list, t: int) -> list:
    """The constant matrix of the coefficients at doubled order t."""
    return [[e.at2(t) for e in row] for row in x]


def max_abs_coeff(x: list, through2=None) -> float:
    return max(e.max_abs_coeff(through2) for row in x for e in row)


def mat_add(x: list, y: list) -> list:
    return [[a + b for a, b in zip(rx, ry)] for rx, ry in zip(x, y)]


def mat_sub(x: list, y: list) -> list:
    return [[a - b for a, b in zip(rx, ry)] for rx, ry in zip(x, y)]


def mat_scale(x: list, s: FormalScalarSeries) -> list:
    """Every entry times the scalar series s."""
    return [[e * s for e in row] for row in x]


def mat_mul(x: list, y: list) -> list:
    """The series matrix product, entry by entry."""
    m = len(x)
    return [[sum((x[i][k] * y[k][j] for k in range(m)), FormalScalarSeries.zero(x[0][0].mode))
             for j in range(m)] for i in range(m)]


def adjoint(x: list) -> list:
    m = len(x)
    return [[x[j][i].conj() for j in range(m)] for i in range(m)]


def congruence(v: list, x: list) -> list:
    """V^H X V."""
    return mat_mul(mat_mul(adjoint(v), x), v)


def const_inverse(a: list) -> list:
    """The inverse of a constant invertible matrix, by Gauss-Jordan elimination."""
    m = len(a)
    aug, pivots = fd._rref([list(row) + [Fraction(int(i == j)) for j in range(m)]
                            for i, row in enumerate(a)])
    assert pivots == list(range(m)), "singular matrix"
    return [row[m:] for row in aug]


def kato_bloch_gram_matrix(es, fs, omega, through2=None) -> list:
    """(e_a, P e_b): each bare member e_a paired against each residue image,
    which is (P e_a, P e_b) because P is idempotent and symmetric."""
    m = len(fs)
    return [[pair_s0(es[i], fs[j], omega, through2) for j in range(m)] for i in range(m)]


def kato_bloch_interaction_matrix(es, fs, family, omega, through2=None) -> list:
    """(e_a, Q P e_b), which is (P e_a, Q P e_b) because P also commutes with Q."""
    qfs = [family.apply_series(f, out_trunc2=through2) for f in fs]
    m = len(fs)
    return [[pair_s0(es[i], qfs[j], omega, through2) for j in range(m)] for i in range(m)]


def image_interaction_matrix(fs, family, omega, through2=None) -> list:
    """(f_a, Q f_b), each image paired against each image of Q."""
    qfs = [family.apply_series(f, out_trunc2=through2) for f in fs]
    m = len(fs)
    return [[pair_s0(fs[i], qfs[j], omega, through2) for j in range(m)] for i in range(m)]


def residue_level(ctx, order) -> tuple:
    """(eigenvalues, rescaled eigenvectors, squared norms) of the level built
    from the residue images P e_a with the Kato-Bloch matrices, assembled as
    ``compute_quasimodes`` assembles its own."""
    mode, level = ctx.problem.mode, ctx.level
    es = [S0Series.from_fiber_poly(ctx.basis.fiber(a)) for a in level.members]
    fs = residue_images_s0(ctx)
    eigen = fd.formal_eigendecomposition(
        kato_bloch_interaction_matrix(es, fs, ctx.family, ctx.omega, order),
        gram=kato_bloch_gram_matrix(es, fs, ctx.omega, order), through2=order)
    psis = []
    for col in eigen.vectors:
        psi = S0Series.zero(mode, ctx.problem.n, ctx.problem.rank, order)
        for f, c in zip(fs, col):
            psi = psi + f.scale_series(c)
        psis.append(psi.truncate2(order).with_K2(level.K2))
    eigenvalues = [e.truncate2(order).shift2(2) for e in eigen.eigenvalues]
    return eigenvalues, psis, eigen.norms2


def split_and_recurse_full(b, a, order, mode, e_accum, t, blocks):
    """``_split_and_recurse`` with the congruence recomputed in full.

    Every step forms V^H A V and V^H P V by series matrix products and reads
    the one coefficient of each that it needs; the blocks recurse through
    the program's ``_pencil_solve``.
    """
    m = len(b)
    u_cols, nus, sizes = [], [], []
    for nu, cols in blocks:
        nus.append(nu)
        sizes.append(len(cols))
        u_cols.extend(cols)
    trunc = min(e.trunc2 for row in b for e in row)
    u = constant(mode, [[u_cols[j][i] for j in range(m)] for i in range(m)], trunc)
    a_rot = congruence(u, a)
    p_rot = congruence(u, mat_sub(b, mat_scale(a, e_accum)))

    ranges, start = [], 0
    for size in sizes:
        ranges.append(range(start, start + size))
        start += size
    a0_rot = coeff_at(a_rot, 0)
    a0_blocks = [[[a0_rot[i][j] for j in rng] for i in rng] for rng in ranges]
    a0_invs = [const_inverse(blk) for blk in a0_blocks]

    v = identity(mode, m, trunc)
    for s_ord in range(1, order + 1):
        a_cur = congruence(v, a_rot)
        p_cur = congruence(v, p_rot)
        vs = [[mode.zero() for _ in range(m)] for _ in range(m)]
        dirty = False
        for bi in range(len(ranges)):
            for ci in range(bi + 1, len(ranges)):
                k1 = [[a_cur[i][j].at2(s_ord) for j in ranges[ci]] for i in ranges[bi]]
                k2 = [[p_cur[i][j].at2(t + s_ord) for j in ranges[ci]]
                      for i in ranges[bi]]
                if all(mode.is_zero(x) for row in k1 + k2 for x in row):
                    continue
                dirty = True
                gap = nus[bi] - nus[ci]
                rhs = [[nus[ci] * k1[r][c] - k2[r][c] for c in range(len(k1[0]))]
                       for r in range(len(k1))]
                x = [[e / gap for e in row] for row in matmul(a0_invs[bi], rhs)]
                tmp = matmul(a0_blocks[bi], x)
                y = matmul([[-k1[r][c] - tmp[r][c] for c in range(len(k1[0]))]
                            for r in range(len(k1))], a0_invs[ci])
                for rr, i in enumerate(ranges[bi]):
                    for cc, j in enumerate(ranges[ci]):
                        vs[i][j] = x[rr][cc]
                        vs[j][i] = mode.conj(y[rr][cc])
        if dirty:
            v = mat_add(v, mat_scale(constant(mode, vs, trunc),
                                     FormalScalarSeries.from_terms2(mode, {s_ord: 1}, trunc)))

    a_fin = congruence(v, a_rot)
    p_fin = congruence(v, p_rot)
    w = mat_mul(u, v)
    out = []
    for rng in ranges:
        sub_b = [[p_fin[i][j] for j in rng] for i in rng]
        sub_a = [[a_fin[i][j] for j in rng] for i in rng]
        for e_sub, col, n0 in fd._pencil_solve(sub_b, sub_a, order, mode):
            full_col = []
            for i in range(m):
                acc = FormalScalarSeries.zero(mode, order)
                for cc, j in enumerate(rng):
                    acc = acc + w[i][j] * col[cc]
                full_col.append(acc.truncate2(order))
            out.append(((e_accum + e_sub).truncate2(order), full_col, n0))
    return out
