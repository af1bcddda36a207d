"""The level stage the long way round.

The program pairs each bare level member against the projector images
(``gram_matrix``, ``interaction_matrix``) and decouples a split pencil with a
series congruence built one coefficient per step (``_decouple``). These
tests keep the direct forms as their oracles: pair image against image, and
recompute the full products V^H A V and V^H P V at every step of the
congruence.
"""

from qmf.formal_diagonalization import (
    SeriesMatrix,
    _block_mul,
    _const_inverse,
)
from qmf import formal_diagonalization as fd
from qmf.gaussian_pairing import pair_s0
from qmf.series_algebra import FormalScalarSeries, HI0, HalfInt, half_range


def mat_add(x: SeriesMatrix, y: SeriesMatrix) -> SeriesMatrix:
    return SeriesMatrix.from_rows(x.mode, [[a + b for a, b in zip(rx, ry)]
                                           for rx, ry in zip(x.entries, y.entries)])


def mat_mul(x: SeriesMatrix, y: SeriesMatrix) -> SeriesMatrix:
    """The series matrix product, entry by entry."""
    m = x.size
    return SeriesMatrix.from_rows(x.mode, [[
        sum((x.entry(i, k) * y.entry(k, j) for k in range(m)), FormalScalarSeries.zero(x.mode))
        for j in range(m)] for i in range(m)])


def adjoint(x: SeriesMatrix) -> SeriesMatrix:
    m = x.size
    return SeriesMatrix.from_rows(x.mode, [[x.entry(j, i).conj() for j in range(m)]
                                           for i in range(m)])


def congruence(v: SeriesMatrix, x: SeriesMatrix) -> SeriesMatrix:
    """V^H X V."""
    return mat_mul(mat_mul(adjoint(v), x), v)


def image_gram_matrix(fs, omega, through=None) -> SeriesMatrix:
    """(P e_a, P e_b), each image paired against each image."""
    m = len(fs)
    return SeriesMatrix.from_rows(fs[0].mode, [[pair_s0(fs[i], fs[j], omega, through)
                                                for j in range(m)] for i in range(m)])


def image_interaction_matrix(fs, family, omega, through=None) -> SeriesMatrix:
    """(P e_a, Q P e_b), each image paired against each image of Q."""
    qfs = [family.apply_series(f, out_trunc=through) for f in fs]
    m = len(fs)
    return SeriesMatrix.from_rows(fs[0].mode, [[pair_s0(fs[i], qfs[j], omega, through)
                                                for j in range(m)] for i in range(m)])


def split_and_recurse_full(b, a, order, mode, e_accum, t, blocks):
    """``_split_and_recurse`` with the congruence recomputed in full.

    Every step forms V^H A V and V^H P V by series matrix products and reads
    the one coefficient of each that it needs; the blocks recurse through
    the program's ``_pencil_solve``.
    """
    m = b.size
    u_cols, nus, sizes = [], [], []
    for nu, cols in blocks:
        nus.append(nu)
        sizes.append(len(cols))
        u_cols.extend(cols)
    trunc = b.truncation_order()
    u = SeriesMatrix.constant(mode, [[u_cols[j][i] for j in range(m)] for i in range(m)], trunc)
    a_rot = congruence(u, a)
    p_rot = congruence(u, b - a.scale_series(e_accum))

    ranges, start = [], 0
    for size in sizes:
        ranges.append(range(start, start + size))
        start += size
    a0_rot = a_rot.coeff_at(HI0)
    a0_blocks = [[[a0_rot[i][j] for j in rng] for i in rng] for rng in ranges]
    a0_invs = [_const_inverse(blk) for blk in a0_blocks]

    v = SeriesMatrix.identity(mode, m, trunc)
    for s_ord in half_range(HalfInt(1), order):
        a_cur = congruence(v, a_rot)
        p_cur = congruence(v, p_rot)
        vs = [[mode.zero() for _ in range(m)] for _ in range(m)]
        dirty = False
        for bi in range(len(ranges)):
            for ci in range(bi + 1, len(ranges)):
                k1 = [[a_cur.entry(i, j).coefficient(s_ord) for j in ranges[ci]]
                      for i in ranges[bi]]
                k2 = [[p_cur.entry(i, j).coefficient(t + s_ord) for j in ranges[ci]]
                      for i in ranges[bi]]
                if all(mode.is_zero(x) for row in k1 + k2 for x in row):
                    continue
                dirty = True
                gap = nus[bi] - nus[ci]
                rhs = [[nus[ci] * k1[r][c] - k2[r][c] for c in range(len(k1[0]))]
                       for r in range(len(k1))]
                x = [[e / gap for e in row] for row in _block_mul(a0_invs[bi], rhs)]
                tmp = _block_mul(a0_blocks[bi], x)
                y = _block_mul([[-k1[r][c] - tmp[r][c] for c in range(len(k1[0]))]
                                for r in range(len(k1))], a0_invs[ci])
                for rr, i in enumerate(ranges[bi]):
                    for cc, j in enumerate(ranges[ci]):
                        vs[i][j] = x[rr][cc]
                        vs[j][i] = mode.conj(y[rr][cc])
        if dirty:
            v = mat_add(v, SeriesMatrix.constant(mode, vs, trunc).scale_series(
                FormalScalarSeries.hbar_power(mode, s_ord, 1, trunc)))

    a_fin = congruence(v, a_rot)
    p_fin = congruence(v, p_rot)
    w = mat_mul(u, v)
    out = []
    for rng in ranges:
        sub_b = SeriesMatrix.from_rows(mode, [[p_fin.entry(i, j) for j in rng] for i in rng])
        sub_a = SeriesMatrix.from_rows(mode, [[a_fin.entry(i, j) for j in rng] for i in rng])
        for e_sub, col in fd._pencil_solve(sub_b, sub_a, order, mode):
            full_col = []
            for i in range(m):
                acc = FormalScalarSeries.zero(mode, order)
                for cc, j in enumerate(rng):
                    acc = acc + w.entry(i, j) * col[cc]
                full_col.append(acc.truncate(order))
            out.append(((e_accum + e_sub).truncate(order), full_col))
    return out
