"""The perturbed level, order by order in sqrt(h): one Bloch recursion, run
on the rescaled family Q to build the level and on its Gaussian adjoint to
check it.

C. Bloch's wave operator Omega (Nucl. Phys. 6 (1958) 329; I. Lindgren,
J. Phys. B 7 (1974) 2441 for a degenerate model space) spans the perturbed
level. With P0 the model level's projector, S = (E0 - Q0)^(-1) off the level
and the intermediate normalization P0 Omega = P0,

    Omega_0 = P0,   Omega_s = S [sum_{0<j<=s} Q_j Omega_{s-j} - sum_{0<t<s} Omega_{s-t} H_t],
    H_t = P0 sum_{0<j<=t} Q_j Omega_{t-j},

and H_eff = E0 + sum_t h^t H_t satisfies Q Omega = Omega H_eff. The recursion
carries no Laurent powers; at m0 = 1 it is the Rayleigh-Schrodinger one.

The same recursion on the adjoint Q^dagger under the Gaussian pairing
<u, v>_G = sum_m conj(u_m) v_m N_m of the monic Hermite basis
(``HermiteBasis.apply_adjoint``, ``norm2``) gives left vectors v_c and
H^dagger. With M_ca = <v_c, Omega e_a>_G, of order 0 diag(N_a),

    M H_eff = (H^dagger)^H M,    P e_b = sum_{a,c} Omega e_a (M^(-1))_ac conj(v_c)_b N_b,

P the level's spectral projector, Kato's contour integral of the resolvent
(T. Kato, Perturbation Theory for Linear Operators, ch. II): its range is
Omega's, its kernel that of every <v_c, .>_G. Only the checks read them.

Q_j raises degree by at most 2j, so Q_j^dagger lowers it by at most 2j. On
a basis of degree D, a component of v_c at doubled order s and degree above
D - s cannot come back within the built order N to degree D - N: the left
recursion drops it, and forms each Q_j^dagger image only through the degree
that the order it first feeds keeps. The rest is exact for M (Omega has
degree <= 2K + N) and for the image of every basis vector of degree
<= D - N; the pipeline's basis has D = 2K + 2 + N (``workspace_degree``),
for probes of degree <= 2K + 2.

Vectors are integer numerators keyed by basis key over one denominator
(``HermiteVec``): sums rescale only when a new denominator raises the lcm,
and each finished vector is reduced by one gcd. Float mode runs the same
code over denominator 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping

from .series_algebra import (
    EXPONENT_BITS,
    FormalScalarSeries,
    S0Series,
    accumulate,
    grow_den,
    reduce_num,
    worst_residual,
)
from .operator_calculus import InsufficientOrderError, OperatorFamily
from .gaussian_pairing import WeightExpansion, pair_s0
from .harmonic_oscillator import DegenerateLevel, HermiteBasis, HermiteIndex

__all__ = [
    "ProjectorSeries",
    "VerificationReport",
    "build_projector",
    "projector_diagnostics",
    "workspace_degree",
    "WorkspaceDegreeError",
    "HermiteVec",
]


class WorkspaceDegreeError(RuntimeError):
    """An operator action left the tabulated polynomial space: the Hermite
    basis must be built at a higher degree."""


@dataclass(slots=True)
class HermiteVec:
    """Hermite coefficients ``num[i] / den`` at basis keys i, ``den`` a
    positive integer: integers in exact mode, complex numbers over 1 in float
    mode (the mode's split; E. H. Bareiss's fraction-free idea, Math. Comp.
    22 (1968) 565). ``add`` and ``add_entry`` grow ``den`` to the lcm of what
    they take in; ``reduce`` drops zero entries and divides out one gcd.
    Every vector a projector method returns is reduced, so equal vectors
    compare equal, and is never mutated afterwards.
    """

    mode: object
    num: dict = field(default_factory=dict)
    den: int = 1

    @classmethod
    def of(cls, mode, coeffs: Mapping) -> "HermiteVec":
        vec = cls(mode)
        for idx, c in coeffs.items():
            vec.add_entry(idx, *mode.split(c))
        return vec.reduce()

    def __bool__(self) -> bool:
        return bool(self.num)

    def add(self, other: "HermiteVec", n=1, d: int = 1) -> "HermiteVec":
        """Add ``(n / d) * other`` in place and return self."""
        self.den = accumulate(self.num, self.den, other.num, n, d * other.den)
        return self

    def add_entry(self, idx: int, n, d: int = 1) -> None:
        """Add ``n / d`` at one basis key."""
        if self.den % d:
            self.den = grow_den(self.num, self.den, d)
        self.num[idx] = self.num.get(idx, 0) + n * (self.den // d)

    def reduce(self) -> "HermiteVec":
        """Drop zero entries and divide out gcd(den, *numerators); returns self."""
        self.num, self.den = reduce_num(self.mode, self.num, self.den)
        return self

    def max_abs(self) -> float:
        return max(map(abs, self.num.values()), default=0) / self.den


# ---------------------------------------------------------------------------
# The wave operators and the projector


class ProjectorSeries:
    """The level's two wave operators and its projector through the doubled
    order ``order2`` (module docstring), each built once: ``wave_operator2``,
    ``left_wave_operator2``, ``overlap2`` (M) and ``image2``, which reads the
    wave images ``wave_operator2`` returned last; the Q_j and Q_j^dagger images
    (``q_action``, ``adjoint_action``) and 1/(E0 - E) are cached by basis key.
    ``combine`` sums wave images against series coefficients, for ``image2``
    and for the pipeline's eigenfunctions."""

    def __init__(self, family: OperatorFamily, basis: HermiteBasis, level: DegenerateLevel,
                 order2: int):
        self.mode = basis.mode
        self.family = family
        self.basis = basis
        self.level = level
        self.order2 = order2
        # (2j, key) -> Q_j, and (d, Q_j^dagger through degree d), of that vector
        self._q_cache: dict[tuple, HermiteVec] = {}
        self._adjoint_cache: dict[tuple, tuple] = {}
        # key -> (u, v) with u / v = 1 / (E0 - E)
        self._gaps: dict[int, tuple] = {}
        # the wave images, the left recursion and M, once built
        self._waves = self._left = self._overlap = None
        # key -> images through the built order
        self._images: dict[int, dict] = {}
        self._level_set = {basis.key(m) for m in level.members}

    # -- model operator pieces in the eigenbasis

    def q_action(self, j2: int, key: int) -> HermiteVec:
        """Q_j, j2 = 2j, applied to the basis vector ``key``, in the basis
        (``HermiteBasis.apply``), cached per (j2, key). Raises
        ``WorkspaceDegreeError`` when the image leaves the workspace."""
        hit = self._q_cache.get((j2, key))
        if hit is not None:
            return hit
        out = HermiteVec(self.mode, *self.basis.apply(self.family.get2(j2), key))
        if out and max(out.num) >= self.basis.past(self.basis.degree):
            top = self.basis.index(max(out.num)).degree
            raise WorkspaceDegreeError(
                f"operator action at order {Fraction(j2, 2)} reaches degree {top}, beyond the "
                f"degree-{self.basis.degree} workspace; build the Hermite basis at degree "
                f"{max(top, workspace_degree(self.level, self.order2))} or more")
        self._q_cache[j2, key] = out
        return out

    def adjoint_action(self, j2: int, key: int, through: int) -> HermiteVec:
        """Q_j^dagger, j2 = 2j, on the basis vector ``key`` at least through
        degree ``through``; cached per (j2, key) through the largest asked."""
        hit = self._adjoint_cache.get((j2, key))
        if hit is None or hit[0] < through:
            hit = self._adjoint_cache[j2, key] = through, HermiteVec(
                self.mode, *self.basis.apply_adjoint(self.family.get2(j2), key, through))
        return hit[1]

    def _gap(self, key: int) -> tuple:
        """(u, v) with u / v = 1 / (E0 - E) at ``key``, the mode's split; cached."""
        hit = self._gaps.get(key)
        if hit is None:
            gap = self.level.E0 - self.basis.eigenvalue(key)
            hit = self._gaps[key] = self.mode.split(self.mode.one() / gap)
        return hit

    # -- Bloch's recursion, on Q and on Q^dagger

    def _bloch(self, action, reach: int | None = None) -> tuple[list, list]:
        """Bloch's recursion (module docstring) with Q_j applied by ``action(j2,
        key, top)``: ([{2s: vector}] per member, H as rows of scalar series).
        With ``reach``, the vector of order s keeps only the degrees
        <= top = reach - s, the keys below ``past(top)``, and its drive needs
        no image past them."""
        mode, N, level_set = self.mode, self.order2, self._level_set
        members = [self.basis.key(m) for m in self.level.members]
        parts = [j for j in self.family.orders2() if 0 < j <= N]
        waves = [{0: HermiteVec.of(mode, {key: mode.one()})} for key in members]
        h: dict[int, list] = {}
        for s in range(1, N + 1):
            top = None if reach is None else reach - s
            past = None if reach is None else self.basis.past(top)
            drives = [HermiteVec(mode) for _ in members]
            for drive, om in zip(drives, waves):
                for prev, j in ((om[s - j], j) for j in parts if j <= s and s - j in om):
                    for idx, n in prev.num.items():
                        drive.add(action(j, idx, top), n, prev.den)
            # the level block of the drive is H_s: Omega_(s-t), t < s, has none
            h_s = [[mode.join(drive.num.get(key, 0), drive.den) for drive in drives]
                   for key in members]
            for b, drive in enumerate(drives):
                for t, h_t in h.items():
                    for a, om in enumerate(waves):
                        c = h_t[a][b]
                        if not mode.is_zero(c) and s - t in om:
                            drive.add(om[s - t], *mode.split(-c))
                # S = (E0 - Q0)^(-1) off the level
                out = HermiteVec(mode)
                for idx, n in drive.num.items():
                    if idx not in level_set and (past is None or idx < past):
                        u, v = self._gap(idx)
                        out.add_entry(idx, n * u, drive.den * v)
                if out.reduce():
                    waves[b][s] = out
            h[s] = h_s
        h_eff = [[FormalScalarSeries.from_terms2(
            mode, {0: self.level.E0 if a == b else mode.zero(),
                   **{t: h_t[a][b] for t, h_t in h.items()}}, N)
            for b in range(len(members))] for a in range(len(members))]
        return waves, h_eff

    def wave_operator2(self) -> tuple[list, list]:
        """Bloch's wave operator on the level through the built order (module
        docstring): ([{2s: Omega_s e_a}] per member a, H_eff as rows of scalar
        series). Omega_s e_a has degree at most |alpha| + 2s."""
        waves, h_eff = self._bloch(lambda j2, key, _: self.q_action(j2, key))
        self._waves = waves
        return waves, h_eff

    def left_wave_operator2(self) -> tuple[list, list]:
        """Bloch's recursion on the adjoint family: ([{2s: v_c,s}] per member
        c, H^dagger as rows of scalar series), v_c,s through degree D - 2s."""
        if self._left is None:
            self._left = self._bloch(self.adjoint_action, self.basis.degree)
        return self._left

    # -- the projector

    def overlap2(self, size=None) -> list:
        """M_ca = <v_c, Omega e_a>_G through the built order, as rows of scalar
        series; with ``size`` (``mode.abs``), the sums of the sizes of its
        terms. Each entry's terms are summed over one denominator, in the
        order of the left vector's entries."""
        if size is None and self._overlap is not None:
            return self._overlap
        mode, conj, norm2, N = self.mode, self.mode.conj, self.basis.norm2, self.order2
        waves = self._waves = self._waves or self.wave_operator2()[0]
        rows = [[{} for _ in waves] for _ in self.left_wave_operator2()[0]]
        for row, left in zip(rows, self._left[0]):
            for terms, wave in zip(row, waves):
                acc, den = {}, 1
                for s, v in left.items():
                    for t, w in wave.items():
                        for key in filter(w.num.__contains__, v.num) if s + t <= N else ():
                            n, d = norm2(key)
                            d *= v.den * w.den
                            if den % d:
                                den = grow_den(acc, den, d)
                            x = conj(v.num[key]) * w.num[key] * n * (den // d)
                            acc[s + t] = acc.get(s + t, 0) + (x if size is None else size(x))
                terms.update((t, mode.join(x, den)) for t, x in acc.items())
        rows = [[FormalScalarSeries.from_terms2(mode, terms, N) for terms in row] for row in rows]
        if size is None:
            self._overlap = rows
        return rows

    def image2(self, key: int) -> dict:
        """The order-j coefficients, 2j <= N = ``order2``, of P e_b, e_b the
        basis vector ``key``, keyed by 2j and cached: sum_a Omega e_a k_a
        (``combine``) with M k = <v, e_b>_G = conj(v)_b N_b, solved order by
        order on the diagonal M_0. Past degree D - N (D the basis degree) it
        raises."""
        hit = self._images.get(key)
        if hit is not None:
            return hit
        mode, N, basis = self.mode, self.order2, self.basis
        if key >= basis.past(basis.degree - N):
            index = basis.index(key)
            raise WorkspaceDegreeError(f"the projected {index} needs the Hermite "
                                       f"basis at degree {index.degree + N} or more")
        lefts, m = self.left_wave_operator2()[0], self.overlap2()
        norm = mode.join(*basis.norm2(key))
        k = [[] for _ in lefts]
        for t in range(N + 1):
            for c, left in enumerate(lefts):
                x = mode.conj(mode.join(left[t].num[key], left[t].den)) * norm if (
                    t in left and key in left[t].num) else mode.zero()
                x -= sum(row.at2(s) * k[a][t - s]
                         for a, row in enumerate(m[c]) for s in range(1, t + 1))
                k[c].append(x / m[c][c].at2(0))
        hit = self._images[key] = self.combine(self._waves, [dict(enumerate(k_a)) for k_a in k])
        return hit

    def combine(self, waves: list, coeffs: list) -> dict:
        """sum_a Omega e_a c_a through the built order, from the wave images
        ``waves`` ([{2s: Omega_s e_a}] per member a) and the scalar series
        ``coeffs`` ({2r: c_a,r} per member a): the reduced nonzero vectors
        keyed by doubled order, ascending."""
        mode, N = self.mode, self.order2
        out: dict[int, HermiteVec] = {}
        for wave, c_a in zip(waves, coeffs):
            for r, x in c_a.items():
                for s, vec in wave.items() if not mode.is_zero(x) else ():
                    if r + s <= N:
                        out.setdefault(r + s, HermiteVec(mode)).add(vec, *mode.split(x))
        return {t: out[t] for t in sorted(out) if out[t].reduce()}

    def image_s0(self, index: HermiteIndex) -> S0Series:
        """The image sum_j h^j P_j of ``index`` as a power-counted series
        (``as_s0``) with offset K = |alpha|/2, through the built order."""
        return self.as_s0(self.image2(self.basis.key(index)), index.degree, self.order2)

    def as_s0(self, vecs: Mapping, K2: int, trunc2: int) -> S0Series:
        """sum_j h^j vecs[2j], vectors keyed by doubled order, as a
        power-counted series with the doubled offset K2, exact through
        ``trunc2``: the series' degree check certifies the bound
        deg <= K2 + 2j."""
        basis = self.basis
        coeffs = {K2 + j: basis.synthesize(vec.num, vec.den) for j, vec in vecs.items()}
        return S0Series(basis.mode, basis.n, basis.rank, K2, coeffs, trunc2)


def workspace_degree(level: DegenerateLevel, order2: int) -> int:
    """The degree 2K + 2 + N of the pipeline's basis, N = ``order2``: the
    image of a basis vector of degree d needs a basis of degree d + N
    (``ProjectorSeries.image2``), and the probes have degree <= 2K + 2."""
    return level.K2 + 2 + order2


def build_projector(family: OperatorFamily, basis: HermiteBasis, level: DegenerateLevel,
                    order2: int) -> ProjectorSeries:
    """Projector series through the requested doubled order for one level;
    raises ``InsufficientOrderError`` past the family's exact orders."""
    if order2 > family.max_order2:
        raise InsufficientOrderError(order2, family.max_order2)
    return ProjectorSeries(family, basis, level, order2)


# ---------------------------------------------------------------------------
# Diagnostics


@dataclass
class VerificationReport:
    """Outcome of one independent check; ``max_residual`` is relative to
    the magnitudes the residual cancels in float mode (``mode.relative``)."""

    name: str
    passed: bool
    order2: int | None      # the doubled order checked through
    max_residual: float
    detail: str = ""
    data: dict = field(default_factory=dict)


def _max_abs(vecs: Iterable[HermiteVec]) -> float:
    """Largest |coefficient| over the vectors, reduced or not."""
    return max((vec.max_abs() for vec in vecs), default=0.0)


def projector_diagnostics(proj: ProjectorSeries, omega: WeightExpansion) -> VerificationReport:
    """The ``projector`` check: the projector laws that bear on the output.

    Verifies, coefficientwise through the built order: symmetry with respect
    to the pairing, the degree bound deg <= |alpha| + 2j and parity
    (-1)^(|alpha| + 2j) of every image coefficient, and the rank certificate
    (the level images span every projected vector and are independent). The
    test vectors are the level members and every basis vector of degree at
    most 2K + 2. The symmetry law (P a, b) = (a, P b) pairs each (P a, b) of
    the first few probes once and reads (a, P b) as the conjugate of
    (P b, a), as ``pair_s0`` is hermitian.

    In float mode each defect is judged against the magnitudes summed into
    it: a nonzero symmetry defect against the pairings of the |coefficients|
    of both sides, as ``orthonormality_report`` judges the Gram.
    """
    mode, basis, level, N = proj.mode, proj.basis, proj.level, proj.order2
    probes = sorted(set(basis.indices(workspace_degree(level, 0))) | set(level.members))
    keys = {idx: basis.key(idx) for idx in probes}
    imgs = {idx: proj.image2(keys[idx]) for idx in probes}

    # degree bound and parity of each coefficient: its degree past |alpha| + 2j,
    # the top field of its key
    shift, rank = basis.n * EXPONENT_BITS, basis.rank
    excess = [(m // rank >> shift) - idx.degree - j
              for idx in probes for j, vec in imgs[idx].items() for m in vec.num]
    degree_ok = all(d <= 0 for d in excess)
    parity_ok = all(d % 2 == 0 for d in excess)

    # symmetry of the pairing: (a, P b) is the conjugate of (P b, a), as the
    # pairing is hermitian, so each (P a, b) is formed once
    sym = []
    sym_sample = probes[: max(4, level.m0 + 2)]
    projected = [proj.image_s0(a) for a in sym_sample]
    plain = [S0Series.from_fiber_poly(basis.fiber(a), None) for a in sym_sample]
    pairs = [[pair_s0(pa, hb, omega, through2=N) for hb in plain] for pa in projected]
    magnitudes = None
    for a, row in enumerate(pairs):
        for b in range(a, len(row)):
            diff = row[b] - pairs[b][a].conj()
            if not diff.max_abs_coeff(N):
                continue
            # both sides can be cancelled sums, one of them exactly 0
            if magnitudes is None:
                magnitudes = ([p.abs() for p in projected], [h.abs() for h in plain],
                              omega.abs())
            abs_p, abs_h, abs_omega = magnitudes
            bound = (pair_s0(abs_p[a], abs_h[b], abs_omega, through2=N)
                     + pair_s0(abs_p[b], abs_h[a], abs_omega, through2=N))
            sym += [(mode.abs(c), mode.abs(bound.at2(t)))
                    for t, c in diff.items2() if t <= N]

    # rank certificate: every projected vector is a series combination of the
    # level images, solved order by order against the level components
    members = list(level.members)
    rank_res = []
    for idx in probes:
        target = {j: HermiteVec(mode, dict(v.num), v.den) for j, v in imgs[idx].items()}
        scale = _max_abs(imgs[idx].values())
        for t in range(N + 1):
            resid_t = target.get(t)
            if resid_t is None:
                continue
            for member in members:
                n = resid_t.num.get(keys[member])
                if n is None or mode.is_zero(n):
                    continue
                d = resid_t.den
                for j2, vec2 in imgs[member].items():
                    if t + j2 <= N:
                        scale = max(scale, abs(n) / d * vec2.max_abs())
                        target.setdefault(t + j2, HermiteVec(mode)).add(vec2, -n, d)
        rank_res.append((_max_abs(v for j, v in target.items() if j <= N), scale))

    # independence: the leading coefficients of the level images are the
    # standard basis vectors, so the images are independent by construction;
    # certify by checking those leading entries explicitly.
    rank = 0
    for member in members:
        lead = imgs[member].get(0, HermiteVec(mode))
        n = lead.num.get(keys[member])
        if n is not None and mode.negligible(n - lead.den, lead.den):
            rank += 1

    defects = {name: float(worst_residual(mode, pairs))
               for name, pairs in (("symmetry_defect", sym), ("rank_residual", rank_res))}
    worst = max(defects.values())
    return VerificationReport(
        name="projector",
        passed=(mode.negligible(worst, 1) and rank == level.m0 and degree_ok and parity_ok),
        order2=N, max_residual=worst, detail=f"rank {rank}/{level.m0}",
        data={**defects, "rank": rank, "degree_bound_ok": degree_ok, "parity_ok": parity_ok})
