"""The perturbed level, order by order in sqrt(h): Bloch's wave operator,
which builds it, and the spectral projector, which checks it.

C. Bloch's wave operator Omega (Nucl. Phys. 6 (1958) 329; I. Lindgren,
J. Phys. B 7 (1974) 2441 for a degenerate model space) spans the perturbed
level. With P0 the model level's projector, S = (E0 - Q0)^(-1) off the level
and the intermediate normalization P0 Omega = P0,

    Omega_0 = P0,   Omega_s = S [sum_{0<j<=s} Q_j Omega_{s-j} - sum_{0<t<s} Omega_{s-t} H_t],
    H_t = P0 sum_{0<j<=t} Q_j Omega_{t-j},

and H_eff = E0 + sum_t h^t H_t satisfies Q Omega = Omega H_eff. The recursion
carries no Laurent powers; at m0 = 1 it is the Rayleigh-Schrodinger one.

The projector is the contour integral of the perturbed resolvent around the
chosen level. In the eigenbasis of the model operator G0(E0 + w) multiplies
the component at eigenvalue E by 1/(g + w), g = E0 - E: a pole 1/w on the
level, a power series in w elsewhere. The contour integral is the exact
w^(-1) coefficient, a Laurent residue. The resolvent expansion is graded by
order (T. Kato, Perturbation Theory for Linear Operators, ch. II, 1-2); its
order-s part, applied to a basis vector e, obeys

    T_0 = G0 e,    T_s = G0 sum_{0 < i <= s} Q_i T_{s-i},

so the order-j image of e is the w^(-1) residue of T_j, at O(order^2)
operator applications per basis vector. A state holds one vector per
w-power. A step reads each Q_i image once per position, adds it into one
accumulator per w-power, then applies G0 per position: a level member moves
down one power; elsewhere (g + w) x = r is solved power by power,
x_p = (r_p - x_(p-1)) / g, in O(L) for L kept powers.

Every chain summed into T_s has R = 2(order - s) half-orders left, so T_s
is truncated once, per position. A component at w-power p needs at least
p + 1 later steps that end on the level, since G0 lowers the power only
there; each step applies some Q_i, i >= 1/2, for 2i half-orders. Q_i changes
degree parity by 2i, so on a level of uniform parity a component of the
level's parity re-enters the level at most floor(R/2) times, one of the
other parity at most floor((R + 1)/2) times, and on a mixed level R times.
With L that count, a position keeps the powers p <= L - 1. A dropped term
never flows into a kept one: the path joining them would let the kept one
re-enter the level more often than its own bound allows, and x_p reads r
only at powers up to p. So each kept entry is summed from the same terms, in
the same order (ascending powers and positions), as without the truncation:
the images do not change, bit for bit in float mode. ``q_action`` checks
the parity rule on every image it caches.

``ProjectorSeries`` holds both recursions and their caches. Only the checks
read the projector's images (``projector_diagnostics`` its probes,
``rs_oracle`` the level members); the wave operator fills the same Q_j and
gap caches. Vectors are integer numerators keyed by basis position
(``HermiteBasis.position``) over one denominator (``HermiteVec``): sums
rescale only when a new denominator raises the lcm, and each finished vector
is reduced by one gcd. Float mode runs the same code over denominator 1.
Coefficients become Fractions only where images leave the projector or the
wave operator (``ProjectorSeries.as_s0``).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping

from .series_algebra import (
    FormalScalarSeries,
    S0Series,
    accumulate,
    grow_den,
    reduce_num,
    worst_residual,
)
from .operator_calculus import OperatorFamily
from .gaussian_pairing import WeightExpansion, pair_s0
from .harmonic_oscillator import DegenerateLevel, HermiteBasis, HermiteIndex

__all__ = [
    "ProjectorSeries",
    "VerificationReport",
    "build_projector",
    "projector_diagnostics",
    "workspace_degree",
    "WorkspaceDegreeError",
    "ParityRuleError",
    "HermiteVec",
]


class WorkspaceDegreeError(RuntimeError):
    """An operator action left the tabulated polynomial space; the degree bound must grow."""


class ParityRuleError(RuntimeError):
    """Q_j moved a basis vector to a degree of the wrong parity; the resolvent
    recursion's truncation relies on that parity rule."""


@dataclass(slots=True)
class HermiteVec:
    """Hermite coefficients ``num[i] / den`` at basis positions i, ``den`` a
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
        """Add ``n / d`` at one position."""
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
# The projector series


class ProjectorSeries:
    """The level projector through the doubled order ``order2``, by Laurent
    residues of the graded resolvent expansion at one level, and Bloch's wave
    operator (``wave_operator2``) on the same Q_j cache.

    ``image2(pos)`` returns the graded coefficients of the projected basis
    vector at a basis position as ``HermiteVec``s keyed by doubled order. At
    order zero the action is the identity on the level members and zero
    elsewhere. Three caches, filled on first use: the Q_j image of each
    position (``q_action``), 1/(E0 - E) at each position (``_gap``), and the
    images of each position (``image2``).
    """

    def __init__(self, family: OperatorFamily, basis: HermiteBasis, level: DegenerateLevel,
                 order2: int):
        self.mode = basis.mode
        self.family = family
        self.basis = basis
        self.level = level
        self.order2 = order2
        # (2j, position) -> Q_j applied to the basis vector there
        self._q_cache: dict[tuple, HermiteVec] = {}
        # position -> (u, v) with u / v = 1 / (E0 - E)
        self._gaps: dict[int, tuple] = {}
        # position -> images through the built order
        self._images: dict[int, dict] = {}
        self._level_set = {basis.position(m) for m in level.members}
        # degree parity of the level (None when mixed): it sets the truncation
        self._parity = {"even": 0, "odd": 1}.get(level.parity)

    # -- model operator pieces in the eigenbasis

    def q_action(self, j2: int, pos: int) -> HermiteVec:
        """Q_j, j2 = 2j, applied to the basis vector at position ``pos``, in
        the basis (``HermiteBasis.apply``), cached per (j2, pos). Raises
        ``WorkspaceDegreeError`` when the image leaves the workspace and
        ``ParityRuleError`` when an entry's degree differs from deg + 2j by
        an odd number."""
        key = (j2, pos)
        hit = self._q_cache.get(key)
        if hit is not None:
            return hit
        out = HermiteVec(self.mode, *self.basis.apply(self.family.get2(j2), pos))
        degree_at = self.basis.degree_at
        degrees = [degree_at[i] for i in out.num]
        top = max(degrees, default=0)
        if top > self.basis.degree:
            raise WorkspaceDegreeError(
                f"operator action at order {Fraction(j2, 2)} reaches degree {top}, beyond the "
                f"degree-{self.basis.degree} workspace; build the Hermite basis at degree "
                f"{max(top, workspace_degree(self.level, self.order2))} or more")
        shift = degree_at[pos] + j2
        if any((d - shift) % 2 for d in degrees):
            raise ParityRuleError(
                f"operator at order {Fraction(j2, 2)} maps {self.basis.index_at[pos]} to a "
                f"degree of parity other than {shift % 2}; Q_j must change degree parity by 2j")
        self._q_cache[key] = out
        return out

    def _gap(self, pos: int) -> tuple:
        """(u, v) with u / v = 1 / (E0 - E) at ``pos``, the mode's split; cached."""
        hit = self._gaps.get(pos)
        if hit is None:
            gap = self.level.E0 - self.basis.eigenvalue_at[pos]
            hit = self._gaps[pos] = self.mode.split(self.mode.one() / gap)
        return hit

    # -- the residue recursion; a state is {w-power: HermiteVec}

    def _power_bounds(self, remaining: int) -> tuple:
        """L (module docstring) by the parity of degree minus the level's."""
        return (remaining,) * 2 if self._parity is None else (remaining // 2, (remaining + 1) // 2)

    def _resolve(self, acc: dict, remaining: int) -> dict:
        """The state G0(E0 + w) acc, {w-power: HermiteVec} like ``acc``, keeping
        the w-powers p <= L - 1 at each position (module docstring), reduced."""
        rows: dict[int, dict] = defaultdict(dict)
        for power, vec in acc.items():
            for pos, n in vec.num.items():
                if n:
                    rows[pos][power] = n
        parity, bounds = self._parity or 0, self._power_bounds(remaining)
        level_set, degree_at, gaps = self._level_set, self.basis.degree_at, self._gaps
        out: dict[int, HermiteVec] = defaultdict(lambda: HermiteVec(self.mode))
        for pos in sorted(rows):
            row, top = rows[pos], bounds[(degree_at[pos] ^ parity) & 1]
            if pos in level_set:
                for p, n in row.items():
                    if p <= top:
                        out[p - 1].add_entry(pos, n, acc[p].den)
                continue
            u, v = gaps.get(pos) or self._gap(pos)
            y, dy = 0, 1
            for p in range(min(row), top):
                # x_p = (r_p - x_(p-1)) u / v, x_(p-1) = y / dy and r_p = n / dp
                n, dp = (row[p], acc[p].den) if p in row else (0, dy)
                m = dy if dy == dp else lcm(dp, dy)
                y = ((n if m == dp else n * (m // dp)) - (y if m == dy else y * (m // dy))) * u
                dy = m * v
                if y:
                    out[p].add_entry(pos, y, dy)
        return {p: vec.reduce() for p, vec in sorted(out.items())}

    def images2(self, pos: int) -> dict:
        """The order-j coefficients, 0 <= 2j <= N = ``order2``, of the
        projected basis vector at position ``pos``, keyed by 2j: the
        nonzero residues of T_j (module docstring), with the w-powers that
        cannot reach the residue within the remaining orders dropped."""
        N = self.order2
        parts = [i for i in self.family.orders2() if 0 < i <= N]
        states: dict[int, dict] = {}
        out: dict[int, HermiteVec] = {}
        for s in range(N + 1):
            acc = {0: HermiteVec.of(self.mode, {pos: self.mode.one()})} if s == 0 else {}
            for i in (i for i in parts if i <= s):
                qs: dict[int, HermiteVec] = {}
                for power, vec in states[s - i].items():
                    # the loop of ``accumulate``, with one Q_i read per position
                    slot = acc.get(power) or acc.setdefault(power, HermiteVec(self.mode))
                    a, da, get = slot.num, slot.den, slot.num.get
                    for at, n in vec.num.items():
                        qv = qs.get(at)
                        if qv is None:
                            qv = qs[at] = self.q_action(i, at)
                        d = vec.den * qv.den
                        if da % d:
                            da = grow_den(a, da, d)
                        f = n * (da // d)
                        for key, m in qv.num.items():
                            a[key] = get(key, 0) + m * f
                    slot.den = da
            state = states[s] = self._resolve(acc, N - s)
            if -1 in state:
                out[s] = state[-1]
        return out

    # -- the action table

    def image2(self, pos: int) -> dict:
        hit = self._images.get(pos)
        if hit is None:
            hit = self._images[pos] = self.images2(pos)
        return hit

    def image_s0(self, index: HermiteIndex) -> S0Series:
        """The image sum_j h^j P_j of ``index`` as a power-counted series
        (``as_s0``)."""
        return self.as_s0(index, self.image2(self.basis.position(index)))

    def as_s0(self, index: HermiteIndex, vecs: Mapping) -> S0Series:
        """sum_j h^j vecs[2j], a graded vector grown from ``index`` and keyed
        by doubled order, as a power-counted series with offset K = |alpha|/2:
        the series' degree check certifies the bound deg <= |alpha| + 2j."""
        basis, K2 = self.basis, index.degree
        coeffs = {K2 + j: basis.synthesize(vec.num, vec.den) for j, vec in vecs.items()}
        return S0Series(basis.mode, basis.n, basis.rank, K2, coeffs, self.order2)

    # -- Bloch's wave operator

    def wave_operator2(self) -> tuple[list, list]:
        """Bloch's wave operator on the level through the built order (module
        docstring): ([{2s: Omega_s e_a}] per member a, H_eff as rows of scalar
        series). Omega_s e_a has degree at most |alpha| + 2s."""
        mode, N = self.mode, self.order2
        members = [self.basis.position(m) for m in self.level.members]
        level_set = self._level_set
        parts = [j for j in self.family.orders2() if 0 < j <= N]
        waves = [{0: HermiteVec.of(mode, {pos: mode.one()})} for pos in members]
        h: dict[int, list] = {}
        for s in range(1, N + 1):
            drives = {b: HermiteVec(mode) for b in range(len(members))}
            for b, om in enumerate(waves):
                for j in parts:
                    if j > s:
                        break
                    prev = om.get(s - j)
                    for idx, n in prev.num.items() if prev is not None else ():
                        drives[b].add(self.q_action(j, idx), n, prev.den)
            h_s = [[mode.zero()] * len(members) for _ in members]
            for b, drive in drives.items():
                # the level block of the drive is H_s: Omega_(s-t), t < s, has none
                for a, pos in enumerate(members):
                    h_s[a][b] = mode.join(drive.num.get(pos, 0), drive.den)
                for t, h_t in h.items():
                    for a, om in enumerate(waves):
                        c = h_t[a][b]
                        if not mode.is_zero(c) and s - t in om:
                            drive.add(om[s - t], *mode.split(-c))
                # S = (E0 - Q0)^(-1) off the level
                out = HermiteVec(mode)
                for idx, n in drive.num.items():
                    if idx not in level_set:
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


def workspace_degree(level: DegenerateLevel, order2: int) -> int:
    """The polynomial degree that the projector check reaches through the
    doubled order ``order2``.

    Its probes are the level members and every basis vector of degree at
    most 2K + 2, ``workspace_degree(level, 0)``. Each step of the resolvent
    recursion raises the degree by at most 2i with Q_i, so the images of the
    probes, and every vector summed into them, reach at most 2K + 2 + 2N, and
    a basis of this degree holds every vector the pipeline (the wave
    operator, deg <= |alpha| + 2s), the check and ``rs_oracle`` build.
    """
    return level.K2 + 2 + order2


def build_projector(family: OperatorFamily, basis: HermiteBasis, level: DegenerateLevel,
                    order2: int) -> ProjectorSeries:
    """Projector series through the requested doubled order for one level."""
    if order2 > family.max_order2:
        raise WorkspaceDegreeError(
            f"operator family exact only through order {Fraction(family.max_order2, 2)}; "
            f"raise the input jet order (need operator orders through {Fraction(order2, 2)})")
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
    pos = {idx: basis.position(idx) for idx in probes}
    degree_at = basis.degree_at
    imgs = {idx: proj.image2(pos[idx]) for idx in probes}

    # degree bound and parity of each coefficient
    degree_ok = True
    parity_ok = True
    for idx in probes:
        for j, vec in imgs[idx].items():
            for midx in vec.num:
                if degree_at[midx] > idx.degree + j:
                    degree_ok = False
                if (degree_at[midx] - idx.degree - j) % 2 != 0:
                    parity_ok = False

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
                n = resid_t.num.get(pos[member])
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
        n = lead.num.get(pos[member])
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
