"""Spectral projection onto one model level, order by order in sqrt(h).

The projector is the contour integral of the perturbed resolvent around the
chosen level. In the eigenbasis of the model operator the resolvent factor
G0(z) acts diagonally: it multiplies the component at eigenvalue E by
1/(z - E). Writing z = E0 + w, level components contribute a pole factor 1/w
and the rest expand as geometric series in w; the contour integral is then
the exact w^(-1) coefficient (a Laurent-series residue, no numerical contour
needed).

The resolvent expansion G0 + G0 Q G0 + G0 Q G0 Q G0 + ... is graded by order
(T. Kato, Perturbation Theory for Linear Operators, ch. II, sections 1-2).
Its order-s part, applied to a basis vector e, obeys the recursion

    T_0 = G0 e,    T_s = G0 sum_{0 < i <= s} Q_i T_{s-i},

so the order-j image of e is the w^(-1) residue of T_j. Every chain summed
into T_s has the same remaining budget, so T_s is truncated once, above the
w-power 2(budget - s), and one pass per basis vector yields all orders with
O(order^2) operator applications instead of one per composition of each order.

The image at a smaller budget b is a prefix of the full one: the recursion
for budget b runs the same operations on the w-powers it keeps, and the
w-powers it drops only feed residues of orders above b. So a projector of
order N applies itself to an order-j coefficient with images through N - j
only, and keeps, per index, the image at the largest budget asked for so
far, returning its orders <= b for any smaller budget b. The law checks of
``projector_diagnostics`` first collect every (index, budget) they will read
and compute each index once, at the largest of its budgets.

All of this runs on one integer kernel, ``HermiteVec``: integer numerators
over one shared denominator. Q_j images and the powers of 1/(E0 - E) are kept
as integers, sums rescale only when a new denominator raises the common lcm,
and each finished vector is reduced by one gcd. Float mode runs the same code
over denominator 1. Coefficients become Fractions only where images leave the
engine (``graded_vecs_to_s0``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .series_algebra import (
    FormalScalarSeries,
    HI0,
    HalfInt,
    S0Series,
    grow_den,
    half_range,
    reduce_num,
    worst_residual,
)
from .operator_calculus import OperatorFamily
from .gaussian_pairing import WeightExpansion, pair_s0
from .harmonic_oscillator import DegenerateLevel, HermiteBasis, HermiteIndex

__all__ = [
    "ProjectorSeries",
    "ProjectorReport",
    "build_projector",
    "projector_diagnostics",
    "WorkspaceDegreeError",
    "graded_vecs_to_s0",
    "HermiteVec",
]


class WorkspaceDegreeError(RuntimeError):
    """An operator action left the tabulated polynomial space; the degree bound must grow."""


@dataclass(slots=True)
class HermiteVec:
    """Hermite coefficients as numerators over one shared denominator.

    The coefficient at index i is ``num[i] / den`` with ``den`` a positive
    integer. Exact mode keeps integer numerators, so sums and scalings are
    integer products (the fraction-free idea of E. H. Bareiss, Math. Comp. 22
    (1968) 565, applied to accumulation); float mode keeps complex numerators
    over ``den == 1`` and runs the same code, the mode supplying the
    (numerator, denominator) split. An accumulator grows ``den`` to the lcm of
    what it takes in, rescaling its numerators only when that lcm grows;
    ``reduce`` finishes it with one gcd over the whole vector and drops the
    zero entries. Both steps are the kernel ``Poly`` runs on
    (``series_algebra.grow_den`` and ``reduce_num``). Every vector an engine method returns is
    reduced, so equal vectors compare equal, and is never mutated afterwards.
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

    def coeffs(self) -> dict:
        """The coefficients as mode values (Fractions in exact mode)."""
        join, den = self.mode.join, self.den
        return {idx: join(n, den) for idx, n in self.num.items()}

    def add(self, other: "HermiteVec", n=1, d: int = 1) -> "HermiteVec":
        """Add ``(n / d) * other`` in place and return self."""
        d *= other.den
        if self.den % d:
            self.den = grow_den(self.num, self.den, d)
        f = n * (self.den // d)
        num = self.num
        get = num.get
        for idx, m in other.num.items():
            num[idx] = get(idx, 0) + f * m
        return self

    def add_entry(self, idx: HermiteIndex, n, d: int = 1) -> None:
        """Add ``n / d`` at one index."""
        if self.den % d:
            self.den = grow_den(self.num, self.den, d)
        self.num[idx] = self.num.get(idx, 0) + n * (self.den // d)

    def reduce(self) -> "HermiteVec":
        """Drop zero entries and divide out gcd(den, *numerators); returns self."""
        self.num, self.den = reduce_num(self.mode, self.num, self.den)
        return self

    def max_abs(self) -> float:
        return max(map(abs, self.num.values()), default=0) / self.den


def _slot(vecs: dict, key, mode) -> HermiteVec:
    """The accumulator at ``key``, created empty if missing."""
    vec = vecs.get(key)
    if vec is None:
        vec = vecs[key] = HermiteVec(mode)
    return vec


def _reduced(vecs: dict) -> dict:
    """Reduce every accumulator and keep the nonzero ones."""
    return {key: vec for key, vec in vecs.items() if vec.reduce()}


def graded_vecs_to_s0(basis: HermiteBasis, vecs: Mapping, trunc: HalfInt | None) -> S0Series:
    """Assemble sum_j h^j (synthesized vec_j) into a power-counted series."""
    out = S0Series.zero(basis.mode, basis.n, basis.rank, trunc)
    for j, vec in vecs.items():
        poly = basis.synthesize(vec.coeffs())
        if poly.is_zero():
            continue
        piece = S0Series.from_fiber_poly(poly, None).scale_series(
            FormalScalarSeries.hbar_power(basis.mode, j))
        out = out + piece
    return out.truncate(trunc)


# ---------------------------------------------------------------------------
# The resolvent engine


class ProjectorEngine:
    """Laurent-residue evaluation of the graded resolvent expansion at one level."""

    def __init__(self, family: OperatorFamily, basis: HermiteBasis, level: DegenerateLevel):
        self.mode = basis.mode
        self.family = family
        self.basis = basis
        self.level = level
        self._q_cache: dict[tuple, HermiteVec] = {}
        # index -> [(a_s, b_s)] with a_s / b_s = (-1)^s / (E0 - E)^(s+1)
        self._gap_powers: dict[HermiteIndex, list] = {}
        self._level_set = set(level.members)

    # -- model operator pieces in the eigenbasis

    def q_action(self, j: HalfInt, index: HermiteIndex) -> HermiteVec:
        """Q_j applied to the basis vector at ``index``, in the basis
        (``HermiteBasis.apply``), cached per (j, index). Raises
        ``WorkspaceDegreeError`` when the image leaves the workspace."""
        key = (j, index)
        hit = self._q_cache.get(key)
        if hit is not None:
            return hit
        out = HermiteVec(self.mode, *self.basis.apply(self.family.get(j), index))
        top = max((i.degree for i in out.num), default=0)
        if top > self.basis.degree:
            raise WorkspaceDegreeError(
                f"operator action at order {j} reaches degree {top}, beyond the "
                f"degree-{self.basis.degree} workspace; enlarge the polynomial degree bound")
        self._q_cache[key] = out
        return out

    def _gap_series(self, idx: HermiteIndex, count: int) -> list:
        """The first ``count`` pairs (a_s, b_s) of the geometric series in w of 1/(E0 - E + w)."""
        pows = self._gap_powers.get(idx)
        if pows is None or len(pows) < count:
            p, q = self.mode.split(self.mode.one() / (self.level.E0 - self.basis.eigenvalue(idx)))
            pows, a, b = [], p, q
            for s in range(count):
                pows.append((-a if s % 2 else a, b))
                a, b = a * p, b * q
            self._gap_powers[idx] = pows
        return pows

    # -- Laurent states: dict[int w-power -> HermiteVec]

    def _resolvent_factor(self, state: dict, pmax: int) -> dict:
        """Multiply a Laurent state by G0(E0 + w), componentwise in the basis."""
        mode = self.mode
        out: dict[int, HermiteVec] = {}
        for power, vec in state.items():
            den = vec.den
            for idx, n in vec.num.items():
                if idx in self._level_set:
                    _slot(out, power - 1, mode).add_entry(idx, n, den)
                    continue
                count = pmax - power + 1
                pows = self._gap_series(idx, count)
                for s in range(count):
                    a, b = pows[s]
                    _slot(out, power + s, mode).add_entry(idx, n * a, den * b)
        return _reduced(out)

    def _apply_q(self, j: HalfInt, state: dict, out: dict) -> dict:
        """Add Q_j applied to every vector of ``state`` into ``out`` under the same key."""
        for key, vec in state.items():
            acc = _slot(out, key, self.mode)
            for idx, n in vec.num.items():
                acc.add(self.q_action(j, idx), n, vec.den)
        return out

    def images(self, index: HermiteIndex, budget: HalfInt) -> dict:
        """The order-j coefficients, 0 <= j <= budget, of the projected basis vector.

        Runs the graded recursion T_s = G0 sum_i Q_i T_{s-i} from T_0 = G0 e,
        dropping w-powers above the remaining budget (they cannot reach the
        residue), and returns {j: residue of T_j} for the nonzero residues.
        """
        parts = [i for i in half_range(HalfInt(1), budget) if not self.family.get(i).is_zero()]
        states: dict[HalfInt, dict] = {}
        out: dict[HalfInt, HermiteVec] = {}
        for s in half_range(HI0, budget):
            summed = {0: HermiteVec.of(self.mode, {index: self.mode.one()})} if s == HI0 else {}
            for i in parts:
                if i > s:
                    break
                self._apply_q(i, states[s - i], summed)
            state = states[s] = self._resolvent_factor(_reduced(summed), (budget - s).doubled)
            residue = state.get(-1)
            if residue:
                out[s] = residue
        return out


# ---------------------------------------------------------------------------
# Projector series


@dataclass
class ProjectorSeries:
    """Action table of the level projector, order by order.

    ``image(index)`` returns the graded coefficients of the projected basis
    vector as ``HermiteVec``s; images are computed lazily and
    cached, so the table covers whatever the caller touches. At order zero
    the action is the identity on the level members and zero elsewhere.

    ``apply_graded`` needs the image of an index met at order j only through
    order ``order - j``. The cache keeps, per index, the image at the largest
    budget computed so far and answers a smaller budget with its prefix,
    which is exact: the image at budget b equals the full image cut to
    orders <= b (see the module docstring).
    """

    engine: ProjectorEngine
    order: HalfInt

    def __post_init__(self):
        self._images: dict[HermiteIndex, tuple[HalfInt, dict]] = {}

    @property
    def basis(self) -> HermiteBasis:
        return self.engine.basis

    def image(self, index: HermiteIndex) -> dict:
        return self._image(index, self.order)

    def _image(self, index: HermiteIndex, budget: HalfInt) -> dict:
        hit = self._images.get(index)
        if hit is None or hit[0] < budget:
            hit = self._images[index] = (budget, self.engine.images(index, budget))
        if hit[0] == budget:
            return hit[1]
        return {j: vec for j, vec in hit[1].items() if j <= budget}

    def image_s0(self, index: HermiteIndex) -> S0Series:
        return graded_vecs_to_s0(self.basis, self.image(index), self.order)

    def apply_graded(self, vecs: Mapping) -> dict:
        """Apply to sum_j h^j vec_j, truncating at the built order."""
        out: dict[HalfInt, HermiteVec] = {}
        for j, vec in vecs.items():
            if j > self.order:
                continue
            for idx, n in vec.num.items():
                for i, ivec in self._image(idx, self.order - j).items():
                    _slot(out, j + i, self.engine.mode).add(ivec, n, vec.den)
        return _reduced(out)


def build_projector(family: OperatorFamily, basis: HermiteBasis, level: DegenerateLevel,
                    order) -> ProjectorSeries:
    """Projector series through the requested order for one level."""
    order = HalfInt.of(order)
    if order > family.max_order:
        raise WorkspaceDegreeError(
            f"operator family exact only through order {family.max_order}; "
            f"raise the input jet order (need operator orders through {order})")
    engine = ProjectorEngine(family, basis, level)
    return ProjectorSeries(engine=engine, order=order)


# ---------------------------------------------------------------------------
# Diagnostics


@dataclass
class ProjectorReport:
    """Coefficientwise defects of the projector laws through the built order,
    each relative to the two sides it compares in float mode (``mode.relative``)."""

    mode: object
    order: HalfInt
    idempotency_defect: float
    commutation_defect: float
    symmetry_defect: float
    rank: int
    rank_expected: int
    rank_residual: float
    degree_bound_ok: bool
    parity_ok: bool

    def passed(self) -> bool:
        laws = (self.idempotency_defect, self.commutation_defect, self.symmetry_defect,
                self.rank_residual)
        return (all(self.mode.negligible(d, 1) for d in laws)
                and self.rank == self.rank_expected and self.degree_bound_ok and self.parity_ok)


def _max_abs(vecs: Iterable[HermiteVec]) -> float:
    """Largest |coefficient| over the vectors, reduced or not."""
    return max((vec.max_abs() for vec in vecs), default=0.0)


def projector_diagnostics(proj: ProjectorSeries, omega: WeightExpansion) -> ProjectorReport:
    """Machine check of the projector laws.

    Verifies, coefficientwise through the built order: idempotency, commutation
    with the full operator family, symmetry with respect to the pairing, the
    degree bound deg <= |alpha| + 2j and parity (-1)^(|alpha| + 2j) of every
    image coefficient, and the rank certificate (the level images span every
    projected vector and are independent). The test vectors are the level
    members and every basis vector of degree at most 2K + 2.

    Every image the laws read is computed once, before they run, at the
    largest budget any of them asks for: N for a probe, and N - j for an
    index met at order j in a probe's image or in Q_j of a probe (the
    budgets at which ``apply_graded`` reads them).
    """
    engine = proj.engine
    mode = engine.mode
    basis = engine.basis
    level = engine.level
    N = proj.order
    probes = sorted({idx for idx in basis.indices(level.K.doubled + 2)
                     if idx.degree <= level.K.doubled + 2} | set(level.members))
    orders = [i for i in engine.family.orders() if i <= N]
    imgs = {idx: proj.image(idx) for idx in probes}
    qh = {idx: {i: engine.q_action(i, idx) for i in orders} for idx in probes}
    lowest: dict[HermiteIndex, HalfInt] = {}
    for idx in probes:
        for j, vec in (*imgs[idx].items(), *qh[idx].items()):
            for midx in vec.num:
                lowest[midx] = min(j, lowest.get(midx, j))
    for midx, j in lowest.items():
        proj._image(midx, N - j)

    idem, comm = [], []
    degree_ok = True
    parity_ok = True
    for idx in probes:
        img = imgs[idx]
        # degree bound and parity of each coefficient
        for j, vec in img.items():
            for midx in vec.num:
                if midx.degree > idx.degree + j.doubled:
                    degree_ok = False
                if (midx.degree - idx.degree - j.doubled) % 2 != 0:
                    parity_ok = False
        # idempotency
        defect = proj.apply_graded(img)
        scale = max(_max_abs(defect.values()), _max_abs(img.values()))
        for j, vec in img.items():
            _slot(defect, j, mode).add(vec, -1)
        idem.append((_max_abs(defect.values()), scale))
        # commutation with Q through the built order
        qp: dict[HalfInt, HermiteVec] = {}
        for j, vec in img.items():
            for i in orders:
                if j + i <= N:
                    engine._apply_q(i, {j + i: vec}, qp)
        pq = proj.apply_graded(qh[idx])
        scale = max(_max_abs(qp.values()), _max_abs(pq.values()))
        for j, vec in pq.items():
            _slot(qp, j, mode).add(vec, -1)
        comm.append((_max_abs(v for j, v in qp.items() if j <= N), scale))

    # symmetry of the pairing
    sym = []
    sym_sample = probes[: max(4, level.m0 + 2)]
    projected = {a: graded_vecs_to_s0(basis, imgs[a], N) for a in sym_sample}
    plain = {a: S0Series.from_fiber_poly(basis.fiber(a), None) for a in sym_sample}
    for a in sym_sample:
        pa, ha = projected[a], plain[a]
        for b in sym_sample:
            pb, hb = projected[b], plain[b]
            left = pair_s0(pa, hb, omega, through=N)
            right = pair_s0(ha, pb, omega, through=N)
            diff = left - right
            through = min(N, diff.truncation_order or N)
            sym.append((diff.max_abs_coeff(through),
                        max(left.max_abs_coeff(through), right.max_abs_coeff(through))))

    # rank certificate: every projected vector is a series combination of the
    # level images, solved order by order against the level components
    members = list(level.members)
    rank_res = []
    for idx in probes:
        target = {j: HermiteVec(mode, dict(v.num), v.den) for j, v in imgs[idx].items()}
        scale = _max_abs(imgs[idx].values())
        for t in half_range(HI0, N):
            resid_t = target.get(t)
            if resid_t is None:
                continue
            for member in members:
                n = resid_t.num.get(member)
                if n is None or mode.is_zero(n):
                    continue
                d = resid_t.den
                for j2, vec2 in imgs[member].items():
                    if t + j2 <= N:
                        scale = max(scale, abs(n) / d * vec2.max_abs())
                        _slot(target, t + j2, mode).add(vec2, -n, d)
        rank_res.append((_max_abs(v for j, v in target.items() if j <= N), scale))

    # independence: the leading coefficients of the level images are the
    # standard basis vectors, so the images are independent by construction;
    # certify by checking those leading entries explicitly.
    rank = 0
    for member in members:
        lead = imgs[member].get(HI0, HermiteVec(mode))
        n = lead.num.get(member)
        if n is not None and mode.negligible(n - lead.den, lead.den):
            rank += 1

    return ProjectorReport(
        mode=mode,
        order=N,
        idempotency_defect=float(worst_residual(mode, idem)),
        commutation_defect=float(worst_residual(mode, comm)),
        symmetry_defect=float(worst_residual(mode, sym)),
        rank=rank,
        rank_expected=level.m0,
        rank_residual=float(worst_residual(mode, rank_res)),
        degree_bound_ok=degree_ok,
        parity_ok=parity_ok,
    )
