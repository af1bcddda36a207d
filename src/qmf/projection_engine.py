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
far, returning its orders <= b for any smaller budget b.

A second, independent construction of the same projector -- the commutator /
idempotency block recursion -- is provided for cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .series_algebra import (
    FormalScalarSeries,
    HI0,
    HalfInt,
    S0Series,
    half_range,
)
from .operator_calculus import OperatorFamily
from .gaussian_pairing import WeightExpansion, pair_s0
from .harmonic_oscillator import DegenerateLevel, HermiteBasis, HermiteIndex

__all__ = [
    "ProjectorSeries",
    "ProjectorReport",
    "build_projector",
    "projector_diagnostics",
    "projector_by_block_recursion",
    "WorkspaceDegreeError",
    "graded_vecs_to_s0",
]


class WorkspaceDegreeError(RuntimeError):
    """An operator action left the tabulated polynomial space; the degree bound must grow."""


HermiteVec = dict  # HermiteIndex -> coefficient


def _vec_add(mode, a: HermiteVec, b: HermiteVec, scale=None) -> HermiteVec:
    """Add ``scale * b`` into ``a`` in place and return ``a``.

    ``a`` must be the caller's own accumulator, never a cached image or
    ``q_action`` result; entries that sum to zero are dropped.
    """
    for idx, c in b.items():
        if scale is not None:
            c = c * scale
        s = a.get(idx)
        if s is not None:
            c = s + c
        if mode.is_zero(c):
            a.pop(idx, None)
        else:
            a[idx] = c
    return a


def graded_vecs_to_s0(basis: HermiteBasis, vecs: Mapping, trunc: HalfInt | None) -> S0Series:
    """Assemble sum_j h^j (synthesized vec_j) into a power-counted series."""
    out = S0Series.zero(basis.mode, basis.n, basis.rank, trunc)
    for j, vec in vecs.items():
        poly = basis.synthesize(vec)
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
        self._inv_gap: dict[HermiteIndex, object] = {}  # index -> 1 / (E0 - E)
        self._level_set = set(level.members)

    # -- model operator pieces in the eigenbasis

    def q_action(self, j: HalfInt, index: HermiteIndex) -> HermiteVec:
        key = (j, index)
        hit = self._q_cache.get(key)
        if hit is not None:
            return hit
        op = self.family.get(j)
        if op.is_zero():
            out: HermiteVec = {}
        else:
            try:
                fiber = self.basis.fiber(index)
                image = op.apply(fiber)
                out = self.basis.expand(image)
            except ValueError as exc:
                raise WorkspaceDegreeError(
                    f"operator action at order {j} leaves the degree-{self.basis.degree} "
                    f"workspace; enlarge the polynomial degree bound") from exc
        out = {i: c for i, c in out.items() if not self.mode.is_zero(c)}
        for i in out:
            if i.degree > self.basis.degree:
                raise WorkspaceDegreeError(
                    f"needed degree {i.degree} exceeds workspace bound {self.basis.degree}")
        self._q_cache[key] = out
        return out

    # -- Laurent states: dict[int w-power -> HermiteVec]

    def _resolvent_factor(self, state: dict, pmax: int) -> dict:
        """Multiply a Laurent state by G0(E0 + w), componentwise in the basis."""
        mode = self.mode
        out: dict[int, HermiteVec] = {}
        for power, vec in state.items():
            for idx, c in vec.items():
                if idx in self._level_set:
                    tgt = out.setdefault(power - 1, {})
                    prev = tgt.get(idx)
                    tgt[idx] = c if prev is None else prev + c
                else:
                    inv = self._inv_gap.get(idx)
                    if inv is None:
                        inv = self._inv_gap[idx] = mode.one() / (
                            self.level.E0 - self.basis.eigenvalue(idx))
                    factor = inv
                    for s in range(0, pmax - power + 1):
                        tgt = out.setdefault(power + s, {})
                        val = c * factor
                        if s % 2:
                            val = -val
                        prev = tgt.get(idx)
                        tgt[idx] = val if prev is None else prev + val
                        factor = factor * inv
        return {p: {i: c for i, c in vec.items() if not mode.is_zero(c)}
                for p, vec in out.items()}

    def _apply_q(self, j: HalfInt, state: dict) -> dict:
        mode = self.mode
        out: dict[int, HermiteVec] = {}
        for power, vec in state.items():
            acc: HermiteVec = {}
            for idx, c in vec.items():
                _vec_add(mode, acc, self.q_action(j, idx), scale=c)
            if acc:
                out[power] = acc
        return out

    def images(self, index: HermiteIndex, budget: HalfInt) -> dict:
        """The order-j coefficients, 0 <= j <= budget, of the projected basis vector.

        Runs the graded recursion T_s = G0 sum_i Q_i T_{s-i} from T_0 = G0 e,
        dropping w-powers above the remaining budget (they cannot reach the
        residue), and returns {j: residue of T_j} for the nonzero residues.
        """
        mode = self.mode
        parts = [i for i in half_range(HalfInt(1), budget) if not self.family.get(i).is_zero()]
        states: dict[HalfInt, dict] = {}
        out: dict[HalfInt, HermiteVec] = {}
        for s in half_range(HI0, budget):
            if s == HI0:
                summed = {0: {index: mode.one()}}
            else:
                summed = {}
                for i in parts:
                    if i > s:
                        break
                    for power, vec in self._apply_q(i, states[s - i]).items():
                        summed[power] = _vec_add(mode, summed.get(power, {}), vec)
            state = self._resolvent_factor(summed, (budget - s).doubled)
            states[s] = state
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
    vector as Hermite-coefficient vectors; images are computed lazily and
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
    def mode(self):
        return self.engine.mode

    @property
    def level(self) -> DegenerateLevel:
        return self.engine.level

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
        mode = self.mode
        out: dict[HalfInt, HermiteVec] = {}
        for j, vec in vecs.items():
            if j > self.order:
                continue
            for idx, c in vec.items():
                for i, ivec in self._image(idx, self.order - j).items():
                    t = j + i
                    out[t] = _vec_add(mode, out.get(t, {}), ivec, scale=c)
        return {j: v for j, v in out.items() if v}


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
# Independent second construction: commutator + idempotency recursion


def projector_by_block_recursion(family: OperatorFamily, basis: HermiteBasis,
                                 level: DegenerateLevel, order,
                                 cover: Iterable[HermiteIndex]) -> dict:
    """The same projector from a different algebra, for cross-checks.

    Order by order, the commutator identity [Q0, P_j] = -sum [Q_i, P_{j-i}]
    determines every matrix entry between distinct model eigenvalues, and
    idempotency P = P^2 determines the rest:

        level-level block:     P_j = -sum_{0<i<j} P_i P_{j-i}
        other equal-eigenvalue blocks:  P_j = +sum_{0<i<j} P_i P_{j-i}

    Returns {order -> {column index -> HermiteVec}} on the covered columns.
    Internally the recursion works on an enlarged column set (degrees up to
    cover degree + 2*order) so the matrix products are closed; the basis
    degree bound must accommodate one further application of the family.
    """
    mode = basis.mode
    order = HalfInt.of(order)
    requested = sorted(set(cover))
    max_deg = max((idx.degree for idx in requested), default=0)
    # per-order column sets: at order j the remaining budget can raise the
    # degree by at most (order - j).doubled, which keeps every product closed
    def columns_at(j: HalfInt) -> list:
        bound = min(max_deg + (order - j).doubled, basis.degree)
        return [idx for idx in basis.indices(bound)]

    engine = ProjectorEngine(family, basis, level)
    level_set = set(level.members)
    eig = basis.eigenvalue

    def mat_mul(a: Mapping, b: Mapping) -> dict:
        out: dict[HermiteIndex, HermiteVec] = {}
        for col, vec in b.items():
            acc: HermiteVec = {}
            for mid, c in vec.items():
                avec = a.get(mid)
                if avec is None:
                    raise WorkspaceDegreeError(
                        f"block recursion needs column {mid} outside its internal cover")
                _vec_add(mode, acc, avec, scale=c)
            if acc:
                out[col] = acc
        return out

    def q_matrix(i: HalfInt, cols: Iterable[HermiteIndex]) -> dict:
        return {col: engine.q_action(i, col) for col in cols}

    p: dict[HalfInt, dict] = {HI0: {col: ({col: mode.one()} if col in level_set else {})
                                    for col in columns_at(HI0)}}
    for j in half_range(HalfInt(1), order):
        cols = columns_at(j)
        rhs: dict[HermiteIndex, HermiteVec] = {col: {} for col in cols}
        # commutator data: sum_{0<i<=j} (Q_i P_{j-i} - P_{j-i} Q_i)
        for i in half_range(HalfInt(1), j):
            if family.get(i).is_zero():
                continue
            pj = p[j - i]
            qm = q_matrix(i, cols)
            pq = mat_mul(pj, qm)
            for col in cols:
                acc: HermiteVec = {}
                for mid, c in pj[col].items():
                    _vec_add(mode, acc, engine.q_action(i, mid), scale=c)
                _vec_add(mode, rhs[col], acc)
                _vec_add(mode, rhs[col], pq.get(col, {}), scale=-mode.one())
        # idempotency data: sum_{0<i<j} P_i P_{j-i}
        cross: dict[HermiteIndex, HermiteVec] = {col: {} for col in cols}
        for i in half_range(HalfInt(1), j - HalfInt(1)):
            prod = mat_mul(p[i], {col: p[j - i][col] for col in cols})
            for col in cols:
                _vec_add(mode, cross[col], prod.get(col, {}))
        pj_new: dict[HermiteIndex, HermiteVec] = {}
        for col in cols:
            e_col = eig(col)
            vec: HermiteVec = {}
            for row, val in rhs[col].items():
                gap = eig(row) - e_col
                if not mode.is_zero(gap):
                    # [Q0, P_j][row, col] = (E_row - E_col) P_j[row, col] = -rhs
                    vec[row] = -val / gap
            for row, val in cross[col].items():
                gap = eig(row) - e_col
                if not mode.is_zero(gap):
                    continue
                both_level = row in level_set and col in level_set
                vec[row] = vec.get(row, mode.zero()) + (-val if both_level else val)
            pj_new[col] = {r: c for r, c in vec.items() if not mode.is_zero(c)}
        p[j] = pj_new
    wanted = set(requested)
    return {j: {col: vec for col, vec in colmap.items() if col in wanted}
            for j, colmap in p.items()}


# ---------------------------------------------------------------------------
# Diagnostics


@dataclass
class ProjectorReport:
    """Coefficientwise defects of the projector laws through the built order."""

    order: HalfInt
    idempotency_defect: float
    commutation_defect: float
    symmetry_defect: float
    rank: int
    rank_expected: int
    rank_residual: float
    degree_bound_ok: bool
    parity_ok: bool

    def passed(self, tol: float = 0.0) -> bool:
        return (self.idempotency_defect <= tol and self.commutation_defect <= tol
                and self.symmetry_defect <= tol and self.rank == self.rank_expected
                and self.rank_residual <= tol and self.degree_bound_ok and self.parity_ok)


def _max_abs(mode, vecs: Mapping) -> float:
    worst = 0.0
    for vec in vecs.values():
        for c in vec.values():
            worst = max(worst, float(mode.abs(c)))
    return worst


def projector_diagnostics(proj: ProjectorSeries, omega: WeightExpansion) -> ProjectorReport:
    """Machine check of the projector laws.

    Verifies, coefficientwise through the built order: idempotency, commutation
    with the full operator family, symmetry with respect to the pairing, the
    degree bound deg <= |alpha| + 2j and parity (-1)^(|alpha| + 2j) of every
    image coefficient, and the rank certificate (the level images span every
    projected vector and are independent). The test vectors are the level
    members and every basis vector of degree at most 2K + 2.
    """
    engine = proj.engine
    mode = engine.mode
    basis = engine.basis
    level = engine.level
    N = proj.order
    probes = sorted({idx for idx in basis.indices(level.K.doubled + 2)
                     if idx.degree <= level.K.doubled + 2} | set(level.members))

    idem = 0.0
    comm = 0.0
    degree_ok = True
    parity_ok = True
    for idx in probes:
        img = proj.image(idx)
        # degree bound and parity of each coefficient
        for j, vec in img.items():
            for midx, c in vec.items():
                if midx.degree > idx.degree + j.doubled:
                    degree_ok = False
                if (midx.degree - idx.degree - j.doubled) % 2 != 0:
                    parity_ok = False
        # idempotency
        defect = proj.apply_graded(img)
        for j, vec in img.items():
            defect[j] = _vec_add(mode, defect.get(j, {}), vec, scale=-mode.one())
        idem = max(idem, _max_abs(mode, defect))
        # commutation with Q through the built order
        qp: dict[HalfInt, HermiteVec] = {}
        for j, vec in img.items():
            for i in engine.family.orders():
                t = j + i
                if t > N:
                    continue
                acc: HermiteVec = {}
                for midx, c in vec.items():
                    _vec_add(mode, acc, engine.q_action(i, midx), scale=c)
                qp[t] = _vec_add(mode, qp.get(t, {}), acc)
        # qh holds cached q_action results: apply_graded only reads them
        qh: dict[HalfInt, HermiteVec] = {}
        for i in engine.family.orders():
            if i > N:
                continue
            qh[i] = engine.q_action(i, idx)
        pq = proj.apply_graded(qh)
        for j, vec in pq.items():
            qp[j] = _vec_add(mode, qp.get(j, {}), vec, scale=-mode.one())
        comm = max(comm, _max_abs(mode, {j: v for j, v in qp.items() if j <= N}))

    # symmetry of the pairing
    sym = 0.0
    sym_sample = probes[: max(4, level.m0 + 2)]
    projected = {a: graded_vecs_to_s0(basis, proj.image(a), N) for a in sym_sample}
    plain = {a: S0Series.from_fiber_poly(basis.fiber(a), None) for a in sym_sample}
    for a in sym_sample:
        pa, ha = projected[a], plain[a]
        for b in sym_sample:
            pb, hb = projected[b], plain[b]
            left = pair_s0(pa, hb, omega, through=N)
            right = pair_s0(ha, pb, omega, through=N)
            diff = left - right
            sym = max(sym, diff.max_abs_coeff(min(N, diff.truncation_order or N)))

    # rank certificate: every projected vector is a series combination of the
    # level images, solved order by order against the level components
    f_imgs = {m: proj.image(m) for m in level.members}
    rank_res = 0.0
    members = list(level.members)
    for idx in probes:
        target = {j: dict(vec) for j, vec in proj.image(idx).items()}
        coeffs: dict[tuple, object] = {}
        for t in half_range(HI0, N):
            resid_t = target.get(t, {})
            for m_i, member in enumerate(members):
                c = resid_t.get(member, mode.zero())
                if mode.is_zero(c):
                    continue
                coeffs[(m_i, t)] = c
                for j2, vec2 in f_imgs[member].items():
                    tt = t + j2
                    if tt > N:
                        continue
                    target[tt] = _vec_add(mode, target.get(tt, {}), vec2, scale=-c)
        rank_res = max(rank_res, _max_abs(mode, {j: v for j, v in target.items() if j <= N}))

    # independence: the leading coefficients of the level images are the
    # standard basis vectors, so the images are independent by construction;
    # certify by checking those leading entries explicitly.
    rank = 0
    for member in members:
        lead = proj.image(member).get(HI0, {})
        if not mode.is_zero(lead.get(member, mode.zero()) - mode.one()):
            continue
        rank += 1

    return ProjectorReport(
        order=N,
        idempotency_defect=idem,
        commutation_defect=comm,
        symmetry_defect=sym,
        rank=rank,
        rank_expected=level.m0,
        rank_residual=rank_res,
        degree_bound_ok=degree_ok,
        parity_ok=parity_ok,
    )
