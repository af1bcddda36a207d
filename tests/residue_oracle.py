"""The level projector by Kato's Laurent residues: the oracle of the
program's projector images (``ProjectorSeries.image2``), which it forms from
Bloch's recursion on Q and on the Gaussian adjoint of Q.

In the model eigenbasis G0(E0 + w) multiplies the component at eigenvalue E
by 1/(g + w), g = E0 - E: a pole 1/w on the level, a power series in w
elsewhere. The order-s part of the resolvent expansion applied to a basis
vector e obeys T_0 = G0 e, T_s = G0 sum_{0 < i <= s} Q_i T_{s-i} (T. Kato,
Perturbation Theory for Linear Operators, ch. II, 1-2), and the order-j
image of e is the w^(-1) residue of T_j, the contour integral of the
resolvent around the level.
"""

from qmf.projection_engine import HermiteVec, ProjectorSeries


def _slot(vecs: dict, key, mode) -> HermiteVec:
    """The accumulator at ``key``, created empty if missing."""
    vec = vecs.get(key)
    if vec is None:
        vec = vecs[key] = HermiteVec(mode)
    return vec


def _reduced(vecs: dict) -> dict:
    """Reduce every accumulator and keep the nonzero ones."""
    return {key: vec for key, vec in vecs.items() if vec.reduce()}


def apply_q(proj, j2: int, state: dict, out: dict) -> dict:
    """Add Q_j, j2 = 2j, applied to every vector of ``state`` into ``out``
    under the same key."""
    for key, vec in state.items():
        acc = _slot(out, key, proj.mode)
        for idx, n in vec.num.items():
            acc.add(proj.q_action(j2, idx), n, vec.den)
    return out


class ResidueOracle(ProjectorSeries):
    """The residue recursion on the program's Q_j table (``q_action``).

    A state holds one vector per w-power; the Q_i image is read once per
    (w-power, basis key) entry, and G0 expands 1/(g + w) from every input
    power as a geometric series, O(L^2) per basis vector for L kept powers.

    A component at w-power p needs at least p + 1 later steps that end on
    the level to reach the residue, each applying some Q_i for 2i
    half-orders. Q_i changes degree parity by 2i, so with R half-orders left
    a component of the level's parity re-enters a level of uniform parity at
    most floor(R/2) times, one of the other parity floor((R + 1)/2) times,
    and on a mixed level R times: each basis vector keeps the powers p <= L - 1
    for L that count (``_power_bounds``). ``states`` keeps the last call's
    states, {w-power: HermiteVec} per step."""

    def __init__(self, *args):
        super().__init__(*args)
        self._gap_powers: dict[int, list] = {}
        self._parity = {"even": 0, "odd": 1}.get(self.level.parity)
        self.states: dict[int, dict] = {}

    def _power_bounds(self, remaining: int) -> tuple:
        """L by the parity of degree minus the level's."""
        return (remaining,) * 2 if self._parity is None else (remaining // 2, (remaining + 1) // 2)

    def _gap_series(self, idx: int, count: int) -> list:
        """The first ``count`` pairs (a_s, b_s) of the geometric series in w
        of 1/(E0 - E + w): a_s / b_s = (-1)^s / (E0 - E)^(s+1)."""
        pows = self._gap_powers.get(idx)
        if pows is None or len(pows) < count:
            gap = self.level.E0 - self.basis.eigenvalue(idx)
            p, q = self.mode.split(self.mode.one() / gap)
            pows, a, b = [], p, q
            for s in range(count):
                pows.append((-a if s % 2 else a, b))
                a, b = a * p, b * q
            self._gap_powers[idx] = pows
        return pows

    def _resolvent_factor(self, state: dict, remaining: int) -> dict:
        """Multiply a Laurent state by G0(E0 + w), componentwise, keeping at
        each basis vector the w-powers p <= L - 1 (``_power_bounds``)."""
        mode, basis = self.mode, self.basis
        bound, parity = self._power_bounds(remaining), self._parity or 0
        out: dict[int, HermiteVec] = {}
        for power, vec in state.items():
            den = vec.den
            for idx, n in vec.num.items():
                top = bound[(basis.index(idx).degree ^ parity) & 1]
                if idx in self._level_set:
                    if power <= top:
                        _slot(out, power - 1, mode).add_entry(idx, n, den)
                    continue
                count = top - power
                if count <= 0:
                    continue
                pows = self._gap_series(idx, count)
                for s in range(count):
                    a, b = pows[s]
                    _slot(out, power + s, mode).add_entry(idx, n * a, den * b)
        return _reduced(out)

    def images2(self, key: int) -> dict:
        """The order-j coefficients, 0 <= 2j <= N, of the projected basis
        vector ``key``, keyed by 2j: the nonzero residues of T_j."""
        N = self.order2
        parts = [i for i in self.family.orders2() if 0 < i <= N]
        states = self.states = {}
        out: dict[int, HermiteVec] = {}
        for s in range(N + 1):
            summed = {0: HermiteVec.of(self.mode, {key: self.mode.one()})} if s == 0 else {}
            for i in parts:
                if i > s:
                    break
                apply_q(self, i, states[s - i], summed)
            state = states[s] = self._resolvent_factor(_reduced(summed), N - s)
            residue = state.get(-1)
            if residue:
                out[s] = residue
        return out


def residue_images_s0(ctx) -> list:
    """The residue images P e_a of the level members of a pipeline context,
    as power-counted series (``ProjectorSeries.as_s0``)."""
    proj = ctx.projector
    oracle = ResidueOracle(proj.family, proj.basis, proj.level, proj.order2)
    return [oracle.as_s0(oracle.images2(proj.basis.key(a)), a.degree, proj.order2)
            for a in ctx.level.members]
