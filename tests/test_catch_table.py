"""What each check catches: one defect per row, put into the pipeline by
monkeypatching, then every check (``verify --checks all``) on cubic1d o6,
iso2d o4 and rank2 o4, exact.

This is mutation analysis (R. A. DeMillo, R. J. Lipton and F. G. Sayward,
"Hints on test data selection", IEEE Computer 11 (1978) 34). Transport fails
on every construction defect; rs and the projector's symmetry law are the
only checks that see a defect in the residue route; symmetry is the only
check besides transport that sees a wrong operator family; orthonormality
and parity fail no row. On rank2 every construction defect stops ``compute``
at the pencil's hermiticity check. ``pytest -s`` prints the table.
"""

import dataclasses
from fractions import Fraction

import pytest

import qmf.quasimode_pipeline as pipeline
from qmf.cli_io import _run_checks, preset_problem
from qmf.operator_calculus import DiffOpJet
from qmf.projection_engine import HermiteVec, ProjectorSeries
from qmf.series_algebra import FormalScalarSeries

OFF = Fraction(1001, 1000)
PROBLEMS = [("cubic1d", 6), ("iso2d", 4), ("rank2", 4)]
COLUMNS = ("transport", "eigen_residual", "orthonormality", "parity", "rs_oracle", "projector")
PENCIL = "stops at the pencil"


def scaled(vec: HermiteVec) -> HermiteVec:
    return HermiteVec(vec.mode, {i: n * OFF.numerator for i, n in vec.num.items()},
                      vec.den * OFF.denominator).reduce()


def bumped(proj: ProjectorSeries, vec: HermiteVec) -> HermiteVec:
    """``vec`` + 1 at its first entry off the level."""
    out = HermiteVec(vec.mode, dict(vec.num), vec.den)
    out.add_entry(min(i for i in vec.num if i not in proj._level_set), 1)
    return out.reduce()


def q_table(monkeypatch):
    # scaled once, as the image is cached: scaling every read would compound
    real = ProjectorSeries.q_action

    def q_action(self, j2, pos):
        miss = (j2, pos) not in self._q_cache
        vec = real(self, j2, pos)
        if miss and j2 == 2:
            vec = self._q_cache[j2, pos] = scaled(vec)
        return vec

    monkeypatch.setattr(ProjectorSeries, "q_action", q_action)


def family(monkeypatch):
    real = pipeline.rescale_operator

    def rescale_operator(conj):
        fam = real(conj)
        op = fam.get2(2)
        terms = {b: tuple(tuple(p.scale(op.mode.coeff(OFF)) for p in row) for row in m)
                 for b, m in op.terms.items()}
        return dataclasses.replace(fam, ops2={**fam.ops2, 2: DiffOpJet(
            op.mode, op.n, op.rank, terms, op.complete)})

    monkeypatch.setattr(pipeline, "rescale_operator", rescale_operator)


def h_eff(monkeypatch):
    real = ProjectorSeries.wave_operator2

    def wave_operator2(self):
        waves, h = real(self)
        bump = FormalScalarSeries.from_terms2(self.mode, {4: self.mode.coeff(OFF - 1)},
                                              self.order2)
        h[0][0] = h[0][0] + bump
        return waves, h

    monkeypatch.setattr(ProjectorSeries, "wave_operator2", wave_operator2)


def wave_after(monkeypatch):
    real = ProjectorSeries.wave_operator2

    def wave_operator2(self):
        waves, h = real(self)
        waves[0][4] = bumped(self, waves[0][4])
        return waves, h

    monkeypatch.setattr(ProjectorSeries, "wave_operator2", wave_operator2)


def wave_inside(monkeypatch):
    monkeypatch.setattr(ProjectorSeries, "wave_operator2", lambda self: bloch(self, (0, 4)))


def bloch(self, bump_at=None):
    """``ProjectorSeries.wave_operator2``'s loop, with Omega_s e_b bumped
    (``bumped``) as soon as it is formed at (b, 2s) = ``bump_at``, so the
    later orders and H_eff read it."""
    mode, N = self.mode, self.order2
    members = [self.basis.position(m) for m in self.level.members]
    parts = [j for j in self.family.orders2() if 0 < j <= N]
    waves = [{0: HermiteVec.of(mode, {pos: mode.one()})} for pos in members]
    h: dict[int, list] = {}
    for s in range(1, N + 1):
        drives = {b: HermiteVec(mode) for b in range(len(members))}
        for b, om in enumerate(waves):
            for j in (j for j in parts if j <= s):
                prev = om.get(s - j)
                for idx, n in prev.num.items() if prev is not None else ():
                    drives[b].add(self.q_action(j, idx), n, prev.den)
        h_s = [[mode.zero()] * len(members) for _ in members]
        for b, drive in drives.items():
            for a, pos in enumerate(members):
                h_s[a][b] = mode.join(drive.num.get(pos, 0), drive.den)
            for t, h_t in h.items():
                for a, om in enumerate(waves):
                    c = h_t[a][b]
                    if not mode.is_zero(c) and s - t in om:
                        drive.add(om[s - t], *mode.split(-c))
            out = HermiteVec(mode)
            for idx, n in drive.num.items():
                if idx not in self._level_set:
                    u, v = self._gap(idx)
                    out.add_entry(idx, n * u, drive.den * v)
            if (b, s) == bump_at:
                out = bumped(self, out.reduce())
            if out.reduce():
                waves[b][s] = out
        h[s] = h_s
    h_eff = [[FormalScalarSeries.from_terms2(
        mode, {0: self.level.E0 if a == b else mode.zero(),
               **{t: h_t[a][b] for t, h_t in h.items()}}, N)
        for b in range(len(members))] for a in range(len(members))]
    return waves, h_eff


def gap(result):
    # one position's 1/(E0 - E) x 1001/1000 after compute: the residue route only
    proj = result.context.projector
    first = min(i for i in proj.family.orders2() if i > 0)
    member = proj.basis.position(proj.level.members[0])
    pos = next(i for i in proj.q_action(first, member).num if i not in proj._level_set)
    u, v = proj._gap(pos)
    proj._gaps[pos] = (u * OFF.numerator, v * OFF.denominator)


P, F = "pass", "FAIL"
# defect, injected before compute, after it, and the verdicts on cubic1d and
# iso2d (transport, eigen_residual, orthonormality, parity, rs, the failed
# projector laws); on rank2 every defect put in before compute stops it at
# the pencil
ROWS = [
    ("no defect", None, None, (P,) * len(COLUMNS)),
    ("Q_1 table x 1001/1000 in q_action", q_table, None, (F, F, P, P, P, "symmetry")),
    ("rescaled family's Q_1 x 1001/1000", family, None, (F, P, P, P, P, "symmetry")),
    ("H_eff + h^2/1000 at [0][0]", h_eff, None, (F, F, P, P, F, P)),
    ("Omega_2 e_0 + 1 at one entry, after the recursion", wave_after, None, (F, F, P, P, P, P)),
    ("Omega_2 e_0 + 1 at one entry, inside the recursion", wave_inside, None, (F, F, P, P, F, P)),
    ("one position's 1/(E0 - E) x 1001/1000 after compute", None, gap, (P, P, P, P, F, "symmetry")),
]


def failed_laws(report, m0: int) -> str:
    """The projector laws the report fails, or ``P``."""
    data = report.data
    laws = [name for name, bad in (("symmetry", data["symmetry_defect"] > 0),
                                   ("rank", data["rank_residual"] > 0 or data["rank"] != m0),
                                   ("degree", not data["degree_bound_ok"]),
                                   ("parity", not data["parity_ok"])) if bad]
    assert report.passed == (not laws)
    return ",".join(laws) or P


def verdicts(preset: str, order: int, before, after) -> tuple | str:
    """Every check's verdict on the preset with the defect in, or ``PENCIL``."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        if before is not None:
            before(monkeypatch)
        spec = preset_problem(preset, "exact", order)
        try:
            result = pipeline.compute_quasimodes(spec.problem, spec.order, e0=spec.level_value)
        except ValueError as exc:
            assert str(exc) == "pencil must be hermitian"
            return PENCIL
        if after is not None:
            after(result)
        reports = {rep.name: rep for rep in _run_checks(result, "all")}
        assert tuple(reports) == COLUMNS
        return tuple(failed_laws(rep, result.level.m0) if name == "projector"
                     else P if rep.passed else F for name, rep in reports.items())


def test_each_check_catches_its_rows():
    got = {(row[0], preset): verdicts(preset, order, *row[1:3])
           for row in ROWS for preset, order in PROBLEMS}
    lines = ["| defect | problem | " + " | ".join(COLUMNS) + " |",
             "| --- " * (len(COLUMNS) + 2) + "|"]
    for (name, preset), v in got.items():
        cells = [PENCIL] + [""] * (len(COLUMNS) - 1) if v == PENCIL else list(v)
        lines.append(f"| {name} | {preset} | " + " | ".join(cells) + " |")
    print("\n" + "\n".join(lines))
    want = {(name, preset): PENCIL if preset == "rank2" and before is not None else verdict
            for name, before, _, verdict in ROWS for preset, _ in PROBLEMS}
    assert got == want


@pytest.mark.parametrize("preset,order", PROBLEMS)
def test_the_loop_copy_is_the_wave_operator(preset, order):
    spec = preset_problem(preset, "exact", order)
    proj = pipeline.compute_quasimodes(spec.problem, spec.order,
                                       e0=spec.level_value).context.projector
    assert bloch(proj) == proj.wave_operator2()
