"""Exact eigenstructure of the model operator on polynomials.

The model operator sum_nu(-d^2 + 2 lambda_nu y_nu d + lambda_nu) + W(0) is
diagonal on products of Hermite-type polynomials. To keep every coefficient
rational when the frequencies are rational, the basis used here is the monic
orthogonal family for the weight exp(-lambda y^2),

    p_0 = 1,  p_1 = y,  p_{m+1} = y p_m - (m / (2 lambda)) p_{m-1},

whose squared norms are m! / (2 lambda)^m times the common Gaussian factor
sqrt(pi / lambda) that the pairing module factors out globally. The
conventionally normalized eigenfunctions are p_m / sqrt(norm); all exact-mode
algebra works with the monic family plus the rational squared norms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .series_algebra import FiberPoly, HalfInt, Poly, mono_degree

__all__ = [
    "HermiteIndex",
    "HermiteBasis",
    "SpectrumTable",
    "DegenerateLevel",
    "build_spectrum",
    "degenerate_level",
    "level_by_index",
    "LevelNotFoundError",
]


class LevelNotFoundError(ValueError):
    """Requested eigenvalue is not in the model spectrum."""


@dataclass(frozen=True, order=True)
class HermiteIndex:
    """Label (alpha, k) of one eigenfunction: multi-index alpha, fiber slot k (0-based)."""

    alpha: tuple
    k: int

    @property
    def degree(self) -> int:
        return sum(self.alpha)

    @property
    def parity(self) -> int:
        return 1 if self.degree % 2 == 0 else -1


class HermiteBasis:
    """Monic eigenbasis of the model operator up to a fixed polynomial degree.

    Provides the basis polynomials, their rational squared norms, exact
    change of basis to and from monomials, and the eigenvalues.
    """

    def __init__(self, mode, n: int, rank: int, lam: tuple, mu: tuple, degree: int):
        self.mode = mode
        self.n = n
        self.rank = rank
        self.lam = tuple(lam)
        self.mu = tuple(mu)
        self.degree = degree
        self._one_dim: list[list[Poly]] = []
        for nu in range(n):
            polys = [Poly.const(mode, n, 1), Poly.variable(mode, n, nu)]
            for m in range(1, degree):
                factor = mode.coeff(Fraction(m)) / (self.lam[nu] + self.lam[nu])
                polys.append(Poly.variable(mode, n, nu) * polys[m]
                             - polys[m - 1].scale(factor))
            self._one_dim.append(polys[: degree + 1])
        self._poly_cache: dict[tuple, Poly] = {}
        self._interned: dict[HermiteIndex, HermiteIndex] = {}

    # -- basis elements

    def poly(self, alpha: tuple) -> Poly:
        """The scalar product polynomial for the multi-index alpha."""
        alpha = tuple(alpha)
        if max(alpha, default=0) > self.degree or sum(alpha) > self.degree:
            raise ValueError(f"degree {sum(alpha)} exceeds the basis bound {self.degree}")
        cached = self._poly_cache.get(alpha)
        if cached is None:
            cached = Poly.const(self.mode, self.n, 1)
            for nu, m in enumerate(alpha):
                if m:
                    cached = cached * self._one_dim[nu][m]
            self._poly_cache[alpha] = cached
        return cached

    def fiber(self, index: HermiteIndex) -> FiberPoly:
        return FiberPoly.unit(self.poly(index.alpha), self.rank, index.k)

    def norm2(self, alpha: tuple):
        """Squared norm of the monic polynomial, Gaussian factor removed."""
        out = self.mode.one()
        for nu, m in enumerate(alpha):
            for i in range(1, m + 1):
                out = out * self.mode.coeff(i) / (self.lam[nu] + self.lam[nu])
        return out

    def eigenvalue(self, index: HermiteIndex):
        e = self.mode.zero()
        for nu, a in enumerate(index.alpha):
            e = e + self.lam[nu] * (2 * a + 1)
        return e + self.mu[index.k]

    def indices(self, max_degree: int | None = None) -> list[HermiteIndex]:
        d = self.degree if max_degree is None else max_degree
        out = []
        for alpha in _multi_indices(self.n, d):
            for k in range(self.rank):
                out.append(HermiteIndex(alpha, k))
        return out

    # -- change of basis

    def expand_scalar(self, q: Poly) -> dict[tuple, object]:
        """Coefficients of a scalar polynomial over the monic family.

        Triangular elimination: the family member for alpha is monic with
        leading monomial y^alpha, so repeatedly stripping a maximal-degree
        monomial terminates and is exact.
        """
        work = dict(q.terms)
        out: dict[tuple, object] = {}
        while work:
            alpha = max(work, key=lambda a: (mono_degree(a), a))
            c = work.pop(alpha)
            if self.mode.is_zero(c):
                continue
            out[alpha] = out.get(alpha, self.mode.zero()) + c
            tail = self.poly(alpha)
            for beta, cb in tail.terms.items():
                if beta == alpha:
                    continue
                s = work.get(beta, self.mode.zero()) - c * cb
                if self.mode.is_zero(s):
                    work.pop(beta, None)
                else:
                    work[beta] = s
        return out

    def expand(self, q: FiberPoly) -> dict[HermiteIndex, object]:
        """Hermite coefficients, keyed by one shared object per index (dict hits by identity)."""
        out = {}
        for k, comp in enumerate(q.components):
            for alpha, c in self.expand_scalar(comp).items():
                idx = HermiteIndex(alpha, k)
                out[self._interned.setdefault(idx, idx)] = c
        return out

    def synthesize(self, coeffs: dict[HermiteIndex, object]) -> FiberPoly:
        out = FiberPoly.zero(self.mode, self.n, self.rank)
        for index, c in coeffs.items():
            if self.mode.is_zero(c):
                continue
            out = out + self.fiber(index).scale(c)
        return out


def _multi_indices(n: int, max_degree: int) -> list[tuple]:
    out = []
    for alpha in product(range(max_degree + 1), repeat=n):
        if sum(alpha) <= max_degree:
            out.append(alpha)
    return sorted(out, key=lambda a: (sum(a), a))


# ---------------------------------------------------------------------------
# Spectrum table and degenerate levels


@dataclass
class SpectrumTable:
    """Eigenvalues E(alpha, k) = sum (2 alpha_nu + 1) lambda_nu + mu_k, |alpha| <= degree."""

    mode: object
    lam: tuple
    mu: tuple
    degree: int
    entries: dict  # HermiteIndex -> eigenvalue

    def eigenvalue(self, index: HermiteIndex):
        return self.entries[index]

    def sorted_entries(self) -> list:
        return sorted(self.entries.items(),
                      key=lambda kv: (self.mode.to_float(kv[1]), kv[0]))

    def distinct_levels(self, rel_tol: float = 1e-9) -> list:
        """Distinct eigenvalues ascending (clustered by rel_tol in float mode)."""
        values = []
        for _, e in self.sorted_entries():
            if not values:
                values.append(e)
                continue
            if self.mode.name == "exact":
                if e != values[-1]:
                    values.append(e)
            else:
                scale = max(1.0, abs(values[-1]))
                if abs(e - values[-1]) > rel_tol * scale:
                    values.append(e)
        return values


def build_spectrum(mode, lam, mu, degree: int, n: int | None = None,
                   rank: int | None = None) -> SpectrumTable:
    """All model eigenvalues with |alpha| <= degree, exact in the mode's field."""
    lam = tuple(mode.coeff(l) if isinstance(l, (int, Fraction, str)) else l for l in lam)
    mu = tuple(mode.coeff(m) if isinstance(m, (int, Fraction, str)) else m for m in mu)
    n = len(lam) if n is None else n
    rank = len(mu) if rank is None else rank
    entries = {}
    for alpha in _multi_indices(n, degree):
        base = mode.zero()
        for nu, a in enumerate(alpha):
            base = base + lam[nu] * (2 * a + 1)
        for k in range(rank):
            entries[HermiteIndex(alpha, k)] = base + mu[k]
    return SpectrumTable(mode, lam, mu, degree, entries)


@dataclass(frozen=True)
class DegenerateLevel:
    """One eigenvalue with its full index set.

    K is half the maximal |alpha| over the members; parity is 'even' or
    'odd' when every member degree has that parity, else 'mixed'.
    """

    E0: object
    members: tuple          # HermiteIndex, sorted
    m0: int
    K: HalfInt
    parity: str


def degenerate_level(table: SpectrumTable, E0, rel_tol: float = 1e-9) -> DegenerateLevel:
    """Collect all indices at the eigenvalue E0 (exact match, or cluster in float mode).

    The enumeration degree of the table must be large enough to contain the
    whole level; this is guaranteed when degree >= (E0 - min mu) / (2 min lam).
    """
    mode = table.mode
    E0 = mode.coeff(E0) if isinstance(E0, (int, Fraction, str)) else E0
    members = []
    for index, e in table.entries.items():
        if mode.name == "exact":
            hit = e == E0
        else:
            hit = abs(e - E0) <= rel_tol * max(1.0, abs(E0))
        if hit:
            members.append(index)
    if not members:
        raise LevelNotFoundError(f"E0 = {E0} not in the model spectrum (degree {table.degree})")
    # the table must not have cut the level off at its degree bound
    lam_min = min(mode.to_float(l) for l in table.lam)
    mu_min = min((mode.to_float(m) for m in table.mu), default=0.0)
    needed = (mode.to_float(E0) - mu_min) / (2 * lam_min)
    if table.degree < needed - 1e-9:
        raise LevelNotFoundError(
            f"spectrum table degree {table.degree} too small to certify the level; need {needed:.1f}")
    members = tuple(sorted(members))
    degrees = {m.degree % 2 for m in members}
    parity = "even" if degrees == {0} else "odd" if degrees == {1} else "mixed"
    K = HalfInt(max(m.degree for m in members))
    return DegenerateLevel(E0=E0, members=members, m0=len(members), K=K, parity=parity)


def level_by_index(table: SpectrumTable, i: int, rel_tol: float = 1e-9) -> DegenerateLevel:
    """The i-th distinct level, ascending from the bottom of the spectrum."""
    levels = table.distinct_levels(rel_tol)
    if i < 0 or i >= len(levels):
        raise LevelNotFoundError(f"level index {i} out of range ({len(levels)} levels tabulated)")
    return degenerate_level(table, levels[i], rel_tol)
