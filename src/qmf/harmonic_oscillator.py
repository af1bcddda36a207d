"""Exact eigenstructure of the model operator on polynomials.

The model operator sum_nu(-d^2 + 2 lambda_nu y_nu d + lambda_nu) + W(0) is
diagonal on products of Hermite-type polynomials. To keep every coefficient
rational when the frequencies are rational, the basis used here is the monic
orthogonal family for the weight exp(-lambda y^2),

    p_0 = 1,  p_1 = y,  p_{m+1} = y p_m - (m / (2 lambda)) p_{m-1},

whose squared norms are m! / (2 lambda)^m times the common Gaussian factor
sqrt(pi / lambda) that the pairing module factors out globally, so the
normalized eigenfunctions are p_m / sqrt(norm). The family is an Appell
sequence, d p_m = m p_{m-1}, so operators act on it by table algebra
(``HermiteBasis.apply``); only ``poly`` and ``synthesize`` form monomials.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import perm, prod
from operator import sub

from .series_algebra import FiberPoly, HalfInt, Poly, grow_den, reduce_num

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
    """Label (alpha, k) of one eigenfunction: multi-index alpha, fiber slot k (0-based).

    Indices key every Hermite vector, so the hash is computed once, at
    construction; equality and ordering are those of (alpha, k).
    """

    alpha: tuple
    k: int
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.alpha, self.k)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def degree(self) -> int:
        return sum(self.alpha)


class HermiteBasis:
    """Monic eigenbasis of the model operator up to a fixed polynomial degree.

    Provides the basis polynomials, their rational squared norms, the
    eigenvalues, and the exact action of a ``DiffOpJet`` on each basis vector.
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
        self._y_rows: dict[tuple, tuple] = {}
        self._interned: dict[tuple, HermiteIndex] = {}

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

    # -- operators on the basis

    def _y_row(self, nu: int, k: int, m: int) -> tuple:
        """y^k p_m in the variable nu over the monic family, filled lazily:
        ((i, numerator), ...) over one denominator, by the three-term
        recurrence y p_i = p_{i+1} + i/(2 lambda) p_{i-1} (DLMF 18.9)."""
        row = self._y_rows.get((nu, k, m))
        if row is None:
            row = ((m, 1),), 1
            if k:
                prev, den = self._y_row(nu, k - 1, m)
                cn, cd = self.mode.split(self.mode.one() / (self.lam[nu] + self.lam[nu]))
                num: dict = {}
                for i, c in prev:
                    num[i + 1] = num.get(i + 1, 0) + c * cd
                    if i:
                        num[i - 1] = num.get(i - 1, 0) + c * i * cn
                num, den = reduce_num(self.mode, num, den * cd)
                row = tuple(num.items()), den
            self._y_rows[nu, k, m] = row
        return row

    def apply(self, op, index: HermiteIndex) -> tuple[dict, int]:
        """The ``DiffOpJet`` ``op`` applied to the basis vector at ``index``:
        numerators over one denominator in the form of ``reduce_num``, keyed
        by one shared object per index (dict hits by identity).

        The monic family is an Appell sequence, d p_m = m p_{m-1}, so the
        stencil term t y^gamma d^beta of an entry at input column k maps
        p_alpha to t alpha!/(alpha - beta)! prod_nu y^gamma_nu
        p_{alpha_nu - beta_nu}: a tensor product of ``_y_row`` rows, exact,
        with no change of basis.
        """
        op_den, rows = op.stencil()
        alpha = index.alpha
        acc, den = {}, 1
        for i, row in enumerate(rows):
            for j, beta, steps, terms in row:
                f = prod(perm(alpha[nu], b) for nu, b in steps) if j == index.k else 0
                if not f:
                    continue
                base = tuple(map(sub, alpha, beta))
                for gamma, t, _ in terms:
                    factors = [self._y_row(nu, g, m) for nu, (g, m) in enumerate(zip(gamma, base))]
                    d = op_den * prod(fd for _, fd in factors)
                    if den % d:
                        den = grow_den(acc, den, d)
                    c = t * f * (den // d)
                    for combo in product(*(entries for entries, _ in factors)):
                        key = (tuple(m for m, _ in combo), i)
                        acc[key] = acc.get(key, 0) + c * prod(n for _, n in combo)
        num, den = reduce_num(self.mode, acc, den)
        shared = self._interned
        return {shared.get(key) or shared.setdefault(key, HermiteIndex(*key)): n
                for key, n in num.items()}, den

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

    def distinct_levels(self) -> list:
        """Distinct eigenvalues ascending; float values are equal when ``mode.close``."""
        values = []
        for _, e in self.sorted_entries():
            if not values or not self.mode.close(e, values[-1]):
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


def degenerate_level(table: SpectrumTable, E0) -> DegenerateLevel:
    """Collect all indices at the eigenvalue E0 (equal by ``mode.close``).

    The enumeration degree of the table must be large enough to contain the
    whole level; this is guaranteed when degree >= (E0 - min mu) / (2 min lam).
    """
    mode = table.mode
    E0 = mode.coeff(E0) if isinstance(E0, (int, Fraction, str)) else E0
    members = [index for index, e in table.entries.items() if mode.close(e, E0)]
    if not members:
        raise LevelNotFoundError(f"E0 = {E0} not in the model spectrum (degree {table.degree})")
    # the table must not have cut the level off at its degree bound
    lam_min = min(mode.real(l) for l in table.lam)
    needed = (mode.real(E0) - min((mode.real(m) for m in table.mu), default=0)) / (2 * lam_min)
    if needed > table.degree and not mode.negligible(needed - table.degree, needed):
        raise LevelNotFoundError(
            f"spectrum table degree {table.degree} too small to certify the level; "
            f"need {float(needed):.1f}")
    members = tuple(sorted(members))
    degrees = {m.degree % 2 for m in members}
    parity = "even" if degrees == {0} else "odd" if degrees == {1} else "mixed"
    K = HalfInt(max(m.degree for m in members))
    return DegenerateLevel(E0=E0, members=members, m0=len(members), K=K, parity=parity)


def level_by_index(table: SpectrumTable, i: int) -> DegenerateLevel:
    """The i-th distinct level, ascending from the bottom of the spectrum."""
    levels = table.distinct_levels()
    if i < 0 or i >= len(levels):
        raise LevelNotFoundError(f"level index {i} out of range ({len(levels)} levels tabulated)")
    return degenerate_level(table, levels[i])
