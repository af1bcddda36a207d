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

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import floor, perm, prod

from .series_algebra import (
    EXPONENT_BITS, MAX_DEGREE, FiberPoly, Poly, accumulate, check_degree,
    pack, reduce_num, unpack)

__all__ = [
    "HermiteIndex",
    "HermiteBasis",
    "SpectrumTable",
    "DegenerateLevel",
    "build_spectrum",
    "covering_degree",
    "degenerate_level",
    "level_by_index",
    "LevelNotFoundError",
]


class LevelNotFoundError(ValueError):
    """Requested eigenvalue is not in the model spectrum."""


@dataclass(frozen=True, order=True)
class HermiteIndex:
    """Label (alpha, k) of one eigenfunction: multi-index alpha, fiber slot k (0-based).

    Equality, hash and ordering are those of (alpha, k). Inside the projector
    engine an index is an integer position of its basis (``HermiteBasis.position``).
    """

    alpha: tuple
    k: int

    @property
    def degree(self) -> int:
        return sum(self.alpha)


class HermiteBasis:
    """Monic eigenbasis of the model operator up to a fixed polynomial degree.

    Provides the basis polynomials, the eigenvalues, and the exact action of
    a ``DiffOpJet`` on each basis vector.

    Each (alpha, k) met gets an integer position, in order of first use
    (``position``); ``index_at``, ``degree_at`` and ``eigenvalue_at`` list its
    ``HermiteIndex``, degree |alpha| and eigenvalue by position. ``apply``
    takes and returns positions, so the projector engine keys its vectors and
    caches by plain ints. Inside, an index is the int pack(alpha) * rank + k.
    """

    def __init__(self, mode, lam: tuple, mu: tuple, degree: int):
        self.mode = mode
        self.lam = tuple(lam)
        self.mu = tuple(mu)
        self.n = n = len(self.lam)
        self.rank = len(self.mu)
        self.degree = degree
        self._one_dim: list[list[Poly]] = []
        for nu in range(n):
            polys = [Poly.const(mode, n, 1), Poly.variable(mode, n, nu)]
            for m in range(1, degree):
                factor = mode.coeff(Fraction(m)) / (self.lam[nu] + self.lam[nu])
                polys.append(Poly.variable(mode, n, nu) * polys[m]
                             - polys[m - 1].scale(factor))
            self._one_dim.append(polys[: degree + 1])
        self._poly_cache: dict[int, Poly] = {}
        self._y_rows: dict[tuple, tuple] = {}
        self._half_inverse = [mode.split(mode.one() / (l + l)) for l in self.lam]
        self._units = [pack(tuple(int(i == nu) for i in range(n))) for nu in range(n)]
        self._positions: dict[int, int] = {}
        self._key_at: list[int] = []
        self.index_at: list[HermiteIndex] = []
        self.degree_at: list[int] = []
        self.eigenvalue_at: list = []

    # -- basis elements

    def poly(self, alpha: tuple) -> Poly:
        """The scalar product polynomial for the multi-index alpha."""
        if sum(alpha) > self.degree:
            raise ValueError(f"degree {sum(alpha)} exceeds the basis bound {self.degree}")
        return self._poly(pack(alpha))

    def _poly(self, key: int) -> Poly:
        """``poly`` of the packed multi-index ``key``."""
        cached = self._poly_cache.get(key)
        if cached is None:
            cached = Poly.const(self.mode, self.n, 1)
            for nu, m in enumerate(unpack(key, self.n)):
                if m:
                    cached = cached * self._one_dim[nu][m]
            self._poly_cache[key] = cached
        return cached

    def fiber(self, index: HermiteIndex) -> FiberPoly:
        return FiberPoly.unit(self.poly(index.alpha), self.rank, index.k)

    def position(self, index: HermiteIndex) -> int:
        """The integer position of ``index``, assigned on first use."""
        return self._position(pack(index.alpha) * self.rank + index.k)

    def _position(self, key: int) -> int:
        pos = self._positions.get(key)
        if pos is None:
            pos = self._positions[key] = len(self.index_at)
            alpha, k = divmod(key, self.rank)
            index = HermiteIndex(unpack(alpha, self.n), k)
            self._key_at.append(key)
            self.index_at.append(index)
            self.degree_at.append(index.degree)
            self.eigenvalue_at.append(_eigenvalue(self.mode, self.lam, self.mu, index))
        return pos

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
        ((i, numerator), ...) over d_nu^k, where c_nu / d_nu is 1/(2 lambda_nu)
        in lowest terms, by the three-term recurrence y p_i = p_{i+1} +
        i/(2 lambda) p_{i-1} (DLMF 18.9)."""
        row = self._y_rows.get((nu, k, m))
        if row is None:
            row = ((m, 1),)
            if k:
                cn, cd = self._half_inverse[nu]
                num: dict = {}
                for i, c in self._y_row(nu, k - 1, m):
                    num[i + 1] = num.get(i + 1, 0) + c * cd
                    if i:
                        num[i - 1] = num.get(i - 1, 0) + c * i * cn
                row = tuple(num.items())
            self._y_rows[nu, k, m] = row
        return row

    def apply(self, op, pos: int) -> tuple[dict, int]:
        """The ``DiffOpJet`` ``op`` applied to the basis vector at position
        ``pos``: numerators over one denominator in the form of
        ``reduce_num``, keyed by position.

        The monic family is an Appell sequence, d p_m = m p_{m-1}, so the
        stencil term t y^gamma d^beta of an entry at input column k maps
        p_alpha to t alpha!/(alpha - beta)! prod_nu y^gamma_nu
        p_{alpha_nu - beta_nu}, exact, with no change of basis. The terms of
        an entry are summed by sum factorization (S. A. Orszag, J. Comput.
        Phys. 37 (1980) 70): grouped by gamma-prefix, they are contracted
        from the last dimension inward, so each one-dimensional ``_y_row``
        product is formed once per prefix, not once per term. Every row of
        dimension nu and power g sits over d_nu^g; it is scaled to d_nu^G_nu,
        G_nu the largest gamma_nu in the operator (``tops``), so the whole image
        sits over one denominator.
        """
        op_den, tops, rows = _hermite_tree(op)
        check_degree(self.degree + sum(tops))
        alpha, k = divmod(self._key_at[pos], self.rank)
        rank = self.rank
        acc: dict = {}
        get = acc.get
        for i, row in enumerate(rows):
            for j, beta, steps, tree in row:
                f = prod(perm(alpha >> sh & MAX_DEGREE, b) for sh, b in steps) if j == k else 0
                if not f:
                    continue
                for key, c in self._contract(tree, 0, alpha - beta, tops).items():
                    key = key * rank + i
                    acc[key] = get(key, 0) + c * f
        den = op_den * prod(cd ** g for (_, cd), g in zip(self._half_inverse, tops))
        num, den = reduce_num(self.mode, acc, den)
        position = self._position
        return {position(key): n for key, n in num.items()}, den

    def _contract(self, tree, nu: int, base: int, tops: tuple) -> dict:
        """The sum over the gamma-prefix tree ``tree`` of dimension nu of
        t prod_{mu >= nu} y^gamma_mu p_{base_mu}, over prod_{mu >= nu}
        d_mu^tops_mu: numerators keyed by the packed indices m_mu, mu >= nu
        (``base`` is packed too)."""
        cd, top, unit = self._half_inverse[nu][1], tops[nu], self._units[nu]
        m0 = base >> EXPONENT_BITS * (self.n - 1 - nu) & MAX_DEGREE
        last = nu == self.n - 1
        out: dict = {}
        get = out.get
        for g, child in tree:
            # a leaf holds the term's numerator t
            inner = ((0, child),) if last else self._contract(child, nu + 1, base, tops).items()
            scale = cd ** (top - g)
            for m, y in self._y_row(nu, g, m0):
                c = y * scale
                m *= unit
                for key, s in inner:
                    key += m
                    out[key] = get(key, 0) + c * s
        return out

    def synthesize(self, num: dict, den: int) -> FiberPoly:
        """The fiber polynomial sum_pos (num[pos] / den) p_alpha e_k of
        numerators keyed by position over one denominator (a ``HermiteVec``'s):
        each basis polynomial's numerators are added in place into one set per
        component (``accumulate``), and each component is reduced once."""
        slots = [[{}, 1] for _ in range(self.rank)]
        for pos, c in num.items():
            alpha, k = divmod(self._key_at[pos], self.rank)
            p = self._poly(alpha)
            slot = slots[k]
            slot[1] = accumulate(*slot, p.num, c, den * p.den)
        return FiberPoly([Poly._reduced(self.mode, self.n, acc, d) for acc, d in slots])


def _hermite_tree(op) -> tuple:
    """(den, tops, rows) for ``HermiteBasis.apply``, derived once from
    ``op.stencil()`` and kept on the operator: each entry (column j, packed
    beta, steps, terms) becomes (j, beta, steps, tree), its terms grouped by
    gamma-prefix (``_prefix_tree``), and ``tops[nu]`` is the largest
    gamma_nu of any term."""
    if op._hermite_tree is None:
        den, _, rows = op.stencil()
        out = tuple(tuple((j, beta, steps, _prefix_tree([(g, t) for g, t, _ in terms], op.n))
                          for j, beta, steps, terms in row) for row in rows)
        gammas = [g for row in rows for *_, terms in row for g, _, _ in terms]
        op._hermite_tree = den, _field_tops(gammas, op.n), out
    return op._hermite_tree


def _prefix_tree(terms: list, n: int, nu: int = 0) -> tuple:
    """The terms (packed gamma, t) grouped by gamma_nu, each group by
    gamma_(nu+1), and so on: ((g, subtree), ...) down to ((g, t), ...) in the
    last variable."""
    shift = EXPONENT_BITS * (n - 1 - nu)
    if nu == n - 1:
        return tuple((g >> shift & MAX_DEGREE, t) for g, t in terms)
    groups: dict = {}
    for g, t in terms:
        groups.setdefault(g >> shift & MAX_DEGREE, []).append((g, t))
    return tuple((g, _prefix_tree(group, n, nu + 1)) for g, group in groups.items())


def _field_tops(keys: list, n: int) -> tuple:
    """The largest exponent of each variable over the packed ``keys``."""
    return tuple(max((k >> EXPONENT_BITS * (n - 1 - nu) & MAX_DEGREE for k in keys), default=0)
                 for nu in range(n))


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

    def sorted_entries(self) -> list:
        return sorted(self.entries.items(),
                      key=lambda kv: (self.mode.to_float(kv[1]), kv[0]))

    def at_level(self, index: HermiteIndex, E0) -> bool:
        """Whether the eigenvalue at ``index`` is E0: their difference is
        negligible against |E0| and the magnitudes summed into the eigenvalue,
        sum (2 alpha_nu + 1) |lambda_nu| + |mu_k|, so that a float eigenvalue
        that cancels to rounding (0.1 + 0.2 - 0.3) is the level at 0."""
        mode = self.mode
        size = sum(mode.abs(l) * (2 * a + 1) for l, a in zip(self.lam, index.alpha))
        size += mode.abs(self.mu[index.k])
        return mode.negligible(self.entries[index] - E0, max(size, mode.abs(E0)))

    def distinct_levels(self) -> list:
        """Distinct eigenvalues ascending; float values are equal by ``at_level``."""
        values = []
        for index, e in self.sorted_entries():
            if not values or not self.at_level(index, values[-1]):
                values.append(e)
        return values


def _eigenvalue(mode, lam, mu, index: HermiteIndex):
    """E(alpha, k) = sum (2 alpha_nu + 1) lambda_nu + mu_k."""
    return sum((l * (2 * a + 1) for l, a in zip(lam, index.alpha)), mode.zero()) + mu[index.k]


def covering_degree(mode, lam, mu, E0) -> int:
    """The least table degree sure to hold every index at the eigenvalue E0.

    An index of degree |alpha| has E >= sum lambda + 2 |alpha| min lambda +
    min mu, so the table of degree d holds the whole level whenever
    E0 < sum lambda + 2 (d + 1) min lambda + min mu, that is when d + 1 > x
    for x = (E0 - sum lambda - min mu) / (2 min lambda). In float mode an
    index whose eigenvalue is ``mode.close`` to E0 must be inside too, so x
    close to d + 1 counts as d + 1. The i-th distinct level has E0 at most
    sum lambda + 2 i min lambda + min mu, so it lies in the table of degree i.
    """
    real = mode.real
    x = (real(E0) - sum(map(real, lam)) - min(map(real, mu))) / (2 * min(map(real, lam)))
    d = max(floor(x), 0)
    return d + 1 if mode.close(x, d + 1) else d


def build_spectrum(mode, lam, mu, degree: int) -> SpectrumTable:
    """All model eigenvalues with |alpha| <= degree, exact in the mode's field."""
    lam = tuple(map(mode.coeff, lam))
    mu = tuple(map(mode.coeff, mu))
    entries = {}
    for alpha in _multi_indices(len(lam), degree):
        for k in range(len(mu)):
            index = HermiteIndex(alpha, k)
            entries[index] = _eigenvalue(mode, lam, mu, index)
    return SpectrumTable(mode, lam, mu, degree, entries)


@dataclass(frozen=True)
class DegenerateLevel:
    """One eigenvalue with its full index set.

    K is half the maximal |alpha| over the members, ``K2`` = 2K that maximum;
    parity is 'even' or 'odd' when every member degree has that parity, else
    'mixed'.
    """

    E0: object
    members: tuple          # HermiteIndex, sorted
    m0: int
    K2: int
    parity: str


def degenerate_level(table: SpectrumTable, E0) -> DegenerateLevel:
    """Collect all indices at the eigenvalue E0 (equal by ``SpectrumTable.at_level``).

    The level records the table's eigenvalue of its first entry in
    ``sorted_entries`` order, the value ``distinct_levels`` reports, so a
    float level named by value or by index is the same level. The table must
    hold the whole level: its degree must be at least ``covering_degree`` of E0.
    """
    mode = table.mode
    E0 = mode.coeff(E0)
    need = covering_degree(mode, table.lam, table.mu, E0)
    if need > table.degree:
        raise LevelNotFoundError(
            f"spectrum table degree {table.degree} too small to certify the level; need {need}")
    members = [index for index, _ in table.sorted_entries() if table.at_level(index, E0)]
    if not members:
        raise LevelNotFoundError(f"E0 = {E0} not in the model spectrum")
    E0 = table.entries[members[0]]
    members = tuple(sorted(members))
    degrees = {m.degree % 2 for m in members}
    parity = "even" if degrees == {0} else "odd" if degrees == {1} else "mixed"
    K2 = max(m.degree for m in members)
    return DegenerateLevel(E0=E0, members=members, m0=len(members), K2=K2, parity=parity)


def level_by_index(table: SpectrumTable, i: int) -> DegenerateLevel:
    """The i-th distinct level, ascending from the bottom of the spectrum."""
    levels = table.distinct_levels()
    if i < 0 or i >= len(levels):
        raise LevelNotFoundError(f"level index {i} out of range ({len(levels)} levels tabulated)")
    return degenerate_level(table, levels[i])
