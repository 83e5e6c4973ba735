"""Linear quotients, multigraded Betti numbers, componentwise linearity.

Betti numbers of a monomial ideal are computed exactly: for every
multidegree in the lcm lattice of the generators, the reduced homology
of the upper Koszul simplicial complex is taken over the rationals, with
ranks obtained by fraction-free integer elimination; linearity is read
off the regularity (Eisenbud-Goto, J. Algebra 88, 1984: M_{>=r} has an
r-linear resolution exactly when reg M <= r).  Linear quotients are
certified by explicit witnesses and searched for with two heuristic
orders followed by a memoized backtracking search, which is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import combinations

from .errors import GeneratorLimitExceeded, LatticeLimitExceeded
from .monomials import (
    Monomial,
    MonomialIdeal,
    canonical_key,
    colon,
    component,  # unused; kept because bench/child.py traces resolutions.component
)

__all__ = [
    "LinearQuotientsCertificate",
    "BettiTable",
    "ComponentwiseReport",
    "check_linear_quotients",
    "find_linear_quotients_order",
    "betti_table",
    "has_linear_resolution",
    "is_componentwise_linear",
    "lcm_lattice",
    "upper_koszul_faces",
]


# ---------------------------------------------------------------------------
# Linear quotients


@dataclass
class LinearQuotientsCertificate:
    """An ordering with witnesses that every colon ideal is variable-generated.

    Positions are 1-based.  For each position j > 1 and each earlier i,
    ``witnesses[j][i]`` names an l < j whose colon against the j-th
    generator has degree one and divides the colon of the i-th; that is
    exactly minimal generation of the colon ideal by variables.
    """

    ordering: tuple[Monomial, ...]
    witnesses: dict[int, dict[int, int]] = field(default_factory=dict)
    method: str | None = None

    def validate(self) -> bool:
        gens = self.ordering
        for j in range(2, len(gens) + 1):
            wmap = self.witnesses.get(j, {})
            for i in range(1, j):
                l = wmap.get(i)
                if l is None or not 1 <= l < j:
                    return False
                cl = colon(gens[l - 1], gens[j - 1])
                ci = colon(gens[i - 1], gens[j - 1])
                if cl.total_degree != 1 or not cl.divides(ci):
                    return False
        return True


def check_linear_quotients(ordered_gens) -> LinearQuotientsCertificate | int:
    """Certificate for the given order, or the 1-based failing position."""
    gens = tuple(ordered_gens)
    if len(set(gens)) != len(gens):
        raise ValueError("generators must be pairwise distinct")
    witnesses: dict[int, dict[int, int]] = {}
    for j0 in range(1, len(gens)):
        f = gens[j0]
        colons = [colon(g, f) for g in gens[:j0]]
        linear = [(l0, cl) for l0, cl in enumerate(colons) if cl.total_degree == 1]
        wmap: dict[int, int] = {}
        for i0, ci in enumerate(colons):
            hit = next((l0 for l0, cl in linear if cl.divides(ci)), None)
            if hit is None:
                return j0 + 1
            wmap[i0 + 1] = hit + 1
        witnesses[j0 + 1] = wmap
    return LinearQuotientsCertificate(ordering=gens, witnesses=witnesses)


def find_linear_quotients_order(
    gens, max_generators: int = 24
) -> LinearQuotientsCertificate | None:
    """Search for a linear-quotients order of a set of monomials.

    Tries the ascending order under the universe priority (the order the
    standard-monomial machinery predicts), then the descending one, then
    a backtracking search over prefixes.  Whether a next generator may be
    appended depends only on the set already placed, so failed prefix
    sets are memoized and the search is exact: None means no order at
    all has linear quotients.
    """
    pool = sorted(set(gens), key=canonical_key)
    if len(pool) > max_generators:
        raise GeneratorLimitExceeded(
            f"{len(pool)} generators exceed the search bound {max_generators}"
        )
    for ordering, method in ((pool, "ascending"), (list(reversed(pool)), "descending")):
        result = check_linear_quotients(ordering)
        if isinstance(result, LinearQuotientsCertificate):
            return replace(result, method=method)

    n = len(pool)
    colons = {(l, j): colon(pool[l], pool[j]) for l in range(n) for j in range(n) if l != j}

    def may_append(chosen: frozenset, cand: int) -> bool:
        linear = [l for l in chosen if colons[l, cand].total_degree == 1]
        for i in chosen:
            ci = colons[i, cand]
            if not any(colons[l, cand].divides(ci) for l in linear):
                return False
        return True

    dead: set[frozenset] = set()

    def dfs(prefix: list[int], chosen: frozenset) -> list[int] | None:
        if len(prefix) == n:
            return prefix
        if chosen in dead:
            return None
        for cand in range(n):
            if cand in chosen or not may_append(chosen, cand):
                continue
            found = dfs(prefix + [cand], chosen | {cand})
            if found is not None:
                return found
        dead.add(chosen)
        return None

    found = dfs([], frozenset())
    if found is None:
        return None
    result = check_linear_quotients([pool[i] for i in found])
    assert isinstance(result, LinearQuotientsCertificate)
    return replace(result, method="search")


# ---------------------------------------------------------------------------
# Exact rank over the integers


def _int_rank(rows: list[list[int]]) -> int:
    """Rank by fraction-free (Bareiss) elimination; entries stay integers."""
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    rank = 0
    prev = 1
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        piv = next((k for k in range(r, nrows) if m[k][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for k in range(r + 1, nrows):
            for c2 in range(c + 1, ncols):
                m[k][c2] = (m[k][c2] * m[r][c] - m[k][c] * m[r][c2]) // prev
            m[k][c] = 0
        prev = m[r][c]
        rank += 1
        r += 1
    return rank


# ---------------------------------------------------------------------------
# Upper Koszul complexes and Betti tables

BETTI_MAX_GENERATORS, MAX_MULTIDEGREES = 18, 4096  # default Betti-table bounds


def lcm_lattice(ideal: MonomialIdeal, max_multidegrees: int = MAX_MULTIDEGREES) -> list[Monomial]:
    """All lcms of nonempty generator subsets (closure under pairwise lcm)."""
    if ideal.is_zero:
        return []
    current = set(ideal.gens)
    frontier = list(ideal.gens)
    while frontier:
        fresh = []
        for m in frontier:
            for g in ideal.gens:
                l = m.lcm(g)
                if l not in current:
                    current.add(l)
                    if len(current) > max_multidegrees:
                        raise LatticeLimitExceeded(
                            f"lcm lattice exceeds {max_multidegrees} multidegrees"
                        )
                    fresh.append(l)
        frontier = fresh
    return sorted(current, key=lambda m: (m.total_degree, canonical_key(m)))


def upper_koszul_faces(ideal: MonomialIdeal, b: Monomial) -> dict[int, list[tuple[str, ...]]]:
    """Faces of the upper Koszul complex at multidegree b, by dimension.

    A squarefree variable subset of the support of b is a face exactly
    when b divided by it still lies in the ideal; the empty face sits in
    dimension -1.
    """
    support = list(b.exps)
    faces: dict[int, list[tuple[str, ...]]] = {}
    for size in range(len(support) + 1):
        this_dim = []
        for combo in combinations(support, size):
            quotient = b / b.universe.monomial({v: 1 for v in combo})
            if ideal.contains(quotient):
                this_dim.append(combo)
        if this_dim:
            faces[size - 1] = this_dim
    return faces


def _reduced_homology_ranks(faces: dict[int, list[tuple[str, ...]]]) -> dict[int, int]:
    """dim -> rank of the reduced homology over the rationals."""
    if not faces:
        return {}
    dims = sorted(faces)
    index = {d: {f: i for i, f in enumerate(faces[d])} for d in dims}
    boundary_rank: dict[int, int] = {}
    for d in dims:
        if d <= -1 or (d - 1) not in faces:
            boundary_rank[d] = 0
            continue
        rows = [[0] * len(faces[d]) for _ in faces[d - 1]]
        for col, f in enumerate(faces[d]):
            for drop in range(len(f)):
                sub = f[:drop] + f[drop + 1 :]
                rows[index[d - 1][sub]][col] = -1 if drop % 2 else 1
        boundary_rank[d] = _int_rank(rows)
    out = {}
    for d in dims:
        n_d = len(faces[d])
        out[d] = n_d - boundary_rank.get(d, 0) - boundary_rank.get(d + 1, 0)
    return out


class BettiTable:
    """Multigraded Betti numbers, aggregated by (homological index, degree)."""

    def __init__(
        self,
        entries: dict[tuple[int, int], int],
        multigraded: dict[tuple[int, Monomial], int],
        generator_count: int,
    ):
        self.entries = {k: v for k, v in entries.items() if v}
        self.multigraded = {k: v for k, v in multigraded.items() if v}
        self.generator_count = generator_count

    def beta(self, i: int, j: int) -> int:
        return self.entries.get((i, j), 0)

    def max_index(self) -> int:
        return max((i for i, _ in self.entries), default=-1)

    def regularity(self) -> int | float:
        """max(j - i) over the nonzero entries; -inf for the zero ideal."""
        return max((j - i for i, j in self.entries), default=float("-inf"))

    def format_text(self) -> str:
        if not self.entries:
            return "(zero ideal: empty resolution)"
        js = sorted({j for _, j in self.entries})
        imax = self.max_index()
        width = max(6, *(len(str(v)) + 2 for v in self.entries.values()))
        head = "i\\j".ljust(6) + "".join(str(j).rjust(width) for j in js)
        lines = [head]
        for i in range(imax + 1):
            cells = [str(self.beta(i, j)) if self.beta(i, j) else "." for j in js]
            lines.append(str(i).ljust(6) + "".join(c.rjust(width) for c in cells))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"BettiTable({self.entries})"


def betti_table(
    ideal: MonomialIdeal,
    max_generators: int = BETTI_MAX_GENERATORS,
    max_multidegrees: int = MAX_MULTIDEGREES,
) -> BettiTable:
    """Exact multigraded Betti numbers via upper Koszul homology.

    Nonzero entries can only sit at lcm-lattice multidegrees, so only
    those complexes are built.  Both resource bounds raise rather than
    degrade.
    """
    if ideal.is_zero:
        return BettiTable({}, {}, 0)
    if len(ideal.gens) > max_generators:
        raise GeneratorLimitExceeded(
            f"{len(ideal.gens)} generators exceed the Betti bound {max_generators}"
        )
    entries: dict[tuple[int, int], int] = {}
    multigraded: dict[tuple[int, Monomial], int] = {}
    for b in lcm_lattice(ideal, max_multidegrees):
        faces = upper_koszul_faces(ideal, b)
        if -1 not in faces:
            raise AssertionError("lattice multidegree must lie in the ideal")
        homology = _reduced_homology_ranks(faces)
        for d, h in homology.items():
            if h <= 0:
                continue
            i = d + 1
            multigraded[(i, b)] = h
            key = (i, b.total_degree)
            entries[key] = entries.get(key, 0) + h
    return BettiTable(entries, multigraded, len(ideal.gens))


def has_linear_resolution(
    ideal: MonomialIdeal,
    max_generators: int = BETTI_MAX_GENERATORS,
    max_multidegrees: int = MAX_MULTIDEGREES,
) -> bool:
    """Equigenerated in degree d and of regularity d (Eisenbud-Goto)."""
    if not ideal.is_equigenerated():
        return ideal.is_zero
    table = betti_table(ideal, max_generators, max_multidegrees)
    return table.regularity() == ideal.min_degree()


@dataclass
class ComponentwiseReport:
    """Per-degree linearity of components over the generator-degree range.

    Only degrees between the minimal and maximal generator degree are
    tested, and ``by_degree`` holds exactly those (none for the zero
    ideal); above the maximal one every component is the maximal ideal
    times the previous one, so linearity carries over.  By Eisenbud-Goto,
    I_<j> = (I_<=j)_{>=j} is j-linear exactly when reg(I_<=j) <= j.
    """

    componentwise_linear: bool
    by_degree: dict[int, bool]


def is_componentwise_linear(
    ideal: MonomialIdeal,
    max_generators: int = BETTI_MAX_GENERATORS,
    max_multidegrees: int = MAX_MULTIDEGREES,
) -> ComponentwiseReport:
    """reg(I_<=j) <= j at each generator degree j, I_<=j generated by the
    generators of degree at most j (Eisenbud-Goto; Herzog-Hibi, Nagoya
    Math. J. 153, 1999); a degree without generators keeps the one below."""
    degrees = {g.total_degree for g in ideal.gens}
    by_degree = {}
    for j in range(min(degrees, default=0), max(degrees, default=-1) + 1):
        if j in degrees:
            gens = [g for g in ideal.gens if g.total_degree <= j]
            table = betti_table(MonomialIdeal(ideal.universe, gens), max_generators, max_multidegrees)
        by_degree[j] = table.regularity() <= j
    return ComponentwiseReport(all(by_degree.values()), by_degree)
