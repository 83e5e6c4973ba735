"""Linear quotients, multigraded Betti numbers, componentwise linearity.

Linear quotients (Herzog-Takayama, 2002) are checked by one colon rule on
threshold bitsets.  One exact search serves the CLI and the Betti layer:
two heuristic orders sorted by degree, then backtracking one degree block
at a time (Jahan-Zheng, JCTA 117, 2010), each block first screened by the
linear-graph rule.  The order is the certificate; it is nondecreasing in
degree and records the variables of each colon, so the mapping cone is a
minimal resolution: beta_{i,i+d} is the sum of C(r_j, i) over the
generators u_j of degree d with r_j colon variables, the multigraded
shifts are u_j * x_F for the subsets F of those variables, and every
truncation is a prefix of the order, so the certificate alone decides
componentwise linearity (Herzog-Takayama; Jahan-Zheng).

Only where the search proves there is no order are Betti numbers computed
from homology: at every multidegree b of the lcm lattice, the upper Koszul
complex, whose faces are the subsets of the supports of the colons b : g,
has its reduced homology taken over the rationals by sparse column
reduction over the integers (Edelsbrunner-Harer, Computational Topology,
2010); linearity is read off the regularity (Eisenbud-Goto, J. Algebra
88, 1984: M_{>=r} has an r-linear resolution exactly when reg M <= r).
"""

from __future__ import annotations

from functools import reduce
from itertools import accumulate
from operator import and_, or_

from .errors import GeneratorLimitExceeded, LatticeLimitExceeded
from .monomials import (
    Monomial,
    MonomialIdeal,
    _Packing,
    _Value,
    _divisors,
    _monomial,
    _thresholds,
    canonical_key,
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

SEARCH_BOUND = 24  # generators past which no search runs, the CLI's and the Betti layer's


class LinearQuotientsCertificate(_Value):
    """An order of the generators with linear quotients, fields
    ``(ordering, colon_variables, method)``: for each j the colon ideal
    (u_1, ..., u_{j-1}) : u_j is generated by variables.

    The order is the certificate; ``check_linear_quotients`` re-checks it
    on threshold bitsets.  ``colon_variables[j]`` is the bitmask, over the
    exponent positions, of the variables generating the colon at position
    j, so r_j is its popcount.  ``method`` names the rule that found it
    ("ascending", "descending" or "search"), None from a direct check.
    Equal when every field is; unhashable, like ``ComponentwiseReport``.
    """

    __slots__ = ("ordering", "colon_variables", "method")
    _DEFAULTS = {"method": None}

    def __repr__(self) -> str:
        order = ", ".join(map(str, self.ordering))
        return f"LinearQuotientsCertificate([{order}], method={self.method!r})"

    def componentwise(self) -> "ComponentwiseReport":
        """Componentwise linear at every degree of the ordering's span: an
        order in nondecreasing degree generates each truncation by a
        prefix, which keeps linear quotients (see ``is_componentwise_linear``)."""
        degrees = [u.total_degree for u in self.ordering]
        span = range(min(degrees, default=0), max(degrees, default=-1) + 1)
        return ComponentwiseReport(True, dict.fromkeys(span, True))


def _packed(gens) -> tuple[_Packing, list[int]]:
    """The generators packed by one ``_Packing`` sized for them."""
    top = max((g.total_degree for g in gens), default=0)
    packing = _Packing(len(gens[0].exponents) if gens else 0, top)
    return packing, [packing.pack(g.exponents) for g in gens]


def _table(gens) -> list[list[int]]:
    """``monomials._thresholds`` of the generators, up to each x_k * u."""
    return _thresholds([g.exponents for g in gens], max([0] + [g.total_degree for g in gens]) + 1)


def _colon_variables(table, u: tuple[int, ...], placed: int) -> tuple[int, int | None]:
    """The colon rule for u against the bitset ``placed`` of ``table``: x_k
    is in the colon exactly when N_k, the placed g dividing x_k * u, is not
    empty, and these x_k generate it exactly when no placed g : u is free of
    them.  Returns the union of the N_k and, as a bitmask over the exponent
    positions, the variables, or None when the rule fails.  N_k is placed &
    table[k][u_k + 1] & the rows table[i][u_i] of every i != k: 3n ANDs."""
    rows = [row[e] for row, e in zip(table, u)]
    before = accumulate(rows, and_, initial=placed)
    after = list(accumulate(reversed(rows), and_, initial=-1))[::-1][1:]
    near = [b & row[e + 1] & a for b, row, e, a in zip(before, table, u, after)]
    free = reduce(and_, (r for r, n in zip(rows, near) if n), placed)
    return reduce(or_, near, 0), None if free else sum(1 << k for k, n in enumerate(near) if n)


def check_linear_quotients(ordered_gens) -> LinearQuotientsCertificate | int:
    """Certificate for the given order, or the 1-based failing position."""
    gens = tuple(ordered_gens)
    if len(set(gens)) != len(gens):
        raise ValueError("generators must be pairwise distinct")
    if len({g.universe for g in gens}) > 1:
        raise ValueError("generators live in different universes")
    table = _table(gens)
    colon_variables = []
    for j, u in enumerate(gens):
        variables = _colon_variables(table, u.exponents, (1 << j) - 1)[1]
        if variables is None:
            return j + 1
        colon_variables.append(variables)
    return LinearQuotientsCertificate(gens, tuple(colon_variables))


def find_linear_quotients_order(
    gens, max_generators: int = SEARCH_BOUND
) -> LinearQuotientsCertificate | None:
    """Search for a linear-quotients order of the minimal generators of a
    monomial ideal; every order found is in nondecreasing degree.

    Tries the ascending order under the universe priority (the order the
    standard-monomial machinery predicts), then the descending one, each
    stably sorted by degree, then a backtracking search over the orders of
    nondecreasing degree, one degree block at a time
    (``_degree_block_search``).  ``max_generators``, one bound for the CLI
    and the Betti layer, bounds only that search; the sweeps always run.
    The search raises ValueError when one generator divides another.

    The degree sort loses no order (Jahan-Zheng, JCTA 117, 2010), so None
    means no order at all has linear quotients.  Let u_1, ..., u_m have
    linear quotients and deg u_i > deg u_{i+1}; swapping the two, which
    adjacent swaps repeat into the stable sort, changes two colons.  Each
    colon variable x of u_{i+1} is some u_l : u_{i+1} with l < i, as l = i
    would make u_{i+1} divide u_i; so u_{i+1} keeps its colon.  Take such an x
    dividing u_i : u_{i+1}, which lies in that colon.  The x-exponent of u_l
    is then at most that of u_i, so supp(u_l : u_i) lies in
    supp(u_{i+1} : u_i), and a colon variable of u_i dividing u_l : u_i
    divides u_{i+1} : u_i: u_i keeps its colon too.
    """
    pool = sorted(set(gens), key=canonical_key)
    for ordering, method in ((pool, "ascending"), (list(reversed(pool)), "descending")):
        result = check_linear_quotients(sorted(ordering, key=lambda m: m.total_degree))
        if isinstance(result, LinearQuotientsCertificate):
            return LinearQuotientsCertificate(result.ordering, result.colon_variables, method)
    if len(pool) > max_generators:
        raise GeneratorLimitExceeded(
            f"{len(pool)} generators exceed the search bound {max_generators}"
        )
    return _degree_block_search(pool)


def _degree_block_search(pool: list[Monomial]) -> LinearQuotientsCertificate | None:
    """A linear-quotients order of ``pool`` in nondecreasing degree, or None
    when there is none (so no order at all).

    Whether a generator may be appended depends only on the set already
    placed, and once a degree block is placed that set is the same
    whatever order the block took, so each block is searched on its own.
    Candidates are tried in ``pool`` order; the order found is re-checked.
    """
    table = _table(pool)
    if any(_divisors(table, u.exponents, (1 << len(pool)) - 1) != 1 << j for j, u in enumerate(pool)):
        raise ValueError("the search needs minimal generators: one divides another")
    order: list[int] = []
    for degree in sorted({u.total_degree for u in pool}):
        same = [j for j, u in enumerate(pool) if u.total_degree == degree]
        block = _block_order(same, order, table, pool)
        if block is None:
            return None
        order += block
    result = check_linear_quotients([pool[i] for i in order])
    assert isinstance(result, LinearQuotientsCertificate)
    return LinearQuotientsCertificate(result.ordering, result.colon_variables, "search")


def _block_order(block: list[int], below: list[int], table, pool) -> list[int] | None:
    """An order of ``block`` in which each generator passes the colon rule
    against ``below`` and the block members before it, or None.

    First the linear-graph rule.  In an order with linear quotients each u_j
    after the first has an earlier u_i with u_i : u_j one variable (the
    colon's minimal generators are among the u_i : u_j), and within one
    degree u_i = x*u_j/y makes that symmetric.  By induction along the
    order, every member reaches through such pairs a member with a
    one-variable colon from ``below``, or the first member when ``below`` is
    empty; otherwise there is no order.  Then backtracking, with failed
    placed sets memoized.
    """
    size, placed, members = len(block), sum(1 << l for l in below), sum(1 << c for c in block)
    # reach[i]: the generators g with g : block[i] one variable
    reach = [_colon_variables(table, pool[c].exponents, placed | members ^ 1 << c)[0] for c in block]
    reached = [c for c, near in zip(block, reach) if near & placed] if below else block[:1]
    for c in reached:  # also visits the members this loop appends
        reached += [d for d, near in zip(block, reach) if d not in reached and near >> c & 1]
    if len(reached) < size:
        return None
    dead: set[int] = set()

    def dfs(prefix: list[int], placed: int) -> list[int] | None:
        if len(prefix) == size:
            return prefix
        if placed in dead:
            return None
        for c in block:
            if placed >> c & 1 or _colon_variables(table, pool[c].exponents, placed)[1] is None:
                continue
            found = dfs(prefix + [c], placed | 1 << c)
            if found is not None:
                return found
        dead.add(placed)
        return None

    return dfs([], placed)


# ---------------------------------------------------------------------------
# Upper Koszul complexes and Betti tables

MAX_MULTIDEGREES = 4096  # lcm lattice


def lcm_lattice(ideal: MonomialIdeal) -> list[Monomial]:
    """All lcms of nonempty generator subsets (closure under pairwise lcm);
    more than ``MAX_MULTIDEGREES`` of them raise.

    The closure runs on the generators' packed words, lcm(m, g) = m +
    (g : m), one ``colons`` call per point.  No lcm exponent exceeds the
    generators' largest exponent, so their packing holds every point."""
    if ideal.is_zero:
        return []
    packing, words = _packed(ideal.gens)
    current = set(words)
    frontier = words
    while frontier:
        fresh = []
        for m in frontier:
            for l in [m + q for q in packing.colons(words, m)]:
                if l not in current:
                    current.add(l)
                    if len(current) > MAX_MULTIDEGREES:
                        raise LatticeLimitExceeded(
                            f"lcm lattice exceeds {MAX_MULTIDEGREES} multidegrees"
                        )
                    fresh.append(l)
        frontier = fresh
    points = [_monomial(ideal.universe, e, sum(e)) for e in map(packing.unpack, current)]
    return sorted(points, key=lambda m: (m.total_degree, canonical_key(m)))


def upper_koszul_faces(packing: _Packing, words: list[int], b: int) -> dict[int, list[int]]:
    """Faces of the upper Koszul complex at multidegree b, by dimension, as
    bitmasks over the exponent positions.

    ``words`` are the ideal's generators packed by ``packing`` and b is a
    word of it: no lcm exponent exceeds the generators' largest exponent,
    so the generators' packing holds every lcm-lattice point.  A subset F
    of supp(b) is a face exactly when b / x_F lies in the ideal, that is
    when F lies in supp(b : g) for a generator g dividing b.  The empty
    face sits in dimension -1.
    """
    divisors = [w for w, q in zip(words, packing.colons(words, b)) if not q]
    found = {0} if divisors else set()
    for free in {packing.positions(b - w) for w in divisors}:  # b : g = b - g
        face = free
        while face:
            found.add(face)
            face = (face - 1) & free
    faces: dict[int, list[int]] = {}
    for face in sorted(found, key=lambda f: (f.bit_count(), f)):
        faces.setdefault(face.bit_count() - 1, []).append(face)
    return faces


def _rank(columns: list[dict[int, int]]) -> int:
    """Rank over the rationals of the integer matrix whose columns map rows
    to nonzero entries, by column reduction without division.

    A column is cleared at its largest row r against the pivot column that
    owns r, by col = b*col - a*piv with a, b their entries at r; if no pivot
    owns r, the column becomes its pivot.  Pivots have distinct largest
    rows, so they are independent and the rank is their number.  The loop
    ends: piv also has r as its largest row, so each step removes r and
    adds only smaller rows.  It is exact: scaling by the nonzero b keeps
    the span, and entries stay integers.
    """
    pivots: dict[int, dict[int, int]] = {}
    for col in columns:
        while col:
            piv = pivots.setdefault(r := max(col), col)
            if piv is col:  # no pivot owned r
                break
            a, b = col[r], piv[r]
            col = {i: v for i in col | piv if (v := b * col.get(i, 0) - a * piv.get(i, 0))}
    return len(pivots)


def _reduced_homology_ranks(faces: dict[int, list[int]]) -> dict[int, int]:
    """dim -> rank of the reduced homology over the rationals, n_d minus the
    ranks of the boundaries out of and into dimension d.  The boundary of a
    face mask drops one bit, with alternating signs."""
    rank = {}
    for d, masks in faces.items():
        columns = []
        for f in masks:
            bits = [p for p in range(f.bit_length()) if f >> p & 1]
            columns.append({f ^ 1 << p: (-1) ** k for k, p in enumerate(bits)})
        rank[d] = _rank(columns)
    return {d: len(masks) - rank[d] - rank.get(d + 1, 0) for d, masks in faces.items()}


class BettiTable:
    """Multigraded Betti numbers, aggregated by (homological index, degree)."""

    def __init__(self, multigraded: dict[tuple[int, Monomial], int], generator_count: int):
        self.multigraded = {k: v for k, v in multigraded.items() if v}
        self.entries: dict[tuple[int, int], int] = {}
        for (i, b), v in self.multigraded.items():
            key = (i, b.total_degree)
            self.entries[key] = self.entries.get(key, 0) + v
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


def _mapping_cone_table(cert: LinearQuotientsCertificate) -> BettiTable:
    """Betti numbers of the mapping-cone resolution of a linear-quotients
    order in nondecreasing degree, which is minimal.

    beta_{i,i+d} sums C(r_j, i) over the generators u_j of degree d; the
    multigraded shifts u_j * x_F, F ranging over the subsets of the colon
    variables of u_j, are counted with multiplicity.  They lie in the lcm
    lattice, so more than ``MAX_MULTIDEGREES`` distinct shifts raise, as
    the lattice would; the 2^{r_j} shifts of one generator are distinct,
    so a single generator with more raises before they are enumerated.
    """
    multigraded: dict[tuple[int, Monomial], int] = {}
    shifts: set[Monomial] = set()
    for u, variables in zip(cert.ordering, cert.colon_variables):
        r = variables.bit_count()
        if 1 << r > MAX_MULTIDEGREES:
            raise LatticeLimitExceeded(
                f"{1 << r} Betti shifts of one generator exceed {MAX_MULTIDEGREES} multidegrees"
            )
        subset = variables
        while True:
            i = subset.bit_count()
            exponents = tuple(e + (subset >> p & 1) for p, e in enumerate(u.exponents))
            b = _monomial(u.universe, exponents, u.total_degree + i)
            key = (i, b)
            multigraded[key] = multigraded.get(key, 0) + 1
            shifts.add(b)
            if not subset:
                break
            subset = (subset - 1) & variables
        if len(shifts) > MAX_MULTIDEGREES:
            raise LatticeLimitExceeded(f"Betti shifts exceed {MAX_MULTIDEGREES} multidegrees")
    return BettiTable(multigraded, len(cert.ordering))


def betti_table(ideal: MonomialIdeal, max_generators: int = SEARCH_BOUND) -> BettiTable:
    """Exact multigraded Betti numbers.

    From the mapping cone of the order ``find_linear_quotients_order``
    finds; only when it proves there is none, from upper Koszul homology.
    ``max_generators`` bounds that search, as for the CLI, so past it only
    the sweeps can decide and Koszul homology never runs; the lattice bound
    applies to the Koszul tables, the shift bound to the mapping cone.
    """
    cert = find_linear_quotients_order(ideal.gens, max_generators)
    if cert is None:
        return _koszul_betti_table(ideal)
    return _mapping_cone_table(cert)


def _koszul_betti_table(ideal: MonomialIdeal) -> BettiTable:
    """Exact multigraded Betti numbers via upper Koszul homology.

    Nonzero entries can only sit at lcm-lattice multidegrees, so only
    those complexes are built.  Reached only where a search proved there
    is no order, so at most that search's generator bound and never the
    zero ideal, whose empty order is a certificate; the lattice bound
    raises rather than degrade.
    """
    multigraded: dict[tuple[int, Monomial], int] = {}
    packing, words = _packed(ideal.gens)
    for b in lcm_lattice(ideal):
        faces = upper_koszul_faces(packing, words, packing.pack(b.exponents))
        if -1 not in faces:
            raise AssertionError("lattice multidegree must lie in the ideal")
        for d, h in _reduced_homology_ranks(faces).items():
            multigraded[(d + 1, b)] = h
    return BettiTable(multigraded, len(ideal.gens))


def has_linear_resolution(ideal: MonomialIdeal, max_generators: int = SEARCH_BOUND) -> bool:
    """Equigenerated and componentwise linear (``ComponentwiseReport.linear_resolution``)."""
    if not ideal.is_zero and not ideal.is_equigenerated():
        return False
    return is_componentwise_linear(ideal, max_generators).linear_resolution


class ComponentwiseReport(_Value):
    """Per-degree linearity of components over the generator-degree range,
    fields ``(componentwise_linear, by_degree)``.

    Only degrees between the minimal and maximal generator degree are
    tested, and ``by_degree`` holds exactly those (none for the zero
    ideal); above the maximal one every component is the maximal ideal
    times the previous one, so linearity carries over.  By Eisenbud-Goto,
    I_<j> = (I_<=j)_{>=j} is j-linear exactly when reg(I_<=j) <= j.  A
    linear-quotients certificate gives the all-True report
    (``LinearQuotientsCertificate.componentwise``).  Equal when both
    fields are; unhashable, as ``by_degree`` is a dict.
    """

    __slots__ = ("componentwise_linear", "by_degree")

    def __repr__(self) -> str:
        return f"ComponentwiseReport({self.componentwise_linear}, {self.by_degree})"

    @property
    def linear_resolution(self) -> bool:
        """Equigenerated and componentwise linear; with one generator degree
        d that is reg <= d on one Betti table.  The zero ideal counts."""
        return self.componentwise_linear and len(self.by_degree) <= 1


def is_componentwise_linear(
    ideal: MonomialIdeal,
    max_generators: int = SEARCH_BOUND,
    *,
    _no_order: bool = False,
) -> ComponentwiseReport:
    """reg(I_<=j) <= j at each generator degree j, I_<=j generated by the
    generators of degree at most j (Eisenbud-Goto; Herzog-Hibi, Nagoya
    Math. J. 153, 1999).

    The truncations are searched once each, from the top degree down.  The
    first with a linear-quotients order decides its own degree and every
    degree below: each lower truncation is generated by a prefix of that
    order, which is nondecreasing in degree and so keeps linear quotients
    (Jahan-Zheng, JCTA 117, 2010), giving reg(I_<=i) <= i.  Each truncation
    above it has been proved to have no order, so its Koszul table, built
    right after that search, gives its regularity.  A degree j without
    generators has I_<=j = I_<=i for the generator degree i just below, so
    it is decided by reg(I_<=i) <= j.  ``max_generators`` bounds each
    search, as in ``betti_table``; a lower truncation has fewer generators,
    so only the top's search can trip it.  ``_no_order`` says the caller
    has searched the ideal, the top truncation, under the same bound and
    proved it has no order, so the searches start one truncation down.
    """
    regularity: dict[int, int | float] = {}  # bound on reg(I_<=j) per generator degree j
    for j in sorted({g.total_degree for g in ideal.gens}, reverse=True):
        gens = [g for g in ideal.gens if g.total_degree <= j]
        top = len(gens) == len(ideal.gens)
        cert = None if _no_order and top else find_linear_quotients_order(gens, max_generators)
        if cert is not None:
            regularity.update((u.total_degree, u.total_degree) for u in cert.ordering)
            break
        regularity[j] = _koszul_betti_table(MonomialIdeal(ideal.universe, gens)).regularity()
    by_degree = {}
    for j in range(min(regularity, default=0), max(regularity, default=-1) + 1):
        if j in regularity:
            reg = regularity[j]
        by_degree[j] = reg <= j
    return ComponentwiseReport(all(by_degree.values()), by_degree)
