"""Independent brute-force oracles used to pin expected values in the tests.

Everything here recomputes answers by exhaustive enumeration or by plain
rational arithmetic, deliberately avoiding the production code paths it is
used to check.
"""

import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations
from math import comb
from operator import le

from coverrees import VariableUniverse, betti_table, canonical_key, component


def brute_minimal_covers(graph):
    """All minimal vertex covers as a set of frozensets, by 2^V enumeration."""
    labels = graph.labels
    edges = graph.edges
    covers = []
    for r in range(len(labels) + 1):
        for combo in combinations(labels, r):
            chosen = set(combo)
            if all(a in chosen or b in chosen for a, b in edges):
                covers.append(frozenset(chosen))
    return {c for c in covers if not any(other < c for other in covers)}


def is_cover(members, graph):
    """Whether the label set meets every edge."""
    return all(a in members or b in members for a, b in graph.edges)


def is_minimal_cover(members, graph):
    """Whether the label set covers every edge and no member can be dropped."""
    return is_cover(members, graph) and not any(
        is_cover(members - {v}, graph) for v in members
    )


def brute_maximal_independent_sets(graph):
    """All maximal independent sets as a set of frozensets, by 2^V enumeration."""
    labels = graph.labels
    edges = graph.edges
    independent = []
    for r in range(len(labels) + 1):
        for combo in combinations(labels, r):
            chosen = set(combo)
            if not any(a in chosen and b in chosen for a, b in edges):
                independent.append(frozenset(chosen))
    return {s for s in independent if not any(s < other for other in independent)}


def brute_is_chordal(graph):
    """Whether no induced cycle has length >= 4, by 2^V enumeration: a vertex
    set induces a cycle when each member has two neighbours in it and a walk
    along them from one member visits them all."""
    for r in range(4, len(graph.labels) + 1):
        for combo in combinations(graph.labels, r):
            chosen = set(combo)
            near = {v: graph.neighbors(v) & chosen for v in combo}
            if any(len(ws) != 2 for ws in near.values()):
                continue
            seen, stack = {combo[0]}, [combo[0]]
            while stack:
                for w in near[stack.pop()] - seen:
                    seen.add(w)
                    stack.append(w)
            if seen == chosen:
                return False
    return True


def fraction_rank(rows):
    """Rank of an integer matrix via Gaussian elimination over Fraction."""
    matrix = [[Fraction(entry) for entry in row] for row in rows]
    rank = 0
    n_cols = len(matrix[0]) if matrix else 0
    pivot_row = 0
    for col in range(n_cols):
        pivot = None
        for r in range(pivot_row, len(matrix)):
            if matrix[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        matrix[pivot_row], matrix[pivot] = matrix[pivot], matrix[pivot_row]
        lead = matrix[pivot_row][col]
        for r in range(pivot_row + 1, len(matrix)):
            if matrix[r][col] != 0:
                factor = matrix[r][col] / lead
                matrix[r] = [a - factor * b for a, b in zip(matrix[r], matrix[pivot_row])]
        pivot_row += 1
        rank += 1
    return rank


def divides_exponents(small, large):
    return all(large.get(v, 0) >= e for v, e in small.items())


def contains(ideal, m):
    """Whether the monomial lies in the monomial ideal: a linear scan for a
    generator whose exponent tuple is at most m's in every position."""
    return any(all(map(le, g.exponents, m.exponents)) for g in ideal.gens)


def monomial_product(universe, factors):
    """The product of monomials of the universe: the sum of their exponent
    tuples, read back by variable name; the empty product is 1."""
    names = sorted(universe.all_vars, key=universe.index_of)
    sums = [sum(column) for column in zip(*(f.exponents for f in factors))]
    return universe.monomial(dict(zip(names, sums)))


def colon_exponents(u, v):
    """Exponent dict of the colon u : v, i.e. u / gcd(u, v)."""
    result = {}
    for var, e in u.items():
        reduced = e - min(e, v.get(var, 0))
        if reduced:
            result[var] = reduced
    return result


def _exponent_key(exps):
    return tuple(sorted((v, e) for v, e in exps.items() if e))


def _small_monomials(names, max_degree):
    """Exponent dicts of every monomial of degree <= max_degree in names."""
    for d in range(max_degree + 1):
        for combo in combinations_with_replacement(names, d):
            exps = {}
            for v in combo:
                exps[v] = exps.get(v, 0) + 1
            yield exps


def _rewrite_to_normal_form(exps, rules):
    """Apply lead -> trail rules until no lead divides; rules must terminate."""
    while True:
        for lead, trail in rules:
            if divides_exponents(lead, exps):
                out = dict(exps)
                for v, e in lead.items():
                    out[v] -= e
                for v, e in trail.items():
                    out[v] = out.get(v, 0) + e
                exps = {v: e for v, e in out.items() if e}
                break
        else:
            return _exponent_key(exps)


def split_fibers(x_vars, images, rules, max_degree=2):
    """Fibers of the Rees map on which the rules leave several normal forms.

    ``images[j-1]`` is the exponent dict of the generator u_j over
    ``x_vars``, and ``rules`` holds (lead, trail) exponent dicts over
    ``x_vars`` and ``y1..yq``.  Every presentation monomial of y-degree and
    base degree at most ``max_degree`` is grouped by its image under
    x_i -> x_i, y_j -> u_j * t.  The kernel of that map is toric with finite
    fibers, so rules forming a Groebner basis of the whole kernel rewrite
    every member of a fiber to one normal form.  Returns the fibers, as
    lists of member exponent dicts, whose members reach more than one.
    """
    y_images = {f"y{j}": u for j, u in enumerate(images, start=1)}
    fibers = {}
    for ys in _small_monomials(list(y_images), max_degree):
        for xs in _small_monomials(x_vars, max_degree):
            image = dict(xs)
            for y, e in ys.items():
                for v, a in y_images[y].items():
                    image[v] = image.get(v, 0) + a * e
            image["t"] = sum(ys.values())
            fibers.setdefault(_exponent_key(image), []).append({**xs, **ys})
    return [
        members
        for members in fibers.values()
        if len({_rewrite_to_normal_form(m, rules) for m in members}) > 1
    ]


def s_binomial(f, g):
    """The S-binomial of two (lead, trail) pairs of exponent tuples, as its
    two terms, larger first; None when they agree.  Lex is tuple order."""
    (a, b), (c, d) = f, g
    lcm = tuple(map(max, a, c))
    u = tuple(m - x + y for m, x, y in zip(lcm, a, b))
    v = tuple(m - x + y for m, x, y in zip(lcm, c, d))
    return None if u == v else (max(u, v), min(u, v))


def reduces_to_zero(terms, rules):
    """Whether the binomial with these two exponent tuples as terms reduces
    to zero by the (lead, trail) rules.  The larger term is rewritten by the
    first rule whose lead divides it and the terms are reoriented; the
    reduction stops at equal terms, or at a larger term no lead divides,
    which no reduction can remove.  Each rule must lead its larger term, so
    the larger term falls at every step and the loop ends."""
    p, q = max(terms), min(terms)
    while p != q:
        rule = next((r for r in rules if all(map(le, r[0], p))), None)
        if rule is None:
            return False
        p = tuple(x - a + b for x, a, b in zip(p, *rule))
        p, q = max(p, q), min(p, q)
    return True


def groebner_criterion(rules):
    """Buchberger's criterion on (lead, trail) pairs of exponent tuples: each
    lead is its larger term and every S-binomial reduces to zero."""
    if any(lead <= trail for lead, trail in rules):
        return False
    pairs = (s_binomial(f, g) for f, g in combinations(rules, 2))
    return all(reduces_to_zero(s, rules) for s in pairs if s is not None)


def exponent_rules(binomials):
    """(lead, trail) exponent tuples of the binomials, for the oracles above."""
    return [(b.lead.exponents, b.trail.exponents) for b in binomials]


def order_admits_linear_quotients(exponent_dicts):
    """Check the linear-quotient condition for one fixed generator order.

    Restates the definition directly on exponent dicts: for each j the colon
    ideal (f_1,...,f_{j-1}) : f_j must be generated by variables, which holds
    exactly when every colon(f_i, f_j) is divisible by some colon(f_l, f_j)
    of total degree one.
    """
    for j in range(1, len(exponent_dicts)):
        colons = [colon_exponents(exponent_dicts[i], exponent_dicts[j]) for i in range(j)]
        linear = [c for c in colons if sum(c.values()) == 1]
        for c in colons:
            if not any(divides_exponents(lin, c) for lin in linear):
                return False
    return True


def colon_rule(ordered_exponents):
    """The colon rule one variable at a time, on exponent tuples.

    At each position j the colon g : u_j of every earlier generator g is
    read as its support, a bitmask over the exponent positions, and is a
    one-variable colon when max(g_p - u_p, 0) sums to 1.  The order passes
    at j when every support meets the union of the one-variable colons.
    Returns those unions, one per position, or the 1-based position of the
    first failure.
    """
    unions = []
    for j, u in enumerate(ordered_exponents):
        colons = []
        for g in ordered_exponents[:j]:
            support = sum(1 << p for p, (a, b) in enumerate(zip(g, u)) if a > b)
            degree = sum(max(a - b, 0) for a, b in zip(g, u))
            colons.append((support, degree))
        union = 0
        for support, degree in colons:
            if degree == 1:
                union |= support
        if not all(support & union for support, _ in colons):
            return j + 1
        unions.append(union)
    return tuple(unions)


def herzog_takayama_betti(exponent_dicts):
    """Graded Betti numbers of an ideal with linear quotients, by formula.

    ``exponent_dicts`` lists the generators u_1, ..., u_m in an order with
    linear quotients and nondecreasing degree.  Then (u_1..u_{j-1}) : u_j is
    generated by r_j variables, the distinct degree-one colons u_i : u_j
    with i < j, and beta_{i,i+d} is the sum of C(r_j, i) over the
    generators of degree d (Herzog and Takayama, "Resolutions by mapping
    cones", 2002).  Returns the nonzero entries as {(i, i + d): beta}.
    """
    betti = {}
    for j, u in enumerate(exponent_dicts):
        colons = [colon_exponents(v, u) for v in exponent_dicts[:j]]
        r = len({_exponent_key(c) for c in colons if sum(c.values()) == 1})
        d = sum(u.values())
        for i in range(r + 1):
            betti[(i, i + d)] = betti.get((i, i + d), 0) + comb(r, i)
    return betti


def componentwise_by_degree(ideal):
    """Per-degree componentwise linearity straight from the definition.

    For every d from the lowest to the highest generator degree, builds the
    component I_<d> (every degree-d monomial of the ideal) and asks whether
    each nonzero beta_{i,j} of it sits at j = i + d; {} for the zero ideal.
    The Betti numbers come from ``betti_table`` with its generator bound
    lifted (the mapping cone when the component has linear quotients in
    degree order, Koszul homology otherwise), so this checks the reduction
    to generator truncations, not the Betti numbers themselves; a lattice
    past ``MAX_MULTIDEGREES`` still raises.
    """
    if ideal.is_zero:
        return {}
    verdicts = {}
    for d in range(ideal.min_degree(), ideal.max_degree() + 1):
        table = betti_table(component(ideal, d), 10**6)
        verdicts[d] = all(j == i + d for i, j in table.entries)
    return verdicts


def exhaustive_linear_quotients(monomials):
    """Try every permutation; return an admissible order or None."""
    exps = [dict(m.exps) for m in monomials]
    for perm in permutations(range(len(exps))):
        ordered = [exps[i] for i in perm]
        if order_admits_linear_quotients(ordered):
            return [monomials[i] for i in perm]
    return None


def compare_monomials(u, v):
    """-1, 0 or 1 as u is below, equal to or above v in the monomial order."""
    ku, kv = canonical_key(u), canonical_key(v)
    return (ku > kv) - (ku < kv)


def random_monomial(rng, universe, max_degree=6):
    """Random monomial over the given universe with small exponents."""
    names = list(universe.all_vars)
    degree = rng.randint(0, max_degree)
    exps = {}
    for _ in range(degree):
        name = rng.choice(names)
        exps[name] = exps.get(name, 0) + 1
    return universe.monomial(exps)


def random_universe(rng, max_s=5, max_y=3):
    s_count = rng.randint(1, max_s)
    y_count = rng.randint(0, max_y)
    s_vars = tuple(f"x{i}" for i in range(1, s_count + 1))
    y_vars = tuple(f"y{j}" for j in range(1, y_count + 1))
    return VariableUniverse(s_vars, y_vars)


def t_headed(universe):
    """The universe with t at the head of its adjoined block."""
    return VariableUniverse(universe.s_vars, ("t",) + universe.y_vars)


def random_graph(rng, max_vertices=9, edge_probability=0.45):
    """Random labelled graph, possibly disconnected, possibly edgeless."""
    from coverrees import Graph

    n = rng.randint(1, max_vertices)
    labels = [f"x{i}" for i in range(1, n + 1)]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_probability:
                edges.append((labels[i], labels[j]))
    return Graph(labels, edges)


def hibi_generator_count(elements, relations, k):
    """|G(J^k)| for J the Hibi ideal of the poset on ``elements`` with a <= b
    for each pair (a, b) of ``relations``: the number of multichains
    I_1 ⊆ ... ⊆ I_k of its order ideals (Herzog-Hibi, J. Algebraic Combin.
    22, 2005).  The order ideals are the subsets holding a whenever they
    hold b, found over every subset; the multichains are counted by their
    top ideal, one length at a time."""
    ideals = [
        chosen
        for r in range(len(elements) + 1)
        for chosen in map(frozenset, combinations(elements, r))
        if all(a in chosen for a, b in relations if b in chosen)
    ]
    chains = dict.fromkeys(ideals, 1)
    for _ in range(k - 1):
        chains = {top: sum(n for below, n in chains.items() if below <= top) for top in ideals}
    return sum(chains.values())
