"""Finite simple graphs with an explicit vertex priority.

The label sequence of a graph is the variable priority used everywhere
downstream (highest first), so every constructor documents where it puts
new vertices.  Attached vertices produced by ``attach`` are the
``z<i>_<j>`` labels (``zz<i>_<j>`` when the base is itself attached,
``z<j>`` in the coned families) and are placed before the base vertices,
matching the priority that makes the composed Rees presentations behave;
cones put the new universal vertex last.
"""

from __future__ import annotations

import json
from itertools import combinations
from typing import Iterable, Mapping, Sequence

__all__ = [
    "Graph",
    "Poset",
    "standard_family",
    "cone",
    "attach",
    "cm_bipartite_from_poset",
    "cameron_walker",
    "minimal_vertex_covers",
    "maximal_independent_sets",
    "is_unmixed",
    "is_chordal",
    "is_connected",
    "graph_to_json",
    "graph_from_json",
    "parse_construction",
]


class Graph:
    """Immutable simple graph; the label sequence order is the priority.

    Attached vertices are the ``z...`` labels, placed first by ``attach``
    and by the coned families.
    """

    __slots__ = ("labels", "edges", "parts", "_adjacency")

    def __init__(
        self,
        labels: Sequence[str],
        edges: Iterable[tuple[str, str]],
        parts: tuple[Sequence[str], Sequence[str]] | None = None,
    ):
        self.labels = tuple(labels)
        position: dict[str, int] = {}
        for i, lbl in enumerate(self.labels):
            if lbl in position:
                raise ValueError(f"duplicate vertex label {lbl!r}")
            position[lbl] = i
        adjacency: dict[str, set[str]] = {lbl: set() for lbl in self.labels}
        canon = set()
        for a, b in edges:
            if a not in position or b not in position:
                raise ValueError(f"edge ({a!r}, {b!r}) uses an unknown vertex")
            if a == b:
                raise ValueError(f"loop at {a!r} is not allowed")
            pair = (a, b) if position[a] < position[b] else (b, a)
            canon.add(pair)
            adjacency[a].add(b)
            adjacency[b].add(a)
        self.edges = tuple(sorted(canon, key=lambda p: (position[p[0]], position[p[1]])))
        self._adjacency = adjacency
        if parts is not None:
            x_part, y_part = tuple(parts[0]), tuple(parts[1])
            labels = set(position)
            if set(x_part) | set(y_part) != labels or set(x_part) & set(y_part):
                raise ValueError("parts must partition the vertex set")
            for a, b in self.edges:
                if (a in x_part) == (b in x_part):
                    raise ValueError(f"edge ({a!r}, {b!r}) stays inside one part")
            self.parts = (x_part, y_part)
        else:
            self.parts = None

    def neighbors(self, label: str) -> set[str]:
        return set(self._adjacency[label])

    def has_edge(self, a: str, b: str) -> bool:
        return b in self._adjacency.get(a, ())

    @property
    def n_vertices(self) -> int:
        return len(self.labels)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def __repr__(self) -> str:
        return f"Graph({list(self.labels)}, {len(self.edges)} edges)"


# ---------------------------------------------------------------------------
# Standard families


def _coned_family(m: int, inner_edges: list[tuple[int, int]]) -> Graph:
    """m attached vertices z1..zm plus the universal base vertex x1, last."""
    labels = [f"z{j}" for j in range(1, m + 1)] + ["x1"]
    edges = [(f"z{a}", f"z{b}") for a, b in inner_edges]
    edges += [(f"z{j}", "x1") for j in range(1, m + 1)]
    return Graph(labels, edges)


def standard_family(kind: str, *params: int) -> Graph:
    """Named families; cone-like families put the universal vertex last."""

    def need(n_params: int):
        if len(params) != n_params or any(p < 1 for p in params):
            raise ValueError(f"{kind} expects {n_params} positive parameter(s)")

    if kind == "path":
        need(1)
        n = params[0]
        labels = [f"x{i}" for i in range(1, n + 1)]
        return Graph(labels, [(labels[i], labels[i + 1]) for i in range(n - 1)])
    if kind == "cycle":
        need(1)
        n = params[0]
        if n < 3:
            raise ValueError("cycle expects at least 3 vertices")
        labels = [f"x{i}" for i in range(1, n + 1)]
        edges = [(labels[i], labels[(i + 1) % n]) for i in range(n)]
        return Graph(labels, edges)
    if kind == "complete":
        need(1)
        n = params[0]
        labels = [f"x{i}" for i in range(1, n + 1)]
        edges = [(labels[i], labels[j]) for i in range(n) for j in range(i + 1, n)]
        return Graph(labels, edges)
    if kind == "complete_bipartite":
        need(2)
        a, b = params
        left = [f"x{i}" for i in range(1, a + 1)]
        right = [f"x{i}" for i in range(a + 1, a + b + 1)]
        edges = [(u, v) for u in left for v in right]
        return Graph(left + right, edges, parts=(left, right))
    if kind == "edgeless":
        need(1)
        return Graph([f"x{i}" for i in range(1, params[0] + 1)], [])
    if kind == "star":
        need(1)
        return _coned_family(params[0], [])
    if kind == "friendship":
        need(1)
        n = params[0]
        return _coned_family(2 * n, [(2 * i - 1, 2 * i) for i in range(1, n + 1)])
    if kind == "fan":
        need(1)
        n = params[0]
        return _coned_family(n, [(j, j + 1) for j in range(1, n)])
    raise ValueError(f"unknown family {kind!r}")


def cone(g: Graph) -> Graph:
    """Add one universal vertex, placed last in the priority."""
    if g.n_vertices == 0:
        raise ValueError("cone over the empty graph is not defined")
    used = set(g.labels)
    k = 1
    while f"x{k}" in used:
        k += 1
    apex = f"x{k}"
    edges = list(g.edges) + [(lbl, apex) for lbl in g.labels]
    return Graph(g.labels + (apex,), edges)


def attach(g: Graph, hs: Sequence[Graph]) -> Graph:
    """Join a graph H_i onto every vertex of g.

    The i-th host vertex becomes adjacent to every vertex of H_i.  New
    vertices are labelled ``z<i>_<j>`` and all of them precede the base
    vertices in the priority; the base keeps its own labels and order.
    When a base label already has that form (g itself attached), the
    prefix grows by one ``z`` at a time until no new label collides.
    """
    if len(hs) != g.n_vertices:
        raise ValueError("attach needs one graph per vertex of the base")
    base_labels = set(g.labels)
    prefix = "z"
    while any(
        f"{prefix}{i}_{j}" in base_labels
        for i, h in enumerate(hs, start=1)
        for j in range(1, h.n_vertices + 1)
    ):
        prefix += "z"
    labels: list[str] = []
    edges: list[tuple[str, str]] = []
    for i, h in enumerate(hs, start=1):
        relabel = {old: f"{prefix}{i}_{j}" for j, old in enumerate(h.labels, start=1)}
        labels.extend(relabel.values())
        for a, b in h.edges:
            edges.append((relabel[a], relabel[b]))
        host = g.labels[i - 1]
        edges.extend((lbl, host) for lbl in relabel.values())
    labels.extend(g.labels)
    edges.extend(g.edges)
    return Graph(labels, edges)


# ---------------------------------------------------------------------------
# Posets and Cameron-Walker constructions


class Poset:
    """Finite poset given by elements and a relation, closed automatically.

    The relation may be any set of (a, b) pairs meaning a <= b; the
    reflexive-transitive closure is taken and antisymmetry is checked.
    """

    __slots__ = ("elements", "relation")

    def __init__(self, elements: Sequence, relations: Iterable[tuple] = ()):
        self.elements = tuple(elements)
        if len(set(self.elements)) != len(self.elements):
            raise ValueError("duplicate poset elements")
        known = set(self.elements)
        leq = {(e, e) for e in self.elements}
        for a, b in relations:
            if a not in known or b not in known:
                raise ValueError(f"relation ({a!r}, {b!r}) uses an unknown element")
            leq.add((a, b))
        # Warshall: after the pass over k, paths through k are closed
        for k in self.elements:
            for a in self.elements:
                if (a, k) in leq:
                    leq.update((a, b) for b in self.elements if (k, b) in leq)
        for a, b in leq:
            if a != b and (b, a) in leq:
                raise ValueError(f"relation is not a partial order: {a!r} and {b!r} compare both ways")
        self.relation = frozenset(leq)

    def leq(self, a, b) -> bool:
        return (a, b) in self.relation


def cm_bipartite_from_poset(p: Poset) -> Graph:
    """Bipartite graph on a_e, b_e with an edge a_p--b_q exactly when p <= q.

    The a-block precedes the b-block in the priority, each in the poset's
    element order.
    """
    a_labels = [f"a{e}" for e in p.elements]
    b_labels = [f"b{e}" for e in p.elements]
    edges = [
        (f"a{e}", f"b{f}")
        for e in p.elements
        for f in p.elements
        if p.leq(e, f)
    ]
    return Graph(a_labels + b_labels, edges, parts=(a_labels, b_labels))


def _disjoint_edges(n: int) -> Graph:
    labels = [f"v{j}" for j in range(1, 2 * n + 1)]
    edges = [(labels[2 * i], labels[2 * i + 1]) for i in range(n)]
    return Graph(labels, edges)


def cameron_walker(
    bipartite: Graph,
    leaves_per_x: int | Mapping[str, int] = 1,
    triangles_per_y: int | Mapping[str, int] = 1,
) -> Graph:
    """Leaves on every X-vertex, pendant triangles on every Y-vertex.

    The input must be connected and bipartite with declared parts.  A
    pendant triangle on y adds two new mutually adjacent vertices joined
    to y; a leaf adds one new vertex.  Attached vertices precede the base
    vertices in the priority (this is the ``attach`` construction with
    edgeless pieces on X and disjoint-edge pieces on Y).
    """
    if bipartite.parts is None:
        raise ValueError("cameron_walker needs a bipartite graph with declared parts")
    if not is_connected(bipartite):
        raise ValueError("cameron_walker needs a connected bipartite graph")
    x_part, _ = bipartite.parts

    def count_for(spec: int | Mapping[str, int], label: str) -> int:
        c = spec if isinstance(spec, int) else spec[label]
        if c < 1:
            raise ValueError(f"count for {label!r} must be at least 1")
        return c

    hs = []
    for lbl in bipartite.labels:
        if lbl in x_part:
            hs.append(standard_family("edgeless", count_for(leaves_per_x, lbl)))
        else:
            hs.append(_disjoint_edges(count_for(triangles_per_y, lbl)))
    return attach(bipartite, hs)


# ---------------------------------------------------------------------------
# Covers and structural predicates


def maximal_independent_sets(g: Graph) -> list[frozenset]:
    """All maximal independent sets, via Bron-Kerbosch with pivoting on
    the complement graph."""
    labels = g.labels
    pos = {v: i for i, v in enumerate(labels)}
    comp = {v: set(labels) - {v} - g.neighbors(v) for v in labels}
    out: list[frozenset] = []

    def expand(r: frozenset, p: set, x: set) -> None:
        if not p and not x:
            out.append(r)
            return
        pivot = max(sorted(p | x, key=pos.get), key=lambda v: len(comp[v] & p))
        for v in sorted(p - comp[pivot], key=pos.get):
            expand(r | {v}, p & comp[v], x & comp[v])
            p = p - {v}
            x = x | {v}

    expand(frozenset(), set(labels), set())
    return out


def minimal_vertex_covers(g: Graph) -> list[frozenset]:
    """Minimal covers as label sets (complements of maximal independent
    sets), sorted so the cover monomials come lex-descending under the
    vertex priority."""
    all_labels = frozenset(g.labels)
    covers = [all_labels - s for s in maximal_independent_sets(g)]
    membership = lambda c: tuple(1 if v in c else 0 for v in g.labels)
    return sorted(covers, key=membership, reverse=True)


def is_unmixed(g: Graph) -> bool:
    sizes = {len(c) for c in minimal_vertex_covers(g)}
    return len(sizes) <= 1


def is_chordal(g: Graph) -> bool:
    """Chordality by simplicial elimination (Dirac, 1961): every chordal
    graph, and so each induced subgraph of one, has a vertex whose
    neighbours form a clique, and no vertex of an induced cycle of length
    >= 4 ever has them; so the graph is chordal exactly when removing such
    vertices one at a time empties it."""
    live = set(g.labels)
    while live:
        for v in live:
            if all(g.has_edge(a, b) for a, b in combinations(g.neighbors(v) & live, 2)):
                live.remove(v)
                break
        else:
            return False
    return True


def is_connected(g: Graph) -> bool:
    if g.n_vertices == 0:
        return True
    seen = {g.labels[0]}
    queue = [g.labels[0]]
    while queue:
        v = queue.pop()
        for w in g.neighbors(v):
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == g.n_vertices


# ---------------------------------------------------------------------------
# JSON exchange format


def graph_to_json(g: Graph) -> str:
    doc: dict = {
        "vertices": list(g.labels),
        "edges": [[a, b] for a, b in g.edges],
    }
    if g.parts is not None:
        doc["parts"] = {"X": list(g.parts[0]), "Y": list(g.parts[1])}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _is_label_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def graph_from_json(text: str) -> Graph:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid graph JSON: {exc}") from None
    if not isinstance(doc, dict) or "vertices" not in doc:
        raise ValueError("graph JSON needs a 'vertices' list")
    vertices = doc["vertices"]
    edges = doc.get("edges", [])
    if not _is_label_list(vertices):
        raise ValueError("'vertices' must be a list of labels")
    if not isinstance(edges, list) or not all(
        isinstance(e, list) and len(e) == 2 and _is_label_list(e) for e in edges
    ):
        raise ValueError("'edges' must be a list of label pairs")
    parts = None
    if "parts" in doc:
        p = doc["parts"]
        if not isinstance(p, dict) or set(p) != {"X", "Y"} or not all(
            _is_label_list(p[side]) for side in ("X", "Y")
        ):
            raise ValueError("'parts' must map X and Y to label lists")
        parts = (p["X"], p["Y"])
    return Graph(vertices, [tuple(e) for e in edges], parts)


# ---------------------------------------------------------------------------
# Construction DSL


def _split_top(text: str, sep: str) -> list[str]:
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced parentheses in {text!r}")
        elif ch == sep and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    if depth != 0:
        raise ValueError(f"unbalanced parentheses in {text!r}")
    parts.append(text[start:])
    return parts


def _parse_atom(text: str) -> Graph:
    name, _, raw = text.partition(":")
    name = name.strip()
    if name == "edge":
        return standard_family("path", 2)
    if name == "vertex":
        return standard_family("path", 1)
    if name == "empty":
        return Graph([], [])
    try:
        params = [int(p) for p in raw.split(",")] if raw.strip() else []
    except ValueError:
        raise ValueError(f"bad parameters in {text!r}") from None
    return standard_family(name, *params)


def parse_construction(source: str, notes: list | None = None) -> Graph:
    """Build a graph from a construction string.

    Grammar: a `.json` file path, a family atom like ``path:4`` /
    ``complete_bipartite:2,3`` / ``edge``, or a compound
    ``cone(<src>)`` / ``attach(<base>;<h1>,<h2>,...)`` /
    ``cw(<bipartite>;leaves=N;triangles=N)``.  ``notes`` collects
    human-readable remarks (degenerate attached pieces and the like).
    """
    src = source.strip()
    if not src:
        raise ValueError("empty construction string")
    if src.endswith(".json"):
        with open(src, encoding="utf-8") as fh:
            return graph_from_json(fh.read())
    if src.startswith("cone(") and src.endswith(")"):
        return cone(parse_construction(src[5:-1], notes))
    if src.startswith("attach(") and src.endswith(")"):
        pieces = _split_top(src[7:-1], ";")
        if len(pieces) != 2:
            raise ValueError("attach expects attach(<base>;<h1>,<h2>,...)")
        base = parse_construction(pieces[0], notes)
        hs = [parse_construction(p, notes) for p in _split_top(pieces[1], ",")]
        for i, h in enumerate(hs, start=1):
            if h.n_vertices > 0 and h.n_edges == 0 and notes is not None:
                notes.append(f"attached piece {i} is edgeless")
        return attach(base, hs)
    if src.startswith("cw(") and src.endswith(")"):
        pieces = _split_top(src[3:-1], ";")
        if len(pieces) != 3:
            raise ValueError("cw expects cw(<bipartite>;leaves=N;triangles=N)")
        base = parse_construction(pieces[0], notes)
        counts = {}
        for piece in pieces[1:]:
            key, _, val = piece.partition("=")
            key = key.strip()
            if key not in ("leaves", "triangles") or key in counts:
                raise ValueError(f"bad cw option {piece!r}")
            try:
                counts[key] = int(val)
            except ValueError:
                raise ValueError(f"bad cw option {piece!r}") from None
        return cameron_walker(base, counts["leaves"], counts["triangles"])
    return _parse_atom(src)
