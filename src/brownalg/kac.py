"""Kac coordinates on the extended E6 diagram and its folded twisted form.

Node order rho_0..rho_6 with marks (1, 1, 2, 3, 2, 2, 1); solutions of
sum n_i s_i = m over nonnegative integers label order-m automorphisms, and
the zero-coordinate nodes span the residual centralizer diagram.

The twisted mode keeps 7-tuples constrained by the fold (s1 = s6, s2 = s5)
and computes residuals on the folded diagram, derived from the folding pairs:
its nodes are the orbits, and for E6 it is the 5-node diagram
rho_0 - rho_4 - rho_3 <= rho_25 - rho_16 (double edge pointing at rho_3).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import gcd

from .errors import UnrecognizedType


@dataclass(frozen=True)
class Edge:
    a: int
    b: int
    mult: int = 1
    tip: int | None = None  # short-root side of a multiple edge

    def other(self, node: int) -> int:
        return self.b if node == self.a else self.a


@dataclass(frozen=True)
class MarkedAffineDiagram:
    name: str
    marks: tuple
    edges: tuple
    folding: tuple = ()  # pairs of identified nodes
    # derived from the folding: orbits in order of least node, and the edges
    # between them as indices into folded_nodes
    folded_nodes: tuple = field(init=False, repr=False, compare=False)
    folded_edges: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.marks)
        for e in self.edges:
            if not (0 <= e.a < n and 0 <= e.b < n):
                raise ValueError(f"edge ({e.a}, {e.b}) has a node index outside 0..{n - 1}")
        for pair in self.folding:
            if len(pair) != 2 or not all(isinstance(i, int) and 0 <= i < n for i in pair):
                raise ValueError(f"folding pair {pair!r} is not two node indices below {n}")
            a, b = pair
            if self.marks[a] != self.marks[b]:
                raise ValueError(f"folding pair {pair!r} joins nodes of different marks")
        if self.folding and any(e.mult != 1 for e in self.edges):
            raise ValueError("only a simply-laced diagram can be folded")
        nodes = _orbits(n, self.folding)
        object.__setattr__(self, "folded_nodes", nodes)
        object.__setattr__(self, "folded_edges", _quotient_edges(nodes, self.edges))

    @property
    def n_nodes(self) -> int:
        return len(self.marks)


def _orbits(n: int, pairs) -> tuple:
    orbit = {i: {i} for i in range(n)}
    for a, b in pairs:
        if orbit[a] is not orbit[b]:
            merged = orbit[a] | orbit[b]
            for i in merged:
                orbit[i] = merged
    return tuple(sorted({tuple(sorted(o)) for o in orbit.values()}))


def _quotient_edges(nodes, edges) -> tuple:
    """Edges between orbits: the multiplicity is the number of original edges
    divided by the size of the smaller orbit, and a multiple edge points at
    the smaller orbit."""
    where = {i: g for g, group in enumerate(nodes) for i in group}
    count = {}
    for e in edges:
        ga, gb = sorted((where[e.a], where[e.b]))
        if ga == gb:
            raise ValueError(f"folding identifies the adjacent nodes {e.a} and {e.b}")
        count[ga, gb] = count.get((ga, gb), 0) + 1
    out = []
    for (ga, gb), k in sorted(count.items()):
        small = min((ga, gb), key=lambda g: len(nodes[g]))
        mult, rem = divmod(k, len(nodes[small]))
        if rem:
            raise ValueError("the folding is not a symmetry of the diagram's edges")
        out.append(Edge(ga, gb, mult, small if mult > 1 else None))
    return tuple(out)


E6_EXTENDED = MarkedAffineDiagram(
    name="e6~",
    marks=(1, 1, 2, 3, 2, 2, 1),
    edges=(
        Edge(0, 4),
        Edge(4, 3),
        Edge(3, 2),
        Edge(2, 1),
        Edge(3, 5),
        Edge(5, 6),
    ),
)

E6_TWISTED = MarkedAffineDiagram(
    name="e6~2",
    marks=E6_EXTENDED.marks,
    edges=E6_EXTENDED.edges,
    folding=((1, 6), (2, 5)),
)

BUILTIN = {"e6~": E6_EXTENDED, "e6~2": E6_TWISTED}


@dataclass(frozen=True)
class KacSolution:
    s: tuple
    m: int
    residual: tuple  # component type names, sorted
    gcd_one: bool

    @property
    def residual_str(self) -> str:
        return " x ".join(self.residual) if self.residual else "(empty)"


def load_diagram(source: str) -> MarkedAffineDiagram:
    """Built-in name or a JSON file {marks, edges: [[a,b,mult]], folding}."""
    if source in BUILTIN:
        return BUILTIN[source]
    with open(source) as fh:
        d = json.load(fh)
    edges = tuple(
        Edge(e[0], e[1], e[2] if len(e) > 2 else 1, e[3] if len(e) > 3 else None)
        for e in d["edges"]
    )
    return MarkedAffineDiagram(
        name=d.get("name", source),
        marks=tuple(d["marks"]),
        edges=edges,
        folding=tuple(tuple(p) for p in d.get("folding", ())),
    )


def enumerate_solutions(
    diagram: MarkedAffineDiagram,
    m: int,
    gcd_filter: bool | None = None,
    folded: bool = False,
) -> list[KacSolution]:
    """All nonnegative tuples with sum marks[i] s[i] = m, lexicographic order,
    optionally gcd-filtered and restricted to fold-symmetric tuples.  The gcd
    filter defaults on for untwisted enumeration and off for folded."""
    if m < 1:
        raise ValueError("order m must be >= 1")
    if gcd_filter is None:
        gcd_filter = not folded
    if folded and not diagram.folding:
        raise ValueError(f"diagram {diagram.name} has no folding")
    n = diagram.n_nodes
    marks = diagram.marks
    out = []

    def rec(i: int, remaining: int, prefix: tuple):
        if i == n:
            if remaining == 0:
                out.append(prefix)
            return
        max_si = remaining // marks[i]
        for si in range(max_si + 1):
            rec(i + 1, remaining - si * marks[i], prefix + (si,))

    rec(0, m, ())
    solutions = []
    for s in sorted(out):
        if folded and any(s[a] != s[b] for a, b in diagram.folding):
            continue
        g = 0
        for v in s:
            g = gcd(g, v)
        if gcd_filter and g != 1:
            continue
        solutions.append(
            KacSolution(s, m, residual_diagram(diagram, s, folded=folded), g == 1)
        )
    return solutions


def residual_diagram(diagram: MarkedAffineDiagram, s, folded: bool = False):
    """Connected components of the induced subdiagram on zero coordinates,
    classified by Dynkin type."""
    if folded:
        keep = [
            gi for gi, group in enumerate(diagram.folded_nodes)
            if all(s[i] == 0 for i in group)
        ]
        edges = diagram.folded_edges
    else:
        keep = [i for i in range(diagram.n_nodes) if s[i] == 0]
        edges = diagram.edges
    keep_set = set(keep)
    adj = {i: [] for i in keep}
    for e in edges:
        if e.a in keep_set and e.b in keep_set:
            adj[e.a].append(e)
            adj[e.b].append(e)
    seen = set()
    components = []
    for start in keep:
        if start in seen:
            continue
        stack, nodes = [start], []
        seen.add(start)
        while stack:
            v = stack.pop()
            nodes.append(v)
            for e in adj[v]:
                u = e.other(v)
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        comp_edges = {e for v in nodes for e in adj[v]}
        components.append(_classify(sorted(nodes), comp_edges, adj))
    return tuple(sorted(components))


def _classify(nodes, edges, adj) -> str:
    n = len(nodes)
    if n == 1:
        return "A1"
    degrees = {v: len(adj[v]) for v in nodes}
    maxmult = max(e.mult for e in edges)
    if maxmult == 1:
        deg3 = [v for v in nodes if degrees[v] == 3]
        if any(degrees[v] > 3 for v in nodes):
            raise UnrecognizedType("node of degree > 3")
        if not deg3:
            return f"A{n}"
        if len(deg3) > 1:
            raise UnrecognizedType("more than one branch node")
        center = deg3[0]
        branch_lengths = sorted(_branch_lengths(center, adj))
        if branch_lengths[0] != 1:
            raise UnrecognizedType("branch pattern outside the catalog")
        if branch_lengths[1] == 1:
            return f"D{n}"
        if branch_lengths[1] == 2 and branch_lengths[2] in (2, 3, 4):
            return {2: "E6", 3: "E7", 4: "E8"}[branch_lengths[2]]
        raise UnrecognizedType("branch pattern outside the catalog")
    if maxmult == 3:
        if n == 2:
            return "G2"
        raise UnrecognizedType("triple edge in a larger component")
    if any(degrees[v] > 2 for v in nodes):
        raise UnrecognizedType("multiple edge with branching")
    multi = [e for e in edges if e.mult == 2]
    if len(multi) != 1:
        raise UnrecognizedType("more than one double edge")
    e = multi[0]
    if n == 2:
        return "B2"
    # position of the double edge along the path
    if degrees[e.a] == 1 or degrees[e.b] == 1:
        end_node = e.a if degrees[e.a] == 1 else e.b
        short_at_end = e.tip == end_node
        return (f"B{n}" if short_at_end else f"C{n}")
    if n == 4:
        return "F4"
    raise UnrecognizedType("interior double edge outside F4")


def _branch_lengths(center, adj):
    lengths = []
    for e in adj[center]:
        length = 0
        prev, cur = center, e.other(center)
        while True:
            length += 1
            nxt = [ed.other(cur) for ed in adj[cur] if ed.other(cur) != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
        lengths.append(length)
    return lengths
