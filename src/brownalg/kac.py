"""Kac coordinates on the extended E6 diagram and its folded twisted form.

Node order rho_0..rho_6 with marks (1, 1, 2, 3, 2, 2, 1); solutions of
sum n_i s_i = m over nonnegative integers label order-m automorphisms, and
the zero-coordinate nodes span the residual centralizer diagram.

The twisted mode keeps 7-tuples constrained by the fold (s1 = s6, s2 = s5)
and computes residuals on the folded diagram, derived from the folding pairs:
its nodes are the orbits, and for E6 it is the 5-node diagram
rho_0 - rho_4 - rho_3 <= rho_25 - rho_16 (double edge pointing at rho_3).

Enumeration recurses over the fold orbits (single nodes when unfolded) down
to the last two, which one inner loop solves: v runs over the first and
divmod gives the second.  That loop builds each `KacSolution`, a named tuple,
and classifies each residual zero pattern once per call.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import gcd
from typing import NamedTuple

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
        for mark in self.marks:
            if not _positive_int(mark):
                raise ValueError(f"mark {mark!r} is not a positive integer")
        for e in self.edges:
            if not (_node_index(e.a, n) and _node_index(e.b, n)):
                raise ValueError(f"edge ({e.a}, {e.b}) has a node index outside 0..{n - 1}")
            if not _positive_int(e.mult):
                raise ValueError(
                    f"edge ({e.a}, {e.b}) has multiplicity {e.mult!r}, not a positive integer"
                )
            if e.tip is not None and not (_node_index(e.tip, n) and e.tip in (e.a, e.b)):
                raise ValueError(f"edge ({e.a}, {e.b}) has tip {e.tip!r}, not one of its ends")
        for pair in self.folding:
            if len(pair) != 2 or not all(_node_index(i, n) for i in pair):
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


def _positive_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= 1


def _node_index(x, n: int) -> bool:
    """An int, not a bool, in 0..n-1."""
    return isinstance(x, int) and not isinstance(x, bool) and 0 <= x < n


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
    edges=tuple(Edge(a, b) for a, b in ((0, 4), (4, 3), (3, 2), (2, 1), (3, 5), (5, 6))),
)

E6_TWISTED = MarkedAffineDiagram(
    name="e6~2",
    marks=E6_EXTENDED.marks,
    edges=E6_EXTENDED.edges,
    folding=((1, 6), (2, 5)),
)

BUILTIN = {"e6~": E6_EXTENDED, "e6~2": E6_TWISTED}


class KacSolution(NamedTuple):
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
    if not isinstance(d, dict):
        raise ValueError("a diagram file holds a JSON object {marks, edges, folding}")
    marks, edges = _list_field(d, "marks"), _list_field(d, "edges")
    folding = _list_field(d, "folding", [])
    for e in edges:
        if not isinstance(e, list) or not 2 <= len(e) <= 4:
            raise ValueError(f"edges entry {e!r} is not of the form [a, b, mult?, tip?]")
    for pair in folding:
        if not isinstance(pair, list):
            raise ValueError(f"folding entry {pair!r} is not a pair [a, b]")
    return MarkedAffineDiagram(
        name=d.get("name", source),
        marks=tuple(marks),
        edges=tuple(Edge(*e) for e in edges),
        folding=tuple(map(tuple, folding)),
    )


def _list_field(d: dict, key: str, default=None) -> list:
    """d[key], a JSON list; `default` stands in for an absent key."""
    value = d.get(key, default)
    if not isinstance(value, list):
        raise ValueError(f"diagram field {key!r} is missing or not a list: {value!r}")
    return value


def enumerate_solutions(
    diagram: MarkedAffineDiagram,
    m: int,
    gcd_filter: bool | None = None,
    folded: bool = False,
) -> list[KacSolution]:
    """All nonnegative tuples with sum marks[i] s[i] = m, lexicographic order,
    optionally gcd-filtered and restricted to fold-symmetric tuples.  The gcd
    filter defaults on when unfolded and off when folded."""
    if not _positive_int(m):
        raise ValueError(f"order m = {m!r} is not a positive integer")
    if gcd_filter is None:
        gcd_filter = not folded
    if folded and not diagram.folding:
        raise ValueError(f"diagram {diagram.name} has no folding")
    # Each orbit shares one value.  Two fold-symmetric tuples first differ at
    # the least node of some orbit, so taking the orbits in order of least
    # node yields lexicographic order on the full tuple.
    groups = diagram.folded_nodes if folded else [(i,) for i in range(diagram.n_nodes)]
    # (nodes, weight, zero bit) per orbit; empty orbits that take only 0 pad
    # the list to two
    orbits = [((), m + 1, 0)] * (2 - len(groups)) + [
        (g, diagram.marks[g[0]] * len(g), sum(1 << i for i in g)) for g in groups
    ]
    *_, (ga, wa, za), (gb, wb, zb) = orbits
    inner = len(orbits) - 2
    s = [0] * diagram.n_nodes
    # zero mask -> residual, filled on first use: some patterns (all zeros on
    # e6~) do not classify, and only kept solutions may raise
    residuals = {}
    record = tuple.__new__  # skips KacSolution's Python __new__
    out = []

    def rec(k: int, remaining: int, g: int, zeros: int):
        if k < inner:
            group, w, bit = orbits[k]
            for v in range(remaining // w + 1):
                for i in group:
                    s[i] = v
                rec(k + 1, remaining - v * w, g if g == 1 else gcd(g, v),
                    zeros if v else zeros | bit)
            return
        # the last two orbits: v runs over the first, divmod solves the second
        for v in range(remaining // wa + 1):
            u, r = divmod(remaining - v * wa, wb)
            h = g if g == 1 else gcd(g, v, u)
            if r or (gcd_filter and h != 1):
                continue
            for i in ga:
                s[i] = v
            for i in gb:
                s[i] = u
            t = tuple(s)
            zero = zeros | (0 if v else za) | (0 if u else zb)
            res = residuals.get(zero)
            if res is None:
                res = residuals[zero] = residual_diagram(diagram, t, folded=folded)
            out.append(record(KacSolution, (t, m, res, h == 1)))

    rec(0, m, 0, 0)
    return out


def residual_diagram(diagram: MarkedAffineDiagram, s, folded: bool = False):
    """Connected components of the induced subdiagram on zero coordinates,
    classified by Dynkin type."""
    groups = diagram.folded_nodes if folded else [(i,) for i in range(diagram.n_nodes)]
    keep = [k for k, group in enumerate(groups) if not any(s[i] for i in group)]
    edges = diagram.folded_edges if folded else diagram.edges
    adj = {i: [] for i in keep}
    for e in edges:
        if e.a in adj and e.b in adj:
            adj[e.a].append(e)
            adj[e.b].append(e)
    seen = set()
    components = []
    for start in keep:
        if start in seen:
            continue
        nodes = [start]
        seen.add(start)
        for v in nodes:  # the list grows while it is read
            for e in adj[v]:
                u = e.other(v)
                if u not in seen:
                    seen.add(u)
                    nodes.append(u)
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
        a, b, c = sorted(_branch_lengths(deg3[0], adj))
        if a == b == 1:
            return f"D{n}"
        if (a, b) == (1, 2) and c in (2, 3, 4):
            return f"E{c + 4}"
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
    if 1 in (degrees[e.a], degrees[e.b]):
        end_node = e.a if degrees[e.a] == 1 else e.b
        return f"B{n}" if e.tip == end_node else f"C{n}"
    if n == 4:
        return "F4"
    raise UnrecognizedType("interior double edge outside F4")


def _branch_lengths(center, adj):
    for e in adj[center]:
        length, prev, cur = 1, center, e.other(center)
        while nxt := [ed.other(cur) for ed in adj[cur] if ed.other(cur) != prev]:
            length, prev, cur = length + 1, cur, nxt[0]
        yield length
