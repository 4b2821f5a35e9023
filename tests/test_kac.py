import functools
import itertools
import json
from math import gcd

import pytest

import brownalg.kac as kac
from brownalg import cli
from brownalg.errors import UnrecognizedType
from brownalg.kac import (
    E6_EXTENDED,
    E6_TWISTED,
    Edge,
    KacSolution,
    MarkedAffineDiagram,
    enumerate_solutions,
    load_diagram,
    residual_diagram,
)


def test_marks_and_mark_sum():
    assert E6_EXTENDED.marks == (1, 1, 2, 3, 2, 2, 1)


def test_m2_untwisted_solutions():
    sols = enumerate_solutions(E6_EXTENDED, 2)
    got = [s.s for s in sols]
    assert sorted(got) == sorted(
        [
            (1, 1, 0, 0, 0, 0, 0),
            (1, 0, 0, 0, 0, 0, 1),
            (0, 1, 0, 0, 0, 0, 1),
            (0, 0, 1, 0, 0, 0, 0),
            (0, 0, 0, 0, 1, 0, 0),
            (0, 0, 0, 0, 0, 1, 0),
        ]
    )
    assert got == sorted(got)  # lexicographic order
    by_s = {s.s: s.residual_str for s in sols}
    assert by_s[(1, 1, 0, 0, 0, 0, 0)] == "D5"
    assert by_s[(0, 0, 1, 0, 0, 0, 0)] == "A1 x A5"
    from collections import Counter

    counts = Counter(s.residual_str for s in sols)
    assert counts == {"D5": 3, "A1 x A5": 3}


def test_m2_gcd_off_adds_multiples():
    sols = enumerate_solutions(E6_EXTENDED, 2, gcd_filter=False)
    ss = {s.s for s in sols}
    assert (2, 0, 0, 0, 0, 0, 0) in ss
    assert (0, 2, 0, 0, 0, 0, 0) in ss
    assert (0, 0, 0, 0, 0, 0, 2) in ss
    assert len(sols) == 9


def test_m1_complete_enumeration():
    # n0 = n1 = n6 = 1, so three solutions, all with residual E6.
    sols = enumerate_solutions(E6_EXTENDED, 1)
    assert [s.s for s in sols] == [
        (0, 0, 0, 0, 0, 0, 1),
        (0, 1, 0, 0, 0, 0, 0),
        (1, 0, 0, 0, 0, 0, 0),
    ]
    assert all(s.residual_str == "E6" for s in sols)


def test_enumeration_matches_box_brute_force():
    for m in (1, 2, 3):
        sols = enumerate_solutions(E6_EXTENDED, m, gcd_filter=False)
        got = {s.s for s in sols}
        brute = set()
        for cand in itertools.product(range(m + 1), repeat=7):
            if sum(n * s for n, s in zip(E6_EXTENDED.marks, cand)) == m:
                brute.add(cand)
        assert got == brute


def test_folded_m2():
    sols = enumerate_solutions(E6_TWISTED, 2, folded=True)
    by_s = {s.s: s.residual_str for s in sols}
    assert by_s[(2, 0, 0, 0, 0, 0, 0)] == "F4"
    assert by_s[(0, 1, 0, 0, 0, 0, 1)] == "C4"
    assert by_s[(0, 0, 0, 0, 1, 0, 0)] == "A1 x B3"
    assert len(sols) == 3


def test_folded_requires_folding_data():
    with pytest.raises(ValueError):
        enumerate_solutions(E6_EXTENDED, 2, folded=True)


def test_symmetry_stability_of_residuals():
    """The diagram automorphism rho1<->rho6, rho2<->rho5 maps solutions to
    solutions with identical residual types."""
    perm = {0: 0, 1: 6, 2: 5, 3: 3, 4: 4, 5: 2, 6: 1}
    for m in (2, 3):
        sols = enumerate_solutions(E6_EXTENDED, m, gcd_filter=False)
        types = {s.s: s.residual for s in sols}
        for s in sols:
            image = tuple(s.s[perm[i]] for i in range(7))
            assert image in types
            assert types[image] == s.residual


def test_residual_node_count():
    sols = enumerate_solutions(E6_EXTENDED, 3, gcd_filter=False)
    for s in sols:
        zero_nodes = sum(1 for v in s.s if v == 0)
        total = sum(int(t[1:]) for t in s.residual)
        assert total == zero_nodes


def test_m1_folded():
    sols = enumerate_solutions(E6_TWISTED, 1, folded=True)
    assert [s.s for s in sols] == [(1, 0, 0, 0, 0, 0, 0)]
    # removing rho0 from the folded 5-chain leaves the F4 subdiagram
    assert sols[0].residual_str == "F4"


def test_classifier_types():
    # path = A_n
    d = MarkedAffineDiagram("x", (1, 1, 1), (Edge(0, 1), Edge(1, 2)))
    assert residual_diagram(d, (0, 0, 0)) == ("A3",)
    # star with three length-1 branches = D4
    d4 = MarkedAffineDiagram(
        "x", (1, 1, 1, 1), (Edge(0, 1), Edge(0, 2), Edge(0, 3))
    )
    assert residual_diagram(d4, (0, 0, 0, 0)) == ("D4",)
    # G2
    g2 = MarkedAffineDiagram("x", (1, 1), (Edge(0, 1, mult=3, tip=1),))
    assert residual_diagram(g2, (0, 0)) == ("G2",)
    # two disconnected points
    a11 = MarkedAffineDiagram("x", (1, 1), ())
    assert residual_diagram(a11, (0, 0)) == ("A1", "A1")
    # degree-4 node is not a Dynkin diagram
    bad = MarkedAffineDiagram(
        "x", (1,) * 5, (Edge(0, 1), Edge(0, 2), Edge(0, 3), Edge(0, 4))
    )
    with pytest.raises(UnrecognizedType):
        residual_diagram(bad, (0, 0, 0, 0, 0))


def test_builtin_loader():
    assert load_diagram("e6~") is E6_EXTENDED
    assert load_diagram("e6~2") is E6_TWISTED


def test_diagram_file_loader(tmp_path):
    path = tmp_path / "d.json"
    path.write_text(
        '{"name": "toy", "marks": [1, 2, 1], "edges": [[0, 1], [1, 2]]}'
    )
    d = load_diagram(str(path))
    sols = enumerate_solutions(d, 2, gcd_filter=False)
    assert {s.s for s in sols} == {(2, 0, 0), (0, 1, 0), (1, 0, 1), (0, 0, 2)}


@pytest.mark.parametrize("text, field", [
    ('{"edges": [[0, 1]]}', "marks"),
    ('{"marks": [1, 1]}', "edges"),
    ('{"marks": 3, "edges": [[0, 1]]}', "marks"),
    ('{"marks": [1, 1], "edges": [5]}', "edges"),
    ('{"marks": [1, 1], "edges": [[0]]}', "edges"),
    ('{"marks": [1, 1], "edges": [[0, 1, 1, null, 0]]}', "edges"),
    ('{"marks": [1, 1], "edges": {"0": 1}}', "edges"),
    ('{"marks": [1, 1], "edges": [[0, 1]], "folding": 7}', "folding"),
    ('{"marks": [1, 1], "edges": [[0, 1]], "folding": [7]}', "folding"),
    ('[[1, 1], [[0, 1]]]', "object"),
])
def test_badly_shaped_diagram_file_names_the_field(tmp_path, text, field):
    path = tmp_path / "d.json"
    path.write_text(text)
    with pytest.raises(ValueError, match=field):
        load_diagram(str(path))


def test_folded_diagram_derived_from_folding():
    """The orbits of (1,6), (2,5) and their edges: rho_0 - rho_4 - rho_3 <=
    rho_25 - rho_16, the double edge pointing at rho_3."""
    d = E6_TWISTED
    assert d.folded_nodes == ((0,), (1, 6), (2, 5), (3,), (4,))
    assert set(d.folded_edges) == {
        Edge(0, 4), Edge(1, 2), Edge(2, 3, mult=2, tip=3), Edge(3, 4)
    }


def test_json_copy_of_twisted_diagram_matches_builtin(tmp_path):
    path = tmp_path / "e6t.json"
    path.write_text(json.dumps({
        "marks": list(E6_TWISTED.marks),
        "edges": [[e.a, e.b] for e in E6_TWISTED.edges],
        "folding": [list(p) for p in E6_TWISTED.folding],
    }))
    d = load_diagram(str(path))
    assert d.folded_nodes == E6_TWISTED.folded_nodes
    assert d.folded_edges == E6_TWISTED.folded_edges
    for m in range(1, 7):
        for g in (True, False):
            assert enumerate_solutions(d, m, gcd_filter=g, folded=True) == \
                enumerate_solutions(E6_TWISTED, m, gcd_filter=g, folded=True)
    by_s = {s.s: s.residual_str for s in enumerate_solutions(d, 2, folded=True)}
    assert sorted(by_s.values()) == ["A1 x B3", "C4", "F4"]


@pytest.mark.parametrize("marks, edges, folding", [
    (E6_EXTENDED.marks, E6_EXTENDED.edges, ((1, 2),)),  # unequal marks
    (E6_EXTENDED.marks, E6_EXTENDED.edges, ((1, 7),)),  # index out of range
    (E6_EXTENDED.marks, E6_EXTENDED.edges, ((1,),)),  # not a pair
    (E6_EXTENDED.marks, E6_EXTENDED.edges, ((1, 6), (2, 4))),  # not a symmetry
    ((1, 1, 1), (Edge(0, 1), Edge(1, 2)), ((0, 1),)),  # joins adjacent nodes
    ((1, 1, 1), (Edge(0, 1, mult=2, tip=0), Edge(1, 2)), ((0, 2),)),  # not simply laced
    ((1, 1), (Edge(0, 2),), ()),  # edge index out of range
    ((1, 1), (Edge("0", 1),), ()),  # edge index not an int
    ((1, 0, 1), (Edge(0, 1), Edge(1, 2)), ()),  # zero mark
    ((1, -2, 1), (Edge(0, 1), Edge(1, 2)), ()),  # negative mark
    ((1, "2", 1), (Edge(0, 1), Edge(1, 2)), ()),  # mark not an int
    ((1, True, 1), (Edge(0, 1), Edge(1, 2)), ()),  # bool mark
    ((1, 2.0, 1), (Edge(0, 1), Edge(1, 2)), ()),  # float mark
    ((1, 2, 1), (Edge(0, 1, 2, 5), Edge(1, 2)), ()),  # tip not an end of its edge
    ((1, 2, 1), (Edge(0, 1, 2, 2), Edge(1, 2)), ()),  # tip on another node
    ((1, 2, 1), (Edge(0, 1, 0), Edge(1, 2)), ()),  # zero multiplicity
    ((1, 2, 1), (Edge(0, 1, -1), Edge(1, 2)), ()),  # negative multiplicity
    ((1, 2, 1), (Edge(0, 1, "2"), Edge(1, 2)), ()),  # multiplicity not an int
])
def test_malformed_diagram_raises_value_error(marks, edges, folding):
    with pytest.raises(ValueError):
        MarkedAffineDiagram("x", marks, edges, folding)


@pytest.mark.parametrize("doc", [
    '{"marks": [1, 1, 1], "edges": [[0, true], [true, 2]]}',
    '{"marks": [1, 2, 1], "edges": [[0, 1, 2, true], [1, 2]]}',
    '{"marks": [1, 2, 1], "edges": [[0, 1, 2, 1.0], [1, 2]]}',
    '{"marks": [1, 1, 1], "edges": [[0, 1], [0, 2]], "folding": [[true, 2]]}',
], ids=["edge-end-bool", "tip-bool", "tip-float", "folding-bool"])
def test_node_index_that_is_not_an_int_exits_2(tmp_path, capsys, doc):
    """A JSON true or 1.0 is not node 1: as an edge end, a tip or a folding
    index it is refused by the diagram and by the CLI."""
    path = tmp_path / "d.json"
    path.write_text(doc)
    assert cli.main(["kac", str(path), "2"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    raw = json.loads(doc)
    with pytest.raises(ValueError):
        MarkedAffineDiagram("x", tuple(raw["marks"]), tuple(Edge(*e) for e in raw["edges"]),
                            tuple(map(tuple, raw.get("folding", []))))


BOX = 12  # the reference enumerates m = 1..BOX


@functools.cache
def _box(marks):
    """Every tuple with 0 <= s_i <= BOX // marks[i], by its weighted sum up to
    BOX: one pass over the box serves every m."""
    by_sum = {}
    for c in itertools.product(*(range(0, BOX + 1, k) for k in marks)):
        t = sum(c)
        if t <= BOX:
            by_sum.setdefault(t, []).append(tuple(v // k for v, k in zip(c, marks)))
    return by_sum


def _reference(diagram, m, gcd_filter, folded):
    if gcd_filter is None:
        gcd_filter = not folded
    out = []
    for s in sorted(_box(diagram.marks).get(m, ())):
        if folded and any(s[a] != s[b] for a, b in diagram.folding):
            continue
        g = gcd(*s)
        if gcd_filter and g != 1:
            continue
        out.append(KacSolution(s, m, residual_diagram(diagram, s, folded=folded), g == 1))
    return out


def _toy_json(tmp_path):
    """A JSON diagram whose last mark is 3, so most remainders at the last
    node do not divide."""
    path = tmp_path / "toy.json"
    path.write_text(json.dumps({"name": "toy", "marks": [1, 2, 3], "edges": [[0, 1], [1, 2, 2, 2]]}))
    return load_diagram(str(path))


# a star folded onto a path: orbits (0,), (1,), (2, 3), the last of weight 6
FOLDED_TOY = MarkedAffineDiagram(
    "star", (1, 2, 3, 3), (Edge(0, 1), Edge(0, 2), Edge(0, 3)), folding=((2, 3),)
)


# one orbit: a single node of mark 2, so only even m have solutions
POINT = MarkedAffineDiagram("point", (2,), ())
# a star with all three leaves in one orbit, the last, of weight 3
STAR3 = MarkedAffineDiagram(
    "star3", (2, 1, 1, 1), (Edge(0, 1), Edge(0, 2), Edge(0, 3)), folding=((1, 2), (2, 3))
)
# the path 1 - 2 - 0 - 4 - 3 folded by its reflection: orbits (0,), (1, 3),
# (2, 4), the last two both of two nodes
FOLDED_PATH = MarkedAffineDiagram(
    "path", (1, 1, 2, 1, 2), (Edge(1, 2), Edge(2, 0), Edge(0, 4), Edge(4, 3)),
    folding=((1, 3), (2, 4)),
)


@pytest.mark.parametrize("gcd_filter", [None, True, False])
@pytest.mark.parametrize("case, folded", [
    ("e6~", False), ("e6~2", False), ("e6~2", True),
    ("toy", False), ("star", False), ("star", True),
    ("point", False), ("star3", True), ("path", True),
])
def test_enumeration_matches_brute_force_reference(case, folded, gcd_filter, tmp_path):
    diagram = {
        "e6~": E6_EXTENDED, "e6~2": E6_TWISTED, "star": FOLDED_TOY,
        "point": POINT, "star3": STAR3, "path": FOLDED_PATH,
    }.get(case) or _toy_json(tmp_path)
    for m in range(1, BOX + 1):
        assert enumerate_solutions(diagram, m, gcd_filter=gcd_filter, folded=folded) == \
            _reference(diagram, m, gcd_filter, folded), m


def test_edge_case_diagrams_have_the_expected_orbits():
    assert [s.s for m in range(1, 7) for s in enumerate_solutions(POINT, m, gcd_filter=False)] \
        == [(1,), (2,), (3,)]
    assert STAR3.folded_nodes[-1] == (1, 2, 3)
    assert FOLDED_PATH.folded_nodes == ((0,), (1, 3), (2, 4))


def test_solution_record_contract():
    sol = enumerate_solutions(E6_EXTENDED, 2)[0]
    assert (sol.s, sol.m, sol.residual, sol.gcd_one) == \
        ((0, 0, 0, 0, 0, 1, 0), 2, ("A1", "A5"), True)
    assert sol.residual_str == "A1 x A5"
    copy = KacSolution((0, 0, 0, 0, 0, 1, 0), 2, ("A1", "A5"), True)
    assert copy == sol and hash(copy) == hash(sol)
    with pytest.raises(AttributeError):
        sol.m = 3


@pytest.mark.parametrize("diagram, folded, patterns", [
    (E6_EXTENDED, False, 120),
    (E6_TWISTED, True, 30),
])
def test_each_zero_pattern_classified_once(monkeypatch, diagram, folded, patterns):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return residual_diagram(*args, **kwargs)

    monkeypatch.setattr(kac, "residual_diagram", counting)
    sols = enumerate_solutions(diagram, 20, folded=folded)
    assert len({tuple(v == 0 for v in s.s) for s in sols}) == patterns
    assert len(calls) == patterns


def test_unclassifiable_residual_raises_from_enumeration():
    # node 0 has degree 4 once node 5 (isolated) takes the whole order
    bad = MarkedAffineDiagram(
        "x", (1,) * 6, (Edge(0, 1), Edge(0, 2), Edge(0, 3), Edge(0, 4))
    )
    with pytest.raises(UnrecognizedType):
        enumerate_solutions(bad, 1)


@pytest.mark.parametrize("m", [2.0, 2.5, "2", 0, True])
def test_order_that_is_not_a_positive_int_raises_value_error(m):
    with pytest.raises(ValueError, match="not a positive integer"):
        enumerate_solutions(E6_EXTENDED, m)
