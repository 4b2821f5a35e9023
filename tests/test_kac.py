import itertools
import json

import pytest

from brownalg.errors import UnrecognizedType
from brownalg.kac import (
    E6_EXTENDED,
    E6_TWISTED,
    Edge,
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
])
def test_malformed_diagram_raises_value_error(marks, edges, folding):
    with pytest.raises(ValueError):
        MarkedAffineDiagram("x", marks, edges, folding)
