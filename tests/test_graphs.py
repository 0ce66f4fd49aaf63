"""Graph type, constructors, serialization, enumeration.

Expected values: tiny cases are asserted directly; graph6 strings were
hand-encoded from the format definition (column-major upper triangle,
6-bit groups, +63) and cross-checked by round-trip.
"""

from __future__ import annotations

import gc
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factor_spectra.families import ExtremalParams, extremal_graph
from factor_spectra.graphs import (
    Graph,
    bits,
    complete_bipartite,
    complete_graph,
    component,
    cycle_graph,
    deserialize_graph,
    disjoint_union,
    empty_graph,
    enumerate_graphs,
    isomorphic,
    join,
    parse_edge_list,
    parse_graph6,
    path_graph,
    serialize_graph,
    to_dot,
    to_edge_list,
    to_graph6,
)


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


class TestBasics:
    def test_from_edges_and_queries(self):
        g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert g.n == 4
        assert g.edge_count == 3
        assert g.degrees() == (3, 1, 1, 1)
        assert g.neighbors(0) == (1, 2, 3)
        assert g.has_edge(1, 0) and not g.has_edge(1, 2)
        assert g.min_degree() == 1

    def test_bad_edges_rejected(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(0, 3)])
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(1, 1)])
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(0, 1), (1, 0)])

    def test_complete_counts(self):
        for n in range(1, 8):
            g = complete_graph(n)
            assert g.edge_count == n * (n - 1) // 2
            assert g.is_connected()

    def test_complete_bipartite(self):
        g = complete_bipartite(2, 3)
        assert g.n == 5
        assert g.edge_count == 6
        assert g.degrees() == (3, 3, 2, 2, 2)

    def test_union_and_join_counts(self):
        rng = random.Random(7)
        for _ in range(50):
            n1, n2 = rng.randint(0, 6), rng.randint(0, 6)
            g = random_graph(n1, 0.5, rng)
            h = random_graph(n2, 0.5, rng)
            u = disjoint_union(g, h)
            j = join(g, h)
            assert u.n == j.n == n1 + n2
            assert u.edge_count == g.edge_count + h.edge_count
            assert j.edge_count == g.edge_count + h.edge_count + n1 * n2

    def test_join_adjacency_structure(self):
        j = join(empty_graph(2), complete_graph(3))
        # the two left vertices see the whole right side and not each other
        assert not j.has_edge(0, 1)
        assert all(j.has_edge(0, v) for v in (2, 3, 4))
        assert j.has_edge(2, 3) and j.has_edge(3, 4) and j.has_edge(2, 4)

    def test_delete_vertices_recount(self):
        rng = random.Random(11)
        for _ in range(100):
            n = rng.randint(1, 9)
            g = random_graph(n, 0.5, rng)
            kill = [v for v in range(n) if rng.random() < 0.4]
            h = g.delete_vertices(kill)
            killed = set(kill)
            expect = sum(1 for u, v in g.edges() if u not in killed and v not in killed)
            assert h.n == n - len(killed)
            assert h.edge_count == expect

    def test_delete_vertices_matches_relabelling(self):
        # the row compaction must equal relabelling the survivors through
        # a dict, on every graph with n <= 5 and every deletion set, and on
        # random larger graphs with random deletion sets
        def relabelled(g, kill):
            killed = set(kill)
            keep = [v for v in range(g.n) if v not in killed]
            index = {v: i for i, v in enumerate(keep)}
            return Graph.from_edges(
                len(keep),
                [(index[u], index[v]) for u, v in g.edges() if u in index and v in index],
            )

        cases = [
            (g, kill)
            for n in range(6)
            for g in enumerate_graphs(n)
            for size in range(n + 1)
            for kill in itertools.combinations(range(n), size)
        ]
        rng = random.Random(5)
        for _ in range(300):
            n = rng.randint(6, 16)
            cases.append((random_graph(n, rng.random(), rng), rng.sample(range(n), rng.randint(0, n))))
        for g, kill in cases:
            assert g.delete_vertices(kill) == relabelled(g, kill)

    def test_delete_vertices_labels_compact(self):
        g = path_graph(5)
        h = g.delete_vertices([2])
        # surviving labels 0,1,3,4 -> 0,1,2,3; edges 01 and 34 -> 01 and 23
        assert sorted(h.edges()) == [(0, 1), (2, 3)]

    def test_connectivity(self):
        assert path_graph(1).is_connected()
        assert path_graph(6).is_connected()
        assert cycle_graph(5).is_connected()
        assert not disjoint_union(complete_graph(2), complete_graph(3)).is_connected()
        assert not Graph.from_edges(3, []).is_connected()
        with pytest.raises(ValueError):
            empty_graph(0).is_connected()

    def test_component_within_allowed_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(17)
        for _ in range(300):
            n = rng.randint(1, 10)
            g = random_graph(n, rng.uniform(0.1, 0.7), rng)
            allowed = rng.getrandbits(n) | 1 << rng.randrange(n)
            seed = rng.choice(list(bits(allowed)))
            induced = nx.Graph(g.edges()).subgraph(bits(allowed)).copy()
            induced.add_nodes_from(bits(allowed))
            expected = sum(1 << v for v in nx.node_connected_component(induced, seed))
            assert component(g.adj, 1 << seed, allowed) == expected, (g.adj, allowed, seed)

    def test_edit_ops(self):
        g = path_graph(3)
        g2 = g.with_edge(0, 2)
        assert g2 == cycle_graph(3)
        assert g2.without_edge(0, 2) == g
        with pytest.raises(ValueError):
            g.with_edge(0, 1)
        with pytest.raises(ValueError):
            g.without_edge(0, 2)
        # a negative label would index from the end, and n is one past it
        for u, v in [(-1, 0), (0, -1), (3, 0), (0, 3), (1, 1)]:
            with pytest.raises(ValueError, match=r"bad edge .* for n=3"):
                g2.without_edge(u, v)
            with pytest.raises(ValueError, match=r"bad edge .* for n=3"):
                g2.with_edge(u, v)

    def test_equality_and_hash(self):
        g = cycle_graph(4)
        h = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert g == h and hash(g) == hash(h)
        assert g != path_graph(4)

    def test_from_masks_validation(self):
        with pytest.raises(ValueError):
            Graph.from_masks([0b10, 0b00])  # asymmetric
        with pytest.raises(ValueError):
            Graph.from_masks([0b01])  # loop
        g = Graph.from_masks([0b10, 0b01])
        assert g == complete_graph(2)


class TestGraph6:
    def test_known_strings(self):
        # hand-encoded: single vertex, K_4, K_{1,3} (center 0)
        assert to_graph6(empty_graph(1)) == "@"
        assert to_graph6(complete_graph(4)) == "C~"
        assert to_graph6(Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])) == "Cs"
        assert parse_graph6("@") == empty_graph(1)
        assert parse_graph6("C~") == complete_graph(4)

    def test_round_trip_exhaustive_small(self):
        for n in range(0, 6):
            for g in enumerate_graphs(n):
                assert parse_graph6(to_graph6(g)) == g

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_round_trip_random(self, data):
        n = data.draw(st.integers(min_value=0, max_value=20))
        slots = [(u, v) for u in range(n) for v in range(u + 1, n)]
        picks = data.draw(st.sets(st.sampled_from(slots))) if slots else set()
        g = Graph.from_edges(n, sorted(picks))
        assert parse_graph6(to_graph6(g)) == g

    def test_size_62_boundary(self):
        g = complete_graph(62)
        assert parse_graph6(to_graph6(g)) == g
        with pytest.raises(ValueError):
            to_graph6(empty_graph(63))

    def test_malformed_inputs(self):
        with pytest.raises(ValueError):
            parse_graph6("")
        with pytest.raises(ValueError):
            parse_graph6("C~~")  # body too long for n=4
        with pytest.raises(ValueError):
            parse_graph6("C")  # body too short
        with pytest.raises(ValueError):
            parse_graph6("C\x1f")  # character below range


class TestEdgeList:
    def test_round_trip(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
        assert parse_edge_list(to_edge_list(g)) == g

    def test_comments_and_blanks(self):
        text = "# a pentagon\n5\n0 1\n\n1 2\n2 3\n3 4\n# close it\n4 0\n"
        assert parse_edge_list(text) == cycle_graph(5)

    def test_errors(self):
        with pytest.raises(ValueError):
            parse_edge_list("")
        with pytest.raises(ValueError):
            parse_edge_list("x\n0 1\n")
        with pytest.raises(ValueError):
            parse_edge_list("3\n0 1 2\n")
        with pytest.raises(ValueError):
            parse_edge_list("3\n0 1\n0 1\n")
        with pytest.raises(ValueError):
            parse_edge_list("3\n0 5\n")


class TestDot:
    def test_dot_contains_edges(self):
        s = to_dot(path_graph(3))
        assert "graph G {" in s
        assert "0 -- 1;" in s and "1 -- 2;" in s


class TestEnumeration:
    def test_counts_all(self):
        assert sum(1 for _ in enumerate_graphs(0)) == 1
        assert sum(1 for _ in enumerate_graphs(1)) == 1
        assert sum(1 for _ in enumerate_graphs(2)) == 2
        assert sum(1 for _ in enumerate_graphs(3)) == 8
        assert sum(1 for _ in enumerate_graphs(4)) == 64
        assert sum(1 for _ in enumerate_graphs(5)) == 1024

    def test_connected_count_n4(self):
        # 38 connected labeled graphs on 4 vertices: computed independently by
        # inclusion-exclusion over the number of labeled connected graphs
        # (sequence 1, 1, 1, 4, 38, 728, 26704, ...)
        assert sum(1 for _ in enumerate_graphs(4, connected_only=True)) == 38
        assert sum(1 for _ in enumerate_graphs(3, connected_only=True)) == 4

    def test_cap(self):
        with pytest.raises(ValueError):
            next(enumerate_graphs(9))

    def test_deterministic_order(self):
        first = list(enumerate_graphs(3))[:4]
        # edge-subset integer ascending over slots (0,1),(0,2),(1,2)
        assert first[0] == empty_graph(3)
        assert first[1] == Graph.from_edges(3, [(0, 1)])
        assert first[2] == Graph.from_edges(3, [(0, 2)])
        assert first[3] == Graph.from_edges(3, [(0, 1), (0, 2)])


# -- counterexample serialization ------------------------------------------------


def test_serialize_round_trip_both_formats():
    g = cycle_graph(7)
    assert deserialize_graph(serialize_graph(g)) == g
    big = complete_graph(70)  # beyond the graph6 cap, falls back to edge-list text
    d = serialize_graph(big)
    assert d["format"] == "edge-list"
    assert deserialize_graph(d) == big


# -- isomorphism helper -------------------------------------------------------------


def test_isomorphic_basic():
    assert isomorphic(cycle_graph(5), cycle_graph(5))
    assert not isomorphic(cycle_graph(6), path_graph(6))
    assert not isomorphic(cycle_graph(5), cycle_graph(6))
    # C_6 plus its three long diagonals is K_{3,3} under the even/odd split
    hexagon = cycle_graph(6).with_edge(0, 3).with_edge(1, 4).with_edge(2, 5)
    assert isomorphic(hexagon, complete_bipartite(3, 3))


def test_isomorphic_relabeled_family_member():
    fp = ExtremalParams(2, 3, 0, 11)
    g = extremal_graph(fp)
    # swap two labels by rebuilding from a permuted edge list
    perm = list(range(g.n))
    perm[0], perm[g.n - 1] = perm[g.n - 1], perm[0]
    h = Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    assert isomorphic(g, h)
    assert not isomorphic(g, g.with_edge(fp.t1, fp.t1 + 1))


def test_isomorphic_same_degree_sequence_nonisomorphic():
    # two 3-regular graphs on 6 vertices: K_{3,3} is triangle-free, the
    # prism is not, and refinement plus backtracking must separate them
    prism = Graph.from_edges(
        6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)]
    )
    assert not isomorphic(prism, complete_bipartite(3, 3))


def test_isomorphic_leaves_no_garbage():
    # both searches reach backtracking (each side refines to one class);
    # the search keeps an explicit stack, so it leaves no reference cycle
    prism = Graph.from_edges(
        6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)]
    )
    relabeled = Graph.from_edges(6, [((u + 2) % 6, (v + 2) % 6) for u, v in prism.edges()])
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        assert isomorphic(prism, relabeled)
        assert not isomorphic(prism, complete_bipartite(3, 3))
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_isomorphic_matches_networkx_on_random_pairs():
    nx = pytest.importorskip("networkx")
    rng = random.Random(71)
    for _ in range(300):
        n = rng.randint(1, 8)
        p = rng.choice([0.3, 0.5, 0.7])
        g = Graph.from_edges(n, [(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < p])
        if rng.random() < 0.5:
            perm = list(range(n))
            rng.shuffle(perm)
            h = Graph.from_edges(n, [(perm[u], perm[v]) for u, v in g.edges()])
        else:
            h = Graph.from_edges(n, [(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < p])
        want = nx.is_isomorphic(_nx(nx, g), _nx(nx, h))
        assert isomorphic(g, h) == want


def _nx(nx, g: Graph):
    out = nx.Graph()
    out.add_nodes_from(range(g.n))
    out.add_edges_from(g.edges())
    return out
