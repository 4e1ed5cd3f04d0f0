"""Graph type, text/JSON formats, predicates, and the automorphism search."""

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st
from networkx.algorithms.isomorphism import GraphMatcher

from distchrom.families import kneser_complement, levi_graph, pgl3_action, slope_graph, weak_power
from distchrom.graphcore import (
    AutResult,
    Graph,
    SearchTimeout,
    automorphism_group,
    color_preserving_automorphisms,
    is_automorphism,
    is_bipartite,
    is_connected,
    is_r_thin,
)
from distchrom.coloring import Coloring
from distchrom.permgroup import group_order


def complete_graph(n):
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def brute_aut_count(g):
    return sum(1 for p in itertools.permutations(range(g.n)) if is_automorphism(g, p))


def brute_class_preserving_count(g, coloring):
    count = 0
    for p in itertools.permutations(range(g.n)):
        if not is_automorphism(g, p):
            continue
        if all(coloring.colors[p[v]] == coloring.colors[v] for v in range(g.n)):
            count += 1
    return count


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(n=2, adj=(0b10, 0b00))  # asymmetric
    with pytest.raises(ValueError):
        Graph.from_edges(4, [(0, 1), (2, 3)], side=[0, 1, 0, 0])  # same-side edge


def test_edge_list_validation():
    with pytest.raises(ValueError, match="outside"):
        Graph.from_edges(2, [(5, 0)])
    with pytest.raises(ValueError, match="outside"):
        Graph.from_edges(3, [(-1, 2)])
    with pytest.raises(ValueError, match="duplicate"):
        Graph.from_text("2 2\n0 1\n0 1\n")
    with pytest.raises(ValueError, match="duplicate"):
        Graph.from_json('{"n": 3, "edges": [[0, 1], [1, 0]]}')
    with pytest.raises(ValueError, match="label"):
        Graph.from_text("2 0\n#label 5 x\n")
    # the header's vertex count is checked before any adjacency is built
    with pytest.raises(ValueError, match="graph too large: 2001 > 2000"):
        Graph.from_text("2001 0\n")
    with pytest.raises(ValueError, match="graph too large: 2001 > 2000"):
        Graph.from_json('{"n": 2001, "edges": []}')
    with pytest.raises(ValueError, match="graph header: vertex count -1 is negative"):
        Graph.from_text("-1 0\n")
    # constructions may pass repeated edges straight to from_edges
    assert Graph.from_edges(2, [(0, 1), (1, 0)]).m == 1


def test_aut_result_order_check_survives_optimize():
    with pytest.raises(ValueError):
        AutResult(generators=[], order=0)
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "from distchrom.graphcore import AutResult\n"
        "try:\n"
        "    AutResult(generators=[], order=0)\n"
        "except ValueError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code], env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0


def test_text_round_trip():
    g = levi_graph(3)
    text = g.to_text()
    back = Graph.from_text(text)
    assert back.adj == g.adj and back.side == g.side and back.labels == g.labels
    js = g.to_json()
    again = Graph.from_json(js)
    assert again.adj == g.adj and again.side == g.side


def test_text_format_shape():
    g = Graph.from_edges(3, [(1, 2), (0, 2)])
    lines = g.to_text().splitlines()
    assert lines[0] == "3 2"
    assert lines[1:] == ["0 2", "1 2"]


def test_predicates():
    k3 = complete_graph(3)
    assert is_connected(k3) and not is_bipartite(k3) and is_r_thin(k3)
    lg5 = levi_graph(5)
    assert is_connected(lg5) and is_bipartite(lg5)
    two_edges = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert not is_connected(two_edges) and is_bipartite(two_edges)
    k22 = Graph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    assert not is_r_thin(k22)
    assert is_r_thin(weak_power(complete_graph(3), 4))


def test_small_groups():
    assert automorphism_group(complete_graph(4)).order == 24
    c6 = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    assert automorphism_group(c6).order == 12
    assert automorphism_group(Graph.from_edges(1, [])).order == 1


def test_against_brute_force():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randrange(1, 8)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
        g = Graph.from_edges(n, edges)
        assert automorphism_group(g).order == brute_aut_count(g)


@st.composite
def small_graphs(draw):
    # n <= 7: GraphMatcher needs about 0.65 s to list the 5040 maps of K7
    n = draw(st.integers(0, 7))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, [e for e, k in zip(pairs, keep) if k])


@settings(max_examples=100, deadline=None)
@given(small_graphs())
def test_order_matches_networkx_and_schreier_sims(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    expected = sum(1 for _ in GraphMatcher(h, h).isomorphisms_iter())
    result = automorphism_group(g)
    assert result.order == expected
    if result.generators:
        assert group_order(result.generators) == expected


def test_generators_are_automorphisms():
    for g in (levi_graph(2), weak_power(complete_graph(3), 3)):
        result = automorphism_group(g)
        for p in result.generators:
            assert is_automorphism(g, p)


def test_heawood_group():
    lg2 = levi_graph(2)
    result = automorphism_group(lg2)
    assert result.order == 336
    # the point/line-preserving subgroup has index 2 (duality)
    pgl = pgl3_action(2)
    assert len(pgl.elements()) == 168
    for gen in pgl.generators:
        assert is_automorphism(lg2, gen)
    # the found group must reach the line side from a point (duality exists)
    orbit = {0}
    frontier = [0]
    while frontier:
        v = frontier.pop()
        for p in result.generators:
            if p[v] not in orbit:
                orbit.add(p[v])
                frontier.append(p[v])
    assert any(v >= 7 for v in orbit)


def test_relabeling_invariance():
    rng = random.Random(11)
    for g in (levi_graph(2), slope_graph(5, [1, 2])[0]):
        base = automorphism_group(g).order
        for _ in range(10):
            perm = list(range(g.n))
            rng.shuffle(perm)
            relabeled = Graph(n=g.n, adj=g.relabeled(tuple(perm)).adj)
            assert automorphism_group(relabeled).order == base


def test_weak_power_group_order():
    wp = weak_power(complete_graph(3), 4)
    assert automorphism_group(wp).order == 31104


def test_vertex_transitive_orbit_coverage():
    for g in (complete_graph(5), weak_power(complete_graph(3), 2)):
        result = automorphism_group(g)
        orbit = {0}
        frontier = [0]
        while frontier:
            v = frontier.pop()
            for p in result.generators:
                if p[v] not in orbit:
                    orbit.add(p[v])
                    frontier.append(p[v])
        assert orbit == set(range(g.n))


def test_color_preserving_subgroup():
    lg2 = levi_graph(2)
    sides = Coloring.from_sequence([1] * 7 + [2] * 7)
    sub = color_preserving_automorphisms(lg2, sides)
    assert sub.order == 168
    distinct = Coloring.from_sequence(list(range(1, 15)))
    assert color_preserving_automorphisms(lg2, distinct).order == 1
    k22 = Graph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    sides22 = Coloring.from_sequence([1, 1, 2, 2])
    got = color_preserving_automorphisms(k22, sides22)
    assert got.order == 4 == brute_class_preserving_count(k22, sides22)


def test_color_preserving_order_divides_full_order():
    g = kneser_complement(6, 3)
    full = automorphism_group(g).order
    rng = random.Random(3)
    colors = [rng.randrange(1, 4) for _ in range(g.n)]
    c = Coloring.from_sequence(colors)
    sub = color_preserving_automorphisms(g, c)
    assert full % sub.order == 0


def test_search_timeout_is_an_error():
    g = weak_power(complete_graph(3), 4)
    with pytest.raises(SearchTimeout):
        automorphism_group(g, budget_steps=50)
