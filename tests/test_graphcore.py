"""Graph type, text/JSON formats, predicates, and the automorphism search."""

import hashlib
import itertools
import os
import random
import subprocess
import sys
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st
from networkx.algorithms.isomorphism import GraphMatcher

from distchrom import graphcore
from distchrom.algebra import InvalidParameters
from distchrom.families import (
    kneser_complement,
    levi_graph,
    levi_order1,
    levi_tensor_krs,
    pgl3_action,
    slope_graph,
    weak_power,
)
from distchrom.graphcore import (
    DEFAULT_NODE_BUDGET,
    AutResult,
    Graph,
    SearchTimeout,
    automorphism_group,
    color_preserving_automorphisms,
    is_automorphism,
    is_bipartite,
    is_connected,
    is_r_thin,
    _Budget,
    _child,
    _mask,
    _refine,
)
from distchrom.coloring import Coloring, enumerate_proper_colorings, is_distinguishing, random_proper_coloring
from distchrom.permgroup import group_order
from distchrom.recipes import DEFAULT_SEED
from distchrom.seeds import derive_seed


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


def test_text_parse_errors_name_the_line():
    # blank and comment lines count, so the number is the line in the file
    with pytest.raises(ValueError, match=r"^line 4: expected an edge 'u v', got '1 2 3'$"):
        Graph.from_text("3 2\n0 1\n\n1 2 3\n")
    with pytest.raises(ValueError, match=r"^line 2: expected an edge 'u v', got 'x 1'$"):
        Graph.from_text("3 1\nx 1\n")
    with pytest.raises(ValueError, match=r"^line 2: expected a header 'n m', got '3 1 0'$"):
        Graph.from_text("\n3 1 0\n0 1\n")
    with pytest.raises(ValueError, match=r"^line 3: expected '#side' and one tag per vertex, got '#side 0 x'$"):
        Graph.from_text("2 1\n0 1\n#side 0 x\n")
    with pytest.raises(ValueError, match=r"^line 2: expected '#label v text', got '#label'$"):
        Graph.from_text("2 0\n#label\n")


@dataclass(frozen=True)
class _EdgeWalkGraph:
    """Test oracle: the graph type with the former per-edge validator."""

    n: int
    adj: tuple[int, ...]
    side: tuple[int, ...] | None = None
    labels: tuple[str, ...] | None = None

    edges = Graph.edges

    def __post_init__(self):
        if len(self.adj) != self.n:
            raise ValueError("adjacency length mismatch")
        for v, mask in enumerate(self.adj):
            if mask >> self.n:
                raise ValueError("adjacency bit out of range")
            if (mask >> v) & 1:
                raise ValueError(f"self-loop at vertex {v}")
            w = mask
            while w:
                u = (w & -w).bit_length() - 1
                if not (self.adj[u] >> v) & 1:
                    raise ValueError(f"asymmetric adjacency between {v} and {u}")
                w &= w - 1
        if self.side is not None:
            if len(self.side) != self.n:
                raise ValueError("side length mismatch")
            for u, v in self.edges():
                if self.side[u] == self.side[v]:
                    raise ValueError(f"edge ({u},{v}) does not cross sides")
        if self.labels is not None and len(self.labels) != self.n:
            raise ValueError("labels length mismatch")


def _verdict(cls, fields):
    try:
        cls(**fields)
    except ValueError as e:
        return type(e), str(e)
    return None


# Sizes at and around the tile widths 8, 64 and 256; 257 takes four tiles.
VALIDATOR_SIZES = [0, 1, 2, 7, 8, 9, 63, 64, 65, 255, 256, 257]
FAULTS = ["high bit", "self-loop", "one-sided edge", "same-side edge", "label count"]


def _planted_graph(n, rng, density_halvings, sided, faults):
    """A random simple graph on n vertices, then the listed faults planted in turn."""
    side = [rng.randrange(2) for _ in range(n)] if sided else None
    adj = [0] * n
    for v in range(n):
        w = rng.getrandbits(n) >> (v + 1) << (v + 1)
        for _ in range(density_halvings):
            w &= rng.getrandbits(n)
        if side is not None:
            w &= sum(1 << u for u in range(n) if side[u] != side[v])
        adj[v] |= w
        while w:
            u = (w & -w).bit_length() - 1
            adj[u] |= 1 << v
            w &= w - 1
    labels = None
    for fault in faults:
        if n == 0:
            break
        v = rng.randrange(n)
        if fault == "high bit":
            adj[v] |= 1 << (n + rng.randrange(70))
        elif fault == "self-loop":
            adj[v] |= 1 << v
        elif fault == "one-sided edge":
            u = rng.randrange(n)
            if u != v:
                adj[v] ^= 1 << u
        elif fault == "same-side edge":
            side = side or [0] * n
            same = [u for u in range(n) if u != v and side[u] == side[v]]
            if same:
                u = rng.choice(same)
                adj[v] |= 1 << u
                adj[u] |= 1 << v
        elif fault == "label count":
            labels = ("x",) * (n + rng.choice([-1, 1]))
    return {
        "n": n,
        "adj": tuple(adj),
        "side": None if side is None else tuple(side),
        "labels": labels,
    }


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(VALIDATOR_SIZES),
    st.integers(0, 2**32 - 1),
    st.integers(0, 4),
    st.booleans(),
    st.lists(st.sampled_from(FAULTS), max_size=4),
)
def test_validator_matches_the_edge_walk(n, seed, density_halvings, sided, faults):
    fields = _planted_graph(n, random.Random(seed), density_halvings, sided, faults)
    assert _verdict(Graph, fields) == _verdict(_EdgeWalkGraph, fields)


@pytest.mark.parametrize("faults", [[], *([f] for f in FAULTS), FAULTS, FAULTS[::-1]])
def test_validator_matches_the_edge_walk_at_max_vertices(faults):
    n = graphcore.MAX_VERTICES
    fields = _planted_graph(n, random.Random(len(faults)), 6, True, faults)
    assert _verdict(Graph, fields) == _verdict(_EdgeWalkGraph, fields)


def test_validator_names_the_first_fault():
    # (0,3) is one-sided; row 2 also has a bit at n and row 1 a self-loop
    adj = (0b1000, 0b0010, 0b10000, 0b0000)
    with pytest.raises(ValueError, match=r"^asymmetric adjacency between 0 and 3$"):
        Graph(n=4, adj=adj)
    with pytest.raises(ValueError, match=r"^self-loop at vertex 1$"):
        Graph(n=4, adj=(0, 0b0010, 0b10000, 0))
    with pytest.raises(ValueError, match=r"^edge \(1,2\) does not cross sides$"):
        Graph.from_edges(4, [(0, 3), (1, 2), (2, 3)], side=[0, 1, 1, 1])
    # across 256-wide tiles: row 5 has one-sided bits in tiles (0,2) and (0,1)
    adj = [0] * 600
    adj[5] = 1 << 590 | 1 << 300
    adj[7] = 1 << 3
    with pytest.raises(ValueError, match=r"^asymmetric adjacency between 5 and 300$"):
        Graph(n=600, adj=tuple(adj))


def test_validator_memory_does_not_grow_with_the_graph():
    # 5,050 vertices: one packed 8192 x 8192 matrix would take 8 MB per integer
    g = levi_order1(2, 100)
    tracemalloc.start()
    try:
        Graph(n=g.n, adj=g.adj, side=g.side, labels=g.labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


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


@pytest.mark.parametrize(
    "steps,secs",
    [(0, None), (-5, None), (10, 0), (10, -1.0), (10, float("nan")), (10, float("-inf"))],
)
def test_budget_arguments_are_validated(steps, secs):
    # a NaN deadline would pass every wall-clock test and so turn the limit off
    with pytest.raises(InvalidParameters, match="budget"):
        automorphism_group(complete_graph(3), budget_steps=steps, budget_secs=secs)


def test_searches_deeper_than_the_recursion_limit():
    # individualizing a vertex of a 2,000-vertex matching leaves 999 edges to
    # go, so the search passes Python's default recursion limit of 1,000; it
    # must end in the step budget, and leave the limit as it found it
    limit = sys.getrecursionlimit()
    matching = Graph.from_edges(2000, [(2 * i, 2 * i + 1) for i in range(1000)])
    with pytest.raises(SearchTimeout, match="refinement-step"):
        automorphism_group(matching, budget_steps=10**7)
    assert sys.getrecursionlimit() == limit


def test_step_budget_stops_the_krs_search():
    # the leaf automorphism checks and the cell scans count as steps, so 10^6
    # steps end this search in well under a second, long before the
    # wall-clock limit that would fire if the steps stopped tracking time
    g, _ = levi_tensor_krs(5, 2, 2)
    with pytest.raises(SearchTimeout, match="refinement-step"):
        automorphism_group(g, budget_steps=10**6, budget_secs=10)


def test_each_refinement_is_charged_its_cell_count(monkeypatch):
    charged = []
    real = graphcore._refine

    def counting(adj, cells, splitters, budget):
        before = budget.remaining
        out = real(adj, cells, splitters, budget)
        charged.append((before - budget.remaining, len(cells)))
        return out

    monkeypatch.setattr(graphcore, "_refine", counting)
    automorphism_group(levi_graph(2))
    automorphism_group(kneser_complement(6, 3))
    assert len(charged) > 100
    assert all(spent >= size for spent, size in charged)


def test_each_target_cell_scan_is_charged_its_cell_count(monkeypatch):
    charged = []
    real = graphcore._target_cell

    def counting(cells, budget):
        before = budget.remaining
        out = real(cells, budget)
        charged.append((before - budget.remaining, len(cells)))
        return out

    monkeypatch.setattr(graphcore, "_target_cell", counting)
    automorphism_group(levi_graph(2))
    automorphism_group(kneser_complement(6, 3))
    assert len(charged) > 50
    assert all(spent == size for spent, size in charged)


@st.composite
def symmetric_graphs(draw):
    # closing random edges under a drawn permutation keeps that permutation an
    # automorphism, so the refined partition is seldom discrete
    n = draw(st.integers(2, 12))
    sigma = draw(st.permutations(range(n)))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = set()
    for (u, v), k in zip(pairs, keep):
        while k and (u, v) not in edges and (v, u) not in edges:
            edges.add((u, v))
            u, v = sigma[u], sigma[v]
    return Graph.from_edges(n, edges)


@settings(max_examples=200, deadline=None)
@given(symmetric_graphs(), st.data())
def test_refining_from_the_individualized_vertex_matches_queueing_every_cell(g, data):
    budget = _Budget(DEFAULT_NODE_BUDGET)
    cells, _ = _refine(g.adj, [tuple(range(g.n))], [_mask(range(g.n))], budget)
    # walk one branch of the search tree down to a discrete partition
    while big := [i for i, c in enumerate(cells) if len(c) > 1]:
        idx = data.draw(st.sampled_from(big))
        v = data.draw(st.sampled_from(cells[idx]))
        rest = tuple(x for x in cells[idx] if x != v)
        individualized = cells[:idx] + [(v,), rest] + cells[idx + 1 :]
        from_v = _child(g.adj, cells, idx, v, budget)
        every_cell = _refine(g.adj, individualized, [_mask(c) for c in individualized], budget)
        assert from_v == every_cell
        cells = from_v[0]


def _refine_queueing_every_part(adj, cells, splitters):
    """Test oracle: equitable refinement that queues every part of each split."""
    cells = list(cells)
    queue = list(splitters)
    for splitter in queue:  # the loop visits the parts appended below
        i = 0
        while i < len(cells):
            buckets: dict[int, list[int]] = {}
            for v in cells[i]:
                buckets.setdefault((adj[v] & splitter).bit_count(), []).append(v)
            parts = [tuple(buckets[k]) for k in sorted(buckets)]
            cells[i : i + 1] = parts
            if len(parts) > 1:
                queue.extend(_mask(part) for part in parts)
            i += len(parts)
    return cells


def _is_equitable(adj, cells) -> bool:
    return all(
        len({(adj[v] & _mask(other)).bit_count() for v in cell}) == 1
        for cell in cells
        for other in cells
    )


@st.composite
def partitioned_graphs(draw):
    # a random graph on up to 24 vertices and an ordered partition into 1-4 cells
    n = draw(st.integers(1, 24))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    colors = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    cells = [tuple(v for v in range(n) if colors[v] == c) for c in sorted(set(colors))]
    return Graph.from_edges(n, [e for e, k in zip(pairs, keep) if k]), cells


@settings(max_examples=300, deadline=None)
@given(st.one_of(partitioned_graphs(), symmetric_graphs().map(lambda g: (g, [tuple(range(g.n))]))), st.data())
def test_refinement_gives_the_cells_of_queueing_every_part(graph_and_cells, data):
    g, cells = graph_and_cells
    budget = _Budget(DEFAULT_NODE_BUDGET)
    refined, _ = _refine(g.adj, cells, [_mask(c) for c in cells], budget)
    expected = _refine_queueing_every_part(g.adj, cells, [_mask(c) for c in cells])
    assert set(refined) == set(expected)
    assert _is_equitable(g.adj, refined)
    # one individualization below the equitable root, refined from {v} alone
    big = [i for i, c in enumerate(refined) if len(c) > 1]
    if not big:
        return
    idx = data.draw(st.sampled_from(big))
    v = data.draw(st.sampled_from(refined[idx]))
    rest = tuple(x for x in refined[idx] if x != v)
    individualized = refined[:idx] + [(v,), rest] + refined[idx + 1 :]
    child, _ = _child(g.adj, refined, idx, v, budget)
    expected = _refine_queueing_every_part(g.adj, individualized, [_mask(c) for c in individualized])
    assert set(child) == set(expected)
    assert _is_equitable(g.adj, child)


def _digest(x) -> str:
    return hashlib.sha256(repr(x).encode()).hexdigest()


# sha256 of repr((order, generators)).  A change to the order in which
# refinement splits cells may pick other generators of the same group; re-pin
# such a digest only as a recorded test change, with the order check below
PINNED_GROUPS = {
    "levi2": (lambda: levi_graph(2), "e4456f74b76b29adb15fc53ff4e5b94cdeb1be20e94eacb30b28afba79fc23c2"),
    "levi3": (lambda: levi_graph(3), "392137f612f360547eb8f7d77e9502052188d78b764a4efbd095fa435663c740"),
    "levi4": (lambda: levi_graph(4), "4cc851976fd25a2f91bc74f60577eedb0b0d75580da97b62a781af173f1fe2a3"),
    "kneser6_3": (lambda: kneser_complement(6, 3), "a70c084f9fe2c38e09b64a4dc9d30a6d04144a8b1f1d48678f9f6fe73aaaa8f5"),
    "gs5": (lambda: slope_graph(5, [1, 2])[0], "471e926da71ae679eb2f5417ff0d9c03f412ef5db85ca71a8dd123fb06e746c4"),
    "gs7": (lambda: slope_graph(7, [1, 2, 4])[0], "58eecbefb94ca17d6a00e1efc24490a9c7f51bbbff98dbbc9d1140c12d4dae93"),
    "weakpower_K3_3": (lambda: weak_power(complete_graph(3), 3), "1b0515b95703010b4317db3e3415a38a74e0bfb7b8fd79440ecbbadd0fefbed7"),
}


@pytest.mark.parametrize("name", PINNED_GROUPS)
def test_search_output_is_pinned(name):
    make, expected = PINNED_GROUPS[name]
    result = automorphism_group(make())
    assert _digest((result.order, result.generators)) == expected
    # Schreier-Sims on the generators checks the order independently of the search
    assert group_order(result.generators) == result.order


def test_distinguishing_verdicts_are_pinned():
    # sha256 of repr() of the (verdict, witness) list, recorded like PINNED_GROUPS
    g, _ = slope_graph(5, [1, 2])
    sweep = [is_distinguishing(g, c) for c in itertools.islice(enumerate_proper_colorings(g, 5), 300)]
    assert sum(ok for ok, _ in sweep) == 264
    assert _digest(sweep) == "33d9ebcd4a9fb06c0e3659b1f8ce4dce04893d0f4428a7cd00bc7c42adedb47e"
    g, _ = levi_tensor_krs(5, 2, 2)
    krs = [
        is_distinguishing(g, random_proper_coloring(g, 4, seed=derive_seed(DEFAULT_SEED, "krs4", i)))
        for i in range(3)
    ]
    assert not any(ok for ok, _ in krs)
    assert _digest(krs) == "c8c085d1aa1f9f64a690e106762d5a0a188dc5e52fd035b98b14a910b13a83b8"
