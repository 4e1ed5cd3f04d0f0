"""Family constructors: plane incidence, subset graphs, products, slope graphs."""

import hashlib
import random
from itertools import combinations

import pytest

from distchrom.algebra import is_prime
from distchrom.families import (
    INFINITY,
    InvalidParameters,
    SlopeGraphMeta,
    _grid_labels,
    affine_line_partition,
    fiber_swap,
    kneser_complement,
    levi_graph,
    levi_order1,
    levi_tensor_krs,
    pg2,
    pgammal3_action,
    pgl3_action,
    scalar_translation_action,
    slope_graph,
    slope_of,
    weak_power,
    weak_product,
)
from distchrom.graphcore import MAX_VERTICES, Graph, automorphism_group, is_automorphism, is_r_thin
from distchrom.permgroup import (
    GroupSpec,
    TooLarge,
    block_images,
    closure,
    group_order,
    induced_action_on_ksets,
    perm_from_cycles,
    wreath_action,
)

SUPPORTED_ORDERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]

# Adjacency lists of the order-3 plane in digit notation: column p -> lines through p.
ORDER3_TABLE = {
    "100": {"001", "011", "012", "010"},
    "110": {"001", "120", "121", "122"},
    "010": {"001", "100", "101", "102"},
    "120": {"001", "110", "111", "112"},
    "112": {"011", "120", "101", "112"},
    "121": {"011", "121", "102", "110"},
    "012": {"011", "122", "100", "111"},
    "122": {"012", "122", "101", "110"},
    "011": {"012", "121", "100", "112"},
    "111": {"012", "120", "102", "111"},
    "101": {"010", "122", "102", "112"},
    "102": {"010", "121", "101", "111"},
    "001": {"010", "120", "100", "110"},
}


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_pg2_axioms(q):
    plane = pg2(q)
    n1 = q * q + q + 1
    assert len(plane.points) == n1 == len(plane.lines)
    for p in range(n1):
        assert plane.incidence[p].bit_count() == q + 1
    for j in range(n1):
        col = sum(1 for p in range(n1) if (plane.incidence[p] >> j) & 1)
        assert col == q + 1
    # two distinct points lie on exactly one common line
    for p in range(n1):
        for p2 in range(p + 1, n1):
            assert (plane.incidence[p] & plane.incidence[p2]).bit_count() == 1


def test_pg2_normalization_order():
    plane = pg2(3)
    assert plane.points[0] == (1, 0, 0)
    assert plane.points[9] == (0, 1, 0)
    assert plane.points[-1] == (0, 0, 1)
    with pytest.raises(InvalidParameters, match="q=6 is not a prime power <= 16"):
        pg2(6)


def test_levi_graph_counts():
    lg2 = levi_graph(2)
    assert lg2.n == 14 and lg2.m == 21
    assert all(lg2.degree(v) == 3 for v in range(14))
    lg5 = levi_graph(5)
    assert lg5.n == 62
    assert all(lg5.degree(v) == 6 for v in range(62))
    assert lg5.side == tuple([0] * 31 + [1] * 31)


def test_levi3_matches_published_adjacency_table():
    lg3 = levi_graph(3)
    plane = pg2(3)
    n1 = plane.size

    def digits(v):
        return "".join(str(c) for c in v)

    point_at = {digits(p): i for i, p in enumerate(plane.points)}
    line_at = {digits(l): n1 + j for j, l in enumerate(plane.lines)}
    for pt, lines in ORDER3_TABLE.items():
        expected = {line_at[l] for l in lines}
        got = set(lg3.neighbors(point_at[pt]))
        assert got == expected, pt


@pytest.mark.parametrize("q,order", [(2, 168), (3, 5616), (4, 60480), (5, 372000)])
def test_pgl_orders(q, order):
    spec = pgl3_action(q)
    assert group_order(spec.generators) == order == q**8 - q**6 - q**5 + q**3


@pytest.mark.parametrize("q", [7, 8, 9])
def test_pgl_orders_larger(q):
    assert group_order(pgl3_action(q).generators) == q**8 - q**6 - q**5 + q**3


@pytest.mark.parametrize("q,n", [(4, 2), (8, 3), (9, 2), (16, 4)])
def test_pgammal_orders(q, n):
    poly = q**8 - q**6 - q**5 + q**3
    assert group_order(pgammal3_action(q).generators) == n * poly


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_pgl_generators_preserve_levi(q):
    g = levi_graph(q)
    n1 = q * q + q + 1
    for gen in pgammal3_action(q).generators:
        assert is_automorphism(g, gen)
        assert all(gen[v] < n1 for v in range(n1))  # sides preserved


# sha256 of repr() of the generator lists below.  It pins the generators, and
# with them the element order that every exact certificate sums over.
GENERATOR_DIGEST = "f3ce04fe55aec963e3454ba998499b6cb93ff179e4c1833857b63e1018399d2c"


def test_generators_are_pinned():
    gens = []
    for q in SUPPORTED_ORDERS:
        gens.append(pgl3_action(q).generators)
        gens.append(pgammal3_action(q).generators)
    for n, k in [(4, 2), (6, 2), (7, 3), (9, 4)]:
        gens.append(induced_action_on_ksets(n, k).generators)
    s3 = GroupSpec(degree=3, generators=[perm_from_cycles(3, [(0, 1)]), perm_from_cycles(3, [(0, 1, 2)])])
    for n in range(2, 5):
        gens.append(wreath_action(s3, n).generators)
    assert hashlib.sha256(repr(gens).encode()).hexdigest() == GENERATOR_DIGEST


def test_block_images_rejects_a_map_that_breaks_blocks():
    plane = pg2(2)
    identity = tuple(range(plane.size))
    assert block_images(plane.incidence, identity) == identity
    # A collineation of the Fano plane fixing five points is the identity, so
    # a point transposition maps some line onto a non-line.
    with pytest.raises(InvalidParameters, match="does not permute the blocks"):
        block_images(plane.incidence, perm_from_cycles(plane.size, [(0, 1)]))
    with pytest.raises(InvalidParameters, match="does not permute the blocks"):
        block_images([0b01, 0b10], (0, 0))  # both blocks map onto the first


def test_levi_order1():
    g = levi_order1(2, 6)
    assert g.n == 21
    assert all(g.degree(v) == 5 for v in range(6))
    assert all(g.degree(v) == 2 for v in range(6, 21))
    big = levi_order1(4, 9)
    assert big.n == 84 + 126
    assert all(big.degree(v) == 9 - 4 + 1 for v in range(84))
    with pytest.raises(InvalidParameters):
        levi_order1(3, 5)
    with pytest.raises(InvalidParameters):
        levi_order1(1, 6)


def test_kneser_complement():
    g = kneser_complement(6, 3)
    assert g.n == 20
    assert all(g.degree(v) == 18 for v in range(20))
    g2 = kneser_complement(7, 3)
    assert g2.n == 35
    assert all(g2.degree(v) == 30 for v in range(35))
    with pytest.raises(InvalidParameters):
        kneser_complement(5, 3)
    with pytest.raises(InvalidParameters):
        kneser_complement(6, 2)


def test_weak_products():
    k2 = Graph.from_edges(2, [(0, 1)])
    p = weak_product(k2, k2)
    assert p.n == 4 and p.m == 2
    assert sorted(p.edges()) == [(0, 3), (1, 2)]
    k3 = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    t = weak_product(k3, k3)
    assert t.n == 9 and all(t.degree(v) == 4 for v in range(9))
    wp = weak_power(k3, 4)
    assert wp.n == 81 and all(wp.degree(v) == 16 for v in range(81))
    assert wp.labels[0] == "t:0,0,0,0" and wp.labels[80] == "t:2,2,2,2"
    with pytest.raises(TooLarge):
        weak_power(k3, 8)


def test_slope_graph_basics():
    g, meta = slope_graph(5, [1, 2])
    assert g.n == 25
    assert all(g.degree(v) == 8 for v in range(25))
    assert slope_of(5, (0, 0), (1, 2)) == 2
    assert g.labels[0] == "v:0,0" and g.labels[7] == "v:1,2"
    assert slope_graph(5, [1, 3])[0].labels is g.labels  # one label tuple per q
    assert slope_of(5, (1, 3), (1, 4)) is INFINITY
    with pytest.raises(InvalidParameters):
        slope_graph(5, [1])
    with pytest.raises(InvalidParameters):
        slope_graph(4, [1])
    with pytest.raises(InvalidParameters):
        slope_graph(7, [1, 2])


def _pair_loop_slope_graph(q: int, slopes) -> tuple[Graph, SlopeGraphMeta]:
    """Test oracle: the former slope_graph, one slope test per pair of grid points."""
    if not (is_prime(q) and q % 2 == 1 and q <= 13):
        raise InvalidParameters(f"q must be an odd prime <= 13, got {q}")
    s = frozenset(int(x) for x in slopes)
    if not all(0 <= x < q for x in s):
        raise InvalidParameters("slopes must lie in the base field")
    if len(s) != (q - 1) // 2:
        raise InvalidParameters(f"need exactly {(q - 1) // 2} slopes, got {len(s)}")
    meta = SlopeGraphMeta(q=q, slopes=s)
    edges = []
    for x1 in range(q):
        for y1 in range(q):
            v1 = meta.vertex(x1, y1)
            for x2 in range(x1 + 1, q):
                inv_dx = pow(x2 - x1, q - 2, q)
                for y2 in range(q):
                    if ((y2 - y1) * inv_dx) % q in s:
                        edges.append((v1, meta.vertex(x2, y2)))
    return Graph.from_edges(q * q, edges, labels=_grid_labels(q)), meta


def _oracle_slope_sets():
    for q in (5, 7):
        yield from ((q, s) for s in combinations(range(q), (q - 1) // 2))
    for q in (11, 13):
        rng = random.Random(f"slope-sets:{q}")
        yield from ((q, sorted(rng.sample(range(q), (q - 1) // 2))) for _ in range(50))


def test_slope_graph_matches_the_pair_loop():
    cases = list(_oracle_slope_sets())
    assert len(cases) == 10 + 35 + 50 + 50
    for q, s in cases:
        (g, meta), (h, ref) = slope_graph(q, s), _pair_loop_slope_graph(q, s)
        assert (g.adj, g.labels, meta) == (h.adj, h.labels, ref), (q, s)


def test_slope_graph_order_cap():
    # one check for both grid constructions: odd primes with q^2 <= MAX_VERTICES
    assert 43 * 43 <= MAX_VERTICES < 47 * 47
    for build in (lambda q: slope_graph(q, range(1, (q + 1) // 2)), scalar_translation_action):
        for q in (2, 9, 15, 47):
            with pytest.raises(InvalidParameters, match=f"odd prime with q\\^2 <= 2000, got {q}"):
                build(q)
    assert scalar_translation_action(43).degree == 43 * 43


def test_slope_graph_past_q13_is_regular():
    q = 23
    s = sorted(random.Random("regular:23").sample(range(q), (q - 1) // 2))
    g, _ = slope_graph(q, s)
    assert g.n == q * q
    assert all(g.degree(v) == (q - 1) * len(s) for v in range(g.n))


def test_slope_graph_q17_contains_the_baseline_group():
    q = 17
    g, _ = slope_graph(q, [1, 2, 4, 6, 7, 11, 12, 16])
    for gen in scalar_translation_action(q).generators:
        assert is_automorphism(g, gen)
    result = automorphism_group(g)
    assert result.order % (q * q * (q - 1)) == 0
    assert group_order(result.generators) == result.order


def test_affine_line_partition():
    for alpha in [0, 1, 2, INFINITY]:
        classes = affine_line_partition(5, alpha)
        assert len(classes) == 5
        assert sorted(v for cls in classes for v in cls) == list(range(25))
    g, meta = slope_graph(5, [1, 2])
    # slope in S: classes are cliques; slope not in S (and not vertical): independent
    for alpha in range(5):
        classes = affine_line_partition(5, alpha)
        for cls in classes:
            pairs = [(u, v) for i, u in enumerate(cls) for v in cls[i + 1 :]]
            if alpha in (1, 2):
                assert all(g.has_edge(u, v) for u, v in pairs)
            else:
                assert not any(g.has_edge(u, v) for u, v in pairs)
    for cls in affine_line_partition(5, INFINITY):
        assert not any(g.has_edge(u, v) for u in cls for v in cls if u < v)


def test_scalar_translation_action():
    spec = scalar_translation_action(5)
    assert len(closure(spec.generators)) == 100
    assert group_order(scalar_translation_action(3).generators) == 18
    ident = tuple(range(25))
    assert ident in {tuple(e) for e in closure(spec.generators)}
    # contained in the symmetry group of every slope graph at q=5
    for s in combinations(range(5), 2):
        g, _ = slope_graph(5, list(s))
        for gen in spec.generators:
            assert is_automorphism(g, gen)


def test_levi_tensor_krs():
    g, meta = levi_tensor_krs(5, 2, 2)
    assert g.n == 124
    assert all(g.degree(v) == 12 for v in range(g.n))
    # fibers: independent, identical neighborhoods, so the graph is not R-thin
    fiber = meta.point_fiber(0)
    assert len(fiber) == 2
    assert not g.has_edge(fiber[0], fiber[1])
    assert g.adj[fiber[0]] == g.adj[fiber[1]]
    assert not is_r_thin(g)
    swap = fiber_swap(meta, "point", 0, 0, 1)
    assert is_automorphism(g, swap)
    lswap = fiber_swap(meta, "line", 3, 0, 1)
    assert is_automorphism(g, lswap)
    with pytest.raises(InvalidParameters):
        fiber_swap(meta, "point", 0, 1, 1)
    with pytest.raises(InvalidParameters):
        levi_tensor_krs(5, 1, 2)
    with pytest.raises(InvalidParameters):
        levi_tensor_krs(4, 2, 2)


def test_krs_matches_tensor_component():
    # the fiber construction is the incidence-side component of the tensor
    # product with a complete bipartite graph: degrees and counts match
    g, meta = levi_tensor_krs(5, 2, 3)
    assert g.n == 31 * (2 + 3)
    for p in range(31):
        for i in range(2):
            assert g.degree(meta.point_vertex(p, i)) == 3 * 6
    for l in range(31):
        for j in range(3):
            assert g.degree(meta.line_vertex(l, j)) == 2 * 6


K3 = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
FAMILY_GRAPHS = {
    "levi2": lambda: levi_graph(2),
    "levi3": lambda: levi_graph(3),
    "levi4": lambda: levi_graph(4),
    "lg1_2_6": lambda: levi_order1(2, 6),
    "lg1_3_7": lambda: levi_order1(3, 7),
    "kneser6_3": lambda: kneser_complement(6, 3),
    "kneser7_3": lambda: kneser_complement(7, 3),
    "weakpower_K3_4": lambda: weak_power(K3, 4),
    "gs5": lambda: slope_graph(5, [1, 2])[0],
    "gs7": lambda: slope_graph(7, [1, 2, 4])[0],
}


@pytest.mark.parametrize("name", FAMILY_GRAPHS)
def test_search_order_matches_schreier_sims(name):
    # the search counts the order from orbit sizes; Schreier-Sims recomputes it
    # from the returned generators alone
    result = automorphism_group(FAMILY_GRAPHS[name]())
    assert group_order(result.generators) == result.order
