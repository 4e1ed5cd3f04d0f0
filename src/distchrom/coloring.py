"""Colorings, proper/distinguishing verification, exact chi and chi_D search.

A coloring stores one color id per vertex, 1-based and contiguous: every id
in 1..k occurs.  Distinguishing checks delegate to the partition-backtrack
search seeded with the color classes, so the full automorphism group is never
enumerated, and the search stops at the first nontrivial class-preserving
automorphism: a refutation needs one witness, not the whole subgroup.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Iterator

from .algebra import InvalidParameters
from .graphcore import Graph, SearchTimeout, _first_automorphism, _is_automorphism, _is_int, _line_ints
from .permgroup import Perm

__all__ = [
    "ChiDResult",
    "Coloring",
    "Infeasible",
    "InvalidParameters",
    "chromatic_number",
    "distinguishing_chromatic_number",
    "enumerate_proper_colorings",
    "gs_plus_one_coloring",
    "is_distinguishing",
    "is_proper",
    "krs_plus_one_coloring",
    "lg1_explicit_coloring",
    "random_proper_coloring",
    "split_color_class",
]


# Step limit of the exact clique and chromatic searches.
SEARCH_BUDGET = 10**7
# Greedy restarts before random_proper_coloring gives up.
MAX_ATTEMPTS = 10**4


class Infeasible(RuntimeError):
    pass


@dataclass(frozen=True)
class Coloring:
    """Vertex -> color map, colors 1..k with every color used."""

    colors: tuple[int, ...]
    k: int

    def __post_init__(self):
        used = set(self.colors)
        if used != set(range(1, self.k + 1)):
            raise ValueError(f"colors must be exactly 1..{self.k}, got {sorted(used)}")

    @staticmethod
    def from_sequence(colors) -> "Coloring":
        """Build a coloring, renumbering ids so they are contiguous from 1."""
        colors = list(colors)
        order: dict[int, int] = {}
        for c in colors:
            if c not in order:
                order[c] = 0
        for rank, c in enumerate(sorted(order), start=1):
            order[c] = rank
        normalized = tuple(order[c] for c in colors)
        return Coloring(colors=normalized, k=len(order))

    @staticmethod
    def from_classes(n: int, classes) -> "Coloring":
        classes = [list(cls) for cls in classes]
        colors = [0] * n
        for idx, cls in enumerate(classes, start=1):
            for v in cls:
                colors[v] = idx
        if any(c == 0 for c in colors):
            raise ValueError("classes must cover every vertex")
        return Coloring(colors=tuple(colors), k=len(classes))

    def classes(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.k)]
        for v, c in enumerate(self.colors):
            out[c - 1].append(v)
        return out

    def to_text(self) -> str:
        return "\n".join(f"{v} {c}" for v, c in enumerate(self.colors)) + "\n"

    def to_json(self) -> str:
        import json

        return json.dumps({"k": self.k, "colors": list(self.colors)}, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "Coloring":
        import json

        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ValueError("coloring JSON must be an object")
        k, colors = payload.get("k"), payload.get("colors")
        if not _is_int(k):
            raise ValueError(f"coloring JSON 'k' must be an integer, got {k!r}")
        if not (isinstance(colors, list) and all(map(_is_int, colors))):
            raise ValueError("coloring JSON 'colors' must be a list of integers")
        return Coloring(colors=tuple(colors), k=k)

    @staticmethod
    def from_text(text: str) -> "Coloring":
        pairs = []
        for no, ln in enumerate(text.splitlines(), 1):
            if not ln.strip() or ln.startswith("#"):
                continue
            pairs.append(tuple(_line_ints(no, ln, ln.split(), 2, "a vertex and its color 'v c'")))
        pairs.sort()
        if [v for v, _ in pairs] != list(range(len(pairs))):
            raise ValueError("coloring file must list every vertex exactly once")
        return Coloring.from_sequence([c for _, c in pairs])


def is_proper(g: Graph, c: Coloring) -> bool:
    if len(c.colors) != g.n:
        raise InvalidParameters("coloring does not cover the vertex set")
    return all(c.colors[u] != c.colors[v] for u, v in g.edges())


def is_distinguishing(g: Graph, c: Coloring) -> tuple[bool, Perm | None]:
    """Whether no nontrivial automorphism fixes every color class.

    Returns (True, None) or (False, witness) where the witness is a
    nontrivial class-preserving automorphism.  The search stops at the first
    such automorphism, which is the first generator of
    ``color_preserving_automorphisms(g, c)``; the witness is checked here
    before it is returned.
    """
    witness = _first_automorphism(g, c.classes())
    if witness is None:
        return True, None
    if all(i == v for i, v in enumerate(witness)):
        raise RuntimeError("search returned the identity as a witness")
    if not _is_automorphism(g.adj, witness):
        raise RuntimeError(f"search returned a non-automorphism: {witness}")
    if any(c.colors[w] != cv for w, cv in zip(witness, c.colors)):
        raise RuntimeError(f"witness moves a vertex out of its color class: {witness}")
    return False, witness


def _greedy_bound(g: Graph) -> int:
    """Upper bound by saturation-guided greedy coloring."""
    n = g.n
    colors = [0] * n
    saturation = [set() for _ in range(n)]
    uncolored = set(range(n))
    best = 0
    while uncolored:
        v = max(uncolored, key=lambda x: (len(saturation[x]), g.degree(x), -x))
        used = saturation[v]
        c = 1
        while c in used:
            c += 1
        colors[v] = c
        best = max(best, c)
        uncolored.discard(v)
        for u in g.neighbors(v):
            saturation[u].add(c)
    return best


def max_clique(g: Graph) -> list[int]:
    """Exact maximum clique by branch and bound on candidate bitmasks."""
    best: list[int] = []
    steps = [SEARCH_BUDGET]

    def grow(clique: list[int], candidates: int):
        nonlocal best
        steps[0] -= 1
        if steps[0] < 0:
            raise SearchTimeout("max_clique budget exhausted")
        if len(clique) + candidates.bit_count() <= len(best):
            return
        if candidates == 0:
            if len(clique) > len(best):
                best = list(clique)
            return
        w = candidates
        while w:
            v = (w & -w).bit_length() - 1
            w &= w - 1
            if len(clique) + 1 + w.bit_count() <= len(best):
                return
            clique.append(v)
            grow(clique, candidates & g.adj[v] & ~((1 << (v + 1)) - 1))
            clique.pop()

    grow([], (1 << g.n) - 1)
    return best


def max_independent_set(g: Graph) -> list[int]:
    comp = Graph(
        n=g.n,
        adj=tuple((~g.adj[v]) & ((1 << g.n) - 1) & ~(1 << v) for v in range(g.n)),
    )
    return max_clique(comp)


def _exists_coloring(g: Graph, k: int) -> bool:
    """Whether a proper k-coloring exists; dynamic saturation-ordered search."""
    n = g.n
    if n == 0:
        return True
    colors = [0] * n
    adj = g.adj
    steps = [SEARCH_BUDGET]

    def pick() -> int:
        best_v, best_key = -1, None
        for v in range(n):
            if colors[v]:
                continue
            used = set()
            w = adj[v]
            while w:
                u = (w & -w).bit_length() - 1
                if colors[u]:
                    used.add(colors[u])
                w &= w - 1
            key = (-len(used), -adj[v].bit_count(), v)
            if best_key is None or key < best_key:
                best_v, best_key = v, key
        return best_v

    def solve(used_count: int) -> bool:
        steps[0] -= 1
        if steps[0] < 0:
            raise SearchTimeout("coloring search budget exhausted")
        v = pick()
        if v < 0:
            return True
        forbidden = set()
        w = adj[v]
        while w:
            u = (w & -w).bit_length() - 1
            if colors[u]:
                forbidden.add(colors[u])
            w &= w - 1
        limit = min(k, used_count + 1)
        for c in range(1, limit + 1):
            if c in forbidden:
                continue
            colors[v] = c
            if solve(max(used_count, c)):
                return True
            colors[v] = 0
        return False

    return solve(0)


def chromatic_number(g: Graph) -> int:
    """Exact chromatic number via clique / independence lower bounds plus search."""
    if g.n == 0:
        return 0
    if g.m == 0:
        return 1
    from .graphcore import is_bipartite

    if is_bipartite(g):
        return 2
    lower = len(max_clique(g))
    alpha = len(max_independent_set(g))
    lower = max(lower, -(-g.n // alpha))
    upper = _greedy_bound(g)
    k = lower
    while k < upper:
        if _exists_coloring(g, k):
            return k
        k += 1
    return upper


def enumerate_proper_colorings(g: Graph, k: int) -> Iterator[Coloring]:
    """Stream proper k-colorings up to color permutation, in canonical vertex order.

    Yields one representative per class partition: a fresh color may only be
    opened in order, so colors are numbered by first occurrence.
    """
    if k < 0:
        raise InvalidParameters("need k >= 0")
    return _colorings(g, k)


def _colorings(g: Graph, k: int) -> Iterator[Coloring]:
    """Depth-first search over vertices 0..n-1 with forward checking.

    Every vertex keeps a bitmask domain of the colors its colored neighbours
    leave open.  Coloring v with c clears bit c from the domains of v's later
    neighbours, and the branch is cut as soon as one of them runs empty; the
    domains are restored on backtrack.  Colors are tried in ascending order,
    and a branch is also cut when too few vertices remain to open the missing
    colors.  Only subtrees without a completion are cut, so the colorings
    come out in the order of the plain search that checks each vertex
    against its earlier neighbours.
    """
    n = g.n
    if n == 0:
        if k == 0:
            yield Coloring(colors=(), k=0)
        return
    later = [[u for u in g.neighbors(v) if u > v] for v in range(n)]
    domain = [((1 << k) - 1) << 1] * n
    colors = [0] * n
    cand = [0] * n  # colors not yet tried at each depth
    opened = [0] * n  # colors in use before each depth
    cleared = [()] * n  # later neighbours whose domains lost colors[v]
    cand[0] = domain[0] & ((2 << min(k, 1)) - 2)
    v = 0
    while v >= 0:
        for u in cleared[v]:
            domain[u] |= 1 << colors[v]
        cleared[v] = ()
        m = cand[v]
        if not m:
            v -= 1
            continue
        bit = m & -m
        cand[v] = m ^ bit
        c = bit.bit_length() - 1
        used = max(opened[v], c)
        if k - used > n - v - 1:
            continue
        hit = []
        for u in later[v]:
            d = domain[u]
            if d & bit:
                domain[u] = d ^ bit
                hit.append(u)
                if d == bit:
                    break
        else:
            colors[v] = c
            cleared[v] = hit
            if v + 1 == n:
                yield Coloring(colors=tuple(colors), k=k)
            else:
                v += 1
                opened[v] = used
                cand[v] = domain[v] & ((2 << min(k, used + 1)) - 2)
            continue
        for u in hit:
            domain[u] |= bit


@dataclass
class ChiDResult:
    """Exact distinguishing chromatic number with certificates.

    ``value`` is None when the search budget ran out (Unknown).  For each
    color count below the answer, ``lower_bound_certificates[k]`` records that
    enumeration was exhaustive together with one nontrivial class-preserving
    witness per enumerated coloring.
    """

    value: int | None
    witness: Coloring | None
    lower_bound_certificates: dict[int, dict]


def distinguishing_chromatic_number(
    g: Graph, max_k: int | None = None, budget: int = 10**6
) -> ChiDResult:
    """Smallest k with a proper distinguishing k-coloring, by exhaustive sweep.

    ``budget`` caps the colorings examined and must be at least 1.
    """
    if not budget >= 1:
        raise InvalidParameters(f"coloring budget must be at least 1, got {budget}")
    chi = chromatic_number(g)
    if max_k is None:
        max_k = g.n
    certificates: dict[int, dict] = {}
    examined = 0
    for k in range(chi, max_k + 1):
        witnesses: list[tuple[Coloring, Perm]] = []
        for c in enumerate_proper_colorings(g, k):
            examined += 1
            if examined > budget:
                return ChiDResult(value=None, witness=None, lower_bound_certificates=certificates)
            ok, wit = is_distinguishing(g, c)
            if ok:
                return ChiDResult(value=k, witness=c, lower_bound_certificates=certificates)
            witnesses.append((c, wit))
        certificates[k] = {"mode": "exhaustive", "count": len(witnesses), "witnesses": witnesses}
    return ChiDResult(value=None, witness=None, lower_bound_certificates=certificates)


# Bytes of neighbour words random_proper_coloring keeps for one call; past
# this a dense graph with many colors spreads each word when it is used.
_WORD_BYTES = 1 << 24


def random_proper_coloring(g: Graph, k: int, seed: int) -> Coloring:
    """Greedy proper coloring in a random vertex order with random feasible colors.

    Each vertex draws uniformly from the ascending colors whose class has no
    neighbour of it.  Restarts with a fresh order on dead ends, up to
    MAX_ATTEMPTS times.

    A restart keeps one integer ``blocked`` with a field of ceil(k/8) bytes
    per vertex: bit c-1 of v's field is set once a neighbour of v has color
    c.  Coloring v with c ors in v's neighbour word, one bit per neighbour
    stored from v's lowest neighbour up, so a graph of small bandwidth costs
    O(n*k) bits; the words are built once per call unless they would pass
    _WORD_BYTES.  v's feasible colors are read off its field 8 colors at a
    time from cached tables.

    The order and the colors are drawn the way CPython's ``rng.shuffle(order)``
    and ``rng.choice(feasible)`` draw them, written inline: an index below m
    takes ``getrandbits(m.bit_length())`` until the draw is below m.  The same
    words are consumed in the same order, so a seed draws the same coloring
    without the methods' Python frames.
    """
    if k < 0:
        raise InvalidParameters("need k >= 0")
    rng = random.Random(seed)
    n = g.n
    adj = g.adj
    step = max(1, -(-k // 8))  # bytes per field; k = 0 keeps one empty byte
    plan = []  # per vertex: field offset, word offset - 1
    size = 0  # bytes of all neighbour words
    for v, a in enumerate(adj):
        lo = max(0, (a & -a).bit_length() - 1)  # v's lowest neighbour
        plan.append((8 * step * v, 8 * step * lo - 1))
        size += (a.bit_length() - lo or 1) * step
    words = [_spread(a, step) for a in adj] if size <= _WORD_BYTES else None
    field = (1 << 8 * step) - 1
    (first, _), *rest = [(_free_colors(o, min(8, k - o)), o) for o in range(0, 8 * step, 8)]
    vertices = list(range(n))
    swaps = [(i, (i + 1).bit_length()) for i in range(n - 1, 0, -1)]
    getrandbits = rng.getrandbits
    for _ in range(MAX_ATTEMPTS):
        order = vertices[:]
        for i, bits in swaps:
            j = getrandbits(bits)
            while j > i:
                j = getrandbits(bits)
            order[i], order[j] = order[j], order[i]
        colors = [0] * n
        blocked = 0
        for v in order:
            at, shift = plan[v]
            f = blocked >> at & field
            feasible = first[f & 255]
            for table, o in rest:
                feasible += table[f >> o & 255]
            if not feasible:
                break
            m = len(feasible)
            bits = m.bit_length()
            r = getrandbits(bits)
            while r >= m:
                r = getrandbits(bits)
            c = feasible[r]
            colors[v] = c
            blocked |= (words[v] if words else _spread(adj[v], step)) << shift + c
        else:
            return Coloring.from_sequence(colors)
    raise Infeasible(f"no proper {k}-coloring found in {MAX_ATTEMPTS} attempts")


# binary digits "0" and "1" to the bytes 0 and 1
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def _spread(a: int, step: int) -> int:
    """The bits of mask ``a`` from its lowest set bit up, one per ``step``-byte field."""
    a >>= max(0, (a & -a).bit_length() - 1)
    word = bytearray((a.bit_length() or 1) * step)
    word[::step] = bin(a)[:1:-1].encode().translate(_BIT_BYTES)
    return int.from_bytes(word, "little")


# 4,096 tables hold every chunk up to k = 3,640 in about 10 MB
@functools.lru_cache(maxsize=4096)
def _free_colors(offset: int, width: int) -> tuple[tuple[int, ...], ...]:
    """Colors offset+1..offset+width left open by each blocked-bit pattern, ascending.

    Built from the table one color narrower: a pattern without the top bit
    also leaves color offset+width open, and one with it leaves what the
    rest of the pattern leaves.
    """
    if width == 0:
        return ((),)
    narrower = _free_colors(offset, width - 1)
    top = (offset + width,)
    return tuple(free + top for free in narrower) + narrower


def split_color_class(c: Coloring, class_id: int, t: int, seed: int) -> Coloring:
    """Reassign one class i.i.d. uniformly over t fresh colors; others untouched.

    Proper in, proper out: the split class was independent.  With t=1 every
    pick is the class itself, so the coloring comes back unchanged.
    """
    if t < 1:
        raise InvalidParameters("need t >= 1")
    if not 1 <= class_id <= c.k:
        raise InvalidParameters(f"class id {class_id} out of range")
    rng = random.Random(seed)
    colors = list(c.colors)
    for v in range(len(colors)):
        if colors[v] == class_id:
            pick = rng.randrange(t)
            colors[v] = class_id if pick == 0 else c.k + pick
    return Coloring.from_sequence(colors)


def lg1_explicit_coloring(k: int, n: int) -> Coloring:
    """The rigid-edge-set three-coloring of the subset-containment graph.

    The distinguished family A of 2-subsets is chosen so that ([n], A) has a
    trivial automorphism group; any class-preserving graph automorphism then
    has to stabilize A and is forced to be the identity.
    """
    from .algebra import binomial
    from .permgroup import colex_ksets

    if k not in (2, 3):
        raise InvalidParameters("explicit colorings exist for k in {2, 3}")
    n0 = 6 if k == 2 else 2 * k + 1
    if n < n0:
        raise InvalidParameters(f"need n >= {n0} for k={k}")
    rigid_edges = {(0, 1), (1, 2), (1, 3), (2, 3)} | {(i, i + 1) for i in range(3, n - 1)}
    if k == 2:
        n_left = binomial(n, 1)
        right = colex_ksets(n, 2)
        colors = [1] * n_left + [2 if s in rigid_edges else 3 for s in right]
    else:
        left = colex_ksets(n, 2)
        n_right = binomial(n, 3)
        colors = [2 if s in rigid_edges else 3 for s in left] + [1] * n_right
    return Coloring.from_sequence(colors)


def gs_plus_one_coloring(q: int, slopes, gamma: int) -> Coloring:
    """Line partition of a non-edge slope with the origin recolored separately."""
    from .families import affine_line_partition

    s = frozenset(int(x) for x in slopes)
    gamma = int(gamma) % q
    if gamma in s or gamma == 1:
        raise InvalidParameters(f"gamma={gamma} must avoid the slope set and 1")
    classes = affine_line_partition(q, gamma)
    colors = [0] * (q * q)
    for idx, cls in enumerate(classes, start=1):
        for v in cls:
            colors[v] = idx
    colors[0] = q + 1  # vertex (0,0)
    return Coloring.from_sequence(colors)


def krs_plus_one_coloring(q: int, r: int, s: int, base3: Coloring) -> Coloring:
    """Fiber coloring with one point-fiber layer split by a base 3-coloring.

    ``base3`` must be a proper 3-coloring of the incidence graph on
    2(q^2+q+1) vertices (points first) in which the line side is a single
    color class and the points are split between the other two.
    """
    from .families import levi_tensor_krs

    graph, meta = levi_tensor_krs(q, r, s)
    n1 = meta.plane_size
    if len(base3.colors) != 2 * n1 or base3.k != 3:
        raise InvalidParameters("base coloring must 3-color the incidence graph")
    line_colors = {base3.colors[n1 + l] for l in range(n1)}
    if len(line_colors) != 1:
        raise InvalidParameters("line side must be monochromatic in the base coloring")
    point_colors = sorted({base3.colors[p] for p in range(n1)})
    if len(point_colors) != 2 or line_colors & set(point_colors):
        raise InvalidParameters("points must use exactly the two non-line colors")
    first_point_color = point_colors[0]
    colors = [0] * meta.n
    for p in range(n1):
        for i in range(r - 1):
            colors[meta.point_vertex(p, i)] = i + 1
        last = r if base3.colors[p] == first_point_color else r + s + 1
        colors[meta.point_vertex(p, r - 1)] = last
    for l in range(n1):
        for j in range(s):
            colors[meta.line_vertex(l, j)] = r + 1 + j
    return Coloring.from_sequence(colors)
