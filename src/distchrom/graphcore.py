"""Graph representation and the verification workhorse.

Graphs are immutable, with adjacency stored as one Python int bitmask per
vertex.  Construction validates a graph with word operations: one integer
test per row for range and self-loops, a bit-matrix transpose per nonzero
tile of at most 256 x 256 entries for symmetry (a single tile up to 256
vertices), and one same-side mask per side value.  The automorphism machinery
is a partition-backtrack search: iterated equitable (degree-count) refinement,
which queues every part of a split but the largest (Hopcroft's rule), plus
individualization with orbit pruning.  Below the root each node refines
from its individualized vertex alone, since the parent partition is already
equitable.  The search returns generators together with the exact group
order, computed by orbit-stabilizer recursion, and optionally respects an
initial partition whose cells must be stabilized setwise.  The same search
can instead stop at its first generator, which is all a yes/no question about
the group needs.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .algebra import InvalidParameters
from .permgroup import Perm, inverse

__all__ = [
    "AutResult",
    "Graph",
    "SearchTimeout",
    "automorphism_group",
    "color_preserving_automorphisms",
    "is_bipartite",
    "is_connected",
    "is_r_thin",
]

MAX_VERTICES = 2000
DEFAULT_NODE_BUDGET = 10**8


class SearchTimeout(RuntimeError):
    """The refinement-step budget was exhausted; no partial answer is given."""


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with optional side tags and vertex labels."""

    n: int
    adj: tuple[int, ...]
    side: tuple[int, ...] | None = None
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        n, adj = self.n, self.adj
        if len(adj) != n:
            raise ValueError("adjacency length mismatch")
        # The first row with a bit at or above n or on the diagonal, else n.
        bad = next((v for v, mask in enumerate(adj) if mask >> n or mask >> v & 1), n)
        one_sided = _first_one_sided(adj, n)
        if one_sided is not None and one_sided[0] < bad:
            raise ValueError("asymmetric adjacency between {} and {}".format(*one_sided))
        if bad < n:
            if adj[bad] >> n:
                raise ValueError("adjacency bit out of range")
            raise ValueError(f"self-loop at vertex {bad}")
        if self.side is not None:
            if len(self.side) != n:
                raise ValueError("side length mismatch")
            same: dict = {}
            for v, s in enumerate(self.side):
                same[s] = same.get(s, 0) | 1 << v
            for v, s in enumerate(self.side):
                w = (adj[v] & same[s]) >> (v + 1)
                if w:
                    u = v + (w & -w).bit_length()
                    raise ValueError(f"edge ({v},{u}) does not cross sides")
        if self.labels is not None and len(self.labels) != n:
            raise ValueError("labels length mismatch")

    @staticmethod
    def from_edges(
        n: int,
        edges: Iterable[tuple[int, int]],
        side: Sequence[int] | None = None,
        labels: Sequence[str] | None = None,
    ) -> "Graph":
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) has an endpoint outside 0..{n - 1}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return Graph(
            n=n,
            adj=tuple(adj),
            side=None if side is None else tuple(side),
            labels=None if labels is None else tuple(labels),
        )

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for v in range(self.n):
            w = self.adj[v] >> (v + 1) << (v + 1)
            while w:
                u = (w & -w).bit_length() - 1
                out.append((v, u))
                w &= w - 1
        return out

    @property
    def m(self) -> int:
        return sum(mask.bit_count() for mask in self.adj) // 2

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def neighbors(self, v: int) -> list[int]:
        out = []
        w = self.adj[v]
        while w:
            u = (w & -w).bit_length() - 1
            out.append(u)
            w &= w - 1
        return out

    def relabeled(self, perm: Perm) -> "Graph":
        """Image graph under vertex map v -> perm[v]."""
        adj = [0] * self.n
        for u, v in self.edges():
            adj[perm[u]] |= 1 << perm[v]
            adj[perm[v]] |= 1 << perm[u]
        side = None if self.side is None else tuple(
            self.side[iv] for iv in inverse(perm)
        )
        labels = None if self.labels is None else tuple(
            self.labels[iv] for iv in inverse(perm)
        )
        return Graph(n=self.n, adj=tuple(adj), side=side, labels=labels)

    # Text format: header "n m", one "u v" line per edge with u < v ascending,
    # then optional "#side ..." (n tags) and "#label v text" blocks.
    def to_text(self) -> str:
        lines = [f"{self.n} {self.m}"]
        for u, v in sorted(self.edges()):
            lines.append(f"{u} {v}")
        if self.side is not None:
            lines.append("#side " + " ".join(str(s) for s in self.side))
        if self.labels is not None:
            for v, lab in enumerate(self.labels):
                lines.append(f"#label {v} {lab}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "Graph":
        lines = [(no, ln) for no, ln in enumerate(text.splitlines(), 1) if ln.strip()]
        if not lines:
            raise ValueError("empty graph file")
        no, head = lines[0]
        n, m = _line_ints(no, head, head.split(), 2, "a header 'n m'")
        _check_vertex_count(n)
        edges = []
        side = None
        labels = None
        for no, ln in lines[1:]:
            if ln.startswith("#side"):
                side = tuple(_line_ints(no, ln, ln.split()[1:], None, "'#side' and one tag per vertex"))
            elif ln.startswith("#label"):
                if labels is None:
                    labels = [""] * n
                _, *rest = ln.split(maxsplit=2)
                (v,) = _line_ints(no, ln, rest[:1], 1, "'#label v text'")
                if not 0 <= v < n:
                    raise ValueError(f"label for vertex {v} outside 0..{n - 1}")
                labels[v] = rest[1] if len(rest) > 1 else ""
            elif ln.startswith("#"):
                continue
            else:
                edges.append(tuple(_line_ints(no, ln, ln.split(), 2, "an edge 'u v'")))
        if len(edges) != m:
            raise ValueError(f"expected {m} edges, found {len(edges)}")
        _reject_duplicate_edges(edges)
        return Graph.from_edges(n, edges, side=side, labels=labels)

    def to_json(self) -> str:
        payload = {
            "n": self.n,
            "m": self.m,
            "edges": sorted(self.edges()),
            "side": list(self.side) if self.side is not None else None,
            "labels": list(self.labels) if self.labels is not None else None,
        }
        return json.dumps(payload, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "Graph":
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ValueError("graph JSON must be an object")
        n = payload.get("n")
        if not _is_int(n) or n < 0:
            raise ValueError(f"graph JSON 'n' must be a non-negative integer, got {n!r}")
        _check_vertex_count(n)
        raw_edges = payload.get("edges")
        if not isinstance(raw_edges, list):
            raise ValueError("graph JSON 'edges' must be a list")
        for e in raw_edges:
            if not (isinstance(e, list) and len(e) == 2 and all(map(_is_int, e))):
                raise ValueError(f"graph JSON edge must be a pair of integers, got {e!r}")
        side, labels = payload.get("side"), payload.get("labels")
        if side is not None and not (isinstance(side, list) and all(map(_is_int, side))):
            raise ValueError("graph JSON 'side' must be a list of integers")
        if labels is not None and not (
            isinstance(labels, list) and all(isinstance(x, str) for x in labels)
        ):
            raise ValueError("graph JSON 'labels' must be a list of strings")
        edges = [tuple(e) for e in raw_edges]
        _reject_duplicate_edges(edges)
        return Graph.from_edges(n, edges, side=side, labels=labels)


# The widest tile.  Its eight delta-swap masks take 64 KB and are cached.
_TILE = 256


def _first_one_sided(adj, n: int) -> tuple[int, int] | None:
    """The least (v, u) in row-major order with u in adj[v] but v not in adj[u].

    The matrix is cut into square tiles of a power-of-two width of at most
    _TILE.  Each tile X is packed into one integer, and the tile Y in the
    mirror position is transposed by delta swaps (Warren, *Hacker's Delight*,
    2nd ed., section 7-3), so the lowest set bit of X & ~Y^T names X's first
    one-sided pair.  All-zero tiles are skipped, and the working memory is
    a few tiles however large the graph.  A row with bits at or above n may
    yield a pair (v, u >= n); the caller reports that row's range fault first.
    """
    width = min(_TILE, max(8, 1 << (n - 1).bit_length()))
    blocks = -(-n // width)
    chunk = (1 << width) - 1
    masks = _transpose_masks(width)

    def tile(i: int, j: int) -> int:
        rows = adj[i * width:(i + 1) * width]
        return int.from_bytes(
            b"".join(((row >> j * width) & chunk).to_bytes(width // 8, "little") for row in rows),
            "little",
        )

    for i in range(blocks):
        occupied = 0
        for row in adj[i * width:(i + 1) * width]:
            occupied |= row
        first = None
        for j in range(blocks):
            if not (occupied >> j * width) & chunk:
                continue
            x = tile(i, j)
            t = x if i == j else tile(j, i)
            for shift, mask in masks:
                d = (t ^ (t >> shift)) & mask
                t ^= d | (d << shift)
            d = x & ~t
            if d:
                r, c = divmod((d & -d).bit_length() - 1, width)
                pair = (i * width + r, j * width + c)
                if first is None or pair < first:
                    first = pair
        if first is not None:
            return first
    return None


@lru_cache(maxsize=None)
def _transpose_masks(width: int) -> tuple[tuple[int, int], ...]:
    # One delta swap per power of two j below width: entry (r, c) with bit j
    # clear in r and set in c trades places with (r + j, c - j), which sits
    # j * (width - 1) bits higher.
    row_bytes = width // 8
    out = []
    j = width // 2
    while j:
        columns = (((1 << j) - 1) << j) * (((1 << width) - 1) // ((1 << 2 * j) - 1))
        block = columns.to_bytes(row_bytes, "little") * j + bytes(row_bytes * j)
        out.append((j * (width - 1), int.from_bytes(block * (width // (2 * j)), "little")))
        j //= 2
    return tuple(out)


def _line_ints(no: int, line: str, tokens: list[str], count: int | None, form: str) -> list[int]:
    """``tokens`` of text-file line ``no`` as integers, ``count`` of them unless None.

    Anything else raises ValueError naming the line and the expected ``form``.
    """
    if count is None or len(tokens) == count:
        try:
            return [int(t) for t in tokens]
        except ValueError:
            pass
    raise ValueError(f"line {no}: expected {form}, got {line.strip()!r}")


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _check_vertex_count(n: int) -> None:
    # The file parsers call this on the header, before from_edges allocates
    # n adjacency rows.
    if n < 0:
        raise ValueError(f"graph header: vertex count {n} is negative")
    if n > MAX_VERTICES:
        raise ValueError(f"graph too large: {n} > {MAX_VERTICES}")


def _reject_duplicate_edges(edges: list[tuple[int, int]]) -> None:
    # File formats list each edge once; from_edges itself merges repeats,
    # which constructions such as weak_power rely on.
    seen = set()
    for u, v in edges:
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ValueError(f"duplicate edge ({u},{v})")
        seen.add(key)


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return True
    seen = 1
    frontier = [0]
    while frontier:
        v = frontier.pop()
        w = g.adj[v] & ~seen
        while w:
            u = (w & -w).bit_length() - 1
            seen |= 1 << u
            frontier.append(u)
            w &= w - 1
    return seen.bit_count() == g.n


def is_bipartite(g: Graph) -> bool:
    color = [-1] * g.n
    for start in range(g.n):
        if color[start] != -1:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for u in g.neighbors(v):
                if color[u] == -1:
                    color[u] = 1 - color[v]
                    stack.append(u)
                elif color[u] == color[v]:
                    return False
    return True


def is_r_thin(g: Graph) -> bool:
    """True iff no two distinct vertices have identical neighbor sets."""
    return len(set(g.adj)) == g.n


@dataclass(frozen=True)
class AutResult:
    """Generators and exact order of an automorphism group."""

    generators: list[Perm]
    order: int

    def __post_init__(self):
        if self.order < 1:
            raise ValueError(f"group order must be at least 1, got {self.order}")


class _Budget:
    """Step and wall-clock limit of one search.

    Steps count scanning work: each ``_refine`` call pays one per input cell
    for the scan that finds the non-singleton cells, plus the size of every
    cell it scans against a splitter; each ``_target_cell`` call pays one per
    cell it scans; each ``_find_map`` leaf pays n for its automorphism check.
    """

    __slots__ = ("remaining", "deadline", "tick")

    def __init__(self, steps: int, secs: float | None = None):
        import time

        if not steps >= 1:
            raise InvalidParameters(f"step budget must be at least 1, got {steps}")
        # ``not secs > 0`` also catches NaN, which every deadline test would pass
        if secs is not None and not secs > 0:
            raise InvalidParameters(f"wall-clock budget must be positive seconds, got {secs}")
        self.remaining = steps
        self.deadline = None if secs is None else time.monotonic() + secs
        self.tick = 0

    def spend(self, k: int) -> None:
        self.remaining -= k
        if self.remaining < 0:
            raise SearchTimeout("refinement-step budget exhausted")
        if self.deadline is not None:
            self.tick += 1
            if self.tick >= 256:
                self.tick = 0
                import time

                if time.monotonic() > self.deadline:
                    raise SearchTimeout("wall-clock budget exhausted")


def _refine(adj, cells, splitters, budget):
    """Equitable refinement of an ordered partition.

    ``cells`` is a list of ascending vertex tuples and ``splitters`` the
    initial queue of splitter vertex masks.  Cells are repeatedly split by
    neighbor counts against the queued splitters; subcells are ordered by
    count value, so the procedure is equivariant under relabeling.  Returns
    the refined cell list and a trace of (position, split signature) events
    that two isomorphic configurations reproduce exactly.

    Hopcroft's rule: a split queues every subcell but the first largest one.
    Bare masks suffice; the queue need not know whether the parent cell is in
    it.  Each cell's mask is a sum and difference of masks that are either
    pending or already uniform for every cell.  That holds for the starting
    cells and survives each split, since the counts against the skipped
    subcell are the parent's minus its siblings'.  So once the queue is empty
    every cell is uniform against every cell.  The final cells are those of
    queueing every subcell, the coarsest equitable refinement; their order
    and the trace may differ, and the work falls.

    At the root the caller queues every cell, since the initial partition is
    arbitrary.  Below it, ``_child`` individualizes a vertex v of an
    equitable parent and queues only {v}, the same argument with the rest of
    v's old cell as the skipped part: every parent cell is uniform against
    every other one, so none of them would split anything before {v} does,
    and once {v} has run, the rest of v's old cell is uniform too (its counts
    are the old cell's minus {v}'s).  The cells and the trace are exactly
    those of queueing every cell; only the work shrinks.

    Only non-singleton cells are visited (their positions are maintained
    incrementally) and the scan stops once the partition is discrete.
    """
    cells = list(cells)
    trace = []
    big = [i for i, c in enumerate(cells) if len(c) > 1]
    queue = list(splitters)
    qi = 0
    work = len(cells)  # the scan that builds ``big``
    while qi < len(queue) and big:
        splitter = queue[qi]
        qi += 1
        bi = 0
        while bi < len(big):
            i = big[bi]
            cell = cells[i]
            work += len(cell)
            first = (adj[cell[0]] & splitter).bit_count()
            uniform = True
            buckets: dict[int, list[int]] = {first: [cell[0]]}
            for v in cell[1:]:
                k = (adj[v] & splitter).bit_count()
                if k != first:
                    uniform = False
                bucket = buckets.get(k)
                if bucket is None:
                    buckets[k] = [v]
                else:
                    bucket.append(v)
            if uniform:
                bi += 1
                continue
            keys = sorted(buckets)
            parts = [tuple(buckets[k]) for k in keys]
            sizes = [len(part) for part in parts]
            cells[i : i + 1] = parts
            trace.append((i, tuple(zip(keys, sizes))))
            largest = sizes.index(max(sizes))
            for j, part in enumerate(parts):
                if j != largest:
                    queue.append(_mask(part))
            shift = len(parts) - 1
            fresh = [i + j for j, size in enumerate(sizes) if size > 1]
            big[bi : bi + 1] = fresh
            for t in range(bi + len(fresh), len(big)):
                big[t] += shift
            bi += len(fresh)
        budget.spend(work)
        work = 0
    budget.spend(work)
    return cells, tuple(trace)


def _mask(cell) -> int:
    m = 0
    for v in cell:
        m |= 1 << v
    return m


def _target_cell(cells, budget) -> int:
    """Index of the first smallest non-singleton cell, -1 if discrete.

    The scan is charged one step per cell.
    """
    budget.spend(len(cells))
    best = -1
    best_size = None
    for i, c in enumerate(cells):
        size = len(c)
        if size > 1 and (best_size is None or size < best_size):
            best = i
            best_size = size
    return best


def _child(adj, cells, idx, v, budget):
    """Individualize v in cell ``idx`` of an equitable partition, then refine.

    Returns the refined cells and trace; the refinement starts from the one
    splitter {v} (see ``_refine``).
    """
    rest = tuple(x for x in cells[idx] if x != v)
    return _refine(adj, cells[:idx] + [(v,), rest] + cells[idx + 1 :], [1 << v], budget)


def _is_automorphism(adj, perm) -> bool:
    n = len(adj)
    for v in range(n):
        pv = perm[v]
        w = adj[v]
        target = adj[pv]
        while w:
            u = (w & -w).bit_length() - 1
            if not (target >> perm[u]) & 1:
                return False
            w &= w - 1
    return True


def is_automorphism(g: Graph, perm) -> bool:
    """Whether the image map preserves the edge set of g."""
    if len(perm) != g.n or sorted(perm) != list(range(g.n)):
        return False
    return _is_automorphism(g.adj, perm)


def _find_map(adj, s_cells, t_cells, budget):
    """Search for one automorphism sending s_cells onto t_cells positionally.

    Both sides are refined children of a common parent partition.  Returns an
    image tuple or None after exhausting the subtree, which proves no such
    automorphism exists.
    """
    idx = _target_cell(s_cells, budget)
    if idx < 0:
        n = len(adj)
        images = [0] * n
        for sc, tc in zip(s_cells, t_cells):
            images[sc[0]] = tc[0]
        perm = tuple(images)
        budget.spend(n)
        return perm if _is_automorphism(adj, perm) else None
    v = s_cells[idx][0]
    s_child, s_trace = _child(adj, s_cells, idx, v, budget)
    for u in t_cells[idx]:
        t_child, t_trace = _child(adj, t_cells, idx, u, budget)
        # Equal traces imply equal cell sizes: a trace lists each split's part sizes.
        if t_trace != s_trace:
            continue
        found = _find_map(adj, s_child, t_child, budget)
        if found is not None:
            return found
    return None


def _orbit_close(orbit: set[int], gens) -> set[int]:
    frontier = list(orbit)
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = g[x]
            if y not in orbit:
                orbit.add(y)
                frontier.append(y)
    return orbit


def _stabilizer_search(adj, cells, budget, first):
    """Generators and order of the automorphisms fixing every cell setwise.

    ``cells`` must already be equitable.  Recursion: individualize the least
    vertex v of the target cell, compute its stabilizer, then find one mapping
    v -> u per candidate u; orbit-stabilizer gives the exact order and the
    candidates already inside the known orbit are pruned.

    With ``first`` set the search returns ``([g], None)`` at its first
    generator g, or ``([], 1)`` when the group is trivial.  It walks the same
    tree in the same order up to that point, so g is the first generator the
    full search would return.
    """
    idx = _target_cell(cells, budget)
    if idx < 0:
        return [], 1
    cell = cells[idx]
    v = cell[0]
    child, child_trace = _child(adj, cells, idx, v, budget)
    gens, sub_order = _stabilizer_search(adj, child, budget, first)
    if first and gens:
        return gens, None
    orbit = {v}
    for u in cell[1:]:
        if u in orbit:
            continue
        t_child, t_trace = _child(adj, cells, idx, u, budget)
        # Equal traces imply equal cell sizes: a trace lists each split's part sizes.
        if t_trace != child_trace:
            continue
        found = _find_map(adj, child, t_child, budget)
        if found is not None:
            gens.append(found)
            if first:
                return gens, None
            _orbit_close(orbit, gens)
    return gens, len(orbit) * sub_order


def _search(g: Graph, initial_partition, budget: _Budget, first: bool):
    _check_vertex_count(g.n)
    if g.n == 0:
        return [], 1
    if initial_partition is None:
        cells = [tuple(range(g.n))]
    else:
        cells = []
        for c in initial_partition:
            cc = tuple(sorted(c))
            if cc:
                cells.append(cc)
        covered = sorted(v for c in cells for v in c)
        if covered != list(range(g.n)):
            raise ValueError("initial partition must cover every vertex exactly once")
    refined, _ = _refine(g.adj, cells, [_mask(c) for c in cells], budget)
    # The search recurses once per individualized vertex, so at most n deep.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + g.n + 50)
    try:
        return _stabilizer_search(g.adj, refined, budget, first)
    finally:
        sys.setrecursionlimit(limit)


def automorphism_group(
    g: Graph,
    initial_partition: Sequence[Iterable[int]] | None = None,
    budget_steps: int = DEFAULT_NODE_BUDGET,
    budget_secs: float | None = None,
) -> AutResult:
    """Exact automorphism group, optionally stabilizing an initial partition.

    When ``initial_partition`` is given (an ordered list of vertex cells
    covering every vertex), the returned group is the subgroup stabilizing
    each cell setwise.  Raises SearchTimeout when the refinement budget is
    exhausted; a timeout never yields a partial result.  A step budget below
    1, or a wall-clock budget that is not a positive number of seconds, raises
    InvalidParameters.
    """
    gens, order = _search(g, initial_partition, _Budget(budget_steps, budget_secs), False)
    for p in gens:
        if not _is_automorphism(g.adj, p):
            raise RuntimeError(f"search returned a non-automorphism: {p}")
    return AutResult(generators=gens, order=order)


def _first_automorphism(g: Graph, initial_partition) -> Perm | None:
    """First generator of ``automorphism_group(g, initial_partition)``.

    None when that group is trivial.  The search stops at the generator, so
    neither the group order nor the other generators are computed; callers
    check the result themselves.
    """
    gens, _ = _search(g, initial_partition, _Budget(DEFAULT_NODE_BUDGET), True)
    return gens[0] if gens else None


def color_preserving_automorphisms(g: Graph, coloring) -> AutResult:
    """Subgroup of Aut(g) fixing every color class of ``coloring`` setwise.

    The color classes seed the refinement directly; the full automorphism
    group is never enumerated.  The coloring is distinguishing iff the
    returned order is 1.
    """
    classes = coloring.classes()
    return automorphism_group(g, initial_partition=classes)
