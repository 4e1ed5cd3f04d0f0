"""Checks of the workloads' outputs, computed apart from the package.

Nothing here calls into ``distchrom``: graphs are read only as adjacency
bitmasks and vertex labels, and every verdict is recomputed from first
principles (edge sets, symmetric-group brute force, Latin-square
symmetries, closed-form group orders, Burnside and the Polya cycle index).
Each function returns a list of error strings; an empty list means the
outputs passed.
"""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction
from itertools import combinations, permutations

# Latin squares of order 5; up to symbol names there are 161280 / 5! = 1344.
LATIN_SQUARES = {5: 161280}


def edge_set(adj) -> set[tuple[int, int]]:
    """Edges (u, v), u < v, read from per-vertex adjacency bitmasks."""
    edges = set()
    for u, mask in enumerate(adj):
        v = 0
        while mask:
            if mask & 1 and u < v:
                edges.add((u, v))
            mask >>= 1
            v += 1
    return edges


def coloring_errors(edges, n: int, colors, k: int) -> list[str]:
    """A proper coloring of all n vertices with exactly the colors 1..k."""
    if len(colors) != n:
        return [f"coloring has {len(colors)} entries for {n} vertices"]
    if set(colors) != set(range(1, k + 1)):
        return [f"coloring does not use exactly the colors 1..{k}"]
    bad = [(u, v) for u, v in edges if colors[u] == colors[v]]
    return [f"improper: edge {bad[0]} is monochromatic"] if bad else []


def automorphism_errors(edges, n: int, perm) -> list[str]:
    """A permutation of the n vertices that maps every edge to an edge."""
    if perm is None or len(perm) != n or sorted(perm) != list(range(n)):
        return ["not a permutation of the vertices"]
    for u, v in edges:
        a, b = perm[u], perm[v]
        if (min(a, b), max(a, b)) not in edges:
            return [f"maps edge {(u, v)} to a non-edge"]
    return []


def witness_errors(edges, colors, perm) -> list[str]:
    """A nontrivial automorphism that maps every color class onto itself."""
    n = len(colors)
    errors = automorphism_errors(edges, n, perm)
    if errors:
        return [f"witness {e}" for e in errors]
    if all(perm[v] == v for v in range(n)):
        return ["witness is the identity"]
    if any(colors[perm[v]] != colors[v] for v in range(n)):
        return ["witness moves a color class"]
    return []


def fiber_plane_errors(adj, q: int, r: int, s: int) -> list[str]:
    """The graph is the r/s fiber blow-up of the incidence graph of a plane of order q.

    Twins (equal neighbourhoods) form the fibers; the fiber quotient must be
    bipartite with q^2+q+1 points and lines, q+1 neighbours each, and any two
    points (lines) sharing exactly one line (point).
    """
    size = q * q + q + 1
    by_mask: dict[int, list[int]] = defaultdict(list)
    for v, mask in enumerate(adj):
        by_mask[mask].append(v)
    fibers = list(by_mask.values())
    if len(fibers) != 2 * size:
        return [f"{len(fibers)} twin classes, expected {2 * size}"]
    fiber_of = {v: i for i, f in enumerate(fibers) for v in f}
    quotient = [set() for _ in fibers]
    for i, f in enumerate(fibers):
        mask = adj[f[0]]
        members = {fiber_of[v] for v in range(len(adj)) if (mask >> v) & 1}
        if sum(len(fibers[j]) for j in members) != bin(mask).count("1"):
            return ["a neighbourhood is not a union of whole fibers"]
        quotient[i] = members
    side = [None] * len(fibers)
    side[0] = 0
    stack = [0]
    while stack:
        i = stack.pop()
        for j in quotient[i]:
            if side[j] is None:
                side[j] = 1 - side[i]
                stack.append(j)
            elif side[j] == side[i]:
                return ["fiber quotient is not bipartite"]
    if None in side:
        return ["fiber quotient is disconnected"]
    errors = []
    for tag in (0, 1):
        part = [i for i in range(len(fibers)) if side[i] == tag]
        sizes = {len(fibers[i]) for i in part}
        if len(part) != size or sizes not in ({r}, {s}):
            errors.append(f"side {tag}: {len(part)} fibers of sizes {sorted(sizes)}")
        if any(len(quotient[i]) != q + 1 for i in part):
            errors.append(f"side {tag}: a fiber does not meet exactly {q + 1} others")
        if any(len(quotient[i] & quotient[j]) != 1 for i, j in combinations(part, 2)):
            errors.append(f"side {tag}: two fibers do not share exactly one neighbour")
    return errors


def parse_subset_labels(labels, n: int, r: int):
    """Vertex labels ``s:a,b,c`` as r-subsets; every r-subset of [n] once."""
    subsets = [tuple(int(x) for x in lab.split(":", 1)[1].split(",")) for lab in labels]
    if sorted(subsets) != list(combinations(range(n), r)):
        return None
    return subsets


def kneser_graph_errors(adj, subsets) -> list[str]:
    """Vertices are r-subsets, adjacent exactly when they intersect."""
    for (u, a), (v, b) in combinations(enumerate(subsets), 2):
        if bool((adj[u] >> v) & 1) != bool(set(a) & set(b)):
            return [f"adjacency of {a} and {b} disagrees with intersection"]
    return []


def symmetric_group_images(n: int, subsets):
    """Array of the n! vertex permutations induced by S_n on the subsets."""
    import numpy as np

    index = {s: i for i, s in enumerate(subsets)}
    rows = [
        [index[tuple(sorted(g[x] for x in s))] for s in subsets] for g in permutations(range(n))
    ]
    return np.array(rows, dtype=np.int16)


def class_preserving_count(images, colors) -> int:
    """How many of the permutations (rows of ``images``) map every class onto itself."""
    import numpy as np

    c = np.asarray(colors, dtype=np.int16)
    return int((c[images] == c).all(axis=1).sum())


def rook_cells(labels, adj, q: int):
    """Map (x, y) -> (y - x, y - 2x) of each grid vertex ``v:x,y``.

    Returns (cells, errors): the map must be a bijection onto the q x q grid
    under which the graph is the rook graph (same row or same column).
    """
    cells = []
    for lab in labels:
        x, y = (int(t) for t in lab.split(":", 1)[1].split(","))
        cells.append(((y - x) % q, (y - 2 * x) % q))
    if sorted(cells) != [(a, b) for a in range(q) for b in range(q)]:
        return cells, ["(x,y) -> (y-x, y-2x) is not a bijection onto the grid"]
    for u, v in combinations(range(len(cells)), 2):
        rook = cells[u][0] == cells[v][0] or cells[u][1] == cells[v][1]
        if rook != bool((adj[u] >> v) & 1):
            return cells, [f"vertices {u},{v}: adjacency disagrees with the rook graph"]
    return cells, []


def is_canonical(colors) -> bool:
    """Colors first appear in the order 1, 2, 3, ... (one per color partition)."""
    top = 0
    for c in colors:
        if c > top + 1:
            return False
        top = max(top, c)
    return True


def latin_stabilizer_count(square) -> int:
    """Elements of (S_q x S_q) x| C_2 that fix every symbol class of a Latin square.

    An element maps cell (a, b) to (sigma a, tau b), or to (tau b, sigma a)
    after transposition.  Given sigma and the transposition bit, row 0 of the
    square determines tau, so the search tries 2 * q! candidates in full.
    """
    q = len(square)
    count = 0
    for sigma in permutations(range(q)):
        for flip in (False, True):
            if flip:
                pos = {square[i][sigma[0]]: i for i in range(q)}
            else:
                pos = {square[sigma[0]][j]: j for j in range(q)}
            tau = [pos[square[0][b]] for b in range(q)]
            if flip:
                ok = all(square[tau[b]][sigma[a]] == square[a][b] for a in range(q) for b in range(q))
            else:
                ok = all(square[sigma[a]][tau[b]] == square[a][b] for a in range(q) for b in range(q))
            count += ok
    return count


def pgl3_order(q: int) -> int:
    return q**3 * (q**3 - 1) * (q**2 - 1)


def pgammal3_order(q: int) -> int:
    p = next(d for d in range(2, q + 1) if q % d == 0)
    e = round(math.log(q, p))
    if p**e != q:
        raise ValueError(f"{q} is not a prime power")
    return e * pgl3_order(q)


def burnside_errors(exact_en: Fraction, t: int, class_size: int, order: int) -> list[str]:
    """exact_EN * t^|C| sums t^cycles over G, so |G| divides it (Burnside)."""
    total = exact_en * t**class_size
    if total.denominator != 1 or total.numerator % order:
        return [f"exact_EN * t^{class_size} = {total} is not a multiple of |G| = {order}"]
    return []


def _partitions(n: int, largest: int | None = None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


def polya_exact_en(n: int, k: int, t: int) -> Fraction:
    """Sum of t^(cycles on k-subsets) over S_n, by cycle type, over t^C(n,k)."""
    subsets = list(combinations(range(n), k))
    total = 0
    for lam in _partitions(n):
        perm, start = [0] * n, 0
        for part in lam:
            for i in range(part):
                perm[start + i] = start + (i + 1) % part
            start += part
        z = 1
        for part in set(lam):
            m = lam.count(part)
            z *= part**m * math.factorial(m)
        seen, cycles = set(), 0
        for s in subsets:
            if s in seen:
                continue
            cycles += 1
            while s not in seen:
                seen.add(s)
                s = tuple(sorted(perm[x] for x in s))
        total += math.factorial(n) // z * t**cycles
    return Fraction(total, t ** len(subsets))
