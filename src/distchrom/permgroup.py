"""Permutations on finite point sets and groups given by generators.

A permutation is a plain tuple of images: ``p[i]`` is the image of point ``i``.
Hot paths (stabilizer chains and the element lists read off them) convert to
``bytes`` when the degree allows it, so that composition becomes a single
``bytes.translate`` call.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations

from .algebra import InvalidParameters, binomial

__all__ = [
    "GroupSpec",
    "MAX_ELEMENTS",
    "Perm",
    "TooLarge",
    "closure",
    "colex_ksets",
    "compose",
    "group_order",
    "identity",
    "induced_action_on_ksets",
    "inverse",
    "orbit_count_on",
    "perm_from_cycles",
    "wreath_action",
]

Perm = tuple[int, ...]

# Largest group whose element list ``closure`` will build.
MAX_ELEMENTS = 10_000_000


class TooLarge(ValueError):
    pass


def identity(degree: int) -> Perm:
    return tuple(range(degree))


def compose(a: Perm, b: Perm) -> Perm:
    """Apply a, then b: (a * b)[i] = b[a[i]]."""
    return tuple(b[x] for x in a)


def inverse(a: Perm) -> Perm:
    out = [0] * len(a)
    for i, v in enumerate(a):
        out[v] = i
    return tuple(out)


def perm_from_cycles(degree: int, cycles) -> Perm:
    images = list(range(degree))
    for cyc in cycles:
        for x, y in zip(cyc, cyc[1:]):
            images[x] = y
        if cyc:
            images[cyc[-1]] = cyc[0]
    return tuple(images)


def _check_perm(p: Perm) -> None:
    if sorted(p) != list(range(len(p))):
        raise ValueError("not a permutation")


class _Chain:
    """Incremental stabilizer chain (Schreier-Sims with sifting).

    Base points are chosen deterministically as the smallest point moved by
    the residue being inserted, so the chain is reproducible for a fixed
    generator list.  Transversal element t_x maps the level's base point to x.
    Internally permutations are 256-padded bytes when the degree allows it,
    making composition a single ``translate`` call.
    """

    def __init__(self, degree: int):
        self.degree = degree
        self.base: list[int] = []
        self.gens: list[tuple] = []  # (perm, insertion level), serial = index
        self.trans: list[dict[int, object]] = []
        self.done: list[set[tuple[int, int]]] = []
        self._bytes = degree <= 256
        if self._bytes:
            self._id = bytes(range(256))
        else:
            self._id = identity(degree)

    def _pack(self, p: Perm):
        if self._bytes:
            return bytes(p) + self._id[self.degree :]
        return p

    def _trim(self, e):
        if self._bytes:
            return e[: self.degree]
        return e

    def _mul(self, a, b):
        if self._bytes:
            return a.translate(b)
        return tuple(b[x] for x in a)

    def _inv(self, a):
        if self._bytes:
            out = bytearray(self._id)
            for i in range(self.degree):
                out[a[i]] = i
            return bytes(out)
        return inverse(a)

    def _is_id(self, a) -> bool:
        return a == self._id

    def _new_level(self, pt: int) -> None:
        self.base.append(pt)
        self.trans.append({pt: self._id})
        self.done.append(set())

    def _level_gens(self, lvl: int):
        # Strong generators available to level lvl: everything inserted at
        # levels >= lvl fixes base[:lvl] and so acts within its stabilizer.
        return [(serial, g) for serial, (g, at) in enumerate(self.gens) if at >= lvl]

    def _extend_orbit(self, lvl: int) -> None:
        trans = self.trans[lvl]
        queue = deque(trans)
        gens = [g for _, g in self._level_gens(lvl)]
        while queue:
            x = queue.popleft()
            tx = trans[x]
            for g in gens:
                y = g[x]
                if y not in trans:
                    trans[y] = self._mul(tx, g)
                    queue.append(y)

    def _strip(self, g, start: int):
        for lvl in range(start, len(self.base)):
            x = g[self.base[lvl]]
            if x == self.base[lvl]:
                continue
            t = self.trans[lvl]
            if x not in t:
                return g, lvl
            g = self._mul(g, self._inv(t[x]))
        return g, len(self.base)

    def _add_gen(self, g, lvl: int) -> None:
        if lvl == len(self.base):
            moved = min(i for i in range(self.degree) if g[i] != i)
            self._new_level(moved)
        self.gens.append((g, lvl))
        for i in range(min(lvl, len(self.base) - 1), -1, -1):
            self._extend_orbit(i)

    def _process(self) -> None:
        # Sift every unprocessed Schreier generator everywhere.  A pair once
        # sifted to identity stays valid when the chain grows, so pairs are
        # processed at most once; insertions only create new pairs.
        while True:
            inserted = False
            for lvl in range(len(self.base)):
                trans = self.trans[lvl]
                done = self.done[lvl]
                for x in list(trans):
                    tx = trans[x]
                    for serial, s in self._level_gens(lvl):
                        if (x, serial) in done:
                            continue
                        done.add((x, serial))
                        schreier = self._mul(self._mul(tx, s), self._inv(trans[s[x]]))
                        if self._is_id(schreier):
                            continue
                        residue, res_lvl = self._strip(schreier, lvl + 1)
                        if not self._is_id(residue):
                            self._add_gen(residue, res_lvl)
                            inserted = True
            if not inserted:
                return

    def insert(self, g: Perm) -> None:
        packed = self._pack(g)
        residue, lvl = self._strip(packed, 0)
        if not self._is_id(residue):
            self._add_gen(residue, lvl)
            self._process()

    def order(self) -> int:
        n = 1
        for trans in self.trans:
            n *= len(trans)
        return n

    def elements(self) -> list:
        """Every group element, each once, as u_{m-1} * ... * u_1 * u_0.

        u_i runs over level i's transversal and the product applies u_{m-1}
        first.  Loops nest from level m-1 (outermost) down to level 0
        (innermost); each partial product u_{m-1} * ... * u_i is formed once,
        so level 0, usually the longest orbit, costs one multiplication per
        element.  Every transversal starts with the identity, so the
        identity comes first.
        """
        levels = [list(trans.values()) for trans in self.trans]
        out: list = []
        if levels:
            self._products(levels, len(levels) - 1, self._id, out)
        else:
            out.append(self._trim(self._id))
        return out

    def _products(self, levels: list, lvl: int, prefix, out: list) -> None:
        # A method, not a nested recursive closure: such a closure would form
        # a reference cycle holding ``out`` alive until the cyclic collector
        # runs, long after the caller has dropped the element list.
        if lvl == 0:
            head = self._trim(prefix)
            if self._bytes:
                out.extend(map(head.translate, levels[0]))
            else:
                out.extend([compose(head, u) for u in levels[0]])
            return
        for u in levels[lvl]:
            self._products(levels, lvl - 1, self._mul(prefix, u), out)


def _chain_of(generators: list[Perm]) -> _Chain:
    if not generators:
        raise ValueError("need at least one generator")
    degree = len(generators[0])
    chain = _Chain(degree)
    for g in generators:
        if len(g) != degree:
            raise ValueError("generators must share a degree")
        _check_perm(g)
        chain.insert(g)
    return chain


def group_order(generators: list[Perm]) -> int:
    """Exact group order via a stabilizer chain, without enumeration."""
    return _chain_of(generators).order()


def closure(generators: list[Perm]) -> list:
    """Full element list of the generated group, read off its stabilizer chain.

    The identity comes first; the order is otherwise the chain's product
    order (see ``_Chain.elements``), deterministic for a fixed generator
    list.  Raises TooLarge, before any element is built, when the group
    order exceeds MAX_ELEMENTS.

    For degree <= 256 the elements are returned as ``bytes`` image sequences
    (indexable exactly like tuples, an order of magnitude smaller in memory,
    and composable at C speed); larger degrees fall back to tuples.
    """
    chain = _chain_of(generators)
    order = chain.order()
    if order > MAX_ELEMENTS:
        raise TooLarge(f"group order {order} exceeds {MAX_ELEMENTS}")
    return chain.elements()


@dataclass
class GroupSpec:
    """A permutation group given by generators; elements are built on request."""

    degree: int
    generators: list[Perm]
    name: str = ""

    def __post_init__(self):
        for g in self.generators:
            if len(g) != self.degree:
                raise ValueError("generator degree mismatch")

    def elements(self) -> list[Perm]:
        return closure(self.generators)

    def order(self) -> int:
        return group_order(self.generators)


def orbit_count_on(perm: Perm, subset) -> tuple[int, int]:
    """Cycle and fixed-point counts of ``perm`` restricted to ``subset``.

    Returns (theta, fixed) where theta is the number of cycles the permutation
    induces inside the subset and fixed the number of its fixed points there.
    Raises InvalidParameters if the subset is not mapped onto itself.
    """
    pts = sorted(subset)
    inside = set(pts)
    for v in pts:
        if perm[v] not in inside:
            raise InvalidParameters(f"point {v} maps outside the subset")
    theta = 0
    fixed = 0
    seen: set[int] = set()
    for v in pts:
        if v in seen:
            continue
        theta += 1
        if perm[v] == v:
            fixed += 1
            seen.add(v)
            continue
        w = v
        while w not in seen:
            seen.add(w)
            w = perm[w]
    return theta, fixed


def colex_ksets(n: int, k: int) -> list[tuple[int, ...]]:
    """All k-subsets of range(n) in colexicographic order."""
    return sorted(combinations(range(n), k), key=lambda s: tuple(reversed(s)))


def induced_action_on_ksets(n: int, k: int) -> GroupSpec:
    """The symmetric group on n letters acting on k-subsets, colex order."""
    if not 1 <= k < n:
        raise InvalidParameters(f"need 1 <= k < n, got k={k}, n={n}")
    deg = binomial(n, k)
    if deg > 10**6:
        raise TooLarge(f"degree {deg} exceeds 10^6")
    subsets = colex_ksets(n, k)
    index = {s: i for i, s in enumerate(subsets)}
    sn_gens = [perm_from_cycles(n, [(0, 1)]), perm_from_cycles(n, [tuple(range(n))])]
    gens = []
    for g in sn_gens:
        gens.append(tuple(index[tuple(sorted(g[x] for x in s))] for s in subsets))
    return GroupSpec(degree=deg, generators=gens, name=f"S{n} on {k}-sets")


def wreath_action(base: GroupSpec, n: int) -> GroupSpec:
    """Coordinate-wise base action plus coordinate permutations, on n-tuples.

    Degree is m**n with tuples indexed in row-major order (first coordinate
    most significant).  Generators: each base generator applied in the first
    coordinate, a swap of the first two coordinates, and a full rotation of
    the coordinates.
    """
    m = base.degree
    if m < 2 or n < 2:
        raise InvalidParameters("need base degree >= 2 and n >= 2")
    deg = m**n
    if deg > 10**6:
        raise TooLarge(f"degree {deg} exceeds 10^6")
    weights = [m ** (n - 1 - i) for i in range(n)]

    def tuple_index(t):
        return sum(x * w for x, w in zip(t, weights))

    tuples = []

    def fill(prefix):
        if len(prefix) == n:
            tuples.append(tuple(prefix))
            return
        for x in range(m):
            fill(prefix + [x])

    fill([])
    gens: list[Perm] = []
    for g in base.generators:
        gens.append(tuple(tuple_index((g[t[0]],) + t[1:]) for t in tuples))
    swap = tuple(tuple_index((t[1], t[0]) + t[2:]) for t in tuples)
    rot = tuple(tuple_index(t[1:] + (t[0],)) for t in tuples)
    gens.extend([swap, rot])
    return GroupSpec(degree=deg, generators=gens, name=f"{base.name or 'base'} wr S{n}")
