"""Permutations on finite point sets and groups given by generators.

A permutation is a plain tuple of images: ``p[i]`` is the image of point ``i``.
Hot paths (stabilizer chains and the element sequences built off them) convert
to ``bytes`` when the degree allows it, so that composition becomes a single
``bytes.translate`` call.  A group's elements are never stored: ``closure``
returns a sequence that builds them from the chain's transversals as it is
read.
"""

from __future__ import annotations

import math
import random
from collections.abc import Sequence
from dataclasses import dataclass
from functools import reduce
from itertools import chain, combinations, compress, count, product, repeat
from operator import index, ne

from .algebra import InvalidParameters, binomial

__all__ = [
    "GroupSpec",
    "MAX_ELEMENTS",
    "Perm",
    "TooLarge",
    "block_images",
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

# Most elements one pass builds: a full pass over ``closure``'s sequence, or
# the blocks of its weighted sum.  Elements are built as they are read, never
# stored, so the cap bounds enumeration time, not memory.
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
        raise InvalidParameters("not a permutation")


class _Chain:
    """Incremental stabilizer chain (Schreier-Sims with sifting).

    Base points are chosen deterministically as the smallest point moved by
    the residue being inserted, so the chain is reproducible for a fixed
    generator list.  Transversal element t_x maps the level's base point to x.
    Level 0 forms its Schreier generators from the inserted generators that
    enlarged the group, deeper levels from their strong generators: by
    Schreier's lemma those of any generating set of G generate G_{base[0]}.
    Each orbit stays closed under its level's strong generators, so a new
    generator extends it from the points it already holds alone, and the
    points that join take every generator (Seress, §4.1).  Internally
    permutations are 256-padded bytes when the degree allows it: ``_mul``
    is then ``bytes.translate`` and inversion one ``bytes.maketrans`` call;
    larger degrees use tuples and ``compose``.
    """

    def __init__(self, degree: int):
        self.degree = degree
        self.base: list[int] = []
        self.gens: list[tuple] = []  # (perm, insertion level), serial = index
        self.gen_inv: list = []  # inverse of each generator, by serial
        self.inputs: list = []  # inserted generators that enlarged the group
        self.trans: list[dict[int, object]] = []
        self.inv: list[dict[int, object]] = []  # t_x^-1 for each t_x in trans
        self.done: list[set[tuple[int, int]]] = []
        self._bytes = degree <= 256
        if self._bytes:
            self._id = bytes(range(256))
            self._mul = bytes.translate
        else:
            self._id = identity(degree)
            self._mul = compose

    def _pack(self, p: Perm):
        if self._bytes:
            return bytes(p) + self._id[self.degree :]
        return p

    def _inv(self, a):
        if self._bytes:
            return bytes.maketrans(a, self._id)
        return inverse(a)

    def _is_id(self, a) -> bool:
        return a == self._id

    def _new_level(self, pt: int) -> None:
        self.base.append(pt)
        self.trans.append({pt: self._id})
        self.inv.append({pt: self._id})
        self.done.append(set())

    def _level_gens(self, lvl: int):
        # Strong generators available to level lvl: everything inserted at
        # levels >= lvl fixes base[:lvl] and so acts within its stabilizer.
        return [(serial, g) for serial, (g, at) in enumerate(self.gens) if at >= lvl]

    def _extend_orbit(self, lvl: int, g, g_inv) -> None:
        # The orbit is closed under the level's older generators, so only
        # the new generator g walks its old points; every generator walks
        # the points that join.  Each new t_y = t_x * h gets its inverse
        # h^-1 * t_x^-1 alongside, so sifting never inverts a transversal
        # element.
        trans, inv, mul = self.trans[lvl], self.inv[lvl], self._mul
        new = []
        for x in list(trans):
            y = g[x]
            if y not in trans:
                trans[y] = mul(trans[x], g)
                inv[y] = mul(g_inv, inv[x])
                new.append(y)
        if not new:
            return
        gens = [(h, self.gen_inv[serial]) for serial, h in self._level_gens(lvl)]
        for x in new:
            tx, ix = trans[x], inv[x]
            for h, h_inv in gens:
                y = h[x]
                if y not in trans:
                    trans[y] = mul(tx, h)
                    inv[y] = mul(h_inv, ix)
                    new.append(y)

    def _strip(self, g, start: int):
        mul, base = self._mul, self.base
        for lvl in range(start, len(base)):
            x = g[base[lvl]]
            if x == base[lvl]:
                continue
            inv = self.inv[lvl]
            if x not in inv:
                return g, lvl
            g = mul(g, inv[x])
        return g, len(base)

    def _add_gen(self, g, lvl: int) -> None:
        if lvl == len(self.base):
            self._new_level(next(compress(count(), map(ne, g, self._id))))
        g_inv = self._inv(g)
        self.gens.append((g, lvl))
        self.gen_inv.append(g_inv)
        for i in range(min(lvl, len(self.base) - 1), -1, -1):
            self._extend_orbit(i, g, g_inv)

    def _schreier_gens(self, lvl: int):
        return list(enumerate(self.inputs)) if lvl == 0 else self._level_gens(lvl)

    def _process(self) -> None:
        # Sift every unprocessed Schreier generator everywhere.  A pair once
        # sifted to identity stays valid when the chain grows, so pairs are
        # processed at most once; insertions only create new pairs.
        mul = self._mul
        while True:
            inserted = False
            for lvl in range(len(self.base)):
                trans, inv, done = self.trans[lvl], self.inv[lvl], self.done[lvl]
                gens, known = self._schreier_gens(lvl), len(self.gens)
                for x in list(trans):
                    # Generators inserted while this level is walked join from
                    # the next point on, as when the list was rebuilt per point.
                    if len(self.gens) != known:
                        gens, known = self._schreier_gens(lvl), len(self.gens)
                    tx = trans[x]
                    for serial, s in gens:
                        if (x, serial) in done:
                            continue
                        done.add((x, serial))
                        schreier = mul(mul(tx, s), inv[s[x]])
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
            self.inputs.append(packed)
            self._add_gen(residue, lvl)
            self._process()

    def order(self) -> int:
        n = 1
        for trans in self.trans:
            n *= len(trans)
        return n


def _products(levels, prefix, mul, degree):
    """Every prefix * u_{k-1} * ... * u_0 with u_j from levels[j], cut to the degree.

    Level k-1 is outermost, so each partial product is formed once.  Bytes
    tables are 256 long; the cut makes the products plain elements.
    """

    def walk(lvl, p):
        if lvl < 0:
            yield p[:degree]
            return
        for u in levels[lvl]:
            yield from walk(lvl - 1, mul(p, u))

    return walk(len(levels) - 1, prefix)


def _orbits(points, gens):
    """(first point, size) of each orbit of <gens> on ``points``, in their order."""
    seen: set[int] = set()
    for x in points:
        if x in seen:
            continue
        seen.add(x)
        orbit = [x]
        for y in orbit:
            for g in gens:
                z = g[y]
                if z not in seen:
                    seen.add(z)
                    orbit.append(z)
        yield x, len(orbit)


def _coset_pieces(trans, s, weight, mul):
    """Weighted pieces over which a class function sums as over the coset C_0 * s.

    ``trans`` is a stabilizer chain's transversals of C_0, the stabilizer
    of a point b (base c_0, c_1, ...), and every entry above level 0 fixes
    b^s.  Yields pieces (levels, reps), one leaf of the refinement at a
    time: a piece stands for every h * r, at weight w, with h a product
    over ``levels`` (see ``_products``) and (r, w) in reps.  The refinement
    is proved in the ``_Elements`` docstring.
    """
    levels = [list(u.values()) for u in trans]
    # A node (d, s, w, fixers) is the coset C_d * s at weight w; fixers are
    # the transversal entries, with their levels, above level d - 1 that fix
    # P, the images under s of c_0, ..., c_{d-1}.  Each level's first entry
    # is the identity, which merges nothing.
    nodes = [(0, s, weight, [(u, e) for e in range(1, len(levels)) for u in levels[e][1:]])]
    while nodes:
        d, s, w, fixers = nodes.pop()
        ks = [u for u, e in fixers if e > d]
        if ks:
            # The child of z holds the elements that send c_d to z^s;
            # conjugation by k moves z^s by k.
            level = trans[d]
            back = {s[z]: z for z in level}
            for p, n in _orbits(back, ks):
                keep = [(u, e) for u, e in fixers if e > d and u[p] == p]
                nodes.append((d + 1, mul(level[back[p]], s), w * n, keep))
        elif d == len(levels):
            # C_d is trivial, so the node is s alone.
            yield [], [(s, w)]
        else:
            # Level d joins the representatives, so each element costs one
            # multiplication.
            yield levels[d + 1 :], list(zip(map(mul, levels[d], repeat(s)), repeat(w)))


class _Elements(Sequence):
    """Every element of a group, built off its stabilizer chain as it is read.

    Element i is u_{m-1} * ... * u_1 * u_0, applying u_{m-1} first, where u_j
    is entry d_j of level j's transversal and i = d_0 + |U_0| * (d_1 + |U_1| *
    (d_2 + ...)).  Iteration therefore nests from level m-1 (outermost) down
    to level 0 (innermost); each partial product u_{m-1} * ... * u_1 is formed
    once, so level 0, usually the longest orbit, costs one multiplication per
    element.  Every transversal starts with the identity, so the identity
    comes first.  The chain's base, transversals and strong generators with
    their levels are kept, not its bookkeeping: each pass builds the
    elements anew, and indexing multiplies m transversal elements.

    ``pair_orbit_weighted`` serves sums of a function f that conjugation by
    group elements keeps.  Let b be level j's base point, G_j the group of
    levels j and up, and H = G_{j+1} its stabilizer of b.  The elements of
    G_j that send b to y form the coset H * t_y, and conjugation by c in H
    maps it onto H * t_{y^c}, so f sums to the same value over the cosets
    of one H-orbit.  The orbit {b} gives H, summed the same way at level
    j+1; any other orbit x^H gives the block H * t_x, at weight |x^H|.

    A block is refined down a chain of H with base c_0, c_1, ...: one with
    x first when |x^H| > 1 (``_rebased``), else H's own levels.  Let C_d
    be the stabilizer of c_0, ..., c_{d-1} in H, so C_0 = H, and let a node
    be a coset C_d * s; the root is H * t_x.  C_d is the union of the
    C_{d+1} * u_z over its transversal entries u_z, which send c_d to z, so
    the node is the union of its children C_{d+1} * u_z * s.  Let k be any
    element of C_{d+1} that fixes every point of P, the images under s of
    c_0, ..., c_{d-1}.  Then s * k * s^-1
    fixes c_0, ..., c_{d-1}, and b too: b^s = x, as s is in H * t_x, and k
    fixes x, which is c_0 or fixed by H.  So s * k * s^-1 is in C_d, and
    conjugation by k maps the child of z onto the child of z', where
    z'^s = (z^s)^k:

        k^-1 * C_{d+1} * u_z * s * k = C_{d+1} * (u_z * s * k * s^-1) * s,

    and u_z * s * k * s^-1 is in C_d and sends c_d to z'.  So f sums to the
    same value over the children of one orbit of these k on the points
    z^s, and the sum takes one child per orbit, weighted by the orbit's
    size, and refines it in turn; a node with no such k is enumerated
    whole.  The sum takes as these k the transversal entries of the levels
    e > d that fix P: an entry of level e lies in C_e, inside C_{d+1}.  A
    child's P is its parent's plus z^s, as u_z fixes c_0, ..., c_{d-1}.
    At the root P is empty; with x first in the chain, the entries above
    level 0 generate H_x, the children are H_x * r_y * t_x
    for r_y in H sending x to y, and the orbits are those of
    H_{x'} = t_x * H_x * t_x^-1 on x^H, x' = b^(t_x^-1): the same as
    grouping the elements g of G_j with b^g in x^H by the pair
    (b^g, b^(g^-1)), the grouping the method is named for.
    """

    __slots__ = ("_levels", "_base", "_trans", "_gens", "_degree", "_id", "_len", "_mul")

    def __init__(self, stab: _Chain):
        # A chain without levels belongs to the trivial group.
        self._levels = [list(trans.values()) for trans in stab.trans] or [[stab._id]]
        self._base = stab.base
        self._trans = stab.trans
        self._gens = stab.gens
        self._degree = stab.degree
        self._id = stab._id
        self._len = math.prod(map(len, self._levels))
        self._mul = stab._mul

    def __len__(self) -> int:
        return self._len

    def __iter__(self):
        if self._len > MAX_ELEMENTS:
            raise TooLarge(f"group order {self._len} exceeds {MAX_ELEMENTS}")
        mul, level0 = self._mul, self._levels[0]
        heads = _products(self._levels[1:], self._id, mul, self._degree)
        return chain.from_iterable(map(mul, repeat(head), level0) for head in heads)

    def pair_orbit_weighted(self):
        """Pairs (element, weight) whose weights sum to ``len(self)``.

        Any function that conjugation keeps has the same weighted sum over
        these pairs as over the group (see the class docstring).  Level by
        level, each H-orbit x^H other than {b} (found with the strong
        generators above the level) gives the block H * t_x at weight
        |x^H|, refined by ``_coset_pieces`` over the transversals of a chain
        of H: for |x^H| > 1 a chain with x as its first base point, sifted
        from uniform elements of H until its order is |H| (``_rebased``);
        for a fixed point x of H, H's own levels.  Pieces come one leaf of
        the refinement at a time, so only one node's representatives are
        held.  The identity comes last, with weight 1.  Raises TooLarge,
        before it yields a piece's elements, once the count of elements
        yielded would pass MAX_ELEMENTS.
        """
        mul, degree, ident = self._mul, self._degree, self._id
        evaluated = 0
        for lvl, b in enumerate(self._base):
            trans = self._trans[lvl]
            for x, size in _orbits(trans, [g for g, at in self._gens if at > lvl]):
                if x == b:
                    continue
                h_trans = self._trans[lvl + 1 :] if size == 1 else self._rebased(lvl, x).trans
                for levels, reps in _coset_pieces(h_trans, trans[x], size, mul):
                    evaluated += math.prod(map(len, levels)) * len(reps)
                    if evaluated > MAX_ELEMENTS:
                        raise TooLarge(f"the weighted sum needs more than {MAX_ELEMENTS} elements")
                    # Most pieces have no levels left: their elements are
                    # the representatives, cut to the degree.
                    if levels:
                        for h in _products(levels, ident, mul, degree):
                            for rt, w in reps:
                                yield mul(h, rt), w
                    else:
                        for rt, w in reps:
                            yield rt[:degree], w
        yield ident[:degree], 1

    def _rebased(self, lvl: int, x: int) -> _Chain:
        """A complete chain of H = G_{lvl+1} with x as its first base point.

        Uniform elements of H, one transversal entry per level past lvl, are
        sifted into a chain with base [x], each non-identity residue joining
        its strong generators, until its order is |H|.  The product of its
        orbit lengths is at most the order of the group they generate, so it
        reaches |H| only when the chain is complete for H; until then a draw
        leaves a residue, which raises the product, with probability at
        least 1/2 (Seress, Lemma 4.3.1).  Draws are seeded with (lvl, x) so
        that the chain, and the weighted pairs, are reproducible.
        """
        sub = _Chain(self._degree)
        sub._new_level(x)
        levels = self._levels[lvl + 1 :][::-1]
        order = math.prod(map(len, levels))
        choice = random.Random(f"{lvl},{x}").choice
        while sub.order() != order:
            residue, at = sub._strip(reduce(self._mul, map(choice, levels), self._id), 0)
            if not sub._is_id(residue):
                sub._add_gen(residue, at)
        return sub

    def __getitem__(self, i):
        i = index(i)
        if i < 0:
            i += self._len
        if not 0 <= i < self._len:
            raise IndexError("group element index out of range")
        p = self._id
        factors = []
        for level in self._levels:
            i, d = divmod(i, len(level))
            factors.append(level[d])
        for u in reversed(factors):
            p = self._mul(p, u)
        return p[: self._degree]


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


def closure(generators: list[Perm]) -> Sequence:
    """Every element of the generated group, as a sequence over its stabilizer chain.

    The sequence stores no element: each pass builds them while it runs,
    and ``els[i]`` builds one.  The identity comes first; the order is
    otherwise the chain's product order (see ``_Elements``), deterministic
    for a fixed generator list.  A pass over a group above MAX_ELEMENTS
    raises TooLarge before it builds any element; ``pair_orbit_weighted``
    caps the elements it builds instead, so it can sum larger groups.

    For degree <= 256 the elements are ``bytes`` image sequences (indexable
    exactly like tuples, an order of magnitude smaller in memory, and
    composable at C speed); larger degrees fall back to tuples.
    """
    return _Elements(_chain_of(generators))


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

    def elements(self) -> Sequence:
        """The group's elements, built while they are read (see ``closure``)."""
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


def block_images(blocks, point_map: Perm) -> Perm:
    """Index of each block's image under a map on points.

    A block is a set of points given as a bitmask; ``point_map[x]`` is the
    image of point x.  Raises InvalidParameters if the map does not permute
    the blocks.
    """
    index = {b: i for i, b in enumerate(blocks)}
    bits = [1 << y for y in point_map]
    out = []
    for b in blocks:
        image = 0
        while b:
            low = b & -b
            image |= bits[low.bit_length() - 1]
            b ^= low
        out.append(index.get(image))
    if None in out or len(set(out)) != len(out):
        raise InvalidParameters("the point map does not permute the blocks")
    return tuple(out)


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
    blocks = [sum(1 << x for x in s) for s in colex_ksets(n, k)]
    sn_gens = [perm_from_cycles(n, [(0, 1)]), perm_from_cycles(n, [tuple(range(n))])]
    gens = [block_images(blocks, g) for g in sn_gens]
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

    tuples = list(product(range(m), repeat=n))
    gens: list[Perm] = []
    for g in base.generators:
        gens.append(tuple(tuple_index((g[t[0]],) + t[1:]) for t in tuples))
    swap = tuple(tuple_index((t[1], t[0]) + t[2:]) for t in tuples)
    rot = tuple(tuple_index(t[1:] + (t[0],)) for t in tuples)
    gens.extend([swap, rot])
    return GroupSpec(degree=deg, generators=gens, name=f"{base.name or 'base'} wr S{n}")
