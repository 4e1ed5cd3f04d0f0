"""Constructors for every graph family and structurally known group action.

Vertex id conventions are fixed so that runs are reproducible bit for bit:
projective points and lines are normalized (first nonzero coordinate 1) and
ordered (1,h,k) lexicographically, then (0,1,k), then (0,0,1); subset families
use colexicographic order; product vertices are row-major.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import FiniteField, InvalidParameters, binomial, field_new, is_prime
from .graphcore import Graph
from .permgroup import GroupSpec, Perm, TooLarge, colex_ksets, perm_from_cycles

__all__ = [
    "FiberMeta",
    "InvalidParameters",
    "ProjectivePlane",
    "SlopeGraphMeta",
    "affine_line_partition",
    "fiber_swap",
    "kneser_complement",
    "levi_graph",
    "levi_order1",
    "levi_tensor_krs",
    "pg2",
    "pgammal3_action",
    "pgl3_action",
    "scalar_translation_action",
    "slope_graph",
    "slope_of",
    "weak_power",
    "weak_product",
    "INFINITY",
]


class _InfinitySlope:
    """Sentinel for the vertical direction."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITY"


INFINITY = _InfinitySlope()


@dataclass(frozen=True)
class ProjectivePlane:
    """Points and lines of the plane over GF(q), with an incidence bitmatrix."""

    q: int
    points: tuple[tuple[int, int, int], ...]
    lines: tuple[tuple[int, int, int], ...]
    incidence: tuple[int, ...]  # incidence[p] = bitmask over line indices

    @property
    def size(self) -> int:
        return len(self.points)

    def line_index(self, l: tuple[int, int, int]) -> int:
        return self.lines.index(l)


def _normalize(f: FiniteField, v: tuple[int, int, int]) -> tuple[int, int, int]:
    for c in v:
        if c != 0:
            s = f.inv(c)
            return tuple(f.mul(s, x) for x in v)
    raise ValueError("zero vector has no normalization")


def _homogeneous_reps(f: FiniteField) -> list[tuple[int, int, int]]:
    q = f.q
    reps = [(1, h, k) for h in range(q) for k in range(q)]
    reps += [(0, 1, k) for k in range(q)]
    reps.append((0, 0, 1))
    return reps


def pg2(q: int) -> ProjectivePlane:
    """The projective plane of order q over GF(q), normalized representatives."""
    f = field_new(q)
    reps = _homogeneous_reps(f)
    incidence = []
    for p in reps:
        mask = 0
        for j, l in enumerate(reps):
            s = f.add(f.add(f.mul(l[0], p[0]), f.mul(l[1], p[1])), f.mul(l[2], p[2]))
            if s == 0:
                mask |= 1 << j
        incidence.append(mask)
    return ProjectivePlane(q=q, points=tuple(reps), lines=tuple(reps), incidence=tuple(incidence))


def _coord_label(kind: str, v: tuple[int, int, int]) -> str:
    return f"{kind}:{v[0]},{v[1]},{v[2]}"


def levi_graph(q: int) -> Graph:
    """Bipartite point-line incidence graph on 2(q^2+q+1) vertices, points first."""
    plane = pg2(q)
    n1 = plane.size
    edges = []
    for p in range(n1):
        mask = plane.incidence[p]
        while mask:
            j = (mask & -mask).bit_length() - 1
            edges.append((p, n1 + j))
            mask &= mask - 1
    side = [0] * n1 + [1] * n1
    labels = [_coord_label("p", v) for v in plane.points] + [
        _coord_label("l", v) for v in plane.lines
    ]
    return Graph.from_edges(2 * n1, edges, side=side, labels=labels)


def _mat_vec(f: FiniteField, m, v):
    return tuple(
        f.add(f.add(f.mul(m[i][0], v[0]), f.mul(m[i][1], v[1])), f.mul(m[i][2], v[2]))
        for i in range(3)
    )


def _mat_mul(f: FiniteField, a, b):
    return tuple(
        tuple(
            f.add(f.add(f.mul(a[i][0], b[0][j]), f.mul(a[i][1], b[1][j])), f.mul(a[i][2], b[2][j]))
            for j in range(3)
        )
        for i in range(3)
    )


def _det3(f: FiniteField, m) -> int:
    def mul3(a, b, c):
        return f.mul(f.mul(a, b), c)

    pos = f.add(f.add(mul3(m[0][0], m[1][1], m[2][2]), mul3(m[0][1], m[1][2], m[2][0])), mul3(m[0][2], m[1][0], m[2][1]))
    neg = f.add(f.add(mul3(m[0][2], m[1][1], m[2][0]), mul3(m[0][0], m[1][2], m[2][1])), mul3(m[0][1], m[1][0], m[2][2]))
    return f.sub(pos, neg)


def _inv_transpose(f: FiniteField, m):
    """Inverse transpose via the adjugate; requires det != 0."""
    det = _det3(f, m)
    if det == 0:
        raise ValueError("singular matrix")
    dinv = f.inv(det)

    def cof(i, j):
        rows = [r for r in range(3) if r != i]
        cols = [c for c in range(3) if c != j]
        a = f.mul(m[rows[0]][cols[0]], m[rows[1]][cols[1]])
        b = f.mul(m[rows[0]][cols[1]], m[rows[1]][cols[0]])
        val = f.sub(a, b)
        if (i + j) % 2 == 1:
            val = f.neg(val)
        return f.mul(dinv, val)

    # adjugate^T applied: (M^-1)^T[i][j] = cof(i, j) / det
    return tuple(tuple(cof(i, j) for j in range(3)) for i in range(3))


# Companion-matrix coefficients (a0, a1, a2) of x^3 + a2 x^2 + a1 x + a0 used
# together with one transvection to generate the full projective action; the
# pair is validated by an order check in the tests, not trusted.
_PGL_CUBIC: dict[int, tuple[int, int, int]] = {}


def _companion(f: FiniteField, coeffs: tuple[int, int, int]):
    a0, a1, a2 = coeffs
    return (
        (0, 0, f.neg(a0)),
        (1, 0, f.neg(a1)),
        (0, 1, f.neg(a2)),
    )


def _is_irreducible_cubic(f: FiniteField, coeffs: tuple[int, int, int]) -> bool:
    a0, a1, a2 = coeffs
    for x in f.elements:
        x2 = f.mul(x, x)
        val = f.add(f.add(f.add(f.mul(x2, x), f.mul(a2, x2)), f.mul(a1, x)), a0)
        if val == 0:
            return False
    return True


def _first_irreducible_cubic(f: FiniteField) -> tuple[int, int, int]:
    for a2 in f.elements:
        for a1 in f.elements:
            for a0 in f.elements:
                if a0 == 0:
                    continue
                if _is_irreducible_cubic(f, (a0, a1, a2)):
                    return (a0, a1, a2)
    raise RuntimeError("no irreducible cubic found")


def _plane_perm_from_matrix(plane: ProjectivePlane, f: FiniteField, m) -> Perm:
    mt_inv = _inv_transpose(f, m)
    pt_index = {p: i for i, p in enumerate(plane.points)}
    ln_index = {l: i for i, l in enumerate(plane.lines)}
    n1 = plane.size
    images = [0] * (2 * n1)
    for i, p in enumerate(plane.points):
        images[i] = pt_index[_normalize(f, _mat_vec(f, m, p))]
    for j, l in enumerate(plane.lines):
        images[n1 + j] = n1 + ln_index[_normalize(f, _mat_vec(f, mt_inv, l))]
    return tuple(images)


def pgl3_action(q: int) -> GroupSpec:
    """Projective linear action on the point/line vertices of levi_graph(q).

    Generated by the companion matrix of a fixed irreducible cubic and a
    single transvection; the tests pin the resulting order to
    q^8 - q^6 - q^5 + q^3, which certifies that the pair generates.
    """
    f = field_new(q)
    plane = pg2(q)
    coeffs = _PGL_CUBIC.get(q)
    if coeffs is None:
        coeffs = _first_irreducible_cubic(f)
        _PGL_CUBIC[q] = coeffs
    singer = _companion(f, coeffs)
    transvection = ((1, 1, 0), (0, 1, 0), (0, 0, 1))
    gens = [
        _plane_perm_from_matrix(plane, f, singer),
        _plane_perm_from_matrix(plane, f, transvection),
    ]
    return GroupSpec(degree=2 * plane.size, generators=gens, name=f"PGL(3,{q})")


def pgammal3_action(q: int) -> GroupSpec:
    """pgl3_action extended by the entry-wise Frobenius collineation."""
    f = field_new(q)
    plane = pg2(q)
    base = pgl3_action(q)
    pt_index = {p: i for i, p in enumerate(plane.points)}
    ln_index = {l: i for i, l in enumerate(plane.lines)}
    n1 = plane.size
    images = [0] * (2 * n1)
    for i, p in enumerate(plane.points):
        images[i] = pt_index[_normalize(f, tuple(f.frobenius[c] for c in p))]
    for j, l in enumerate(plane.lines):
        images[n1 + j] = n1 + ln_index[_normalize(f, tuple(f.frobenius[c] for c in l))]
    gens = list(base.generators) + [tuple(images)]
    return GroupSpec(degree=2 * n1, generators=gens, name=f"PGammaL(3,{q})")


def levi_order1(k: int, n: int) -> Graph:
    """Bipartite containment graph of (k-1)-subsets versus k-subsets of [n]."""
    if k < 2 or 2 * k >= n:
        raise InvalidParameters(f"need k >= 2 and 2k < n, got k={k}, n={n}")
    if binomial(n, k) + binomial(n, k - 1) > 10**5:
        raise InvalidParameters("vertex count exceeds 10^5")
    left = colex_ksets(n, k - 1)
    right = colex_ksets(n, k)
    nl = len(left)
    right_pos = {s: nl + i for i, s in enumerate(right)}
    edges = []
    for i, u in enumerate(left):
        complement = [x for x in range(n) if x not in u]
        for x in complement:
            v = tuple(sorted(u + (x,)))
            edges.append((i, right_pos[v]))
    side = [0] * nl + [1] * len(right)
    labels = ["s:" + ",".join(map(str, s)) for s in left] + [
        "s:" + ",".join(map(str, s)) for s in right
    ]
    return Graph.from_edges(nl + len(right), edges, side=side, labels=labels)


def kneser_complement(n: int, r: int) -> Graph:
    """r-subsets of [n] joined exactly when they intersect."""
    if r < 3 or n < 2 * r:
        raise InvalidParameters(f"need r >= 3 and n >= 2r, got n={n}, r={r}")
    if binomial(n, r) > 10**4:
        raise InvalidParameters("vertex count exceeds 10^4")
    subsets = colex_ksets(n, r)
    sets = [frozenset(s) for s in subsets]
    edges = []
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            if sets[i] & sets[j]:
                edges.append((i, j))
    labels = ["s:" + ",".join(map(str, s)) for s in subsets]
    return Graph.from_edges(len(sets), edges, labels=labels)


def weak_product(g: Graph, h: Graph) -> Graph:
    """Tensor product: (a,x) ~ (b,y) iff a~b in g and x~y in h; row-major ids."""
    n = g.n * h.n
    if n > 2000:
        raise TooLarge(f"product on {n} vertices exceeds 2000")
    edges = []
    for a, b in g.edges():
        for x, y in h.edges():
            edges.append((a * h.n + x, b * h.n + y))
            edges.append((a * h.n + y, b * h.n + x))
    return Graph.from_edges(n, edges)


def weak_power(g: Graph, n: int) -> Graph:
    """n-fold tensor power with tuple labels, row-major vertex order."""
    if n < 1:
        raise InvalidParameters("need n >= 1")
    if g.n**n > 2000:
        raise TooLarge(f"power on {g.n ** n} vertices exceeds 2000")
    out = g
    for _ in range(n - 1):
        out = weak_product(out, g)
    m = g.n

    def tup(v: int) -> tuple[int, ...]:
        digits = []
        for _ in range(n):
            digits.append(v % m)
            v //= m
        return tuple(reversed(digits))

    labels = ["t:" + ",".join(map(str, tup(v))) for v in range(out.n)]
    return Graph(n=out.n, adj=out.adj, side=None, labels=tuple(labels))


@dataclass(frozen=True)
class SlopeGraphMeta:
    q: int
    slopes: frozenset[int]

    def vertex(self, x: int, y: int) -> int:
        return x * self.q + y

    def coords(self, v: int) -> tuple[int, int]:
        return divmod(v, self.q)


def slope_of(q: int, u: tuple[int, int], v: tuple[int, int]):
    """Slope through two distinct grid points; INFINITY for vertical pairs."""
    if u == v:
        raise InvalidParameters("slope needs distinct points")
    dx = (v[0] - u[0]) % q
    dy = (v[1] - u[1]) % q
    if dx == 0:
        return INFINITY
    return (dy * pow(dx, q - 2, q)) % q


def slope_graph(q: int, slopes) -> tuple[Graph, SlopeGraphMeta]:
    """Graph on the q x q grid joining pairs whose connecting slope is allowed."""
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
    labels = [f"v:{x},{y}" for x in range(q) for y in range(q)]
    return Graph.from_edges(q * q, edges, labels=labels), meta


def affine_line_partition(q: int, alpha) -> list[list[int]]:
    """The q parallel lines of direction alpha as vertex classes of the grid.

    Finite alpha: {(x, alpha*x + c)} indexed by intercept c; INFINITY gives
    the vertical lines {(c, y)}.
    """
    classes = []
    if alpha is INFINITY:
        for c in range(q):
            classes.append([c * q + y for y in range(q)])
        return classes
    a = int(alpha) % q
    for c in range(q):
        classes.append([x * q + ((a * x + c) % q) for x in range(q)])
    return classes


def scalar_translation_action(q: int) -> GroupSpec:
    """Maps (x,y) -> (ax + b1, ay + b2) with a != 0, acting on the grid."""
    if not (is_prime(q) and q % 2 == 1 and q <= 13):
        raise InvalidParameters(f"q must be an odd prime <= 13, got {q}")

    def grid_perm(a: int, b1: int, b2: int) -> Perm:
        return tuple(
            ((a * x + b1) % q) * q + ((a * y + b2) % q) for x in range(q) for y in range(q)
        )

    prim = _primitive_root(q)
    gens = [grid_perm(1, 1, 0), grid_perm(1, 0, 1), grid_perm(prim, 0, 0)]
    return GroupSpec(degree=q * q, generators=gens, name=f"scalings+translations mod {q}")


def _primitive_root(q: int) -> int:
    for g in range(2, q):
        seen = set()
        x = 1
        for _ in range(q - 1):
            x = (x * g) % q
            seen.add(x)
        if len(seen) == q - 1:
            return g
    raise ValueError(f"no primitive root mod {q}")


@dataclass(frozen=True)
class FiberMeta:
    """Vertex bookkeeping for the point/line fiber blow-up of a Levi graph."""

    q: int
    r: int
    s: int
    plane_size: int

    def point_vertex(self, p: int, i: int) -> int:
        if not (0 <= i < self.r):
            raise InvalidParameters(f"point copy index {i} out of range")
        return p * self.r + i

    def line_vertex(self, l: int, j: int) -> int:
        if not (0 <= j < self.s):
            raise InvalidParameters(f"line copy index {j} out of range")
        return self.plane_size * self.r + l * self.s + j

    def point_fiber(self, p: int) -> list[int]:
        return [self.point_vertex(p, i) for i in range(self.r)]

    def line_fiber(self, l: int) -> list[int]:
        return [self.line_vertex(l, j) for j in range(self.s)]

    @property
    def n(self) -> int:
        return self.plane_size * (self.r + self.s)


def levi_tensor_krs(q: int, r: int, s: int) -> tuple[Graph, FiberMeta]:
    """Point fibers of size r versus line fibers of size s, joined by incidence."""
    if not (is_prime(q) and q >= 5):
        raise InvalidParameters(f"q must be a prime >= 5, got {q}")
    if r < 2 or s < 2:
        raise InvalidParameters("need r >= 2 and s >= 2")
    plane = pg2(q)
    n1 = plane.size
    total = n1 * (r + s)
    if total > 2000:
        raise InvalidParameters(f"vertex count {total} exceeds 2000")
    meta = FiberMeta(q=q, r=r, s=s, plane_size=n1)
    edges = []
    for p in range(n1):
        mask = plane.incidence[p]
        while mask:
            l = (mask & -mask).bit_length() - 1
            mask &= mask - 1
            for i in range(r):
                pv = meta.point_vertex(p, i)
                for j in range(s):
                    edges.append((pv, meta.line_vertex(l, j)))
    side = [0] * (n1 * r) + [1] * (n1 * s)
    labels = [
        _coord_label("p", plane.points[p]) + f"#{i}" for p in range(n1) for i in range(r)
    ] + [_coord_label("l", plane.lines[l]) + f"#{j}" for l in range(n1) for j in range(s)]
    return Graph.from_edges(total, edges, side=side, labels=labels), meta


def fiber_swap(meta: FiberMeta, kind: str, v: int, i: int, j: int) -> Perm:
    """Transposition of two copies inside one fiber; always an automorphism."""
    if i == j:
        raise InvalidParameters("need distinct copy indices")
    if kind == "point":
        a, b = meta.point_vertex(v, i), meta.point_vertex(v, j)
    elif kind == "line":
        a, b = meta.line_vertex(v, i), meta.line_vertex(v, j)
    else:
        raise InvalidParameters(f"kind must be 'point' or 'line', got {kind!r}")
    return perm_from_cycles(meta.n, [(a, b)])
