"""Expected-fixer certificates and the analytic bounds that accompany them.

The core quantity: split one color class of a proper coloring uniformly and
independently into t parts, and sum, exactly over a group that stabilizes the
class setwise, the probability that each element still fixes every class.
When that expected count stays below the least prime divisor of the group
order, a distinguishing refinement exists and a seeded randomized search will
find one.  All bound values are exact; half-integer exponents are compared on
squared integer forms and floats appear only in display fields.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, repeat

from .algebra import InvalidParameters, binomial, least_prime_divisor, partition_count
from .coloring import Coloring, is_distinguishing, is_proper, split_color_class
from .families import INFINITY, _check_grid_order, slope_graph
from .graphcore import Graph, SearchTimeout, automorphism_group
from .permgroup import Perm, _Elements, closure, orbit_count_on
from .seeds import derive_seed

__all__ = [
    "ExhaustedTries",
    "HalfPowerBound",
    "InvalidParameters",
    "MotionReport",
    "exact_expected_fixers",
    "favorable_fraction",
    "levi_bound",
    "lg1_bound",
    "lovasz_schrijver_check",
    "max_fixed_ksets",
    "motion",
    "randomized_split_search",
    "slope_mobius",
    "weak_bound",
]


# Random splits randomized_split_search draws before it gives up.
MAX_TRIES = 1000


class ExhaustedTries(RuntimeError):
    pass


@dataclass(frozen=True)
class HalfPowerBound:
    """Exact value of the form 1 + coeff / t**(half_exponent / 2).

    Comparisons square the excess so no irrational number is ever
    materialized; ``approx`` is for display only.
    """

    coeff: int
    t: int
    half_exponent: int

    def excess_squared_pair(self) -> tuple[int, int]:
        # excess^2 == coeff^2 / t^half_exponent
        return self.coeff**2, self.t**self.half_exponent

    def lt_value(self, bound: Fraction | int) -> bool:
        """Exact comparison self < bound (bound must exceed 1)."""
        excess = Fraction(bound) - 1
        if excess <= 0:
            return False
        num, den = self.excess_squared_pair()
        return num * excess.denominator**2 < excess.numerator**2 * den

    def lt(self, other: "HalfPowerBound") -> bool:
        if self.t != other.t:
            raise InvalidParameters("comparisons require a common base")
        a_num, a_den = self.excess_squared_pair()
        b_num, b_den = other.excess_squared_pair()
        return a_num * b_den < b_num * a_den

    def as_fraction(self) -> Fraction:
        if self.half_exponent % 2:
            raise InvalidParameters("half-integer exponent has no exact rational value")
        return 1 + Fraction(self.coeff, self.t ** (self.half_exponent // 2))

    @property
    def approx(self) -> float:
        # log-space dodges float overflow for huge coefficients or exponents
        log_excess = math.log(self.coeff) - 0.5 * self.half_exponent * math.log(self.t)
        try:
            return 1.0 + math.exp(log_excess)
        except OverflowError:
            return math.inf


@dataclass
class MotionReport:
    """Exact certificate data for one (class, group, t) instance."""

    group_order: int
    class_size: int
    t: int
    exact_EN: Fraction
    F_max: int | None
    theta_histogram: dict[int, int]
    least_prime: int | None
    lemma_satisfied: bool
    log_condition: bool
    theta_bound_ok: bool
    motion: int | None = None

    def to_json_dict(self) -> dict:
        payload = {
            "order": self.group_order,
            "class_size": self.class_size,
            "t": self.t,
            "exact_EN": {
                "num": self.exact_EN.numerator,
                "den": self.exact_EN.denominator,
                "approx": float(self.exact_EN),
            },
            "F_max": self.F_max,
            "theta_histogram": {str(k): v for k, v in sorted(self.theta_histogram.items())},
            "least_prime": self.least_prime,
            "lemma_satisfied": self.lemma_satisfied,
            "log_condition": self.log_condition,
        }
        if self.motion is not None:
            payload["motion"] = self.motion
        return payload


def motion(elements: Iterable[Perm]) -> int:
    """Minimum number of points moved by a nontrivial element."""
    best = None
    for p in elements:
        moved = sum(1 for i, v in enumerate(p) if i != v)
        if moved and (best is None or moved < best):
            best = moved
    if best is None:
        raise InvalidParameters("no nontrivial element")
    return best


def _burnside_terms(order: int) -> list[tuple[int, int]]:
    """(d, phi(order / d)) for each divisor d < order of ``order``."""
    terms = []
    for d in range(1, order):
        if order % d == 0:
            m = order // d
            terms.append((d, sum(1 for j in range(1, m + 1) if math.gcd(j, m) == 1)))
    return terms


def _cycle_counts(pairs, pts: list[int], degree: int):
    """(theta, fixed, nontrivial, weight) for each (element, weight) pair.

    theta counts the cycles of the element's restriction sigma to the class
    ``pts`` and fixed its fixed points.  Up to degree 256 theta follows from
    Burnside's lemma, (1/o) * sum over d | o of phi(o/d) * fix(sigma^d), with
    the order o of sigma found by stepping through its powers as bytes; an
    order above |class|, or a larger degree, takes theta from one walk over
    sigma's cycles instead.
    """
    size = len(pts)
    if degree > 256:
        identity = tuple(range(degree))
        for p, w in pairs:
            theta, fixed = orbit_count_on(p, pts)
            yield theta, fixed, fixed < size or p != identity, w
        return
    cls = bytes(pts)
    pad = bytes(range(degree, 256))
    identity = bytes(range(256))
    compose = bytes.translate
    cls_int = int.from_bytes(cls, "little")
    from_bytes = int.from_bytes
    terms: dict[int, list[tuple[int, int]]] = {}
    for p, w in pairs:
        table = p + pad
        sigma = compose(cls, table)
        fixed = (from_bytes(sigma, "little") ^ cls_int).to_bytes(size, "little").count(0)
        powers = [sigma]
        append = powers.append
        q = sigma
        for _ in repeat(None, size):
            if q == cls:
                order = len(powers)
                if order not in terms:
                    terms[order] = _burnside_terms(order)
                total = size
                for d, phi in terms[order]:
                    if d == 1:
                        total += phi * fixed
                    else:
                        total += phi * (from_bytes(powers[d - 1], "little") ^ cls_int).to_bytes(size, "little").count(0)
                theta = total // order
                break
            q = compose(q, table)
            append(q)
        else:
            theta = orbit_count_on(table, pts)[0]
        yield theta, fixed, fixed < size or table != identity, w


def _check_stabilizes(p, pts: list[int], inside: frozenset) -> None:
    """Refuse an element that does not map the class onto itself."""
    images = set()
    for v in pts:
        image = p[v]
        if image not in inside:
            raise InvalidParameters(f"element moves {v} out of the class")
        images.add(image)
    if len(images) < len(pts):
        raise InvalidParameters("element maps two class points to one point")


def exact_expected_fixers(c1, elements: Sequence[Perm], t: int, threads: int = 1) -> MotionReport:
    """Exact expected number of elements fixing every class after a t-split.

    ``c1`` is the vertex set of the class to be split and ``elements`` the
    elements of a group that stabilizes ``c1`` setwise.  The sequence
    ``closure`` returns is summed as it stands, once the strong generators
    of its chain are checked to stabilize ``c1``: they generate the group,
    so it stabilizes ``c1`` exactly when they do.  Any other sequence is
    read once into a list; each of its elements must have the first one's
    degree and stabilize ``c1``, and the list must hold as many distinct
    elements as the group they generate has, so that it is that group; the
    sum then runs over the group's ``closure``.  The sum includes the
    identity's contribution of exactly 1, and the per-element cycle bound
    2*theta <= fixed + |c1| is recorded as it is computed.
    ``theta_histogram`` is sorted by theta.  The sum runs
    in one process: ``threads`` accepts only 1, and is kept because the
    benchmark harness (``bench/workloads.py``) still passes ``threads=1``.
    """
    if threads != 1:
        raise InvalidParameters(f"threads must be 1, got {threads}")
    if t < 2:
        raise InvalidParameters("need t >= 2")
    if not isinstance(elements, _Elements):
        elements = list(elements)
    if not elements:
        raise InvalidParameters("need at least the identity")
    pts = sorted(set(c1))
    if not pts:
        raise InvalidParameters("the class is empty")
    size = len(pts)
    degree = len(elements[0])
    if pts[0] < 0 or pts[-1] >= degree:
        bad = pts[0] if pts[0] < 0 else pts[-1]
        raise InvalidParameters(f"class point {bad} is not a point of the degree-{degree} action")
    inside = frozenset(pts)
    if isinstance(elements, _Elements):
        group = elements
        for g, _ in group._gens:
            _check_stabilizes(g, pts, inside)
    else:
        for p in elements:
            if len(p) != degree:
                raise InvalidParameters("elements must share a degree")
            _check_stabilizes(p, pts, inside)
        if len(set(map(tuple, elements))) != len(elements):
            raise InvalidParameters("element list repeats an element")
        group = closure(elements)
        if len(group) != len(elements):
            raise InvalidParameters(
                f"element list is not a group: it generates one of order {len(group)}, not {len(elements)}"
            )
    histogram: dict[int, int] = {}
    f_max: int | None = None
    theta_bound_ok = True
    # Conjugation keeps the cycle type of an element's restriction to the
    # class, and so theta, the fixed count and whether the element is the
    # identity.  So the sum takes one element per block of cosets that
    # conjugation permutes, weighted by the block's size, at every chain
    # level (see ``_Elements.pair_orbit_weighted``).
    for theta, fixed, nontrivial, w in _cycle_counts(group.pair_orbit_weighted(), pts, degree):
        if 2 * theta > fixed + size:
            theta_bound_ok = False
        histogram[theta] = histogram.get(theta, 0) + w
        if nontrivial and (f_max is None or fixed > f_max):
            f_max = fixed
    order = len(group)
    histogram = dict(sorted(histogram.items()))
    numerator = sum(count * t**theta for theta, count in histogram.items())
    exact_en = Fraction(numerator, t**size)
    if order >= 2:
        lp = least_prime_divisor(order)
        lemma = exact_en < lp
        log_cond = f_max is not None and t ** (size - f_max) > order * order
    else:
        lp = None
        lemma = True  # trivial group: any split is already distinguishing
        log_cond = True
    return MotionReport(
        group_order=order,
        class_size=size,
        t=t,
        exact_EN=exact_en,
        F_max=f_max,
        theta_histogram=histogram,
        least_prime=lp,
        lemma_satisfied=lemma,
        log_condition=log_cond,
        theta_bound_ok=theta_bound_ok,
    )


def randomized_split_search(
    g: Graph,
    c: Coloring,
    class_id: int,
    t: int,
    report: MotionReport,
    seed: int,
) -> Coloring:
    """Split one class at random until the coloring becomes distinguishing.

    Requires a satisfied certificate; under it the per-try failure probability
    is at most exact_EN - 1, so success within a handful of tries is
    overwhelming.
    """
    if not report.lemma_satisfied:
        raise InvalidParameters("certificate does not hold; search refused")
    for i in range(MAX_TRIES):
        candidate = split_color_class(c, class_id, t, seed=derive_seed(seed, "split", i))
        if not is_proper(g, candidate):
            continue
        ok, _ = is_distinguishing(g, candidate)
        if ok:
            return candidate
    raise ExhaustedTries(f"no distinguishing split found in {MAX_TRIES} tries")


def levi_bound(q: int, t: int) -> HalfPowerBound:
    """Certificate bound for the incidence graph of the order-q plane.

    Exact value of COEFF / t**((q^2+1)/2) + 1 where COEFF is the projective
    group order polynomial q^8 - q^6 - q^5 + q^3, multiplied by the exact
    extension degree n when q = p^n is a proper prime power.
    """
    from .algebra import is_prime_power

    pk = is_prime_power(q)
    if pk is None:
        raise InvalidParameters(f"q={q} is not a prime power")
    if t < 2:
        raise InvalidParameters("need t >= 2")
    _, n = pk
    coeff = q**8 - q**6 - q**5 + q**3
    if n > 1:
        coeff *= n
    return HalfPowerBound(coeff=coeff, t=t, half_exponent=q * q + 1)


def levi_bound_log2_display(q: int, t: int) -> float:
    """Float of the log2(q)-weighted variant, for side-by-side reporting."""
    coeff = (q**8 - q**6 - q**5 + q**3) * math.log2(q)
    return 1.0 + coeff / t ** ((q * q + 1) / 2)


def lg1_bound(n: int, k: int) -> HalfPowerBound:
    """Certificate bound n! / 2**K + 1 for the subset-containment graph."""
    if k < 4 or 2 * k >= n:
        raise InvalidParameters(f"need k >= 4 and 2k < n, got k={k}, n={n}")
    two_k = binomial(n, k) - binomial(n - 2, k - 2) - binomial(n - 2, k)
    return HalfPowerBound(coeff=math.factorial(n), t=2, half_exponent=two_k)


def weak_bound(m: int, aut_order: int, n: int, c1_size: int) -> HalfPowerBound:
    """Certificate bound n! * aut_order**n / 2**(m**(n-1)) + 1 for tensor powers."""
    if m < 3 or n < 4:
        raise InvalidParameters(f"need m >= 3 and n >= 4, got m={m}, n={n}")
    if c1_size < 1 or aut_order < 1:
        raise InvalidParameters("invalid factor data")
    # fixed <= (c1_size - 2) m^(n-1) while the class has c1_size m^(n-1)
    # vertices, so the exponent collapses to m^(n-1) independent of c1_size.
    coeff = math.factorial(n) * aut_order**n
    return HalfPowerBound(coeff=coeff, t=2, half_exponent=2 * m ** (n - 1))


def max_fixed_ksets(n: int, k: int) -> tuple[int, tuple[int, ...]]:
    """Maximum number of k-subsets fixed by a nontrivial permutation of [n].

    Exhaustive over cycle types for n <= 12 (every permutation of a type fixes
    the same number of subsets), with a check that only transpositions attain
    the maximum when n > 4.  Larger n uses the closed form directly.
    Returns (maximum, maximizing cycle type).
    """
    if not 1 <= k < n:
        raise InvalidParameters(f"need 1 <= k < n, got k={k}, n={n}")
    transposition = tuple([2] + [1] * (n - 2))
    if n > 12:
        return binomial(n - 2, k - 2) + binomial(n - 2, k), transposition

    def partitions(total: int, largest: int):
        if total == 0:
            yield ()
            return
        for first in range(min(total, largest), 0, -1):
            for rest in partitions(total - first, first):
                yield (first,) + rest

    best = -1
    best_type: tuple[int, ...] = ()
    attained_by: list[tuple[int, ...]] = []
    for ctype in partitions(n, n):
        if all(c == 1 for c in ctype):
            continue  # identity
        # subsets fixed by a permutation of this type: unions of whole cycles
        poly = [0] * (k + 1)
        poly[0] = 1
        for c in ctype:
            if c <= k:
                for deg in range(k, c - 1, -1):
                    poly[deg] += poly[deg - c]
        fixed = poly[k]
        if fixed > best:
            best = fixed
            best_type = ctype
            attained_by = [ctype]
        elif fixed == best:
            attained_by.append(ctype)
    if n > 4:
        expected = binomial(n - 2, k - 2) + binomial(n - 2, k)
        if best != expected or attained_by != [transposition]:
            raise ArithmeticError(
                f"max fixed {k}-subsets of [{n}]: found {best} attained by {attained_by}, "
                f"theorem gives {expected} attained only by a transposition"
            )
    return best, best_type


def slope_mobius(q: int, matrix: tuple[int, int, int, int], alpha):
    """Induced slope action of a linear map, on the projective slope line.

    ``matrix`` is (a, b, c, d) for the map (x, y) -> (ax + by, cx + dy); the
    induced action sends a slope alpha to (d*alpha + c) / (a + b*alpha), with
    the vertical direction INFINITY handled by the usual conventions.
    """
    a, b, c, d = (x % q for x in matrix)
    if (a * d - b * c) % q == 0:
        raise InvalidParameters("ad - bc must be nonzero")
    if alpha is INFINITY:
        if b == 0:
            return INFINITY
        return (d * pow(b, q - 2, q)) % q
    al = int(alpha) % q
    denom = (a + b * al) % q
    if denom == 0:
        return INFINITY
    return ((d * al + c) * pow(denom, q - 2, q)) % q


def favorable_fraction(q: int, trials: int = 50, seed: int = 0) -> dict:
    """Sampled distribution of slope-graph symmetry orders.

    Each trial draws a slope set, runs the generic automorphism search, and
    records whether the order equals the baseline q^2(q-1) of scalings plus
    translations.  The exact union-bound value
    (q^2-1)(q^2-q) * 2 p((q-1)/2) / C(q, (q-1)/2) is reported alongside.
    Timeouts are counted per trial, not raised; samples keep trial order.
    """
    if trials < 1:
        raise InvalidParameters(f"trials must be at least 1, got {trials}")
    t = (q - 1) // 2
    baseline = q * q * (q - 1)
    bound_value = Fraction((q**2 - 1) * (q**2 - q) * 2 * partition_count(t), binomial(q, t))
    sampled = []
    timeouts = 0
    for i in range(trials):
        rng = random.Random(derive_seed(seed, "gs-sample", q, i))
        s = sorted(rng.sample(range(q), t))
        graph, _ = slope_graph(q, s)
        try:
            order = automorphism_group(graph).order
        except SearchTimeout:
            timeouts += 1
            continue
        sampled.append({"slopes": s, "aut_order": order, "baseline": order == baseline})
    done = len(sampled)
    equal = sum(1 for rec in sampled if rec["baseline"])
    return {
        "q": q,
        "mode": "montecarlo",
        "baseline_order": baseline,
        "trials": done,
        "timeouts": timeouts,
        "fraction_equal": (equal / done) if done else None,
        "bound_value": bound_value,
        "samples": sampled,
    }


def lovasz_schrijver_check(q: int) -> dict:
    """Check that every q-point set of AG(2,q) that is not a line spans at
    least (q+3)/2 directions, the vertical included (Lovasz and Schrijver,
    "Remarks on a theorem of Redei", 1981).

    Affine maps permute directions, AGL(2,q) is sharply transitive on ordered
    non-collinear triples, and every non-line set holds such a triple.  So the
    q-subsets that contain the frame {(0,0), (1,0), (0,1)}, none of them a
    line, reach every non-line q-set up to an affine map, and only they are
    enumerated: C(q^2-3, q-3) subsets, 231 at q = 5 and 163,185 at q = 7 but
    about 7.3e11 at q = 11, which is out of reach.
    """
    _check_grid_order(q)
    frame = ((0, 0), (1, 0), (0, 1))
    rest = [(x, y) for x in range(q) for y in range(q) if (x, y) not in frame]

    def direction(a, b) -> int:
        # bit s for the slope s in GF(q), bit q for the vertical
        dx, dy = (b[0] - a[0]) % q, (b[1] - a[1]) % q
        return 1 << (q if dx == 0 else dy * pow(dx, q - 2, q) % q)

    o, ex, ey = frame
    frame_dirs = direction(o, ex) | direction(o, ey) | direction(ex, ey)
    to_frame = [direction(p, o) | direction(p, ex) | direction(p, ey) for p in rest]
    pair = [[direction(a, b) for b in rest] for a in rest]
    need = (q + 3) // 2
    least = q + 1
    checked = 0
    violations = []
    for idx in combinations(range(len(rest)), q - 3):
        dirs = frame_dirs
        for k, i in enumerate(idx):
            dirs |= to_frame[i]
            row = pair[i]
            for j in idx[k + 1:]:
                dirs |= row[j]
        count = dirs.bit_count()
        checked += 1
        least = min(least, count)
        if count < need:
            violations.append(frame + tuple(rest[i] for i in idx))
    return {
        "q": q,
        "checked": checked,
        "least_slopes": least,
        "required_slopes": need,
        "violations": violations,
    }
