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
from dataclasses import dataclass
from fractions import Fraction

from .algebra import InvalidParameters, binomial, least_prime_divisor, partition_count
from .coloring import Coloring, is_distinguishing, is_proper, split_color_class
from .graphcore import Graph, SearchTimeout, automorphism_group
from .permgroup import Perm
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


def motion(elements: list[Perm]) -> int:
    """Minimum number of points moved by a nontrivial element."""
    best = None
    for p in elements:
        moved = sum(1 for i, v in enumerate(p) if i != v)
        if moved and (best is None or moved < best):
            best = moved
    if best is None:
        raise InvalidParameters("no nontrivial element")
    return best


def _fixer_chunk(args) -> tuple[dict[int, int], int | None, bool]:
    """Per-chunk cycle statistics: (theta histogram, max fixed count, bound ok).

    Separate top-level function so thread pools can ship element slices to
    workers; the reduction in the caller merges chunk results in slice order.
    """
    elements, pts, top, pos = args
    size = len(pts)
    histogram: dict[int, int] = {}
    f_max: int | None = None
    theta_bound_ok = True
    seen = [0] * top
    stamp = 0
    for p in elements:
        stamp += 1
        for v in pts:
            img = p[v]
            if img >= top or pos[img] < 0:
                raise InvalidParameters(f"element moves {v} out of the class")
        theta = 0
        fixed = 0
        for v in pts:
            if seen[v] == stamp:
                continue
            theta += 1
            if p[v] == v:
                fixed += 1
                seen[v] = stamp
                continue
            w = v
            while seen[w] != stamp:
                seen[w] = stamp
                w = p[w]
        if 2 * theta > fixed + size:
            theta_bound_ok = False
        histogram[theta] = histogram.get(theta, 0) + 1
        if fixed < size:
            nontrivial = True
        else:
            nontrivial = any(i != v for i, v in enumerate(p))
        if nontrivial and (f_max is None or fixed > f_max):
            f_max = fixed
    return histogram, f_max, theta_bound_ok


def exact_expected_fixers(c1, elements: list[Perm], t: int, threads: int = 1) -> MotionReport:
    """Exact expected number of elements fixing every class after a t-split.

    ``c1`` is the vertex set of the class to be split and ``elements`` the
    full list of group elements, identity included; every element must
    stabilize ``c1`` setwise.  The sum includes the identity's contribution
    of exactly 1, and the per-element cycle bound 2*theta <= fixed + |c1| is
    recorded as it is computed.  ``threads`` > 1 partitions the element list;
    chunk results merge in slice order so the exact rational is unchanged.
    """
    if t < 2:
        raise InvalidParameters("need t >= 2")
    if not elements:
        raise InvalidParameters("need at least the identity")
    pts = sorted(set(c1))
    size = len(pts)
    top = max(pts) + 1
    pos = [-1] * top
    for i, v in enumerate(pts):
        pos[v] = i
    if threads > 1 and len(elements) > 1000:
        from concurrent.futures import ProcessPoolExecutor

        step = (len(elements) + threads - 1) // threads
        chunks = [elements[i : i + step] for i in range(0, len(elements), step)]
        with ProcessPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(_fixer_chunk, [(ch, pts, top, pos) for ch in chunks]))
    else:
        parts = [_fixer_chunk((elements, pts, top, pos))]
    histogram: dict[int, int] = {}
    f_max: int | None = None
    theta_bound_ok = True
    for hist, fm, ok in parts:
        for theta, count in hist.items():
            histogram[theta] = histogram.get(theta, 0) + count
        if fm is not None and (f_max is None or fm > f_max):
            f_max = fm
        theta_bound_ok = theta_bound_ok and ok
    numerator = sum(count * t**theta for theta, count in histogram.items())
    exact_en = Fraction(numerator, t**size)
    order = len(elements)
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
        raise InvalidParameters(f"need 1 <= k < n")
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
    from .families import INFINITY

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


def _slope_aut_order(args) -> int | None:
    """Worker for one slope-set trial; None encodes a search timeout."""
    q, s = args
    from .families import slope_graph

    graph, _ = slope_graph(q, s)
    try:
        return automorphism_group(graph).order
    except SearchTimeout:
        return None


def favorable_fraction(q: int, trials: int = 50, seed: int = 0, threads: int = 1) -> dict:
    """Sampled distribution of slope-graph symmetry orders.

    Each trial draws a slope set, runs the generic automorphism search, and
    records whether the order equals the baseline q^2(q-1) of scalings plus
    translations.  The exact union-bound value
    (q^2-1)(q^2-q) * 2 p((q-1)/2) / C(q, (q-1)/2) is reported alongside.
    Timeouts are counted per trial, not raised.  ``threads`` > 1 spreads the
    independent trials over worker processes; results keep trial order.
    """
    t = (q - 1) // 2
    baseline = q * q * (q - 1)
    bound_value = Fraction((q**2 - 1) * (q**2 - q) * 2 * partition_count(t), binomial(q, t))
    subsets = []
    for i in range(trials):
        rng = random.Random(derive_seed(seed, "gs-sample", q, i))
        subsets.append(sorted(rng.sample(range(q), t)))
    jobs = [(q, s) for s in subsets]
    if threads > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=threads) as pool:
            orders = list(pool.map(_slope_aut_order, jobs))
    else:
        orders = [_slope_aut_order(job) for job in jobs]
    sampled = []
    timeouts = 0
    for s, order in zip(subsets, orders):
        if order is None:
            timeouts += 1
            continue
        sampled.append({"slopes": list(s), "aut_order": order, "baseline": order == baseline})
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


def lovasz_schrijver_check(
    q: int, mode: str = "exhaustive", trials: int = 10**6, seed: int = 0
) -> dict:
    """Check that non-line q-point sets in the grid span many slopes.

    Exhaustive mode enumerates every q-subset of the q x q grid; sampled mode
    draws ``trials`` random subsets.  A subset that is not an affine line must
    realize at least (q+3)/2 distinct slopes (vertical included).
    """
    from itertools import combinations

    if mode not in ("exhaustive", "sampled"):
        raise InvalidParameters(f"unknown mode {mode!r}")
    points = [(x, y) for x in range(q) for y in range(q)]
    inv = [0] * q
    for d in range(1, q):
        inv[d] = pow(d, q - 2, q)
    # slope encoded as 0..q-1, vertical as q
    slope_code = [[0] * q for _ in range(q)]
    for dx in range(q):
        for dy in range(q):
            slope_code[dx][dy] = q if dx == 0 else (dy * inv[dx]) % q
    need = (q + 3) // 2
    lines = 0
    checked = 0
    violations = []
    if mode == "exhaustive":
        iterator = combinations(points, q)
    else:
        rng = random.Random(derive_seed(seed, "ls-sample", q))

        def sample_iter():
            for _ in range(trials):
                yield tuple(rng.sample(points, q))

        iterator = sample_iter()
    for subset in iterator:
        checked += 1
        slopes = set()
        collinear = True
        first_slope = None
        for i in range(q):
            xi, yi = subset[i]
            for j in range(i + 1, q):
                xj, yj = subset[j]
                code = slope_code[(xj - xi) % q][(yj - yi) % q]
                slopes.add(code)
                if first_slope is None:
                    first_slope = code
                elif code != first_slope:
                    collinear = False
        if collinear:
            lines += 1
        elif len(slopes) < need:
            violations.append(subset)
    return {
        "q": q,
        "mode": mode,
        "checked": checked,
        "lines_seen": lines,
        "required_slopes": need,
        "violations": violations,
    }
