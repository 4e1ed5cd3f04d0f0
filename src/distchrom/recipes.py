"""Named reproduction recipes behind the ``reproduce`` command.

Each recipe runs one family's verification computations and returns a list of
checks, every check carrying its exact values.  A failed check is reported,
never silently repaired, so a recipe's verdict reflects what the computations
actually establish.
"""

from __future__ import annotations

from fractions import Fraction

from . import coloring as col
from . import families, graphcore
from .motion import (
    exact_expected_fixers,
    favorable_fraction,
    levi_bound,
    levi_bound_log2_display,
    lg1_bound,
    lovasz_schrijver_check,
    max_fixed_ksets,
    motion,
    randomized_split_search,
    weak_bound,
    ExhaustedTries,
)
from .permgroup import closure, induced_action_on_ksets
from .seeds import derive_seed

__all__ = ["RECIPES", "run_recipe"]

DEFAULT_SEED = 20260808


def _check(checks: list, cid: str, description: str, passed: bool, **values) -> bool:
    checks.append({"id": cid, "description": description, "passed": bool(passed), **values})
    return bool(passed)


def _fraction_fields(x: Fraction) -> dict:
    return {"num": x.numerator, "den": x.denominator, "approx": float(x)}


def _distinguishing_split(g, base, class_id, t, report, seed, checks, cid, desc):
    try:
        found = randomized_split_search(g, base, class_id=class_id, t=t, report=report, seed=seed)
    except ExhaustedTries:
        _check(checks, cid, desc, False, error="exhausted tries")
        return None
    ok_proper = col.is_proper(g, found)
    ok_dist, _ = col.is_distinguishing(g, found)
    _check(checks, cid, desc, ok_proper and ok_dist, colors=found.k)
    return found


def recipe_levi(seed: int = DEFAULT_SEED, threads: int = 1) -> list[dict]:
    """Exact split certificates for the plane incidence graphs, plus bounds."""
    checks: list[dict] = []
    lo, hi = Fraction(11, 10), Fraction(13, 10)

    lg5 = families.levi_graph(5)
    pgl5 = families.pgl3_action(5)
    els5 = pgl5.elements()
    rep5 = exact_expected_fixers(range(31), els5, 2, threads=threads)
    _check(
        checks,
        "levi5-en-range",
        "exact split certificate for the order-5 plane lies in [1.1, 1.3]",
        lo <= rep5.exact_EN <= hi and rep5.lemma_satisfied,
        exact_EN=_fraction_fields(rep5.exact_EN),
        group_order=rep5.group_order,
    )
    _check(
        checks,
        "levi5-theta-bound",
        "per-element cycle bound holds across the whole group",
        rep5.theta_bound_ok,
    )
    sides5 = col.Coloring.from_sequence([1] * 31 + [2] * 31)
    _distinguishing_split(
        lg5, sides5, 1, 2, rep5, derive_seed(seed, "levi5-split"), checks,
        "levi5-split-3coloring",
        "random 2-split of the point class yields a verified distinguishing proper 3-coloring",
    )

    lg4 = families.levi_graph(4)
    pgm4 = families.pgammal3_action(4)
    els4 = pgm4.elements()
    rep4 = exact_expected_fixers(range(21), els4, 3, threads=threads)
    _check(
        checks,
        "levi4-en-range",
        "exact split certificate for the order-4 plane (t=3) lies in [1.1, 1.3]",
        lo <= rep4.exact_EN <= hi and rep4.lemma_satisfied,
        exact_EN=_fraction_fields(rep4.exact_EN),
        group_order=rep4.group_order,
    )
    _distinguishing_split(
        lg4, col.Coloring.from_sequence([1] * 21 + [2] * 21), 1, 3, rep4,
        derive_seed(seed, "levi4-split"), checks,
        "levi4-split-4coloring",
        "random 3-split of the point class yields a verified distinguishing proper 4-coloring",
    )

    b7 = levi_bound(7, 2)
    _check(
        checks,
        "bound-q7-exact",
        "closed-form bound at q=7, t=2 equals 5630688/2^25 + 1 and is < 2",
        b7.as_fraction() == Fraction(5630688, 2**25) + 1 and b7.lt_value(2),
        value=_fraction_fields(b7.as_fraction()),
        note="reported-versus-exact gap: commonly quoted as about 1.3, exact value is about 1.168",
    )
    b8, b11, b13 = levi_bound(8, 2), levi_bound(11, 2), levi_bound(13, 2)
    _check(
        checks,
        "bound-monotone",
        "bound strictly decreases along q = 7, 8, 11, 13",
        b8.lt(b7) and b11.lt(b8) and b13.lt(b11),
        approx=[b7.approx, b8.approx, b11.approx, b13.approx],
    )
    _check(
        checks,
        "bound-q8-small",
        "bound at q=8 (weighted by the exact extension degree 3) is below 1.05",
        b8.lt_value(Fraction(21, 20)),
        approx=b8.approx,
        log2_form=levi_bound_log2_display(8, 2),
    )
    trivial = exact_expected_fixers(range(31), [bytes(range(62))], 2)
    _check(
        checks,
        "trivial-group-en",
        "trivial group gives an exact expected count of 1",
        trivial.exact_EN == 1,
    )
    het = motion(closure(graphcore.automorphism_group(families.levi_graph(2)).generators))
    _check(
        checks,
        "levi2-motion",
        "minimum motion over the full symmetry group of the order-2 incidence graph",
        het == 8,
        value=het,
    )
    return checks


def recipe_lg1(seed: int = DEFAULT_SEED, threads: int = 1) -> list[dict]:
    """Subset-containment graphs: rigid colorings and the factorial certificate."""
    checks: list[dict] = []
    g26 = families.levi_order1(2, 6)
    aut26 = graphcore.automorphism_group(g26)
    _check(checks, "lg1-26-aut", "containment graph (2,6) has symmetric-group symmetry 720",
           aut26.order == 720, order=aut26.order)
    c26 = col.lg1_explicit_coloring(2, 6)
    ok26 = col.is_proper(g26, c26) and col.is_distinguishing(g26, c26)[0]
    _check(checks, "lg1-26-explicit", "rigid-edge-set 3-coloring at (2,6) is proper and distinguishing",
           ok26, class_sizes=sorted(len(x) for x in c26.classes()))
    g37 = families.levi_order1(3, 7)
    c37 = col.lg1_explicit_coloring(3, 7)
    _check(checks, "lg1-37-explicit", "rigid-edge-set 3-coloring at (3,7) is proper and distinguishing",
           col.is_proper(g37, c37) and col.is_distinguishing(g37, c37)[0])
    f, argmax = max_fixed_ksets(6, 2)
    _check(checks, "lg1-maxfixed-62", "maximum fixed 2-subsets over nontrivial permutations of [6]",
           f == 7 and argmax == (2, 1, 1, 1, 1), value=f, argmax=list(argmax))
    b = lg1_bound(9, 4)
    _check(checks, "lg1-bound-94", "factorial-over-power bound at (9,4) is below 2",
           b.lt_value(2), value=_fraction_fields(b.as_fraction()))
    s9 = induced_action_on_ksets(9, 4)
    els = s9.elements()
    rep = exact_expected_fixers(range(126), els, 2, threads=threads)
    _check(checks, "lg1-s9-en", "exact certificate over the induced action on 4-subsets of [9] is below 2",
           rep.exact_EN < 2 and rep.lemma_satisfied and rep.theta_bound_ok,
           exact_EN=_fraction_fields(rep.exact_EN), group_order=rep.group_order)
    g49 = families.levi_order1(4, 9)
    sides = col.Coloring.from_sequence([1] * 84 + [2] * 126)
    _distinguishing_split(
        g49, sides, 2, 2, rep, derive_seed(seed, "lg1-split"), checks,
        "lg1-49-split-3coloring",
        "random 2-split of the 4-subset side yields a verified distinguishing proper 3-coloring",
    )
    return checks


def recipe_weak(seed: int = DEFAULT_SEED, threads: int = 1) -> list[dict]:
    """Tensor power of the triangle: symmetry structure and the +1 coloring."""
    checks: list[dict] = []
    k3 = graphcore.Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    wp = families.weak_power(k3, 4)
    aut = graphcore.automorphism_group(wp)
    from .permgroup import GroupSpec, perm_from_cycles, wreath_action

    s3 = GroupSpec(degree=3, generators=[perm_from_cycles(3, [(0, 1)]), perm_from_cycles(3, [(0, 1, 2)])])
    wreath = wreath_action(s3, 4)
    _check(checks, "weak-aut-31104", "generic symmetry order matches the coordinate wreath construction",
           aut.order == 31104 == wreath.order(), order=aut.order)
    _check(checks, "weak-rthin", "no two vertices share a neighborhood", graphcore.is_r_thin(wp))
    chi = col.chromatic_number(wp)
    _check(checks, "weak-chi-3", "chromatic number is 3", chi == 3, value=chi)
    factor_classes = [[v for v in range(81) if (v // 27) == i] for i in range(3)]
    factor = col.Coloring.from_classes(81, factor_classes)
    all_fixed = True
    for coord in range(4):
        div = 3 ** (3 - coord)
        classes = [[v for v in range(81) if (v // div) % 3 == i] for i in range(3)]
        c = col.Coloring.from_classes(81, classes)
        ok, _ = col.is_distinguishing(wp, c)
        if ok:
            all_fixed = False
    _check(checks, "weak-factor-colorings",
           "every factor-induced proper 3-coloring admits a nontrivial class-preserving automorphism",
           all_fixed)
    sub = graphcore.color_preserving_automorphisms(wp, factor)
    els = closure(sub.generators)
    rep = exact_expected_fixers(range(27), els, 2, threads=threads)
    _check(checks, "weak-en", "exact certificate over the class-preserving subgroup is below 2",
           rep.lemma_satisfied and rep.theta_bound_ok,
           exact_EN=_fraction_fields(rep.exact_EN), group_order=rep.group_order)
    _distinguishing_split(
        wp, factor, 1, 2, rep, derive_seed(seed, "weak-split"), checks,
        "weak-split-4coloring",
        "random 2-split of one factor class yields a verified distinguishing proper 4-coloring",
    )
    wb = weak_bound(3, 6, 4, 1)
    _check(checks, "weak-bound", "closed-form tensor bound 24*1296/2^27 + 1 is below 2",
           wb.lt_value(2) and wb.as_fraction() == 1 + Fraction(24 * 1296, 2**27),
           value=_fraction_fields(wb.as_fraction()))
    return checks


def recipe_gs(seed: int = DEFAULT_SEED, trials: int = 50, threads: int = 1) -> list[dict]:
    """Slope graphs: the q=5 sweep and sampled symmetry orders at q=11, 13."""
    checks: list[dict] = []
    q = 5
    line_sets = set()
    for alpha in list(range(q)) + [families.INFINITY]:
        for cls in families.affine_line_partition(q, alpha):
            line_sets.add(frozenset(cls))
    slope_sets = [[1, 2]]
    import random as _random

    rng = _random.Random(derive_seed(seed, "gs-extra-sets"))
    while len(slope_sets) < 3:
        s = sorted(rng.sample(range(q), 2))
        if s not in slope_sets:
            slope_sets.append(s)
    for s in slope_sets:
        tag = "".join(map(str, s))
        g, meta = families.slope_graph(q, s)
        chi = col.chromatic_number(g)
        _check(checks, f"gs-chi-{tag}", f"chromatic number of the q=5 slope graph, slopes {s}",
               chi == 5, value=chi)
        total = 0
        line_colorings = 0
        distinguishing = 0
        for c in col.enumerate_proper_colorings(g, 5):
            total += 1
            if all(frozenset(cl) in line_sets for cl in c.classes()):
                line_colorings += 1
            ok, _ = col.is_distinguishing(g, c)
            if ok:
                distinguishing += 1
        _check(checks, f"gs-lines-{tag}",
               "every proper 5-coloring has affine-line color classes",
               line_colorings == total, total=total, line_colorings=line_colorings)
        _check(checks, f"gs-nodist-{tag}",
               "no proper 5-coloring is distinguishing (so a sixth color would be forced)",
               distinguishing == 0, distinguishing=distinguishing, total=total)
        gamma = next(x for x in range(q) if x not in s and x != 1)
        plus = col.gs_plus_one_coloring(q, s, gamma)
        ok_dist, _ = col.is_distinguishing(g, plus)
        _check(checks, f"gs-plusone-{tag}",
               "line coloring with a recolored origin is proper and distinguishing",
               col.is_proper(g, plus) and ok_dist, gamma=gamma, distinguishing=ok_dist)
    ls = lovasz_schrijver_check(5, mode="exhaustive")
    _check(checks, "gs-ls-q5",
           "every non-line 5-subset of the grid spans at least 4 directions (exhaustive)",
           not ls["violations"], checked=ls["checked"], lines_seen=ls["lines_seen"])
    aut100 = None
    from itertools import combinations

    for s in combinations(range(q), 2):
        g, _meta = families.slope_graph(q, list(s))
        order = graphcore.automorphism_group(g).order
        if order == 100:
            aut100 = list(s)
            break
    _check(checks, "gs-aut100-exists",
           "some slope set at q=5 has the baseline symmetry order 100",
           aut100 is not None, found=aut100)
    for qq in (11, 13):
        rep = favorable_fraction(qq, trials=trials, seed=derive_seed(seed, "gs-mc", qq), threads=threads)
        divisible = all(r["aut_order"] % rep["baseline_order"] == 0 for r in rep["samples"])
        _check(checks, f"gs-divisibility-q{qq}",
               "baseline scaling-translation order divides every sampled symmetry order",
               divisible and rep["trials"] >= trials, trials=rep["trials"])
        if qq == 13:
            _check(checks, "gs-fraction-q13",
                   "fraction of sampled slope sets with exactly the baseline order is at least 0.9",
                   rep["fraction_equal"] is not None and rep["fraction_equal"] >= 0.9,
                   fraction=rep["fraction_equal"],
                   bound_value=_fraction_fields(rep["bound_value"]))
        else:
            _check(checks, f"gs-fraction-q{qq}-report",
                   "fraction with exactly the baseline order (reported)",
                   True, fraction=rep["fraction_equal"])
    return checks


def recipe_kneser(seed: int = DEFAULT_SEED, trials: int = 1000, threads: int = 1) -> list[dict]:
    """Intersecting-subset graphs: random proper colorings and symmetry orders."""
    checks: list[dict] = []
    for n, r in ((6, 3), (7, 3)):
        g = families.kneser_complement(n, r)
        aut = graphcore.automorphism_group(g)
        import math

        _check(checks, f"kneser-{n}{r}-aut",
               f"symmetry order of the intersecting {r}-subset graph on [{n}] equals {n}!",
               aut.order == math.factorial(n), order=aut.order, expected=math.factorial(n))
        chi = col.chromatic_number(g)
        failures = 0
        infeasible = 0
        for i in range(trials):
            try:
                c = col.random_proper_coloring(g, chi, seed=derive_seed(seed, "kneser", n, r, i))
            except col.Infeasible:
                infeasible += 1
                continue
            ok, _ = col.is_distinguishing(g, c)
            if not ok:
                failures += 1
        _check(checks, f"kneser-{n}{r}-colorings",
               f"{trials} seeded random proper {chi}-colorings are all distinguishing",
               failures == 0 and infeasible == 0,
               failures=failures, generation_failures=infeasible, trials=trials, chi=chi)
    return checks


def recipe_krs(seed: int = DEFAULT_SEED, trials: int = 100, threads: int = 1) -> list[dict]:
    """Fiber blow-up of the order-5 plane: the +1 coloring and the lower-bound sweep."""
    checks: list[dict] = []
    g, meta = families.levi_tensor_krs(5, 2, 2)
    lg5 = families.levi_graph(5)
    pgl5 = families.pgl3_action(5)
    rep5 = exact_expected_fixers(range(31), pgl5.elements(), 2, threads=threads)
    sides5 = col.Coloring.from_sequence([1] * 31 + [2] * 31)
    base3 = randomized_split_search(
        lg5, sides5, class_id=1, t=2, report=rep5, seed=derive_seed(seed, "krs-base3")
    )
    ok_base = col.is_proper(lg5, base3) and col.is_distinguishing(lg5, base3)[0]
    _check(checks, "krs-base3", "line-monochromatic distinguishing 3-coloring of the base incidence graph",
           ok_base, class_sizes=sorted(len(x) for x in base3.classes()))
    c5 = col.krs_plus_one_coloring(5, 2, 2, base3)
    ok5, _ = col.is_distinguishing(g, c5)
    _check(checks, "krs-5coloring", "fiber coloring with 5 colors is proper and distinguishing",
           col.is_proper(g, c5) and ok5, colors=c5.k)
    bad = 0
    witness_ok = True
    for i in range(trials):
        c = col.random_proper_coloring(g, 4, seed=derive_seed(seed, "krs4", i))
        ok, wit = col.is_distinguishing(g, c)
        if ok:
            bad += 1
        else:
            nontrivial = wit is not None and any(a != b for a, b in enumerate(wit))
            if not (nontrivial and graphcore.is_automorphism(g, wit)):
                witness_ok = False
    _check(checks, "krs-4colorings",
           f"{trials} seeded random proper 4-colorings all fail, each with a verified nontrivial witness",
           bad == 0 and witness_ok, distinguishing=bad, trials=trials)
    return checks


def recipe_appendix(seed: int = DEFAULT_SEED, threads: int = 1) -> list[dict]:
    """Small-order incidence graphs: exhaustive sweeps and the structured coloring."""
    checks: list[dict] = []
    lg2 = families.levi_graph(2)
    three = 0
    three_dist = 0
    for c in col.enumerate_proper_colorings(lg2, 3):
        three += 1
        ok, _ = col.is_distinguishing(lg2, c)
        if ok:
            three_dist += 1
    _check(checks, "lg2-no-3coloring",
           "no proper 3-coloring of the order-2 incidence graph is distinguishing (exhaustive)",
           three_dist == 0, colorings=three, distinguishing=three_dist)
    four = None
    for c in col.enumerate_proper_colorings(lg2, 4):
        ok, _ = col.is_distinguishing(lg2, c)
        if ok:
            four = c
            break
    _check(checks, "lg2-4coloring",
           "a distinguishing proper 4-coloring exists, so the distinguishing chromatic number is 4",
           four is not None)
    mono_dist = 0
    for pts_side in (0, 1):
        for split in range(1, 2**7 - 1):
            cols = [0] * 14
            for i in range(7):
                v = i if pts_side == 0 else 7 + i
                cols[v] = 2 if (split >> i) & 1 else 3
            for i in range(7):
                v = 7 + i if pts_side == 0 else i
                cols[v] = 1
            c = col.Coloring.from_sequence(cols)
            ok, _ = col.is_distinguishing(lg2, c)
            if ok:
                mono_dist += 1
    _check(checks, "lg2-monochromatic",
           "no proper 3-coloring with one side monochromatic is distinguishing (both sides swept)",
           mono_dist == 0, distinguishing=mono_dist)
    lg3 = families.levi_graph(3)
    aut3 = graphcore.automorphism_group(lg3)
    _check(checks, "lg3-aut", "full symmetry order of the order-3 incidence graph is 11232 (duality included)",
           aut3.order == 11232, order=aut3.order)
    c5 = _structured_5coloring(lg3)
    ok5 = c5 is not None and col.is_proper(lg3, c5) and col.is_distinguishing(lg3, c5)[0]
    _check(checks, "lg3-structured-5coloring",
           "a structured proper 5-coloring (unique line color, rainbow pencils) is distinguishing",
           ok5)
    return checks


def _structured_5coloring(lg3):
    """Search for a proper 5-coloring of the order-3 incidence graph in which
    one line is uniquely colored, its points are rainbow, and the remaining
    lines through each of those points are rainbow; verify it distinguishes."""
    import itertools

    plane = families.pg2(3)
    n1 = plane.size
    special = n1 + plane.line_index((0, 0, 1))
    pts_on = [i for i in range(n1) if (plane.incidence[i] >> plane.line_index((0, 0, 1))) & 1]
    pencils = {}
    for p in pts_on:
        pencils[p] = [n1 + j for j in range(n1) if (plane.incidence[p] >> j) & 1 and n1 + j != special]

    colors = [0] * lg3.n
    colors[special] = 1

    def fill_rest(order, i):
        if i == len(order):
            c = col.Coloring.from_sequence(colors)
            if not col.is_proper(lg3, c):
                return None
            ok, _ = col.is_distinguishing(lg3, c)
            return c if ok else None
        v = order[i]
        for color in range(2, 6):
            if any(colors[u] == color for u in lg3.neighbors(v)):
                continue
            if v >= n1 and any(
                colors[l] == color for p in pts_on if v in pencils[p] for l in pencils[p] if l != v
            ):
                continue
            colors[v] = color
            out = fill_rest(order, i + 1)
            if out is not None:
                return out
            colors[v] = 0
        return None

    rest = [v for v in range(lg3.n) if v != special and v not in pts_on]
    for perm in itertools.permutations((2, 3, 4, 5)):
        for p, color in zip(pts_on, perm):
            colors[p] = color
        out = fill_rest(rest, 0)
        if out is not None:
            return out
        for p in pts_on:
            colors[p] = 0
    return None


RECIPES = {
    "levi": recipe_levi,
    "lg1": recipe_lg1,
    "weak": recipe_weak,
    "gs": recipe_gs,
    "kneser": recipe_kneser,
    "krs": recipe_krs,
    "appendix": recipe_appendix,
}


def run_recipe(name: str, seed: int = DEFAULT_SEED, threads: int = 1, **kwargs) -> dict:
    """Run one recipe (or ``all``) and report structured pass/fail checks."""
    if name == "all":
        checks = []
        for rname in RECIPES:
            for chk in RECIPES[rname](seed=seed, threads=threads, **kwargs):
                chk = dict(chk)
                chk["id"] = f"{rname}:{chk['id']}"
                checks.append(chk)
    elif name in RECIPES:
        checks = RECIPES[name](seed=seed, threads=threads, **kwargs)
    else:
        raise ValueError(f"unknown recipe {name!r}; choose from {sorted(RECIPES)} or 'all'")
    return {
        "recipe": name,
        "seed": seed,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }
