"""The benchmark's four workloads.

Each workload builds its graphs, groups and a seeded pool of inputs in
``setup``, performs one round of operations in ``run_round`` (round ``r``
takes the next slice of the pool, wrapping around when a run outlasts it),
and checks every round's outputs in ``check`` with the computations in
``checks``, made apart from the package.  Every call into the package goes
through the recorder, so a traced run sees each layer boundary.
"""

from __future__ import annotations

import importlib
import math
import random
from typing import Callable, NamedTuple

import checks
from distchrom import coloring, families, graphcore, permgroup
from tracing import AUT, CLOSURE, ENUM, FIXERS, IS_DIST, SAMPLE

# The package re-exports the function ``motion`` under the submodule's name.
motion_mod = importlib.import_module("distchrom.motion")


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _pool_slice(pool_len: int, r: int, per_round: int) -> list[int]:
    return [(r * per_round + i) % pool_len for i in range(per_round)]


class RefuteKrs:
    """Class-preserving search on seeded proper 4-colorings of levi_tensor_krs(5,2,2).

    Point copies take colors 1/2 and line copies 3/4, so every such coloring
    is proper.  Exactly ``mono / 2`` point fibers and ``mono / 2`` line fibers
    (twin pairs) are monochromatic; the swap inside one of them preserves
    every class, so each verdict is a refutation.  Fixing ``mono`` fixes the
    2^mono subgroup of fiber swaps, which sets most of the search work, so
    runs with different seeds do nearly equal work.
    """

    name = "refute-krs"

    def __init__(self, per_round: int = 3, mono: int = 40, pool_rounds: int = 16):
        self.per_round = per_round
        self.mono = mono
        self.pool_size = per_round * pool_rounds

    def setup(self, seed: int, rec) -> dict:
        g, meta = rec.call("families.levi_tensor_krs", families.levi_tensor_krs, 5, 2, 2)
        sides = (
            ([meta.point_fiber(p) for p in range(meta.plane_size)], (1, 2)),
            ([meta.line_fiber(l) for l in range(meta.plane_size)], (3, 4)),
        )
        rng = _rng(self.name, seed)
        pool = []
        while len(pool) < self.pool_size:
            colors = [0] * g.n
            for fibers, palette in sides:
                mono = set(rng.sample(range(len(fibers)), self.mono // 2))
                for i, fiber in enumerate(fibers):
                    picks = [rng.choice(palette)] * 2 if i in mono else rng.sample(palette, 2)
                    for v, c in zip(fiber, picks):
                        colors[v] = c
            if len(set(colors)) == 4:
                pool.append(coloring.Coloring.from_sequence(colors))
        return {"graph": g, "colorings": pool}

    def run_round(self, state: dict, r: int, rec) -> dict:
        g, pool = state["graph"], state["colorings"]
        out = {}
        for j in _pool_slice(len(pool), r, self.per_round):
            with rec.op("refute"):
                out[j] = rec.call(IS_DIST, coloring.is_distinguishing, g, pool[j])
        return out

    def check(self, state: dict, rounds: list[dict]) -> list[str]:
        g, pool = state["graph"], state["colorings"]
        errors = checks.fiber_plane_errors(g.adj, 5, 2, 2)
        edges = checks.edge_set(g.adj)
        for out in rounds:
            for j, (ok, wit) in out.items():
                colors = pool[j].colors
                errors += checks.coloring_errors(edges, g.n, colors, 4)
                if ok:
                    errors.append(f"coloring {j} has monochromatic twins yet was proved")
                else:
                    errors += [f"coloring {j}: {e}" for e in checks.witness_errors(edges, colors, wit)]
        return errors


class SampleKneser:
    """The ``kneser`` recipe trial on kneser_complement(7,3): sample, then decide.

    Each operation draws ``random_proper_coloring(g, 18, seed_i)`` and runs
    ``is_distinguishing`` on it; the trial seeds come from the workload seed.
    """

    name = "sample-kneser"

    def __init__(self, per_round: int = 200, pool_rounds: int = 100):
        self.n, self.r, self.k = 7, 3, 18
        self.per_round = per_round
        self.pool_size = per_round * pool_rounds

    def setup(self, seed: int, rec) -> dict:
        g = rec.call("families.kneser_complement", families.kneser_complement, self.n, self.r)
        rng = _rng(self.name, seed)
        return {"graph": g, "seeds": [rng.getrandbits(63) for _ in range(self.pool_size)]}

    def run_round(self, state: dict, r: int, rec) -> dict:
        g, seeds = state["graph"], state["seeds"]
        out = {}
        for j in _pool_slice(len(seeds), r, self.per_round):
            with rec.op("trial"):
                c = rec.call(SAMPLE, coloring.random_proper_coloring, g, self.k, seeds[j])
                ok, wit = rec.call(IS_DIST, coloring.is_distinguishing, g, c)
                out[j] = (c.colors, ok, wit)
        return out

    def check(self, state: dict, rounds: list[dict]) -> list[str]:
        g = state["graph"]
        subsets = checks.parse_subset_labels(g.labels, self.n, self.r)
        if subsets is None:
            return [f"vertex labels are not the {self.r}-subsets of [{self.n}]"]
        errors = checks.kneser_graph_errors(g.adj, subsets)
        edges = checks.edge_set(g.adj)
        images = checks.symmetric_group_images(self.n, subsets)
        verdicts: dict[tuple, bool] = {}
        for out in rounds:
            for j, (colors, ok, wit) in out.items():
                errors += [f"trial {j}: {e}" for e in checks.coloring_errors(edges, g.n, colors, self.k)]
                if colors not in verdicts:
                    verdicts[colors] = checks.class_preserving_count(images, colors) == 1
                if ok != verdicts[colors]:
                    errors.append(f"trial {j}: verdict {ok} disagrees with S{self.n} brute force")
                elif not ok:
                    errors += [f"trial {j}: {e}" for e in checks.witness_errors(edges, colors, wit)]
        return errors


class SweepGs:
    """Exhaustive sweep of slope_graph(5,[1,2]) plus full groups at q=13.

    A round classifies every proper 5-coloring up to color permutation as
    ``enumerate_proper_colorings`` yields it (one operation each), then runs
    ``automorphism_group`` on ``aut_per_round`` seeded slope graphs at
    ``aut_q`` (one operation each).  ``limit`` stops the sweep early.
    """

    name = "sweep-gs"

    def __init__(self, limit: int | None = None, aut_q: int = 13, aut_per_round: int = 8,
                 pool_rounds: int = 6):
        self.q = 5
        self.limit = limit
        self.aut_q = aut_q
        self.aut_per_round = aut_per_round
        self.pool_size = aut_per_round * pool_rounds

    def setup(self, seed: int, rec) -> dict:
        g, _ = rec.call("families.slope_graph", families.slope_graph, self.q, [1, 2])
        rng = _rng(self.name, seed)
        slope_sets, graphs = [], []
        for _ in range(self.pool_size):
            s = sorted(rng.sample(range(self.aut_q), (self.aut_q - 1) // 2))
            slope_sets.append(s)
            graphs.append(rec.call("families.slope_graph", families.slope_graph, self.aut_q, s)[0])
        return {"graph": g, "slope_sets": slope_sets, "graphs": graphs}

    def run_round(self, state: dict, r: int, rec) -> dict:
        g = state["graph"]
        stream = rec.each(ENUM, coloring.enumerate_proper_colorings(g, self.q))
        sweep = []
        while self.limit is None or len(sweep) < self.limit:
            c = None
            with rec.op("classify") as op:
                c = next(stream, None)
                if c is None:
                    op.discard()
                else:
                    ok, wit = rec.call(IS_DIST, coloring.is_distinguishing, g, c)
                    sweep.append((c.colors, ok, wit))
            if c is None:
                break
        auts = {}
        for j in _pool_slice(self.pool_size, r, self.aut_per_round):
            with rec.op("aut"):
                res = rec.call(AUT, graphcore.automorphism_group, state["graphs"][j])
                auts[j] = (res.order, res.generators)
        return {"sweep": sweep, "aut": auts}

    def check(self, state: dict, rounds: list[dict]) -> list[str]:
        g, q = state["graph"], self.q
        cells, errors = checks.rook_cells(g.labels, g.adj, q)
        if errors:
            return errors
        edges = checks.edge_set(g.adj)
        sweep = rounds[0]["sweep"]
        if any(out["sweep"] != sweep for out in rounds):
            errors.append("rounds disagree on the sweep")
        distinct = {colors for colors, _, _ in sweep}
        if len(distinct) != len(sweep):
            errors.append("the sweep repeats a coloring")
        if self.limit is None and len(sweep) != checks.LATIN_SQUARES[q] // math.factorial(q):
            errors.append(f"sweep found {len(sweep)} colorings, expected Latin squares / {q}!")
        for i, (colors, ok, wit) in enumerate(sweep):
            errs = checks.coloring_errors(edges, g.n, colors, q)
            if not checks.is_canonical(colors):
                errs.append("not canonical up to color permutation")
            square = [[0] * q for _ in range(q)]
            for v, (a, b) in enumerate(cells):
                square[a][b] = colors[v]
            if not errs and ok != (checks.latin_stabilizer_count(square) == 1):
                errs.append(f"verdict {ok} disagrees with the (S{q} x S{q}) x| C2 search")
            elif not errs and not ok:
                errs = checks.witness_errors(edges, colors, wit)
            errors += [f"sweep coloring {i}: {e}" for e in errs]
        errors += self._check_groups(state, rounds)
        return errors

    def _check_groups(self, state: dict, rounds: list[dict]) -> list[str]:
        from sympy.combinatorics import Permutation, PermutationGroup

        q = self.aut_q
        baseline = q * q * (q - 1)
        results: dict[int, tuple] = {}
        errors = []
        for out in rounds:
            for j, res in out["aut"].items():
                if results.setdefault(j, res) != res:
                    errors.append(f"slope set {j}: rounds disagree on the group")
        for j, (order, gens) in sorted(results.items()):
            tag = f"slopes {state['slope_sets'][j]}"
            graph = state["graphs"][j]
            edges = checks.edge_set(graph.adj)
            for p in gens:
                errors += [f"{tag}: generator {e}" for e in checks.automorphism_errors(edges, graph.n, p)]
            if order % baseline:
                errors.append(f"{tag}: order {order} is not a multiple of {baseline}")
            perms = [Permutation(list(p)) for p in gens] or [Permutation(q * q - 1)]
            if PermutationGroup(perms).order() != order:
                errors.append(f"{tag}: order {order} disagrees with sympy")
        return errors


class Group(NamedTuple):
    """One certificate: the action ``builder(*args)``, its split class and t.

    ``kind`` names the closed form the checks hold the group order to.
    """

    label: str
    builder: Callable
    args: tuple
    class_size: int
    t: int
    kind: str


CERTIFY_GROUPS = [
    Group("PGL(3,5)", families.pgl3_action, (5,), 31, 2, "pgl"),
    Group("PGammaL(3,4)", families.pgammal3_action, (4,), 21, 3, "pgammal"),
    Group("S9 on 4-sets", permgroup.induced_action_on_ksets, (9, 4), 126, 2, "sym"),
]


def _layer_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class CertifyGroups:
    """Exact split certificates: ``closure`` then ``exact_expected_fixers``.

    The split class is the first ``class_size`` points of each action (the
    plane's points, or every 4-subset).  The seed draws a relabeling of the
    points per round; conjugating by it leaves every certificate unchanged.
    """

    name = "certify-groups"

    def __init__(self, groups: list[Group] = CERTIFY_GROUPS, pool_rounds: int = 4):
        self.groups = groups
        self.pool_rounds = pool_rounds

    def setup(self, seed: int, rec) -> dict:
        rng = _rng(self.name, seed)
        specs = []
        for grp in self.groups:
            spec = rec.call(_layer_name(grp.builder), grp.builder, *grp.args)
            relabeled = []
            for _ in range(self.pool_rounds):
                rho = list(range(spec.degree))
                rng.shuffle(rho)
                gens = []
                for g in spec.generators:
                    img = [0] * spec.degree
                    for i, gi in enumerate(g):
                        img[rho[i]] = rho[gi]
                    gens.append(tuple(img))
                relabeled.append((gens, sorted(rho[v] for v in range(grp.class_size))))
            specs.append(relabeled)
        return {"specs": specs}

    def run_round(self, state: dict, r: int, rec) -> dict:
        out = {}
        for grp, relabeled in zip(self.groups, state["specs"]):
            gens, c1 = relabeled[r % self.pool_rounds]
            with rec.op("certify"):
                els = rec.call(CLOSURE, permgroup.closure, gens)
                rep = rec.call(FIXERS, motion_mod.exact_expected_fixers, c1, els, grp.t, threads=1)
                del els  # so the next group's closure does not overlap this one in memory
                out[grp.label] = (rep.group_order, rep.exact_EN, rep.class_size)
        return out

    def closure_inputs(self, state: dict) -> list:
        return [relabeled[0][0] for relabeled in state["specs"]]

    def check(self, state: dict, rounds: list[dict]) -> list[str]:
        errors = []
        for grp in self.groups:
            results = {out[grp.label] for out in rounds if grp.label in out}
            if len(results) > 1:
                errors.append(f"{grp.label}: relabelings disagree: {sorted(results)}")
            for res in results:
                errors += [f"{grp.label}: {e}" for e in certificate_errors(grp, *res)]
        return errors


def certificate_errors(grp: Group, order: int, exact_en, class_size: int) -> list[str]:
    """Closed-form order, Burnside divisibility and, for S_n, the Polya sum."""
    expected = {
        "pgl": lambda: checks.pgl3_order(*grp.args),
        "pgammal": lambda: checks.pgammal3_order(*grp.args),
        "sym": lambda: math.factorial(grp.args[0]),
    }[grp.kind]()
    errors = []
    if order != expected:
        errors.append(f"group order {order}, closed form {expected}")
    if class_size != grp.class_size:
        errors.append(f"class size {class_size}, expected {grp.class_size}")
    errors += checks.burnside_errors(exact_en, grp.t, class_size, order)
    if grp.kind == "sym" and exact_en != checks.polya_exact_en(*grp.args, grp.t):
        errors.append("exact_EN disagrees with the Polya cycle-index sum")
    return errors


WORKLOADS = {w.name: w for w in (RefuteKrs, SampleKneser, SweepGs, CertifyGroups)}
