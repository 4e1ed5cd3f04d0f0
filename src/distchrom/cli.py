"""Command-line surface: construct, verify, certify, reproduce.

Every report is JSON with a versioned ``schema`` field and carries the seed it
was produced from; reports are byte-identical across runs with the same seed
and command, except for the ``timestamp`` field.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from . import coloring as col
from . import families, graphcore
from .motion import exact_expected_fixers, favorable_fraction, levi_bound, lg1_bound, weak_bound
from .permgroup import induced_action_on_ksets
from .recipes import DEFAULT_SEED, run_recipe

SCHEMA = "distchrom.report/1"


def _emit(payload: dict, args) -> None:
    payload.setdefault("schema", SCHEMA)
    payload.setdefault("timestamp", time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()))
    if args.format == "tsv":
        lines = [f"{k}\t{_scalar(v)}" for k, v in sorted(payload.items()) if k != "schema"]
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(payload, sort_keys=True, indent=2, default=_jsonable) + "\n"
    _write(text, args)


def _write(text: str, args) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _jsonable(x):
    if isinstance(x, Fraction):
        return {"num": x.numerator, "den": x.denominator, "approx": float(x)}
    if isinstance(x, (bytes, tuple)):
        return list(x)
    if isinstance(x, frozenset):
        return sorted(x)
    raise TypeError(f"not JSON-serializable: {type(x)}")


def _scalar(v) -> str:
    if isinstance(v, (dict, list, tuple)):
        return json.dumps(v, sort_keys=True, default=_jsonable)
    return str(v)


def _complete_graph(r: int) -> graphcore.Graph:
    return graphcore.Graph.from_edges(r, [(i, j) for i in range(r) for j in range(i + 1, r)])


def _build_family(args) -> graphcore.Graph:
    name = args.family_name
    if name == "levi":
        return families.levi_graph(args.q)
    if name == "lg1":
        return families.levi_order1(args.k, args.n)
    if name == "kneser":
        return families.kneser_complement(args.n, args.r)
    if name == "gs":
        slopes = [int(x) for x in args.slopes.split(",")]
        g, _ = families.slope_graph(args.q, slopes)
        return g
    if name == "weakpower":
        return families.weak_power(_complete_graph(args.r), args.n)
    if name == "krs":
        g, _ = families.levi_tensor_krs(args.q, args.r, args.s)
        return g
    raise ValueError(f"unknown family {name!r}")


def cmd_family(args) -> int:
    g = _build_family(args)
    # the other commands refuse larger graph files, so none is written
    graphcore._check_vertex_count(g.n)
    _write(g.to_json() + "\n" if args.format == "json" else g.to_text(), args)
    return 0


def _read_graph(path: str) -> graphcore.Graph:
    with open(path) as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        return graphcore.Graph.from_json(text)
    return graphcore.Graph.from_text(text)


def cmd_aut(args) -> int:
    g = _read_graph(args.graph)
    result = graphcore.automorphism_group(
        g, budget_steps=args.budget_nodes, budget_secs=args.budget_secs
    )
    _emit(
        {
            "command": "aut",
            "n": g.n,
            "order": result.order,
            "generators": [list(p) for p in result.generators],
        },
        args,
    )
    return 0


def cmd_chi(args) -> int:
    g = _read_graph(args.graph)
    value = col.chromatic_number(g)
    _emit({"command": "chi", "n": g.n, "chromatic_number": value}, args)
    return 0


def cmd_chid(args) -> int:
    g = _read_graph(args.graph)
    result = col.distinguishing_chromatic_number(g, max_k=args.max_k, budget=args.budget_nodes)
    payload = {
        "command": "chid",
        "n": g.n,
        "value": result.value,
        "witness": list(result.witness.colors) if result.witness else None,
        "lower_bounds": {
            str(k): {"mode": cert["mode"], "count": cert["count"]}
            for k, cert in result.lower_bound_certificates.items()
        },
    }
    _emit(payload, args)
    return 0


def cmd_verify(args) -> int:
    g = _read_graph(args.graph)
    with open(args.coloring) as fh:
        text = fh.read()
    c = col.Coloring.from_json(text) if text.lstrip().startswith("{") else col.Coloring.from_text(text)
    proper = col.is_proper(g, c)
    # the verdict is defined for proper colorings only; an improper one gets null
    distinguishing, witness = (None, None)
    if proper:
        distinguishing, witness = col.is_distinguishing(g, c)
    _emit(
        {
            "command": "verify",
            "proper": proper,
            "distinguishing": distinguishing,
            "witness": list(witness) if witness is not None else None,
            "colors": c.k,
        },
        args,
    )
    return 0


def cmd_motion(args) -> int:
    if args.mode == "bound":
        if args.family_name == "levi":
            b = levi_bound(args.q, args.t)
        elif args.family_name == "lg1":
            b = lg1_bound(args.n, args.k)
        elif args.family_name == "weak":
            b = weak_bound(args.m, args.aut_order, args.n, args.c1_size)
        else:
            raise ValueError(f"no bound for family {args.family_name!r}")
        payload = {
            "command": "motion bound",
            "family": args.family_name,
            "coeff": b.coeff,
            "t": b.t,
            "half_exponent": b.half_exponent,
            "approx": b.approx,
            "below_2": b.lt_value(2),
        }
        _emit(payload, args)
        return 0
    # exact mode: enumerate the named group and sum the certificate exactly
    if args.family_name == "levi":
        # side-preserving automorphisms: the semilinear action (for prime q the
        # field map is trivial and this is just the projective linear group)
        group = families.pgammal3_action(args.q)
        c1 = range(args.q**2 + args.q + 1)
    elif args.family_name == "lg1":
        group = induced_action_on_ksets(args.n, args.k)
        c1 = range(group.degree)
    elif args.family_name == "weakpower":
        wp = families.weak_power(_complete_graph(args.r), args.n)
        block = args.r ** (args.n - 1)
        factor = col.Coloring.from_classes(
            wp.n, [[v for v in range(wp.n) if v // block == i] for i in range(args.r)]
        )
        sub = graphcore.color_preserving_automorphisms(wp, factor)
        from .permgroup import closure

        report = exact_expected_fixers(range(block), closure(sub.generators), args.t)
        _emit({"command": "motion exact", "family": "weakpower", **report.to_json_dict()}, args)
        return 0
    else:
        raise ValueError(f"no exact recipe for family {args.family_name!r}")
    report = exact_expected_fixers(c1, group.elements(), args.t)
    _emit({"command": "motion exact", "family": args.family_name, **report.to_json_dict()}, args)
    return 0


def cmd_gs_montecarlo(args) -> int:
    report = favorable_fraction(args.q, trials=args.trials, seed=args.seed)
    report["command"] = "gs montecarlo"
    report["seed"] = args.seed
    _emit(report, args)
    return 0


def cmd_reproduce(args) -> int:
    kwargs = {} if args.trials is None else {"trials": args.trials}
    report = run_recipe(args.recipe, seed=args.seed, **kwargs)
    report["command"] = f"reproduce {args.recipe}"
    _emit(report, args)
    return 0 if report["passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distchrom",
        description="Distinguishing chromatic certificates for structured graph families",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=("json", "tsv")):
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--format", type=str, choices=formats, default=formats[0])

    p_fam = sub.add_parser("family", help="construct a named graph family")
    p_fam.add_argument("family_name", choices=["levi", "lg1", "kneser", "gs", "weakpower", "krs"])
    p_fam.add_argument("--q", type=int, default=5)
    p_fam.add_argument("--k", type=int, default=2)
    p_fam.add_argument("--n", type=int, default=6)
    p_fam.add_argument("--r", type=int, default=3)
    p_fam.add_argument("--s", type=int, default=2)
    p_fam.add_argument("--slopes", type=str, default="1,2")
    common(p_fam, formats=("text", "json"))
    p_fam.set_defaults(func=cmd_family)

    p_aut = sub.add_parser("aut", help="automorphism group of a graph file")
    p_aut.add_argument("graph")
    p_aut.add_argument("--budget-nodes", type=int, default=graphcore.DEFAULT_NODE_BUDGET)
    p_aut.add_argument("--budget-secs", type=float, default=None)
    common(p_aut)
    p_aut.set_defaults(func=cmd_aut)

    p_chi = sub.add_parser("chi", help="exact chromatic number of a graph file")
    p_chi.add_argument("graph")
    common(p_chi)
    p_chi.set_defaults(func=cmd_chi)

    p_chid = sub.add_parser("chid", help="exact distinguishing chromatic number")
    p_chid.add_argument("graph")
    p_chid.add_argument("--max-k", type=int, default=None)
    p_chid.add_argument("--budget-nodes", type=int, default=graphcore.DEFAULT_NODE_BUDGET)
    common(p_chid)
    p_chid.set_defaults(func=cmd_chid)

    p_ver = sub.add_parser("verify", help="verify a coloring file against a graph file")
    p_ver.add_argument("graph")
    p_ver.add_argument("coloring")
    common(p_ver)
    p_ver.set_defaults(func=cmd_verify)

    p_mot = sub.add_parser("motion", help="exact split certificates and closed-form bounds")
    p_mot.add_argument("mode", choices=["exact", "bound"])
    p_mot.add_argument("--family", dest="family_name", required=True,
                       choices=["levi", "lg1", "weak", "weakpower"])
    p_mot.add_argument("--q", type=int, default=5)
    p_mot.add_argument("--n", type=int, default=9)
    p_mot.add_argument("--k", type=int, default=4)
    p_mot.add_argument("--m", type=int, default=3)
    p_mot.add_argument("--r", type=int, default=3)
    p_mot.add_argument("--t", type=int, default=2)
    p_mot.add_argument("--aut-order", type=int, default=6)
    p_mot.add_argument("--c1-size", type=int, default=1)
    common(p_mot)
    p_mot.set_defaults(func=cmd_motion)

    p_gs = sub.add_parser("gs", help="slope-graph experiments")
    p_gs.add_argument("mode", choices=["montecarlo"])
    p_gs.add_argument("--q", type=int, default=13)
    p_gs.add_argument("--trials", type=int, default=50)
    p_gs.add_argument("--seed", type=int, default=DEFAULT_SEED)
    common(p_gs)
    p_gs.set_defaults(func=cmd_gs_montecarlo)

    p_rep = sub.add_parser("reproduce", help="run a named verification recipe")
    p_rep.add_argument("recipe", choices=["levi", "lg1", "weak", "gs", "kneser", "krs", "appendix", "all"])
    p_rep.add_argument("--trials", type=int, default=None)
    p_rep.add_argument("--seed", type=int, default=DEFAULT_SEED)
    common(p_rep)
    p_rep.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (col.Infeasible, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except graphcore.SearchTimeout as exc:
        print(f"timeout: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
