"""Command-line surface: formats, verdicts, exit codes, determinism."""

import functools
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from distchrom import recipes
from distchrom.algebra import InvalidParameters
from distchrom.cli import build_parser, main
from distchrom.coloring import Coloring, random_proper_coloring
from distchrom.families import kneser_complement, levi_graph
from distchrom.graphcore import Graph


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_family_graph_file(tmp_path, capsys):
    path = tmp_path / "lg5.graph"
    code, _, _ = run(capsys, "family", "levi", "--q", "5", "--out", str(path))
    assert code == 0
    g = Graph.from_text(path.read_text())
    assert g.n == 62 and all(g.degree(v) == 6 for v in range(62))


def test_family_stdout_and_json(capsys):
    code, out, _ = run(capsys, "family", "gs", "--q", "5", "--slopes", "1,2")
    assert code == 0
    assert out.splitlines()[0] == "25 100"
    code, out, _ = run(capsys, "family", "kneser", "--n", "6", "--r", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 20


def test_family_error_exit_code(capsys):
    code, _, err = run(capsys, "family", "levi", "--q", "6")
    assert code == 2
    assert "prime power" in err


def test_family_refuses_graphs_the_other_commands_refuse(tmp_path, capsys):
    path = tmp_path / "lg1.graph"
    code, out, err = run(capsys, "family", "lg1", "--k", "2", "--n", "70", "--out", str(path))
    assert code == 2
    assert "graph too large: 2485 > 2000" in err
    assert not path.exists()


def test_aut_and_chi(tmp_path, capsys):
    path = tmp_path / "lg2.graph"
    run(capsys, "family", "levi", "--q", "2", "--out", str(path))
    code, out, _ = run(capsys, "aut", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 336
    code, out, _ = run(capsys, "chi", str(path))
    assert json.loads(out)["chromatic_number"] == 2


def test_chid(tmp_path, capsys):
    path = tmp_path / "k22.graph"
    Graph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    path.write_text(Graph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)]).to_text())
    code, out, _ = run(capsys, "chid", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 4
    assert payload["lower_bounds"]["2"]["mode"] == "exhaustive"


def test_verify_verdicts(tmp_path, capsys):
    gpath = tmp_path / "k63.graph"
    cpath = tmp_path / "k63.coloring"
    g = kneser_complement(6, 3)
    gpath.write_text(g.to_text())
    c = random_proper_coloring(g, 10, seed=5)
    cpath.write_text(c.to_text())
    code, out, _ = run(capsys, "verify", str(gpath), str(cpath))
    assert code == 0
    payload = json.loads(out)
    assert payload["proper"] is True
    assert payload["distinguishing"] is False
    assert payload["witness"] is not None
    # an improper coloring is reported, not an error
    bad = Coloring.from_sequence([1] * 19 + [2])
    cpath.write_text(bad.to_text())
    code, out, _ = run(capsys, "verify", str(gpath), str(cpath))
    assert code == 0
    payload = json.loads(out)
    assert payload["proper"] is False
    assert payload["distinguishing"] is None
    assert payload["witness"] is None


def test_verify_searches_deeper_than_the_recursion_limit(tmp_path, capsys):
    # the class-preserving search individualizes about 1,000 vertices in turn
    gpath = tmp_path / "matching.graph"
    cpath = tmp_path / "matching.coloring"
    gpath.write_text(Graph.from_edges(2000, [(2 * i, 2 * i + 1) for i in range(1000)]).to_text())
    cpath.write_text(Coloring.from_sequence([1, 2] * 1000).to_text())
    code, out, err = run(capsys, "verify", str(gpath), str(cpath))
    assert code == 0, err
    payload = json.loads(out)
    assert payload["proper"] is True
    assert payload["distinguishing"] is False
    assert sorted(payload["witness"]) == list(range(2000))


def test_verify_malformed_file(tmp_path, capsys):
    gpath = tmp_path / "g.graph"
    gpath.write_text(levi_graph(2).to_text())
    cpath = tmp_path / "c.coloring"
    cpath.write_text("0 1\n0 2\n")
    code, _, err = run(capsys, "verify", str(gpath), str(cpath))
    assert code == 2
    cpath.write_text("0 1\n1 2 3\n")
    code, _, err = run(capsys, "verify", str(gpath), str(cpath))
    assert (code, err) == (2, "error: line 2: expected a vertex and its color 'v c', got '1 2 3'\n")


def test_aut_rejects_malformed_graph_files(tmp_path, capsys):
    path = tmp_path / "bad.graph"
    for text, reason in (
        ("2 1\n5 0\n", "outside"),
        ("2 2\n0 1\n0 1\n", "duplicate"),
        ('{"n": 2, "edges": [[0, 1], [1, 0]]}', "duplicate"),
        ("2000000 0\n", "too large"),
        ("-1 0\n", "header"),
        ("-3 0\n#label 0 x\n", "header"),
        ("3 2\n0 1\n1 2 0\n", "line 3: expected an edge 'u v', got '1 2 0'"),
    ):
        path.write_text(text)
        code, _, err = run(capsys, "aut", str(path))
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err
        assert err.count("\n") == 1
        assert reason in err, (text, err)


@pytest.mark.parametrize(
    "argv",
    [
        ("aut", "--budget-nodes", "-5"),
        ("aut", "--budget-nodes", "0"),
        ("aut", "--budget-secs", "nan"),
        ("aut", "--budget-secs", "0"),
        ("aut", "--budget-secs", "-1"),
        ("chid", "--budget-nodes", "0"),
        ("chid", "--budget-nodes", "-5"),
    ],
    ids=" ".join,
)
def test_invalid_budgets_exit_2(tmp_path, capsys, argv):
    path = tmp_path / "k3.graph"
    path.write_text(Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)]).to_text())
    cmd, *opts = argv
    code, out, err = run(capsys, cmd, str(path), *opts)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "budget must be" in err


def test_json_inputs_with_wrong_value_types_exit_2(tmp_path, capsys):
    gpath = tmp_path / "bad.json"
    gpath.write_text('{"n": 2, "edges": [["a", 1]]}')
    code, _, err = run(capsys, "aut", str(gpath))
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err
    gpath.write_text(Graph.from_edges(2, [(0, 1)]).to_text())
    cpath = tmp_path / "bad.coloring"
    cpath.write_text('{"k": "2", "colors": [1, 2]}')
    code, _, err = run(capsys, "verify", str(gpath), str(cpath))
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err


def test_reproduce_weak_under_optimize(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    reports = []
    for flags in (["-O"], []):
        path = tmp_path / f"weak{len(flags)}.json"
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "distchrom.cli", "reproduce", "weak", "--out", str(path)],
            env=env,
        )
        assert proc.returncode == 0
        report = json.loads(path.read_text())
        report.pop("timestamp")
        reports.append(report)
    assert reports[0] == reports[1]


def test_import_leaves_hashlib_unloaded():
    # hashlib maps OpenSSL; only derive_seed needs it, and it imports it itself
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    code = (
        "import sys\n"
        "import distchrom\n"
        "assert 'hashlib' not in sys.modules\n"
        "from distchrom.seeds import derive_seed\n"
        "assert derive_seed(20260808, 'krs4', 0) == 11828094695301456695\n"
        "assert 'hashlib' in sys.modules\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env)
    assert proc.returncode == 0


def test_motion_bound_commands(capsys):
    code, out, _ = run(capsys, "motion", "bound", "--family", "levi", "--q", "7", "--t", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["coeff"] == 5630688 and payload["below_2"] is True
    code, out, _ = run(capsys, "motion", "bound", "--family", "weak", "--m", "3",
                       "--aut-order", "6", "--n", "4", "--c1-size", "1")
    assert json.loads(out)["below_2"] is True
    code, _, _ = run(capsys, "motion", "bound", "--family", "lg1", "--n", "8", "--k", "4")
    assert code == 2  # 2k = n violates the precondition


def test_motion_exact_small(capsys):
    code, out, _ = run(capsys, "motion", "exact", "--family", "levi", "--q", "2", "--t", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 168
    assert payload["least_prime"] == 2
    assert payload["lemma_satisfied"] is False  # the order-2 plane has no certificate
    assert payload["exact_EN"]["num"] * 1.0 / payload["exact_EN"]["den"] > 2


# sha256 of the canonical JSON (sorted keys, no ``timestamp``) of each
# ``motion exact`` report, recorded while the sum still ran over one coset per
# suborbit of the first base point's stabilizer.
MOTION_EXACT_DIGESTS = {
    ("levi", "--q", "5"): "cff373e0ba0b2ce49b154547a87c3f71e3bbcbc02400711abff4315d23cbad4e",
    ("levi", "--q", "7"): "78ee5cc3b6e6ea517f322af6316a9458583b86d5bd93cf9e3b4eb97af7ef87b1",
    # degree 266, past the 256 points a bytes element holds
    ("levi", "--q", "11"): "463b986c18012d300c291f97548f732cc11c40a7905912810e8d9c839c2cd275",
    ("lg1", "--n", "9", "--k", "4"): "6f95cc88a059ddaf400611f364d6f60c4fbe6763105b0042fe2c94e3cda9402a",
    ("lg1", "--n", "10", "--k", "4"): "1d13f1f3c3817551943759eaf91de153a95c1dda5fc84cacaa4be4e912a6cdd9",
}


@pytest.mark.parametrize("family", list(MOTION_EXACT_DIGESTS), ids=" ".join)
def test_motion_exact_report_digests(capsys, family):
    code, out, _ = run(capsys, "motion", "exact", "--family", *family)
    assert code == 0
    payload = json.loads(out)
    del payload["timestamp"]
    digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
    assert digest == MOTION_EXACT_DIGESTS[family]


def test_gs_montecarlo_deterministic(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run(capsys, "gs", "montecarlo", "--q", "5", "--trials", "3",
                         "--seed", "99", "--out", str(path))
        assert code == 0
    da, db = json.loads(a.read_text()), json.loads(b.read_text())
    da.pop("timestamp"), db.pop("timestamp")
    assert da == db
    assert da["baseline_order"] == 100


def test_reproduce_deterministic_and_exit(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run(capsys, "reproduce", "weak", "--seed", "7", "--out", str(path))
        assert code == 0
    da, db = json.loads(a.read_text()), json.loads(b.read_text())
    da.pop("timestamp"), db.pop("timestamp")
    assert da == db
    assert da["schema"] == "distchrom.report/1"
    assert all(c["passed"] for c in da["checks"])


@pytest.mark.parametrize("recipe", ["weak", "all"])
def test_reproduce_rejects_trials_for_recipes_without_trials(recipe, capsys):
    code, out, err = run(capsys, "reproduce", recipe, "--trials", "3")
    assert code == 2
    assert out == ""
    assert f"recipe {recipe!r} does not read --trials" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("reproduce", "krs", "--trials", "0"),
        ("reproduce", "krs", "--trials", "-3"),
        ("reproduce", "kneser", "--trials", "0"),
        ("reproduce", "gs", "--trials", "0"),
        ("reproduce", "all", "--trials", "0"),
        ("gs", "montecarlo", "--q", "5", "--trials", "0"),
        ("gs", "montecarlo", "--q", "5", "--trials", "-3"),
    ],
    ids=" ".join,
)
def test_trials_below_one_exit_2(capsys, argv):
    # zero trials would pass every "all trials ..." check vacuously; ``all``
    # is refused earlier, since ``weak`` does not read --trials
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "trials" in err


@pytest.mark.parametrize("recipe", ["weak", "all"])
def test_run_recipe_rejects_keywords_a_recipe_does_not_read(recipe, monkeypatch):
    # Each recipe is replaced by a stub that keeps its signature and records
    # that it ran, so the test sees whether any recipe started.
    ran = []
    for name, fn in list(recipes.RECIPES.items()):
        stub = functools.wraps(fn)(lambda seed, _name=name, **kwargs: ran.append(_name) or [])
        monkeypatch.setitem(recipes.RECIPES, name, stub)
    with pytest.raises(InvalidParameters, match=f"recipe {recipe!r} does not read --trials"):
        recipes.run_recipe(recipe, trials=3)
    assert ran == []
    assert recipes.run_recipe("kneser", trials=3)["passed"]
    assert recipes.run_recipe(recipe)["passed"]
    assert ran == ["kneser"] + (list(recipes.RECIPES) if recipe == "all" else [recipe])


def test_tsv_format(tmp_path, capsys):
    code, out, _ = run(capsys, "chi", "--format", "tsv", str(_write_graph(tmp_path)))
    assert code == 0
    lines = dict(line.split("\t") for line in out.strip().splitlines())
    assert lines["chromatic_number"] == "2"


def _write_graph(tmp_path):
    path = tmp_path / "p.graph"
    path.write_text(Graph.from_edges(3, [(0, 1), (1, 2)]).to_text())
    return path


# A command line that parses, per subcommand, and the options each one reads.
_BASE = {
    "family": ["family", "levi"],
    "aut": ["aut", "g.graph"],
    "chi": ["chi", "g.graph"],
    "chid": ["chid", "g.graph"],
    "verify": ["verify", "g.graph", "c.coloring"],
    "motion": ["motion", "bound", "--family", "levi"],
    "gs": ["gs", "montecarlo", "--q", "5", "--trials", "1"],
    "reproduce": ["reproduce", "weak"],
}
_VALUES = {"--seed": "1", "--budget-nodes": "5", "--budget-secs": "0.5", "--threads": "2"}
_READS = {
    "aut": ("--budget-nodes", "--budget-secs"),
    "chid": ("--budget-nodes",),
    "gs": ("--seed",),
    "reproduce": ("--seed",),
}
_UNREAD = [
    (cmd, opt, value)
    for cmd in _BASE
    for opt, value in _VALUES.items()
    if opt not in _READS.get(cmd, ())
] + [(cmd, "--format", "tsv" if cmd == "family" else "text") for cmd in _BASE]


@pytest.mark.parametrize("cmd,opt,value", _UNREAD, ids=lambda x: x)
def test_unread_options_are_rejected(cmd, opt, value):
    build_parser().parse_args(_BASE[cmd])
    with pytest.raises(SystemExit) as exc:
        main([*_BASE[cmd], opt, value])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "cmd,opt", [(cmd, opt) for cmd, opts in _READS.items() for opt in opts], ids=lambda x: x
)
def test_read_options_are_accepted(cmd, opt):
    args = build_parser().parse_args([*_BASE[cmd], opt, _VALUES[opt]])
    assert getattr(args, opt[2:].replace("-", "_")) == float(_VALUES[opt])
