"""Tests for the command-line interface."""

import pytest

from repro.api import Scenario
from repro.cli import main, make_parser


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            make_parser().parse_args([])

    def test_solve_defaults(self):
        args = make_parser().parse_args(["solve"])
        assert args.family == "gnp"
        assert args.problem == "mis"
        assert args.algorithm == "theorem1"


class TestBuildGraph:
    @pytest.mark.parametrize(
        "family", ["path", "cycle", "star", "complete", "grid", "tree",
                     "gnp", "regular", "powerlaw"]
    )
    def test_families(self, family):
        graph = Scenario(family=family, n=12).build_graph()
        assert graph.n >= 4
        assert graph.is_connected()

    def test_unknown_family_rejected(self):
        with pytest.raises(SystemExit, match="unknown family"):
            main(["cluster", "--family", "nope"])

    def test_id_schemes(self):
        for scheme, space in [("identity", 12), ("permuted", 12),
                              ("poly2", 144)]:
            scenario = Scenario(family="gnp", n=12, ids=scheme)
            assert scenario.build_graph().id_space == space

    def test_unknown_id_scheme_rejected(self):
        with pytest.raises(SystemExit, match="unknown id scheme"):
            main(["cluster", "--family", "gnp", "--n", "12",
                  "--ids", "weird"])


class TestParamFlag:
    """``--param NAME=VALUE``: parsing, routing, and rejection."""

    @pytest.mark.parametrize(
        "text, expected",
        [("b=4", ("b", 4)), ("p=0.3", ("p", 0.3)),
         ("method=fast", ("method", "fast"))],
    )
    def test_value_parsed_as_int_float_or_text(self, text, expected):
        args = make_parser().parse_args(["solve", "--param", text])
        assert args.param == [expected]
        assert type(args.param[0][1]) is type(expected[1])

    def test_repeatable(self):
        args = make_parser().parse_args(
            ["cluster", "--param", "p=0.3", "--param", "b=4"]
        )
        assert dict(args.param) == {"p": 0.3, "b": 4}

    def test_missing_value_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            make_parser().parse_args(["solve", "--param", "b"])
        assert exc.value.code == 2

    def test_undeclared_name_rejected_with_declared_list(self):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--family", "gnp", "--n", "8",
                  "--algorithm", "baseline", "--param", "b=4"])
        message = str(exc.value)
        assert "unknown scenario param(s) ['b']" in message
        assert "declared: ['method', 'p']" in message

    def test_cluster_rejects_undeclared_name(self):
        with pytest.raises(SystemExit, match=r"declared: \['b'\]"):
            main(["cluster", "--family", "path", "--param", "degree=3"])

    def test_p_reaches_gnp(self, capsys):
        argv = ["solve", "--family", "gnp", "--n", "40", "--seed", "2",
                "--algorithm", "greedy"]
        assert main(argv) == 0
        default = capsys.readouterr().out.splitlines()[0]
        assert main([*argv, "--param", "p=0.3"]) == 0
        dense = capsys.readouterr().out.splitlines()[0]
        edges = Scenario(family="gnp", n=40, seed=2,
                         params={"p": 0.3}).build_graph().num_edges
        assert f"edges={edges} " in dense
        assert dense != default

    def test_cluster_b_matches_compute_clustering(self, capsys):
        from repro.core.theorem13 import compute_clustering

        assert main(["cluster", "--family", "grid", "--n", "36",
                     "--param", "b=4"]) == 0
        out = capsys.readouterr().out
        graph = Scenario(family="grid", n=36).build_graph()
        result = compute_clustering(graph, b=4)
        assert (
            f"b=4 colors={result.clustering.num_colors()} "
            f"(bound {result.palette_bound})"
        ) in out
        assert f"awake={result.awake_complexity} " in out

    def test_sweep_list_prints_declared_params(self, capsys):
        assert main(["sweep", "--list"]) == 0
        out = capsys.readouterr().out
        assert "declared params (solve/cluster --param NAME=VALUE):" in out
        assert "  gnp        p, method\n" in out
        assert "  regular    degree\n" in out
        assert "  theorem1   b\n" in out
        assert "  theorem9   b\n" in out


class TestDeprecatedShims:
    """Pre-registry imports from repro.cli keep working."""

    def test_graph_families_shim_iterates_names(self):
        from repro.cli import GRAPH_FAMILIES

        assert "gnp" in GRAPH_FAMILIES
        assert set(GRAPH_FAMILIES) >= {"path", "cycle", "grid"}


class TestCommands:
    def test_solve_baseline(self, capsys):
        code = main(["solve", "--family", "path", "--n", "10",
                     "--algorithm", "baseline", "--problem", "coloring"])
        assert code == 0
        out = capsys.readouterr().out
        assert "baseline: awake=" in out

    def test_solve_theorem1_with_outputs(self, capsys):
        code = main(["solve", "--family", "cycle", "--n", "8",
                     "--problem", "mis", "--show-outputs"])
        assert code == 0
        out = capsys.readouterr().out
        assert "theorem1: awake=" in out
        assert "clustering:" in out

    def test_solve_with_trace(self, capsys):
        code = main(["solve", "--family", "star", "--n", "8",
                     "--algorithm", "baseline", "--problem", "mis",
                     "--trace", "--trace-nodes", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "timeline" in out
        assert "awake-rounds" in out

    def test_cluster_command(self, capsys):
        code = main(["cluster", "--family", "path", "--n", "9"])
        assert code == 0
        out = capsys.readouterr().out
        assert "cluster sizes:" in out

    def test_solve_theorem9(self, capsys):
        code = main(["solve", "--family", "path", "--n", "10",
                     "--algorithm", "theorem9", "--problem", "mis"])
        assert code == 0
        out = capsys.readouterr().out
        assert "theorem9: awake=" in out
        assert "clustering:" in out

    def test_solve_greedy_reference(self, capsys):
        code = main(["solve", "--family", "path", "--n", "10",
                     "--algorithm", "greedy", "--problem", "coloring"])
        assert code == 0
        out = capsys.readouterr().out
        assert "greedy: awake=1 avg=1.0 rounds=10 messages=9" in out

    def test_solve_algorithm_alias_resolves(self, capsys):
        code = main(["solve", "--family", "path", "--n", "8",
                     "--algorithm", "bm21"])
        assert code == 0
        assert "baseline: awake=" in capsys.readouterr().out

    def test_unknown_problem_rejected(self):
        with pytest.raises(SystemExit, match="unknown problem"):
            main(["solve", "--family", "path", "--n", "8",
                  "--problem", "sudoku"])

    def test_unknown_algorithm_rejected_listing_names(self):
        # Used to fall through silently to the baseline branch; now the
        # registry rejects it naming the valid algorithms.
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--family", "path", "--n", "8",
                  "--algorithm", "turbo"])
        message = str(exc.value)
        assert "unknown algorithm 'turbo'" in message
        for name in ("theorem1", "baseline", "theorem9", "greedy"):
            assert name in message

    def test_unknown_family_rejected_listing_names(self):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--family", "doughnut", "--n", "8"])
        message = str(exc.value)
        assert "unknown family 'doughnut'" in message
        assert "'gnp'" in message and "'path'" in message

    def test_unsupported_engine_rejected(self):
        with pytest.raises(SystemExit, match="does not support engine"):
            main(["solve", "--family", "path", "--n", "8",
                  "--algorithm", "theorem1", "--engine", "reference"])

    def test_unknown_engine_rejected(self):
        with pytest.raises(SystemExit, match="unknown engine"):
            main(["solve", "--family", "path", "--n", "8",
                  "--algorithm", "greedy", "--engine", "warp"])

    def test_solve_list_prints_engine_matrix(self, capsys):
        assert main(["solve", "--list"]) == 0
        out = capsys.readouterr().out
        assert "algorithm × engine matrix" in out
        for name in ("theorem1", "baseline", "theorem9", "greedy"):
            assert name in out
        assert "vectorized" in out

    def test_trace_unsupported_for_greedy(self):
        with pytest.raises(SystemExit, match="--trace is not supported"):
            main(["solve", "--family", "path", "--n", "8",
                  "--algorithm", "greedy", "--trace"])

    def test_report_subset(self, tmp_path, capsys):
        output = tmp_path / "EXP.md"
        code = main(
            ["report", "--output", str(output), "--only", "E2", "--no-cache"]
        )
        assert code == 0
        content = output.read_text()
        assert "E2 — Lemma 14" in content

    def test_report_parser_defaults(self):
        args = make_parser().parse_args(["report"])
        assert args.workers == 1
        assert args.cache is True
        assert args.cache_dir == ".repro-cache"
        assert args.only is None

    def test_report_unknown_experiment_fails_listing_ids(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown experiment"):
            main(["report", "--output", str(tmp_path / "x.md"),
                  "--only", "E99", "--no-cache"])

    def test_report_workers_and_cache_threaded(self, tmp_path, capsys):
        output = tmp_path / "EXP.md"
        cache_dir = tmp_path / "cache"
        argv = ["report", "--output", str(output), "--only", "E2",
                "--workers", "1", "--cache-dir", str(cache_dir)]
        assert main(argv) == 0
        assert cache_dir.is_dir()
        first = output.read_bytes()
        capsys.readouterr()
        assert main(argv) == 0
        assert "1 hit(s), 0 miss(es)" in capsys.readouterr().err
        assert output.read_bytes() == first
