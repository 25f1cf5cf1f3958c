"""Tests for the command-line interface."""

import pytest

from repro.cli import build_graph, main, make_parser


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
        args = make_parser().parse_args(
            ["solve", "--family", family, "--n", "12"]
        )
        graph = build_graph(args)
        assert graph.n >= 4
        assert graph.is_connected()

    def test_unknown_family_rejected(self):
        args = make_parser().parse_args(["solve", "--family", "nope"])
        with pytest.raises(SystemExit, match="unknown family"):
            build_graph(args)

    def test_id_schemes(self):
        for scheme, space in [("identity", 12), ("permuted", 12),
                              ("poly2", 144)]:
            args = make_parser().parse_args(
                ["solve", "--family", "gnp", "--n", "12", "--ids", scheme]
            )
            assert build_graph(args).id_space == space

    def test_unknown_id_scheme_rejected(self):
        args = make_parser().parse_args(
            ["solve", "--family", "gnp", "--n", "12", "--ids", "weird"]
        )
        with pytest.raises(SystemExit, match="unknown id scheme"):
            build_graph(args)


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

    def test_b_flag_ignored_by_algorithms_without_it(self, capsys):
        # --b has always been a no-op for the baseline; it must not
        # start failing scenario validation.
        code = main(["solve", "--family", "path", "--n", "8",
                     "--algorithm", "baseline", "--b", "4"])
        assert code == 0
        captured = capsys.readouterr()
        assert "baseline: awake=" in captured.out
        assert "--b is ignored" in captured.err

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
