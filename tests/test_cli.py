"""Tests for the command-line interface (driven in-process)."""

import pytest

from repro.cli import EXIT_BAD_STORE, EXIT_BIND_FAILURE, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_requires_out(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate"])

    def test_defaults(self):
        args = build_parser().parse_args(["table1"])
        assert args.days == 60
        assert args.seed == 0

    def test_predict_json_flag_defaults_off(self):
        args = build_parser().parse_args(["predict"])
        assert args.json is False

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.queries == 32
        assert args.workers == 4
        assert args.shards == 1
        assert args.timeout is None
        assert args.json is False
        assert args.store is None

    def test_every_command_shares_the_dataset_group(self):
        parser = build_parser()
        for command in ("generate", "table1", "evaluate", "predict",
                        "serve", "export-models"):
            argv = [command, "--trace", "t.jsonl.gz", "--days", "9",
                    "--seed", "4", "--scale", "0.3", "--targets", "12"]
            if command == "generate":
                argv += ["--out", "o.jsonl.gz"]
            if command == "export-models":
                argv += ["--store", "s"]
            args = parser.parse_args(argv)
            assert (args.trace, args.days, args.seed, args.scale,
                    args.targets) == ("t.jsonl.gz", 9, 4, 0.3, 12), command

    def test_removed_aliases_are_rejected(self):
        for flag in ("--n-days", "--n-targets"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["table1", flag, "7"])

    def test_deprecated_aliases_hidden_from_help(self):
        parser = build_parser()
        args = parser.parse_args(["table1"])
        assert args.days == 60  # canonical default wins when neither is given
        # The aliases are SUPPRESSed out of the subcommand help text.
        sub = parser._subparsers._group_actions[0].choices["table1"]
        assert "--n-days" not in sub.format_help()
        assert "--days" in sub.format_help()

    def test_export_models_requires_store(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["export-models"])

    def test_serve_http_defaults(self):
        args = build_parser().parse_args(["serve-http"])
        assert args.host == "127.0.0.1"
        assert args.port == 8377
        assert args.framed_port is None
        assert args.workers == 1  # worker processes; 1 = in-process engine
        assert args.worker_threads == 4
        assert args.timeout == 10.0
        assert args.max_connections == 128
        assert args.max_inflight == 64
        assert args.store is None

    def test_sharding_flags_parse(self):
        args = build_parser().parse_args(["serve-http", "--workers", "4",
                                          "--worker-threads", "2"])
        assert args.workers == 4
        assert args.worker_threads == 2
        assert build_parser().parse_args(["serve", "--shards", "3"]).shards == 3
        assert build_parser().parse_args(["predict", "--shards", "2"]).shards == 2

    def test_serve_http_shares_the_dataset_group(self):
        args = build_parser().parse_args(
            ["serve-http", "--trace", "t.jsonl.gz", "--days", "9",
             "--port", "0", "--framed-port", "0"]
        )
        assert args.trace == "t.jsonl.gz"
        assert args.days == 9
        assert args.framed_port == 0


class TestCommands:
    def test_generate_and_table1_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "trace.jsonl.gz"
        code = main(["generate", "--days", "6", "--scale", "0.4",
                     "--seed", "5", "--out", str(out)])
        assert code == 0
        assert out.exists()
        captured = capsys.readouterr()
        assert "wrote" in captured.out

        code = main(["table1", "--trace", str(out)])
        assert code == 0
        captured = capsys.readouterr()
        assert "TABLE I" in captured.out
        assert "DirtJumper" in captured.out

    def test_table1_from_generation(self, capsys):
        code = main(["table1", "--days", "6", "--scale", "0.4", "--seed", "5"])
        assert code == 0
        assert "ACTIVITY LEVEL" in capsys.readouterr().out

    def test_evaluate_rejects_unknown_experiment(self, capsys):
        code = main(["evaluate", "--days", "6", "--scale", "0.4",
                     "--experiments", "fig99"])
        assert code == 2
        assert "unknown experiments" in capsys.readouterr().err

    def test_evaluate_table1_only_skips_fitting(self, capsys):
        code = main(["evaluate", "--days", "6", "--scale", "0.4",
                     "--experiments", "table1"])
        assert code == 0
        captured = capsys.readouterr()
        assert "TABLE I" in captured.out
        assert "fitting models" not in captured.err

    @pytest.mark.slow
    def test_predict_command(self, capsys):
        code = main(["predict", "--days", "25", "--scale", "0.6", "--seed", "3"])
        captured = capsys.readouterr()
        assert code in (0, 1)
        if code == 0:
            assert "next" in captured.out
            assert "magnitude" in captured.out

    @pytest.mark.slow
    def test_predict_json_output(self, capsys):
        import json

        code = main(["predict", "--days", "25", "--scale", "0.6", "--seed", "3",
                     "--json"])
        captured = capsys.readouterr()
        assert code in (0, 1)
        if code == 0:
            payload = json.loads(captured.out)
            assert {"asn", "family", "forecast"} <= set(payload)
            assert {"hour", "day", "duration_s", "magnitude_bots"} <= set(
                payload["forecast"]
            )
            assert 0.0 <= payload["forecast"]["hour"] < 24.0

    @pytest.mark.slow
    def test_serve_command(self, capsys):
        code = main(["serve", "--days", "12", "--scale", "0.5", "--seed", "8",
                     "--queries", "10", "--workers", "2"])
        captured = capsys.readouterr()
        assert code == 0
        assert "served 10 queries" in captured.out
        assert "metrics snapshot" in captured.out

    @pytest.mark.slow
    def test_serve_command_json(self, capsys):
        import json

        code = main(["serve", "--days", "12", "--scale", "0.5", "--seed", "8",
                     "--queries", "6", "--workers", "2", "--json"])
        captured = capsys.readouterr()
        assert code == 0
        payload = json.loads(captured.out)
        assert len(payload["forecasts"]) == 6
        assert "counters" in payload["metrics"]


@pytest.mark.slow
class TestModelStoreCommands:
    """export-models -> predict/serve --store, end to end in-process."""

    @pytest.fixture(scope="class")
    def exported(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("cli-store")
        trace = root / "trace.jsonl.gz"
        store = root / "store"
        assert main(["generate", "--days", "12", "--scale", "0.5",
                     "--seed", "8", "--out", str(trace)]) == 0
        assert main(["export-models", "--trace", str(trace),
                     "--store", str(store)]) == 0
        return trace, store

    def test_export_writes_a_loadable_store(self, exported):
        from repro.persistence import ModelStore

        _, store = exported
        assert ModelStore(store).exists()
        assert len(ModelStore(store).load()) == 1

    def test_predict_restores_instead_of_refitting(self, exported, capsys):
        import json

        trace, store = exported
        code = main(["predict", "--trace", str(trace), "--store", str(store),
                     "--json"])
        captured = capsys.readouterr()
        assert code == 0
        assert "restored fitted model" in captured.err
        assert "fitting" not in captured.err
        payload = json.loads(captured.out)
        assert payload["schema_version"] == 1
        assert payload["forecast"]["schema_version"] == 1

    def test_serve_warm_starts_from_store(self, exported, capsys):
        import json

        trace, store = exported
        code = main(["serve", "--trace", str(trace), "--store", str(store),
                     "--queries", "6", "--workers", "2", "--json"])
        captured = capsys.readouterr()
        assert code == 0
        assert "warm-started 1 model(s)" in captured.err
        payload = json.loads(captured.out)
        assert payload["schema_version"] == 1
        counters = payload["metrics"]["counters"]
        assert counters.get("serving.registry.restores") == 1
        assert "serving.registry.fits" not in counters

    def test_serve_sharded_warm_starts_from_store(self, exported, capsys):
        import json

        trace, store = exported
        code = main(["serve", "--trace", str(trace), "--store", str(store),
                     "--queries", "6", "--shards", "2", "--json"])
        captured = capsys.readouterr()
        assert code == 0
        assert "booting 2 shard(s)" in captured.err
        payload = json.loads(captured.out)
        assert len(payload["forecasts"]) == 6
        assert all(f["source"] == "model" and not f["degraded"]
                   for f in payload["forecasts"])
        assert payload["metrics"]["n_shards"] == 2

    def test_predict_sharded_restores_from_store(self, exported, capsys):
        import json

        trace, store = exported
        code = main(["predict", "--trace", str(trace), "--store", str(store),
                     "--shards", "2", "--json"])
        captured = capsys.readouterr()
        assert code == 0
        assert "booting 2 shard(s)" in captured.err
        payload = json.loads(captured.out)
        assert payload["source"] == "model"
        assert payload["degraded"] is False
        assert {"hour", "day", "duration_s", "magnitude_bots"} <= set(
            payload["forecast"]
        )

    def test_missing_store_falls_back_to_fitting(self, exported, capsys):
        trace, _ = exported
        code = main(["predict", "--trace", str(trace), "--store",
                     "/nonexistent/store"])
        captured = capsys.readouterr()
        assert code in (0, 1)
        assert "not found; fitting from scratch" in captured.err


class TestServingExitCodes:
    """serve/serve-http fail fast with distinct codes (and no fitting)."""

    def test_serve_bad_store_path_exits_4(self, capsys):
        code = main(["serve", "--days", "6", "--store", "/nonexistent/store"])
        assert code == EXIT_BAD_STORE
        assert "not a model store" in capsys.readouterr().err

    def test_serve_http_bad_store_path_exits_4(self, capsys):
        code = main(["serve-http", "--days", "6",
                     "--store", "/nonexistent/store", "--port", "0"])
        assert code == EXIT_BAD_STORE
        assert "not a model store" in capsys.readouterr().err

    def test_serve_http_bind_failure_exits_3(self, capsys):
        import socket

        blocker = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        try:
            code = main(["serve-http", "--days", "6", "--port", str(port)])
        finally:
            blocker.close()
        assert code == EXIT_BIND_FAILURE
        err = capsys.readouterr().err
        assert "cannot bind" in err
        assert str(port) in err

    def test_bind_and_store_codes_are_distinct(self):
        assert EXIT_BIND_FAILURE != EXIT_BAD_STORE
        assert EXIT_BIND_FAILURE not in (0, 1, 2)
        assert EXIT_BAD_STORE not in (0, 1, 2)


class TestExtendedEvaluate:
    def test_goodness_experiment(self, capsys):
        code = main(["evaluate", "--days", "25", "--scale", "0.6", "--seed", "3",
                     "--experiments", "goodness"])
        assert code == 0
        captured = capsys.readouterr()
        assert "GOODNESS OF FIT" in captured.out

    def test_parser_mentions_new_experiments(self):
        parser = build_parser()
        help_text = parser.format_help()
        # subparser help is nested; just confirm evaluate exists
        assert "evaluate" in help_text
