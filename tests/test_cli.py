"""Command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.sim.engine import SimulationEngine


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_scale_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "--scale", "galactic"])

    def test_defaults(self):
        args = build_parser().parse_args(["compare"])
        assert args.scale == "small"
        assert args.alpha == 0.5
        assert args.seed == 0


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "DC1" in out
        assert "Lisbon" in out

    def test_compare(self, capsys):
        code = main(["compare", "--scale", "tiny", "--horizon", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Proposed" in out
        assert "normalized operational cost" in out

    def test_figures(self, capsys):
        code = main(["figures", "--scale", "tiny", "--horizon", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Fig. 1" in out
        assert "Fig. 6" in out

    def test_alpha_sweep(self, capsys):
        code = main(
            ["alpha", "--scale", "tiny", "--horizon", "3", "--alphas", "0.2,0.8"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "0.20" in out
        assert "Pareto" in out

    def test_bound(self, capsys):
        code = main(["bound", "--scale", "tiny", "--horizon", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "LP bound" in out

    def test_sweep_battery(self, capsys):
        code = main(["sweep", "battery", "--scale", "tiny", "--horizon", "3"])
        assert code == 0
        assert "battery_scale" in capsys.readouterr().out

    def test_scenarios(self, capsys):
        code = main(["scenarios", "--scale", "tiny", "--horizon", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "scale-out" in out
        assert "hpc" in out

    def test_export(self, capsys, tmp_path):
        code = main(
            ["export", str(tmp_path / "csv"), "--scale", "tiny", "--horizon", "3"]
        )
        assert code == 0
        assert (tmp_path / "csv" / "summary.csv").exists()


class TestOrchestratorFlags:
    def test_defaults_include_orchestrator_flags(self):
        args = build_parser().parse_args(["compare"])
        assert args.jobs == 1
        assert args.seeds == 1
        assert args.no_cache is False
        assert args.store is None

    def test_seeds_rejected_outside_compare(self):
        with pytest.raises(SystemExit, match="compare command only"):
            main(["figures", "--scale", "tiny", "--horizon", "2",
                  "--seeds", "3"])

    def test_compare_replicated_seeds(self, capsys):
        code = main(
            ["compare", "--scale", "tiny", "--horizon", "2", "--seeds", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "+-" in out
        assert "Proposed" in out

    def test_compare_no_cache(self, capsys):
        code = main(
            ["compare", "--scale", "tiny", "--horizon", "2", "--no-cache"]
        )
        assert code == 0
        assert "Proposed" in capsys.readouterr().out

    def test_store_persists_results(self, capsys, tmp_path):
        store = tmp_path / "store"
        argv = [
            "compare", "--scale", "tiny", "--horizon", "2", "--store", str(store),
        ]
        assert main(argv) == 0
        documents = list(store.rglob("*.json"))
        assert len(documents) == 4
        # Second invocation must resolve from disk and print the same table.
        first = capsys.readouterr().out
        from repro.experiments.runner import clear_cache

        clear_cache()
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_store_path_must_be_directory(self, tmp_path):
        not_a_dir = tmp_path / "file"
        not_a_dir.write_text("x")
        with pytest.raises(SystemExit):
            main(
                ["compare", "--scale", "tiny", "--horizon", "2",
                 "--store", str(not_a_dir)]
            )


def write_recording(tmp_path, steps_per_slot: int = 30, slots: int = 2):
    """A small utilization CSV compatible with the tiny scale."""
    rng = np.random.default_rng(3)
    matrix = rng.uniform(0.1, 0.9, size=(4, steps_per_slot * slots))
    path = tmp_path / "recording.csv"
    np.savetxt(path, matrix, delimiter=",")
    return path


class TestPackFlags:
    def test_packs_command_lists_registry(self, capsys):
        assert main(["packs"]) == 0
        out = capsys.readouterr().out
        assert "synthetic" in out
        assert "scenario-hpc" in out
        assert "sha256" in out

    def test_named_pack_runs(self, capsys):
        code = main(
            ["compare", "--scale", "tiny", "--horizon", "2",
             "--pack", "scenario-hpc"]
        )
        assert code == 0
        assert "Proposed" in capsys.readouterr().out

    def test_unknown_pack_rejected(self):
        with pytest.raises(SystemExit, match="unknown pack"):
            main(["compare", "--scale", "tiny", "--horizon", "2",
                  "--pack", "nope"])

    def test_pack_and_pack_csv_exclusive(self, tmp_path):
        path = write_recording(tmp_path)
        with pytest.raises(SystemExit, match="mutually exclusive"):
            main(["compare", "--scale", "tiny", "--horizon", "2",
                  "--pack", "synthetic", "--pack-csv", str(path)])

    def test_missing_pack_csv_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="not found"):
            main(["compare", "--scale", "tiny", "--horizon", "2",
                  "--pack-csv", str(tmp_path / "absent.csv")])

    def test_pack_csv_runs_comparison(self, capsys, tmp_path):
        path = write_recording(tmp_path)
        code = main(
            ["compare", "--scale", "tiny", "--horizon", "2",
             "--pack-csv", str(path)]
        )
        assert code == 0
        assert "Proposed" in capsys.readouterr().out

    def test_pack_csv_warm_store_skips_engine(
        self, capsys, tmp_path, monkeypatch
    ):
        """Second recorded-CSV run must resolve every run from the store."""
        path = write_recording(tmp_path)
        store = tmp_path / "store"
        argv = [
            "compare", "--scale", "tiny", "--horizon", "2",
            "--pack-csv", str(path), "--store", str(store),
        ]
        invocations = []
        original = SimulationEngine.run

        def counting_run(self):
            invocations.append(self.policy.name)
            return original(self)

        monkeypatch.setattr(SimulationEngine, "run", counting_run)
        assert main(argv) == 0
        assert len(invocations) == 4
        first = capsys.readouterr().out

        invocations.clear()
        assert main(argv) == 0
        assert invocations == []  # zero engine invocations on the warm run
        assert capsys.readouterr().out == first


class TestStoreBackendFlag:
    def argv(self, store, backend=None):
        argv = ["compare", "--scale", "tiny", "--horizon", "2",
                "--store", str(store)]
        if backend:
            argv += ["--store-backend", backend]
        return argv

    def test_segment_backend_cold_then_warm(
        self, capsys, tmp_path, monkeypatch
    ):
        store = tmp_path / "segstore"
        invocations = []
        original = SimulationEngine.run

        def counting_run(self):
            invocations.append(self.policy.name)
            return original(self)

        monkeypatch.setattr(SimulationEngine, "run", counting_run)
        assert main(self.argv(store, "segment")) == 0
        assert len(invocations) == 4
        assert list(store.glob("segments/*.seg"))
        first = capsys.readouterr().out

        from repro.experiments.runner import clear_cache

        clear_cache()
        invocations.clear()
        # Auto-detection: no --store-backend on the warm run.
        assert main(self.argv(store)) == 0
        assert invocations == []
        assert capsys.readouterr().out == first

    def test_backend_conflict_rejected(self, capsys, tmp_path):
        store = tmp_path / "plain"
        assert main(self.argv(store)) == 0  # per-file layout
        with pytest.raises(SystemExit, match="refusing"):
            main(self.argv(store, "segment"))


class TestProgressFlag:
    def test_progress_streams_counts_to_stderr(self, capsys):
        code = main(["compare", "--scale", "tiny", "--horizon", "2",
                     "--no-cache", "--progress"])
        assert code == 0
        captured = capsys.readouterr()
        assert "[4/4] runs complete" in captured.err
        assert "[4/4]" not in captured.out

    def test_no_progress_silences_stderr(self, capsys):
        code = main(["compare", "--scale", "tiny", "--horizon", "2",
                     "--no-cache", "--no-progress"])
        assert code == 0
        assert "runs complete" not in capsys.readouterr().err

    def test_sweep_streams_progress(self, capsys):
        code = main(["sweep", "battery", "--scale", "tiny", "--horizon", "2",
                     "--no-cache", "--progress"])
        assert code == 0
        err = capsys.readouterr().err
        assert "[1/4]" in err
        assert "[4/4]" in err


class TestStoreSubcommand:
    def warm_store(self, tmp_path, backend="json"):
        store = tmp_path / "warmstore"
        argv = ["compare", "--scale", "tiny", "--horizon", "2",
                "--store", str(store)]
        if backend != "json":
            argv += ["--store-backend", backend]
        assert main(argv) == 0
        from repro.experiments.runner import clear_cache

        clear_cache()
        return store

    def test_ls_lists_documents(self, capsys, tmp_path):
        store = self.warm_store(tmp_path)
        capsys.readouterr()
        assert main(["store", "ls", "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "4 document(s)" in out
        assert "Proposed" in out
        assert "[json backend]" in out

    def test_ls_fingerprint_filter(self, capsys, tmp_path):
        store = self.warm_store(tmp_path)
        capsys.readouterr()
        from repro.store import JsonFileBackend

        fingerprint = next(iter(JsonFileBackend(store).keys()))
        assert main(["store", "ls", "--store", str(store),
                     "--fingerprint", fingerprint[:8]]) == 0
        assert "1 document(s)" in capsys.readouterr().out

    def test_ls_requires_root(self, monkeypatch):
        monkeypatch.delenv("REPRO_RESULT_STORE", raising=False)
        with pytest.raises(SystemExit, match="no store root"):
            main(["store", "ls"])

    def test_gc_refuses_without_filters(self, tmp_path):
        store = self.warm_store(tmp_path)
        with pytest.raises(SystemExit, match="refusing to gc"):
            main(["store", "gc", "--store", str(store)])

    def test_gc_dry_run_keeps_documents(self, capsys, tmp_path):
        store = self.warm_store(tmp_path)
        capsys.readouterr()
        assert main(["store", "gc", "--store", str(store),
                     "--all", "--dry-run"]) == 0
        assert "would delete 4 document(s)" in capsys.readouterr().out
        assert len(list(store.rglob("*.json"))) == 4

    def test_gc_all_deletes_documents(self, capsys, tmp_path):
        store = self.warm_store(tmp_path)
        capsys.readouterr()
        assert main(["store", "gc", "--store", str(store), "--all"]) == 0
        assert "deleted 4 document(s)" in capsys.readouterr().out
        assert main(["store", "ls", "--store", str(store)]) == 0
        assert "0 document(s)" in capsys.readouterr().out

    def test_gc_by_pack_name(self, capsys, tmp_path):
        """Pack-aware GC: collect one recorded pack's runs only."""
        csv = write_recording(tmp_path)
        store = tmp_path / "packstore"
        assert main(["compare", "--scale", "tiny", "--horizon", "2",
                     "--store", str(store), "--pack-csv", str(csv)]) == 0
        assert main(["compare", "--scale", "tiny", "--horizon", "2",
                     "--store", str(store)]) == 0
        from repro.experiments.runner import clear_cache

        clear_cache()
        capsys.readouterr()
        assert main(["store", "gc", "--store", str(store),
                     "--pack", "recording"]) == 0
        assert "deleted 4 document(s)" in capsys.readouterr().out
        assert main(["store", "ls", "--store", str(store)]) == 0
        assert "4 document(s)" in capsys.readouterr().out  # synthetic runs stay

    def test_migrate_to_segment_and_rerun_warm(
        self, capsys, tmp_path, monkeypatch
    ):
        store = self.warm_store(tmp_path)
        dest = tmp_path / "migrated"
        capsys.readouterr()
        assert main(["store", "migrate", "--store", str(store),
                     "--dest", str(dest), "--to", "segment"]) == 0
        out = capsys.readouterr().out
        assert "migrated 4 document(s)" in out
        assert "bit-identically" in out
        invocations = []
        original = SimulationEngine.run

        def counting_run(self):
            invocations.append(self.policy.name)
            return original(self)

        monkeypatch.setattr(SimulationEngine, "run", counting_run)
        assert main(["compare", "--scale", "tiny", "--horizon", "2",
                     "--store", str(dest)]) == 0
        assert invocations == []  # the migrated root serves every run

    def test_migrate_onto_itself_refused(self, tmp_path):
        store = self.warm_store(tmp_path)
        with pytest.raises(SystemExit, match="overlapping"):
            main(["store", "migrate", "--store", str(store),
                  "--dest", str(store), "--to", "segment"])

    def test_migrate_into_nested_dest_refused(self, tmp_path):
        store = self.warm_store(tmp_path)
        nested = store / "migrated"
        with pytest.raises(SystemExit, match="overlapping"):
            main(["store", "migrate", "--store", str(store),
                  "--dest", str(nested), "--to", "segment"])
        assert not nested.exists()  # refused before any write

    def test_compact_segment_store(self, capsys, tmp_path):
        store = self.warm_store(tmp_path, backend="segment")
        capsys.readouterr()
        assert main(["store", "compact", "--store", str(store)]) == 0
        assert "compacted to 4 live document(s)" in capsys.readouterr().out

    def test_compact_rejects_non_segment(self, tmp_path):
        store = self.warm_store(tmp_path)
        with pytest.raises(SystemExit, match="segment stores"):
            main(["store", "compact", "--store", str(store)])


class TestEnvStoreRoot:
    def test_store_backend_flag_applies_to_env_root(
        self, capsys, tmp_path, monkeypatch
    ):
        """--store-backend must not be dropped when the root comes
        from $REPRO_RESULT_STORE rather than --store."""
        store = tmp_path / "envstore"
        store.mkdir()
        monkeypatch.setenv("REPRO_RESULT_STORE", str(store))
        assert main(["compare", "--scale", "tiny", "--horizon", "2",
                     "--store-backend", "segment"]) == 0
        assert list(store.glob("segments/*.seg"))


class TestServiceFlags:
    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8123
        assert args.jobs == 1
        assert args.store is None

    def test_service_flag_default_off(self):
        args = build_parser().parse_args(["compare"])
        assert args.service is None

    def test_service_and_store_mutually_exclusive(self, tmp_path):
        with pytest.raises(SystemExit, match="mutually exclusive"):
            main(
                ["compare", "--scale", "tiny", "--horizon", "2",
                 "--service", "http://127.0.0.1:1",
                 "--store", str(tmp_path / "store")]
            )

    def test_unreachable_service_is_clean_usage_error(self):
        """Connection failures exit nonzero with a message, no traceback."""
        with pytest.raises(SystemExit, match="cannot reach") as excinfo:
            main(["compare", "--scale", "tiny", "--horizon", "2",
                  "--service", "http://127.0.0.1:9"])
        assert excinfo.value.code != 0

    def test_commands_run_against_live_daemon(self, capsys, tmp_path):
        from repro.experiments.orchestrator import Orchestrator, ResultStore
        from repro.service import ExperimentDaemon

        store_root = tmp_path / "daemon-store"
        daemon = ExperimentDaemon(
            Orchestrator(store=ResultStore(store_root, backend="segment"),
                         jobs=2)
        ).start()
        try:
            argv = ["compare", "--scale", "tiny", "--horizon", "2",
                    "--service", daemon.url, "--no-progress"]
            assert main(argv) == 0
            remote = capsys.readouterr().out
            assert "Proposed" in remote
            assert main(["compare", "--scale", "tiny", "--horizon", "2",
                         "--no-progress"]) == 0
            assert capsys.readouterr().out == remote
            # The daemon's own store holds the four comparison runs.
            assert main(["store", "ls", "--store", str(store_root)]) == 0
            assert "4 document(s)" in capsys.readouterr().out
        finally:
            daemon.close()

    def test_daemon_death_mid_command_is_clean_error(self, tmp_path):
        """A daemon that dies after the health check exits cleanly too."""
        from repro.experiments.orchestrator import Orchestrator, ResultStore
        from repro.service import ExperimentDaemon, ServiceClient
        from repro.service.client import ServiceError

        daemon = ExperimentDaemon(Orchestrator(store=ResultStore())).start()
        url = daemon.url
        daemon.close()
        client = ServiceClient(url, timeout_s=0.5)
        with pytest.raises(ServiceError, match="cannot reach"):
            client.ping()

    def test_service_and_jobs_mutually_exclusive(self):
        with pytest.raises(SystemExit, match="--jobs"):
            main(["compare", "--scale", "tiny", "--horizon", "2",
                  "--service", "http://127.0.0.1:1", "--jobs", "4"])

    def test_bad_service_url_is_clean_usage_error(self):
        with pytest.raises(SystemExit, match="http"):
            main(["compare", "--scale", "tiny", "--horizon", "2",
                  "--service", "http://127.0.0.1:80x0"])
