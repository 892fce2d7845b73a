"""Engine bench entry point, CLI flags, and study-harness integration."""

import json
import re

import pytest

from repro.cli import main
from repro.core import io as study_io
from repro.core.config import StudyConfig
from repro.core.runner import _GRID_SUMMARY_CACHE, run_native_study
from repro.engine import BACKEND_NAMES, create_backend
from repro.engine.bench import format_engine_bench, run_engine_bench, write_engine_bench


QUICK = dict(batch=8, channels=4, size=8, repeats=1)


class TestEngineBench:
    @pytest.fixture(scope="class")
    def doc(self):
        return run_engine_bench(**QUICK)

    def test_document_shape(self, doc):
        assert doc["format"] == "repro.engine_bench"
        assert set(doc["backends"]) == {"numpy"}
        entry = doc["backends"]["numpy"]
        for op in ("conv_forward", "conv_backward", "bn_opt_step"):
            assert entry[op]["best_s"] > 0
            assert entry[op]["median_s"] >= entry[op]["best_s"]
        assert entry["arena"]["requests"] > 0

    def test_format_is_renderable(self, doc):
        text = format_engine_bench(doc)
        assert "numpy" in text and "speedup" not in text

    def test_write_engine_bench(self, tmp_path):
        path = tmp_path / "BENCH_engine.json"
        write_engine_bench(path, **QUICK)
        loaded = json.loads(path.read_text())
        assert loaded["workload"]["batch"] == QUICK["batch"]
        assert "numpy" in loaded["backends"]


class TestCliBackendFlags:
    def test_bench_command_writes_json(self, tmp_path, capsys):
        path = tmp_path / "bench.json"
        rc = main(["bench", "--batch", "8", "--repeats", "1",
                   "--json", str(path)])
        assert rc == 0
        doc = json.loads(path.read_text())
        assert doc["format"] == "repro.engine_bench"
        assert set(doc["backends"]) == {"numpy"}
        assert "wrote" in capsys.readouterr().out

    def test_global_backend_flag_accepted(self, capsys):
        rc = main(["--backend", "sanitize", "models"])
        assert rc == 0
        assert "resnet18" in capsys.readouterr().out

    def test_unknown_backend_rejected(self):
        with pytest.raises(SystemExit):
            main(["--backend", "cuda", "models"])


class TestNativeStudyBackend:
    @pytest.fixture(scope="class")
    def tiny_config(self):
        return dict(models=("wrn40_2",), methods=("bn_norm",),
                    batch_sizes=(32,), corruptions=("fog",),
                    image_size=16, stream_samples=64, train_samples=64,
                    train_epochs=1)

    def test_records_carry_backend_name(self, micro_trained_model,
                                        tiny_config):
        model, _ = micro_trained_model
        config = StudyConfig(backend="numpy", **tiny_config)
        result = run_native_study(config, models={"wrn40_2": model})
        assert all(r.backend == "numpy" for r in result)

    def test_sanitize_backend_matches_numpy_errors(self, micro_trained_model,
                                                   tiny_config):
        model, _ = micro_trained_model
        ref = run_native_study(StudyConfig(backend="numpy", **tiny_config),
                               models={"wrn40_2": model})
        got = run_native_study(StudyConfig(backend="sanitize", **tiny_config),
                               models={"wrn40_2": model})
        assert [r.backend for r in got] == ["sanitize"]
        assert got.records[0].error_pct == ref.records[0].error_pct

    def test_backend_survives_json_round_trip(self, micro_trained_model,
                                              tiny_config):
        model, _ = micro_trained_model
        result = run_native_study(StudyConfig(backend="numpy", **tiny_config),
                                  models={"wrn40_2": model})
        restored = study_io.loads(study_io.dumps(result))
        assert restored.records[0].backend == "numpy"


class TestThreadedBackendRemoved:
    """The batch-sharded "threaded" backend is gone, with no alias."""

    def test_create_backend_rejects_threaded(self):
        assert BACKEND_NAMES == ("numpy", "sanitize")
        with pytest.raises(ValueError, match=re.escape(str(BACKEND_NAMES))):
            create_backend("threaded")

    @pytest.mark.parametrize("argv", [
        ["--backend", "threaded", "models"],
        ["--threads", "2", "models"],
    ])
    def test_cli_rejects_threaded_flags(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        capsys.readouterr()

    def test_threaded_records_still_load(self, tmp_path):
        """Result files written by the threaded backend stay readable."""
        path = tmp_path / "study.json"
        path.write_text(json.dumps({
            "format": "repro.study_result", "version": 1,
            "records": [{"model": "wrn40_2", "method": "bn_opt",
                         "batch_size": 50, "device": "host",
                         "error_pct": 21.5, "forward_time_s": 0.054,
                         "energy_j": 0.0, "backend": "threaded"}]}))
        result = study_io.load_json(path)
        assert [r.backend for r in result] == ["threaded"]
        assert study_io.loads(study_io.dumps(result)).records == result.records


class TestSummaryCache:
    def test_cache_builds_once_and_clears(self):
        _GRID_SUMMARY_CACHE.clear()
        assert len(_GRID_SUMMARY_CACHE) == 0
        calls = []

        def builder(name):
            calls.append(name)
            return f"summary-of-{name}"

        assert _GRID_SUMMARY_CACHE.get_or_build("m", builder) == "summary-of-m"
        assert _GRID_SUMMARY_CACHE.get_or_build("m", builder) == "summary-of-m"
        assert calls == ["m"]
        _GRID_SUMMARY_CACHE.clear()
        _GRID_SUMMARY_CACHE.get_or_build("m", builder)
        assert calls == ["m", "m"]
        _GRID_SUMMARY_CACHE.clear()

    def test_concurrent_builds_converge_to_one_entry(self):
        import threading
        _GRID_SUMMARY_CACHE.clear()
        results = []

        def build():
            results.append(_GRID_SUMMARY_CACHE.get_or_build(
                "race", lambda n: object()))

        threads = [threading.Thread(target=build) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len({id(r) for r in results}) == 1
        _GRID_SUMMARY_CACHE.clear()
