"""Unit tests for the command-line interface.

The CLI resolves its back-end through the pipeline's model registry, which
is too slow per-test; these tests patch the ``_build_pipeline`` seam to
return a pipeline bound to the session-scoped small model.
"""

import ctypes
import json
import os
import platform
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro import cli
from repro.api import PatternPipeline, PipelineConfig
from repro.io import load_library, save_library
from repro.metrics import legalize_many
from repro.serve import PatternService

SRC = Path(__file__).resolve().parents[2] / "src"

#: The arena cap acts on the whole process: the in-process ``serve`` runs
#: below record the call instead of capping the test runner's allocator.
_real_cap_malloc_arenas = cli._cap_malloc_arenas


@pytest.fixture(autouse=True)
def fast_pipeline(small_model, monkeypatch):
    built = []
    monkeypatch.setattr(cli, "_cap_malloc_arenas", lambda: False)

    def fake_build(args, cfg):
        cfg = cfg.replace(serve=cfg.serve.replace(max_retries=0))
        pipeline = PatternPipeline(cfg, model=small_model)
        built.append(pipeline)
        return pipeline

    monkeypatch.setattr(cli, "_build_pipeline", fake_build)
    yield built


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args([])

    def test_chat_args(self):
        args = cli.build_parser().parse_args(["chat", "hello", "-o", "x.npz"])
        assert args.command == "chat"
        assert args.request == "hello"
        assert args.output == "x.npz"

    def test_global_flags_accepted_before_and_after_subcommand(self):
        before = cli.build_parser().parse_args(
            ["--model-cache", "mc", "--train-count", "8", "generate"]
        )
        after = cli.build_parser().parse_args(
            ["generate", "--model-cache", "mc", "--train-count", "8"]
        )
        for args in (before, after):
            assert args.model_cache == "mc"
            assert args.train_count == 8

    def test_subcommand_absence_does_not_clobber_global_flag(self):
        args = cli.build_parser().parse_args(["--seed", "5", "generate"])
        assert args.seed == 5


class TestPipelineConfigResolution:
    def test_defaults(self):
        args = cli.build_parser().parse_args(["generate"])
        cfg = cli._pipeline_config(args)
        assert cfg == PipelineConfig()

    def test_cli_flags_override(self):
        args = cli.build_parser().parse_args(
            ["generate", "--train-count", "8", "--seed", "5",
             "--model-cache", "mc"]
        )
        cfg = cli._pipeline_config(args)
        assert cfg.train.train_count == 8
        assert cfg.train.seed == 5
        assert cfg.model_cache == "mc"

    def test_config_file_loaded_and_overridden(self, tmp_path):
        path = tmp_path / "pipeline.json"
        base = PipelineConfig()
        base = base.replace(
            train=base.train.replace(train_count=12, seed=9),
            sample=base.sample.replace(style="Layer-10003", count=3),
        )
        base.save(path)
        args = cli.build_parser().parse_args(
            ["generate", "--config", str(path), "--train-count", "6"]
        )
        cfg = cli._pipeline_config(args)
        assert cfg.train.train_count == 6  # flag wins
        assert cfg.train.seed == 9  # file wins where no flag given
        assert cfg.sample.style == "Layer-10003"
        assert cfg.sample.count == 3

    def test_bad_config_file_rejected(self, tmp_path):
        path = tmp_path / "pipeline.json"
        path.write_text(json.dumps({"train": {"window": 64}, "typo": {}}))
        args = cli.build_parser().parse_args(
            ["generate", "--config", str(path)]
        )
        with pytest.raises(ValueError, match="typo"):
            cli._pipeline_config(args)


class TestCommands:
    def test_generate(self, tmp_path, capsys):
        out = tmp_path / "lib.npz"
        code = cli.main(
            ["generate", "--style", "Layer-10001", "--count", "2",
             "-o", str(out), "--show"]
        )
        captured = capsys.readouterr().out
        assert "generated 2" in captured
        if code == 0:
            assert load_library(out)

    def test_generate_uses_config_sample_section(self, tmp_path, capsys):
        path = tmp_path / "pipeline.json"
        cfg = PipelineConfig()
        cfg = cfg.replace(sample=cfg.sample.replace(count=3))
        cfg.save(path)
        cli.main(["generate", "--config", str(path)])
        assert "generated 3" in capsys.readouterr().out

    def test_extend_count_from_config(self, tmp_path, capsys):
        path = tmp_path / "pipeline.json"
        cfg = PipelineConfig()
        cfg = cfg.replace(sample=cfg.sample.replace(count=2, extend_size=96))
        cfg.save(path)
        cli.main(["extend", "--config", str(path)])
        assert "extended 2 pattern(s) to 96x96" in capsys.readouterr().out

    def test_extend_default_count_is_one(self, capsys):
        cli.main(["extend", "--size", "96"])
        assert "extended 1 pattern(s)" in capsys.readouterr().out

    def test_chat(self, tmp_path, capsys):
        out = tmp_path / "lib.npz"
        code = cli.main(
            ["chat",
             "Generate 2 layout patterns, 64*64 topology, physical size "
             "1024nm * 1024nm, style Layer-10001.",
             "-o", str(out)]
        )
        captured = capsys.readouterr().out
        assert "sub-task" in captured

    def test_serve(self, tmp_path, capsys):
        out = tmp_path / "served.npz"
        store_dir = tmp_path / "store"
        request = (
            "Generate 2 layout patterns, 64*64 topology, physical size "
            "1024nm * 1024nm, style {style}."
        )
        code = cli.main(
            ["serve",
             request.format(style="Layer-10001"),
             request.format(style="Layer-10003"),
             "--gather-window", "0.1",
             "--store", str(store_dir),
             "-o", str(out)]
        )
        captured = capsys.readouterr().out
        assert "request 1:" in captured
        assert "request 2:" in captured
        assert "service:" in captured
        assert (store_dir / "index.json").exists()
        if code == 0:
            assert len(load_library(out)) >= 2

    def test_serve_requests_file(self, tmp_path, capsys):
        requests_file = tmp_path / "requests.txt"
        requests_file.write_text(
            "# workload\n"
            "Generate 2 layout patterns, 64*64 topology, physical size "
            "1024nm * 1024nm, style Layer-10001.\n"
        )
        cli.main(["serve", "--requests-file", str(requests_file)])
        assert "request 1:" in capsys.readouterr().out

    def test_serve_survives_bad_request(self, tmp_path, capsys):
        out = tmp_path / "partial.npz"
        good = (
            "Generate 1 layout patterns, 64*64 topology, physical size "
            "1024nm * 1024nm, style Layer-10001."
        )
        bad = "Generate 1 layout patterns, 64*64 topology, style Layer-99999."
        code = cli.main(["serve", good, bad, "-o", str(out)])
        captured = capsys.readouterr().out
        assert code == 1  # not every request produced
        assert "FAILED" in captured
        assert "Layer-99999" in captured
        if out.exists():  # the good request's output still saved
            assert len(load_library(out)) >= 1

    def test_serve_without_requests_errors(self, capsys):
        assert cli.main(["serve"]) == 2
        assert "no requests" in capsys.readouterr().err

    def test_evaluate_and_export(self, tmp_path, small_model, capsys):
        samples = small_model.sample(2, 0, np.random.default_rng(0))
        result = legalize_many(
            list(samples), "Layer-10001", physical_size=(1024, 1024),
            fault_isolation=False,
        )
        lib_path = tmp_path / "lib.npz"
        save_library(result.legal, lib_path)

        assert cli.main(["evaluate", str(lib_path)]) == 0
        assert "diversity" in capsys.readouterr().out

        gds_path = tmp_path / "lib.gds"
        assert cli.main(["export", str(lib_path), str(gds_path)]) == 0
        assert gds_path.exists()
        assert "wrote" in capsys.readouterr().out


class TestServeEngineFlags:
    def test_serve_engine_flags_reach_the_service(self, capsys, fast_pipeline):
        request = (
            "Generate 2 layout patterns, 64*64 topology, physical size "
            "1024nm * 1024nm, style {style}."
        )
        code = cli.main(
            ["serve",
             request.format(style="Layer-10001"),
             request.format(style="Layer-10003"),
             "--policy", "adaptive",
             "--queue-limit", "64",
             "--deadline", "30",
             "--gather-window", "0.05"]
        )
        captured = capsys.readouterr().out
        # Responses print in request order and the engine section of the
        # service stats reflects the flags.
        assert captured.index("request 1:") < captured.index("request 2:")
        assert "'policy': 'adaptive'" in captured
        assert "'queue_limit': 64" in captured
        built_cfg = fast_pipeline[-1].config.serve
        assert built_cfg.policy == "adaptive"
        assert built_cfg.queue_limit == 64
        assert built_cfg.deadline == 30.0

    def test_parser_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["serve", "x", "--policy", "fifo"])

    def test_removed_shape_bucketed_policy_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["serve", "x", "--policy", "shape_bucketed"])
        assert exc.value.code == 2
        assert "shape_bucketed" in capsys.readouterr().err

    def test_parser_rejects_the_removed_pool_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(
                ["serve", "x", "--engine-workers", "2"]
            )
        assert exc.value.code == 2
        assert "--engine-workers" in capsys.readouterr().err


class TestTuneCommand:
    def spec_path(self, tmp_path):
        from repro.tune import WorkloadPhase, WorkloadSpec

        spec = WorkloadSpec(
            name="mini-spike", seed=3,
            phases=(
                WorkloadPhase(duration=2.0, rate=2.0, count=2),
                WorkloadPhase(duration=1.0, rate=16.0, count=2,
                              source="bulk"),
                WorkloadPhase(duration=2.0, rate=2.0, count=2),
            ),
        )
        return spec.save(tmp_path / "workload.json")

    def test_tune_emits_report_and_loadable_config(self, tmp_path, capsys):
        spec = self.spec_path(tmp_path)
        out = tmp_path / "tuned.json"
        report = tmp_path / "report.txt"
        code = cli.main(
            ["tune", str(spec), "--slo", "1.0",
             "-o", str(out), "--report", str(report)]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "winner:" in captured
        assert "serve knobs:" in captured
        assert report.read_text() in captured
        tuned = PipelineConfig.load(out)  # loadable and servable as-is
        from repro.api.config import SERVE_POLICIES

        assert tuned.serve.policy in SERVE_POLICIES

    def test_tune_is_deterministic_for_a_fixed_seed(self, tmp_path, capsys):
        spec = self.spec_path(tmp_path)
        one, two = tmp_path / "one.json", tmp_path / "two.json"
        assert cli.main(
            ["tune", str(spec), "-o", str(one)]
        ) == 0
        assert cli.main(
            ["tune", str(spec), "-o", str(two)]
        ) == 0
        capsys.readouterr()
        assert one.read_text() == two.read_text()

    def test_seed_flag_overrides_the_spec_seed(self, tmp_path, capsys):
        spec = self.spec_path(tmp_path)
        assert cli.main(["tune", str(spec), "--seed", "99"]) == 0
        assert "seed 99" in capsys.readouterr().out

    def test_missing_and_malformed_specs_exit_2(self, tmp_path, capsys):
        assert cli.main(["tune", str(tmp_path / "absent.json")]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text("{\"name\": \"x\"}")  # no phases
        assert cli.main(["tune", str(bad)]) == 2
        capsys.readouterr()

    def test_removed_budget_flag_exits_2(self, tmp_path, capsys):
        spec = self.spec_path(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(["tune", str(spec), "--budget", "16"])
        assert exc.value.code == 2
        assert "--budget" in capsys.readouterr().err

    def test_bad_slo_exits_2(self, tmp_path, capsys):
        spec = self.spec_path(tmp_path)
        assert cli.main(["tune", str(spec), "--slo", "-1.0"]) == 2
        capsys.readouterr()


class TestStatsWatch:
    def snapshot(self, tmp_path):
        path = tmp_path / "snap.json"
        path.write_text(json.dumps({
            "metrics": [
                {"name": "repro_adaptive_level", "type": "gauge",
                 "series": [{"labels": {}, "value": 1.0}]},
            ],
        }))
        return path

    def test_watch_renders_the_requested_iterations(self, tmp_path, capsys):
        path = self.snapshot(tmp_path)
        code = cli.main(
            ["stats", str(path), "--watch", "0.01", "--iterations", "3"]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert captured.count("repro_adaptive_level = 1") == 3
        assert captured.count("every 0.01s") == 3

    def test_watch_rejects_nonpositive_interval(self, tmp_path, capsys):
        path = self.snapshot(tmp_path)
        assert cli.main(["stats", str(path), "--watch", "0"]) == 2
        capsys.readouterr()

    def test_watch_reports_missing_snapshot(self, tmp_path, capsys):
        absent = tmp_path / "absent.json"
        code = cli.main(
            ["stats", str(absent), "--watch", "0.01", "--iterations", "1"]
        )
        assert code == 2
        capsys.readouterr()

    def test_one_shot_stats_still_works(self, tmp_path, capsys):
        path = self.snapshot(tmp_path)
        assert cli.main(["stats", str(path)]) == 0
        assert "repro_adaptive_level = 1" in capsys.readouterr().out


_needs_glibc = pytest.mark.skipif(
    platform.system() != "Linux" or platform.libc_ver()[0] != "glibc",
    reason="malloc arenas and malloc_info are glibc's",
)

#: Three threads allocate at once (each holds its blocks until all have
#: allocated), then ``malloc_info`` counts the heaps glibc made.
_ARENA_PROBE = """
import ctypes, os, sys, tempfile, threading
from repro import cli
if sys.argv[1] == "cap":
    assert cli._cap_malloc_arenas()
barrier = threading.Barrier(3)
def work():
    blocks = [bytearray(4096) for _ in range(256)]
    barrier.wait()
    del blocks
threads = [threading.Thread(target=work) for _ in range(3)]
for t in threads:
    t.start()
for t in threads:
    t.join()
libc = ctypes.CDLL(None)
libc.fopen.restype = ctypes.c_void_p
libc.fopen.argtypes = [ctypes.c_char_p, ctypes.c_char_p]
libc.malloc_info.argtypes = [ctypes.c_int, ctypes.c_void_p]
libc.fclose.argtypes = [ctypes.c_void_p]
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "malloc_info.xml")
    stream = libc.fopen(path.encode(), b"w")
    libc.malloc_info(0, stream)
    libc.fclose(stream)
    with open(path) as handle:
        print(handle.read().count("<heap nr="))
"""


def _no_c_library(name):
    raise OSError("no C library")


class TestMallocArenaCap:
    def _heaps(self, mode: str) -> int:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        env.pop("MALLOC_ARENA_MAX", None)
        env.pop("GLIBC_TUNABLES", None)
        result = subprocess.run(
            [sys.executable, "-c", _ARENA_PROBE, mode],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        return int(result.stdout.split()[-1])

    @_needs_glibc
    def test_capped_threads_share_the_main_heap(self):
        assert self._heaps("cap") == 1

    @_needs_glibc
    def test_uncapped_threads_grow_heaps_of_their_own(self):
        # The control: what the cap removes.
        assert self._heaps("plain") == 4

    @pytest.mark.parametrize(
        "cdll", [lambda name: object(), _no_c_library],
        ids=["no_mallopt", "no_c_library"],
    )
    def test_without_mallopt_the_cap_is_a_no_op(self, monkeypatch, cdll):
        monkeypatch.setattr(ctypes, "CDLL", cdll)
        assert _real_cap_malloc_arenas() is False

    def test_serve_caps_before_any_serving_thread_starts(
        self, monkeypatch, capsys
    ):
        before = set(threading.enumerate())
        events = []

        def cap():
            events.append(("cap", set(threading.enumerate()) - before))
            return True

        start = PatternService.start

        def recording_start(service):
            events.append(("start", None))
            return start(service)

        monkeypatch.setattr(cli, "_cap_malloc_arenas", cap)
        monkeypatch.setattr(PatternService, "start", recording_start)
        cli.main(
            ["serve",
             "Generate 1 layout patterns, 64*64 topology, physical size "
             "1024nm * 1024nm, style Layer-10001."]
        )
        assert [name for name, _ in events] == ["cap", "start"]
        assert events[0][1] == set(), "a thread started before the cap"
        err = capsys.readouterr().err
        assert err.count("malloc: one arena for every serving thread") == 1
