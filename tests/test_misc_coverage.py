"""Coverage for the smaller public surfaces: registry, scales, engine
guards."""

import pytest

from repro.apps import app_names, default_config, get_builder, run_app
from repro.apps.base import register_app
from repro.costmodel import BENCH, PAPER, get_scale
from repro.network import single_cluster
from repro.sim import Engine, Process, SimulationError, Sleep


class TestRegistry:
    def test_all_apps_registered(self):
        assert app_names() == ("asp", "awari", "barnes", "fft", "tsp", "water")

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="no app variant"):
            get_builder("water", "turbo" if False else "turbo")

    def test_register_rejects_bad_variant(self):
        with pytest.raises(ValueError, match="variant must be"):
            register_app("x", "bogus", lambda cfg: None)

    def test_unknown_app_config(self):
        with pytest.raises(ValueError, match="no registered default config"):
            default_config("nonexistent")

    def test_run_app_with_default_config(self):
        result = run_app("tsp", "unoptimized", single_cluster(4),
                         config=None, scale="bench")
        assert result.runtime > 0


class TestScales:
    def test_known_scales(self):
        assert get_scale("paper") is PAPER
        assert get_scale("bench") is BENCH

    def test_unknown_scale(self):
        with pytest.raises(ValueError, match="unknown workload scale"):
            get_scale("huge")

    def test_paper_scale_matches_the_paper(self):
        assert PAPER.water_molecules == 1500
        assert PAPER.barnes_bodies == 65_536
        assert PAPER.asp_n == 1500
        assert PAPER.tsp_jobs == 32_760
        assert PAPER.awari_stages == 9
        assert PAPER.fft_points == 1 << 20

    def test_bench_scale_smaller_but_same_sizes(self):
        # Step counts shrink; per-step scale stays (see DESIGN.md §2).
        assert BENCH.water_iterations < PAPER.water_iterations
        assert BENCH.water_molecules == PAPER.water_molecules
        assert BENCH.fft_points == PAPER.fft_points


class TestEngineGuards:
    def test_engine_not_reentrant(self):
        eng = Engine()
        seen = []

        def nested():
            with pytest.raises(SimulationError, match="not reentrant"):
                eng.run()
            seen.append(True)

        eng.call_at(1.0, nested)
        eng.run()
        assert seen == [True]

    def test_process_throw_delivers_exception(self):
        eng = Engine()
        caught = []

        def body():
            try:
                yield Sleep(10.0)
            except RuntimeError as err:
                caught.append(str(err))

        proc = Process(eng, body(), name="t").start()
        eng.call_at(1.0, lambda: proc.throw(RuntimeError("wake up")))
        eng.run(until=2.0)
        assert caught == ["wake up"]
