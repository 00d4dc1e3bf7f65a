"""The offline tuner: simulator behavior, scoring, and the
same-seed → same-winner determinism contract of ``repro tune``."""

import pytest

from repro.api.config import ConfigError, PipelineConfig, TuneConfig
from repro.tune import (
    Candidate,
    CostModel,
    WorkloadPhase,
    WorkloadSpec,
    default_candidates,
    render_report,
    score_metrics,
    simulate_trial,
    successive_halving,
)
from repro.tune import simulate
from repro.tune.search import _fidelity_subset
from repro.tune.simulate import TrialMetrics
from repro.tune.workload import Arrival


def spike_spec():
    return WorkloadSpec(
        name="spike", seed=7,
        phases=(
            WorkloadPhase(duration=4.0, rate=2.0, count=2),
            WorkloadPhase(duration=2.0, rate=20.0, count=2, source="bulk"),
            WorkloadPhase(duration=4.0, rate=2.0, count=2),
        ),
    )


def metrics(**overrides):
    base = dict(
        requests=10, completed=10, rejected=0, p50_latency=0.1,
        p95_latency=0.5, p99_latency=0.6, mean_latency=0.2,
        throughput=5.0, quality=1.0, degrades=0, restores=0,
        final_level=0, makespan=2.0,
    )
    base.update(overrides)
    return TrialMetrics(**base)


class TestCostModel:
    def test_evals_ordering(self):
        cost = CostModel()
        assert cost.evals("full") == cost.evals(None) == 128
        assert cost.evals("bucketed") == 16
        assert cost.evals(32) == 32
        assert cost.evals(10 ** 6) == 128  # clamped to full

    def test_batching_amortizes_the_step_base(self):
        cost = CostModel()
        one = cost.batch_seconds(1, "full")
        eight = cost.batch_seconds(8, "full")
        assert eight < 8 * one

    def test_validation(self):
        with pytest.raises(ConfigError):
            CostModel(step_base=-1.0)
        with pytest.raises(ConfigError):
            CostModel(full_steps=8, bucketed_steps=16)


class TestCandidates:
    def test_validation_names_the_knob(self):
        with pytest.raises(ConfigError):
            Candidate(policy="nonsense")
        with pytest.raises(ConfigError):
            Candidate(queue_limit=0)

    def test_grid_is_stable_and_policy_diverse_up_front(self):
        grid = default_candidates()
        assert grid == default_candidates()
        assert len(grid) == len({c.key() for c in grid})
        # Policy is the innermost axis: a tiny budget prefix still races
        # every policy (the point of trimming by prefix).
        assert {c.policy for c in grid[:4]} == {
            "greedy", "shape_bucketed", "fair_share", "adaptive"
        }
        # Adaptive owns its quality schedule: never pre-degraded.
        assert all(
            c.sampler_steps == "full"
            for c in grid if c.policy == "adaptive"
        )


class TestScoring:
    def test_holding_the_slo_beats_any_miss(self):
        holds = score_metrics(metrics(p95_latency=0.9, quality=0.4), 1.0)
        misses = score_metrics(metrics(p95_latency=1.1, quality=1.0), 1.0)
        assert holds > misses

    def test_within_slo_quality_wins(self):
        degraded = score_metrics(metrics(p95_latency=0.2, quality=0.4), 1.0)
        full = score_metrics(metrics(p95_latency=0.9, quality=1.0), 1.0)
        assert full > degraded

    def test_outside_slo_closeness_wins_over_quality(self):
        near = score_metrics(metrics(p95_latency=1.1, quality=0.4), 1.0)
        far = score_metrics(metrics(p95_latency=3.0, quality=1.0), 1.0)
        assert near > far

    def test_shedding_disqualifies_from_the_slo_tier(self):
        shedding = score_metrics(
            metrics(p95_latency=0.1, rejected=5, quality=1.0), 1.0
        )
        serving = score_metrics(metrics(p95_latency=0.9, quality=0.2), 1.0)
        assert serving > shedding


class TestFidelitySubset:
    def test_full_fidelity_is_identity(self):
        arrivals = spike_spec().arrivals()
        assert _fidelity_subset(arrivals, 1.0) == arrivals

    def test_low_fidelity_keeps_every_phase(self):
        arrivals = spike_spec().arrivals()
        subset = _fidelity_subset(arrivals, 0.25)
        assert len(subset) < len(arrivals)
        assert {a.phase for a in subset} == {a.phase for a in arrivals}
        assert subset == sorted(subset, key=lambda a: a.at)


class TestSimulation:
    def test_trial_is_deterministic(self):
        arrivals = spike_spec().arrivals()
        c = Candidate(policy="adaptive")
        tune = TuneConfig(slo_p95=1.0)
        assert (
            simulate_trial(c, arrivals, tune=tune).as_dict()
            == simulate_trial(c, arrivals, tune=tune).as_dict()
        )

    def test_queue_limit_sheds_load(self):
        arrivals = spike_spec().arrivals()
        m = simulate_trial(
            Candidate(policy="greedy", queue_limit=2), arrivals
        )
        assert m.rejected > 0
        assert m.completed + m.rejected == m.requests

    def test_static_degraded_config_pays_in_quality(self):
        arrivals = spike_spec().arrivals()
        m = simulate_trial(
            Candidate(policy="greedy", sampler_steps="bucketed"), arrivals
        )
        assert m.quality == pytest.approx(16 / 128)

    def test_adaptive_degrades_under_spike_and_restores(self):
        arrivals = spike_spec().arrivals()
        tune = TuneConfig(slo_p95=1.0)
        adaptive = simulate_trial(
            Candidate(policy="adaptive"), arrivals, tune=tune
        )
        greedy = simulate_trial(
            Candidate(policy="greedy"), arrivals, tune=tune
        )
        assert adaptive.degrades > 0
        assert adaptive.final_level == 0  # calm tail restored quality
        assert adaptive.quality < 1.0
        assert greedy.quality == pytest.approx(1.0)
        # The headline: adaptive holds the SLO the static config misses.
        assert adaptive.p95_latency <= tune.slo_p95 < greedy.p95_latency

    def test_shape_bucketed_ages_a_minority_shape_job(self, monkeypatch):
        # A steady 64x64 stream always fills the biggest bucket; the lone
        # 48x48 job must ride once it has waited past the policy's aging
        # window, not starve until the stream ends (~31 s).
        arrivals = [
            Arrival(at=0.1 * k, count=2, shape=(64, 64), source="default",
                    sampler_steps=None)
            for k in range(300)
        ]
        arrivals.insert(1, Arrival(at=0.05, count=2, shape=(48, 48),
                                   source="default", sampler_steps=None))
        # The largest latency is the tail of the sorted list the trial
        # hands to its percentile helper.
        largest = []
        percentile = simulate._percentile

        def spy(values, p):
            largest.append(values[-1] if values else 0.0)
            return percentile(values, p)

        monkeypatch.setattr(simulate, "_percentile", spy)
        m = simulate_trial(Candidate(policy="shape_bucketed"), arrivals)
        assert m.completed == len(arrivals)
        assert max(largest) < 2.0


class TestSuccessiveHalving:
    def test_same_seed_same_winner_and_config(self):
        spec = spike_spec()
        tune = TuneConfig(slo_p95=1.0)
        one = successive_halving(spec, tune=tune, budget=16)
        two = successive_halving(spec, tune=tune, budget=16)
        assert one.winner.candidate == two.winner.candidate
        assert one.tuned_config().dumps() == two.tuned_config().dumps()
        assert [t.as_dict() for t in one.trials] == [
            t.as_dict() for t in two.trials
        ]

    def test_spike_workload_selects_adaptive(self):
        outcome = successive_halving(
            spike_spec(), tune=TuneConfig(slo_p95=1.0), budget=16
        )
        assert outcome.winner.candidate.policy == "adaptive"
        assert outcome.winner.metrics.p95_latency <= 1.0

    def test_tuned_config_round_trips_and_serves_the_winner(self):
        outcome = successive_halving(
            spike_spec(), tune=TuneConfig(slo_p95=1.0), budget=16
        )
        tuned = outcome.tuned_config()
        loaded = PipelineConfig.loads(tuned.dumps())
        assert loaded.dumps() == tuned.dumps()
        won = outcome.winner.candidate
        assert loaded.serve.policy == won.policy
        assert loaded.serve.queue_limit == won.queue_limit
        assert loaded.sample.sampler_steps == won.sampler_steps

    def test_budget_trims_a_deterministic_prefix(self):
        spec = spike_spec()
        outcome = successive_halving(spec, budget=4)
        assert outcome.candidates == 4
        keys = {t.candidate.key() for t in outcome.trials}
        assert keys <= {c.key() for c in default_candidates()[:4]}
        with pytest.raises(ValueError):
            successive_halving(spec, budget=0)

    def test_explicit_candidate_list(self):
        outcome = successive_halving(
            spike_spec(),
            candidates=[Candidate(policy="greedy"),
                        Candidate(policy="adaptive")],
            tune=TuneConfig(slo_p95=1.0),
        )
        assert outcome.candidates == 2
        assert outcome.winner.candidate.policy == "adaptive"

    def test_report_renders_every_rung_and_the_winner(self):
        outcome = successive_halving(
            spike_spec(), tune=TuneConfig(slo_p95=1.0), budget=8
        )
        report = render_report(outcome)
        for rung in range(outcome.rungs):
            assert f"rung {rung}" in report
        assert "winner:" in report
        assert outcome.winner.candidate.key() in report
        assert "serve knobs:" in report
