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
    grid_search,
    render_report,
    score_metrics,
    simulate_trial,
)
from repro.tune.simulate import TrialMetrics


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
        assert {c.policy for c in grid[:2]} == {"fair_share", "adaptive"}
        # The queue limit is the overload guard, not a searched axis.
        assert all(c.queue_limit is None for c in grid)
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
            Candidate(policy="fair_share", queue_limit=2), arrivals
        )
        assert m.rejected > 0
        assert m.completed + m.rejected == m.requests

    def test_static_degraded_config_pays_in_quality(self):
        arrivals = spike_spec().arrivals()
        m = simulate_trial(
            Candidate(policy="fair_share", sampler_steps="bucketed"), arrivals
        )
        assert m.quality == pytest.approx(16 / 128)

    def test_adaptive_degrades_under_spike_and_restores(self):
        arrivals = spike_spec().arrivals()
        tune = TuneConfig(slo_p95=1.0)
        adaptive = simulate_trial(
            Candidate(policy="adaptive"), arrivals, tune=tune
        )
        static = simulate_trial(
            Candidate(policy="fair_share"), arrivals, tune=tune
        )
        assert adaptive.degrades > 0
        assert adaptive.final_level == 0  # calm tail restored quality
        assert adaptive.quality < 1.0
        assert static.quality == pytest.approx(1.0)
        # The headline: adaptive holds the SLO the static config misses.
        assert adaptive.p95_latency <= tune.slo_p95 < static.p95_latency


class TestSuccessiveHalving:
    """:func:`grid_search`, which replaced successive halving: every
    candidate scored on the full trace.  The class and test names keep
    their historical spelling so the test ids stay comparable."""

    def test_same_seed_same_winner_and_config(self):
        spec = spike_spec()
        tune = TuneConfig(slo_p95=1.0)
        one = grid_search(spec, tune=tune)
        two = grid_search(spec, tune=tune)
        assert one.winner.candidate == two.winner.candidate
        assert one.tuned_config().dumps() == two.tuned_config().dumps()
        assert [t.as_dict() for t in one.trials] == [
            t.as_dict() for t in two.trials
        ]

    def test_spike_workload_selects_adaptive(self):
        outcome = grid_search(spike_spec(), tune=TuneConfig(slo_p95=1.0))
        assert outcome.winner.candidate.policy == "adaptive"
        assert outcome.winner.metrics.p95_latency <= 1.0

    def test_every_candidate_is_scored_on_the_full_trace(self):
        spec = spike_spec()
        outcome = grid_search(spec, tune=TuneConfig(slo_p95=1.0))
        assert sorted(t.candidate.key() for t in outcome.trials) == sorted(
            c.key() for c in default_candidates()
        )
        requests = len(spec.arrivals())
        assert all(t.metrics.requests == requests for t in outcome.trials)
        assert outcome.winner is outcome.trials[0]

    def test_tuned_config_round_trips_and_serves_the_winner(self):
        outcome = grid_search(spike_spec(), tune=TuneConfig(slo_p95=1.0))
        tuned = outcome.tuned_config()
        loaded = PipelineConfig.loads(tuned.dumps())
        assert loaded.dumps() == tuned.dumps()
        won = outcome.winner.candidate
        assert loaded.serve.policy == won.policy
        assert loaded.serve.queue_limit == won.queue_limit
        assert loaded.sample.sampler_steps == won.sampler_steps

    def test_explicit_candidate_list(self):
        outcome = grid_search(
            spike_spec(),
            candidates=[Candidate(policy="fair_share"),
                        Candidate(policy="adaptive")],
            tune=TuneConfig(slo_p95=1.0),
        )
        assert len(outcome.trials) == 2
        assert outcome.winner.candidate.policy == "adaptive"

    def test_report_renders_every_rung_and_the_winner(self):
        outcome = grid_search(spike_spec(), tune=TuneConfig(slo_p95=1.0))
        report = render_report(outcome)
        for trial in outcome.trials:
            assert trial.candidate.key() in report
        assert "winner:" in report
        assert outcome.winner.candidate.key() in report
        assert "serve knobs:" in report


class TestSpikeReportPin:
    """The tuner's report on the committed spike workload, pinned by
    digest.  The simulator replays traffic through the serving engine's
    own admission, selection and gather code, so a refactor of the engine
    that changes any scheduling decision changes this report."""

    #: SHA-256 of ``repro tune benchmarks/workloads/spike.json --seed 1``'s
    #: stdout, which is the report itself
    SPIKE_REPORT_SHA256 = (
        "84cacd2535c0535e679ec4039ad3fb7c46adf4ed1ba1c3e1669cba57b6d4c808"
    )

    def test_spike_report_digest(self, capsys):
        import hashlib
        from pathlib import Path

        from repro import cli

        workload = (
            Path(__file__).resolve().parents[2]
            / "benchmarks" / "workloads" / "spike.json"
        )
        assert cli.main(["tune", str(workload), "--seed", "1"]) == 0
        report = capsys.readouterr().out
        assert "winner: fair_share/qinf/sfull" in report
        digest = hashlib.sha256(report.encode("utf-8")).hexdigest()
        assert digest == self.SPIKE_REPORT_SHA256
