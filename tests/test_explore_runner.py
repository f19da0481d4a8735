"""ExploreRunner: evaluation, resume, telemetry, and determinism.

Includes the determinism contract: same seed + same space yields the
identical trial sequence and frontier across two runs.
"""

import pytest

from repro import obs
from repro.core.engine import ExperimentEngine, default_engine, set_default_engine
from repro.explore import (
    ExploreRunner,
    ResultStore,
    make_strategy,
    tiny_space,
)


@pytest.fixture()
def fresh_engine():
    previous = default_engine()
    set_default_engine(ExperimentEngine())
    yield
    set_default_engine(previous)


def _run(space=None, **kwargs):
    seed = kwargs.pop("seed", 0)
    runner = ExploreRunner(space or tiny_space(),
                           store=kwargs.pop("store", ResultStore()), **kwargs)
    return runner.run(seed=seed)


def test_grid_run_covers_space(fresh_engine):
    result = _run()
    assert result.stats.trials == tiny_space().size
    assert result.stats.unique_points == tiny_space().size
    assert result.stats.store_hits == 0
    assert all(t.source == "engine" for t in result.trials)
    assert result.stats.frontier_size == len(result.frontier()) > 0


def test_trials_carry_fingerprints_and_objectives(fresh_engine):
    result = _run()
    for trial in result.trials:
        assert trial.spec_fingerprint and trial.mdesc_fingerprint
        assert set(trial.objectives) == set(result.schema.names)
        assert all(v > 0 for v in trial.objectives.values())


def test_store_resume_skips_evaluation(fresh_engine):
    store = ResultStore()
    first = _run(store=store)
    second = _run(store=store)
    assert second.stats.store_hits == second.stats.trials
    assert all(t.source == "store" for t in second.trials)
    assert ([t.objectives for t in second.trials]
            == [t.objectives for t in first.trials])


def test_no_resume_reevaluates(fresh_engine):
    store = ResultStore()
    _run(store=store)
    again = _run(store=store, resume=False)
    assert again.stats.store_hits == 0
    # ...but the warm engine serves the repeats from its cache.
    assert again.stats.engine_hit_rate > 0.5


def test_warm_engine_hit_rate_exceeds_half(fresh_engine):
    """The acceptance floor: a re-searched space reuses the engine cache."""
    _run(store=ResultStore())
    second = _run(store=ResultStore())
    assert second.stats.engine_hit_rate > 0.5
    assert second.stats.reuse_rate > 0.5


def test_budget_truncates_trials(fresh_engine):
    result = _run(budget=3)
    assert result.stats.trials == 3
    assert [t.index for t in result.trials] == [0, 1, 2]


def test_same_seed_identical_across_runs(fresh_engine):
    """Two runs, same seed: identical trial sequence and frontier."""
    runs = [_run(strategy=make_strategy("random", 6), seed=13,
                 store=ResultStore()) for _ in range(2)]
    assert ([t.index for t in runs[0].trials]
            == [t.index for t in runs[1].trials])
    assert ([t.spec_fingerprint for t in runs[0].frontier()]
            == [t.spec_fingerprint for t in runs[1].frontier()])
    assert ([t.objectives for t in runs[0].trials]
            == [t.objectives for t in runs[1].trials])


def test_run_emits_metrics(fresh_engine):
    obs.enable_metrics()
    try:
        before = obs.REGISTRY.snapshot()
        _run(store=ResultStore())
        window = obs.snapshot_diff(before, obs.REGISTRY.snapshot())
    finally:
        obs.disable_metrics()
    metrics = window["metrics"]
    trials = metrics["explore_trials_total"]["cells"]
    assert sum(trials.values()) == tiny_space().size
    assert any("source=engine" in key for key in trials)
    assert "explore_frontier_size" in metrics
    assert "explore_engine_hit_rate" in metrics


def test_run_emits_spans_when_traced(fresh_engine):
    with obs.capture() as capture:
        _run(store=ResultStore())
    trial_spans = [s for s in capture.spans if s.category == "trial"]
    assert len(trial_spans) == tiny_space().size
    assert all(s.track == "explore" for s in trial_spans)
    assert all(s.end_us > s.start_us for s in trial_spans)


def test_metrics_stay_disabled_after_run(fresh_engine):
    assert not obs.metrics_enabled()
    _run(store=ResultStore())
    assert not obs.metrics_enabled()


def test_halving_reevaluations_hit_the_engine_cache(fresh_engine):
    """Survivor re-scoring is the in-search cache-reuse path."""
    result = _run(strategy=make_strategy("halving", 16), store=ResultStore(),
                  resume=False)
    assert result.stats.generations > 1
    assert result.stats.engine_hits > 0
