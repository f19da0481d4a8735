"""Controller state machine: grants, barrier, expiry, stealing, resume.

Everything here is in-process with an injected clock — no HTTP, no
subprocesses — so each scheduling rule is tested in isolation.
"""

import pytest

from repro.cluster import ClusterController, preregister_cluster_metrics
from repro.cluster.leases import LeaseJournal
from repro.explore.objectives import ObjectiveSchema
from repro.explore.space import get_space
from repro.explore.store import ResultStore, trial_key
from repro.obs.metrics import MetricsRegistry


class FakeClock:
    def __init__(self):
        self.t = 100.0

    def __call__(self):
        return self.t


def make_controller(tmp_path=None, **kwargs):
    clock = FakeClock()
    journal = (str(tmp_path / "leases.journal")
               if tmp_path is not None else None)
    kwargs.setdefault("lease_size", 4)
    kwargs.setdefault("lease_ttl_s", 5.0)
    controller = ClusterController(
        get_space("tiny"), ObjectiveSchema(), journal_path=journal,
        clock=clock, **kwargs)
    return controller, clock


def drain(controller, worker):
    """Run one worker's full loop synchronously; returns point count."""
    total = 0
    while True:
        reply = controller.lease(worker)
        if reply.get("done"):
            return total
        lease = reply.get("lease")
        if lease is None:
            raise AssertionError(f"unexpected wait: {reply}")
        count = len(lease["points"])
        assert controller.heartbeat(worker, lease["id"], count)["ok"]
        assert controller.complete(worker, lease["id"], count)["ok"]
        total += count


def test_grid_plan_grants_every_point_once():
    controller, _ = make_controller()
    assert len(controller.tasks) == 8
    assert drain(controller, "w0") == 8
    assert controller.done
    status = controller.status()
    assert status["counters"]["granted"] == 2  # 8 points / lease_size 4
    assert status["outstanding"] == 0
    assert status["sweep_seconds"] == 0.0


def test_expect_workers_barrier_holds_grants():
    controller, _ = make_controller(expect_workers=2)
    reply = controller.lease("w0")
    assert reply.get("wait") and "lease" not in reply
    controller.register("w0")
    controller.register("w1")
    assert "lease" in controller.lease("w0")


def test_expired_lease_requeues_unconfirmed_remainder(tmp_path):
    controller, clock = make_controller(tmp_path)
    lease = controller.lease("w0")["lease"]
    assert controller.heartbeat("w0", lease["id"], 1)["ok"]
    clock.t += 10.0  # past the 5s TTL
    assert controller.tick() == 1
    status = controller.status()
    assert status["counters"]["expired"] == 1
    # 1 confirmed point is covered; the other 3 requeue.
    assert status["outstanding"] == 7
    # the zombie can neither heartbeat nor complete the old lease.
    assert not controller.heartbeat("w0", lease["id"], 4)["ok"]
    assert not controller.complete("w0", lease["id"], 4)["ok"]
    # a new worker picks up the requeued tail (3 points) before the
    # untouched pending lease only if ordering says so — either way
    # the whole sweep still completes exactly.
    assert drain(controller, "w1") == 7
    assert controller.done


def test_steal_splits_slowest_lease():
    controller, _ = make_controller(lease_size=8)  # one lease = all 8
    victim = controller.lease("w0")["lease"]
    assert len(victim["points"]) == 8
    controller.heartbeat("w0", victim["id"], 2)  # 6 remaining
    reply = controller.lease("w1")
    thief = reply["lease"]
    assert len(thief["points"]) == 3  # tail half of the remaining 6
    assert thief["points"] == victim["points"][5:]
    # the victim learns its shrunken bound from the heartbeat reply.
    assert controller.heartbeat("w0", victim["id"], 2)["limit"] == 5
    assert controller.status()["counters"]["stolen"] == 1
    assert controller.complete("w0", victim["id"], 5)["ok"]
    assert controller.complete("w1", thief["id"], 3)["done"]


def test_steal_needs_enough_remaining():
    controller, _ = make_controller(lease_size=8)
    lease = controller.lease("w0")["lease"]
    controller.heartbeat("w0", lease["id"], 7)  # 1 remaining < min_steal
    assert controller.lease("w1").get("wait")


def test_short_complete_requeues_tail():
    controller, _ = make_controller(lease_size=8)
    lease = controller.lease("w0")["lease"]
    assert controller.complete("w0", lease["id"], 3)["ok"]
    assert controller.status()["outstanding"] == 5
    assert drain(controller, "w1") == 5
    assert controller.done


def test_failures_are_reported_not_retried_forever():
    controller, _ = make_controller(lease_size=8)
    lease = controller.lease("w0")["lease"]
    reply = controller.complete(
        "w0", lease["id"], 8, retries=5,
        failures=[{"point": lease["points"][2], "error": "boom"}])
    assert reply["done"]
    status = controller.status()
    assert status["counters"]["retried"] == 5
    assert status["counters"]["failed"] == 1
    assert status["failures"][0]["point"] == lease["points"][2]


def test_journal_resume_skips_completed_leases(tmp_path):
    controller, _ = make_controller(tmp_path)
    lease = controller.lease("w0")["lease"]
    assert controller.complete("w0", lease["id"], len(lease["points"]))["ok"]
    # controller dies here; a restart replans the identical task array
    # and replays the journal.
    resumed, _ = make_controller(tmp_path)
    assert resumed.resumed_from_journal
    assert resumed.journal_skips == 4
    assert resumed.status()["outstanding"] == 4
    assert drain(resumed, "w1") == 4
    assert resumed.done


def test_journal_with_foreign_plan_is_ignored(tmp_path):
    path = str(tmp_path / "leases.journal")
    journal = LeaseJournal(path)
    journal.append({"event": "plan", "tasks_digest": "not-this-plan",
                    "total": 8})
    journal.append({"event": "complete", "lease": 1, "lo": 0, "hi": 8,
                    "done": 8})
    controller, _ = make_controller(tmp_path)
    assert not controller.resumed_from_journal
    assert controller.status()["outstanding"] == 8


def test_store_resume_excludes_already_evaluated_points(tmp_path):
    """Records already in the destination store never get leased."""
    space = get_space("tiny")
    schema = ObjectiveSchema()
    store = ResultStore(str(tmp_path / "frontier.jsonl"))
    from repro.core.engine import fingerprint_spec

    done_indices = [0, 3, 5]
    for index in done_indices:
        spec = space.materialize(space.point(index))
        from repro.arch.mdesc import description_for

        key = trial_key(description_for(spec).fingerprint,
                        fingerprint_spec(spec), schema.digest)
        store.put(key, {"space": space.name,
                        "space_fp": space.fingerprint,
                        "schema_digest": schema.digest, "index": index,
                        "objectives": {n: 1.0 for n in schema.names}})
    controller = ClusterController(space, schema, store=store)
    assert controller.store_skips == 3
    granted = controller.lease("w0")["lease"]
    assert not set(granted["points"]) & set(done_indices)


def test_adaptive_strategy_rejected():
    with pytest.raises(ValueError, match="not shardable"):
        ClusterController(get_space("tiny"), strategy="halving", budget=8)


def test_cluster_metrics_preregistered_at_zero():
    """Every cluster_* series exists (at zero) before any event."""
    registry = MetricsRegistry()
    preregister_cluster_metrics(registry)
    snapshot = registry.snapshot()["metrics"]
    for name in ("cluster_leases_granted_total",
                 "cluster_leases_completed_total",
                 "cluster_leases_expired_total",
                 "cluster_leases_stolen_total",
                 "cluster_trials_retried_total",
                 "cluster_trials_failed_total",
                 "cluster_heartbeats_total",
                 "cluster_journal_tail_recovered_total",
                 "cluster_journal_lines_dropped_total",
                 "cluster_journal_write_failed_total"):
        assert snapshot[name]["kind"] == "counter", name
        assert sum(snapshot[name]["cells"].values()) == 0, name
    for name in ("cluster_workers_live", "cluster_points_remaining"):
        assert snapshot[name]["kind"] == "gauge", name
    assert snapshot["cluster_heartbeat_age_seconds"]["kind"] == "histogram"


def test_serve_metrics_surface_includes_cluster_series():
    """The serving layer's pre-registration pass covers cluster_*."""
    from repro import obs
    from repro.obs.export import render_prometheus
    from repro.serve import ServeApp

    was_on = obs.OBS_STATE.metrics_on
    obs.enable_metrics()
    try:
        ServeApp()
        text = render_prometheus(obs.REGISTRY.snapshot())
    finally:
        obs.OBS_STATE.metrics_on = was_on
    assert "cluster_leases_granted_total" in text
    assert "cluster_heartbeat_age_seconds" in text
