"""Differential tests: batched replay vs scalar, parallel vs serial.

The engine's fast paths are only admissible because they return what
the reference implementations return.  The fill-order trace replay is
pinned to the scalar ``TLB`` loop across a grid of trace shapes, every
registered TLB organization, a property grid of TLB specs, and the
engine path the report takes; the SweepRunner's parallel fan-out is
pinned to the serial loop.
"""

import concurrent.futures
import functools
import os

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import obs
from repro.analysis import runner
from repro.arch.registry import ALL_ARCH_NAMES, get_arch
from repro.arch.specs import TLBSpec
from repro.core.engine import ExperimentEngine, SweepRunner
from repro.core.tracing import TraceConfig, replay_trace, replay_trace_batched

#: trace shapes chosen to hit the schedule's corners: defaults, skewed
#: duty cycles, single-page working sets, run lengths of one, and
#: reference counts that truncate mid-burst.
CONFIG_GRID = [
    TraceConfig(references=10_000),
    TraceConfig(references=10_000, system_fraction=0.2),
    TraceConfig(references=10_000, system_fraction=0.95),
    TraceConfig(references=5_001, user_run_length=7, system_run_length=3),
    TraceConfig(references=4_000, user_working_set_pages=1, system_working_set_pages=1),
    TraceConfig(references=3_333, user_run_length=1, system_run_length=1),
    TraceConfig(references=997, system_working_set_pages=13, user_working_set_pages=3),
    TraceConfig(references=24, user_run_length=100, system_run_length=50),
]

#: the two traces the report's §1 motivation section replays.
MOTIVATION_CONFIGS = [TraceConfig(), TraceConfig(system_fraction=0.2)]


@pytest.mark.parametrize("arch_name", ALL_ARCH_NAMES)
@pytest.mark.parametrize("config", CONFIG_GRID, ids=range(len(CONFIG_GRID)))
def test_batched_replay_bit_identical_per_arch(arch_name, config):
    tlb = get_arch(arch_name).tlb
    assert replay_trace_batched(tlb, config) == replay_trace(tlb, config)


@pytest.mark.parametrize("arch_name", ALL_ARCH_NAMES)
@pytest.mark.parametrize("config", MOTIVATION_CONFIGS, ids=["default", "sys0.2"])
def test_engine_replay_matches_scalar_on_motivation_traces(arch_name, config):
    tlb = get_arch(arch_name).tlb
    assert ExperimentEngine().replay(tlb, config) == replay_trace(tlb, config)


#: TLB specs from one entry to well past both working sets, with every
#: flag the fill-order rule claims not to depend on.
tlb_specs = st.integers(min_value=1, max_value=160).flatmap(
    lambda entries: st.builds(
        TLBSpec,
        entries=st.just(entries),
        pid_tagged=st.booleans(),
        software_managed=st.booleans(),
        lockable_entries=st.integers(min_value=0, max_value=entries),
    )
)


@settings(deadline=None, max_examples=25)
# the fill-order boundary: a page whose fill is the `entries`-th most
# recent miss still hits; once `entries` more misses follow its fill it
# is gone.  No registered TLB meets this case on CONFIG_GRID, and random
# draws find it only sometimes.
@example(tlb=TLBSpec(entries=2, pid_tagged=False, software_managed=False),
         references=200, system_fraction=0.5, user_ws=2, system_ws=3,
         user_run=1, system_run=1)
@given(
    tlb=tlb_specs,
    references=st.integers(min_value=1, max_value=20_000),
    system_fraction=st.floats(min_value=0.0, max_value=1.0),
    user_ws=st.integers(min_value=1, max_value=40),
    system_ws=st.integers(min_value=1, max_value=600),
    user_run=st.integers(min_value=1, max_value=40),
    system_run=st.integers(min_value=1, max_value=12),
)
def test_property_batched_replay_bit_identical(
    tlb, references, system_fraction, user_ws, system_ws, user_run, system_run
):
    config = TraceConfig(
        references=references,
        system_fraction=system_fraction,
        user_working_set_pages=user_ws,
        system_working_set_pages=system_ws,
        user_run_length=user_run,
        system_run_length=system_run,
    )
    assert replay_trace_batched(tlb, config) == replay_trace(tlb, config)


@pytest.mark.parametrize("config", CONFIG_GRID[:3], ids=range(3))
def test_batched_replay_counts_the_scalar_tlb_metrics(config):
    tlb = get_arch("cvax").tlb

    def tlb_cells(replay):
        with obs.capture(enable_spans=False) as window:
            replay(tlb, config)
        metrics = window.metrics()["metrics"]
        return {name: metrics[name]["cells"]
                for name in ("tlb_misses_total", "tlb_refills_total")}

    assert tlb_cells(replay_trace_batched) == tlb_cells(replay_trace)


# ----------------------------------------------------------------------
# SweepRunner: parallel output equals serial output
# ----------------------------------------------------------------------

def test_sweeprunner_preserves_item_order():
    serial = SweepRunner()
    assert serial.map(_square, [3, 1, 2]) == [9, 1, 4]
    assert serial.last_mode == "serial"


def _square(x):
    return x * x


def test_sweeprunner_parallel_equals_serial():
    items = list(range(12))
    serial = SweepRunner().map(_square, items)
    parallel_runner = SweepRunner(jobs=2)
    assert parallel_runner.map(_square, items) == serial
    assert parallel_runner.last_mode == "parallel"


def test_sweeprunner_falls_back_on_unpicklable_work():
    runner_ = SweepRunner(jobs=2)
    out = runner_.map(lambda x: x + 1, [1, 2, 3])  # lambdas cannot pickle
    assert out == [2, 3, 4]
    assert runner_.last_mode == "serial"


def test_sweeprunner_rejects_bad_worker_count():
    with pytest.raises(ValueError):
        SweepRunner(jobs=0)


def _logged_square(log_path, x):
    with open(log_path, "a") as fh:
        fh.write(f"{os.getpid()} {x}\n")
    if x == 3:
        raise ValueError("item 3 failed")
    return x * x


def test_sweeprunner_worker_error_propagates_without_rerun(tmp_path):
    """An error raised by fn in a worker reaches the caller; nothing is
    re-run serially in this process, and no item runs twice."""
    log = tmp_path / "calls.log"
    with pytest.raises(ValueError, match="item 3 failed"):
        SweepRunner(jobs=2).map(
            functools.partial(_logged_square, str(log)), range(6))
    calls = [line.split() for line in log.read_text().splitlines()]
    items = [int(item) for _, item in calls]
    assert 3 in items
    assert len(items) == len(set(items))
    assert str(os.getpid()) not in {pid for pid, _ in calls}


def test_sweeprunner_starts_at_most_one_worker_per_item(monkeypatch):
    """The pool is sized min(jobs, len(items)); a recording stand-in for
    ProcessPoolExecutor checks that without starting a process."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def map(self, fn, items):
            return iter([fn(item) for item in items])

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return None

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    assert SweepRunner(jobs=64).map(_square, [1, 2, 3]) == [1, 4, 9]
    assert SweepRunner(jobs=2).map(_square, range(5)) == [0, 1, 4, 9, 16]
    assert SweepRunner(jobs=64).map(_square, [7]) == [49]  # one item: no pool
    assert sizes == [3, 2]


def test_render_all_memoizes_under_one_engine():
    engine = ExperimentEngine()
    first = runner.render_all(engine=engine)
    assert list(first) == list(runner.ALL_TABLE_NUMBERS)
    hits_before = engine.hits
    second = runner.render_all(engine=engine)
    assert second == first
    assert engine.hits == hits_before + len(runner.ALL_TABLE_NUMBERS)


def test_render_table_subset_and_unknown():
    engine = ExperimentEngine()
    text = runner.render_table(5, engine=engine)
    assert "Table 5" in text
    with pytest.raises(KeyError):
        runner.render_table(9, engine=engine)
    with pytest.raises(KeyError):
        runner.render_all(numbers=[1, 9], engine=engine)
    subset = runner.render_all(numbers=[2, 1], engine=engine)
    assert list(subset) == [2, 1]
