"""§2.5 proposal evaluations, the future sweep, functional validation,
and the full report."""

from pathlib import Path

import pytest

from repro.analysis.future import derive_generation, generation_sweep
from repro.analysis.proposals import (
    all_proposals,
    i860_fault_address_register,
    m88000_deferred_exception_check,
    mips_atomic_test_and_set_on_parthenon,
    mips_vectored_dispatch,
    sparc_hardware_window_fault,
)
from repro.arch import get_arch
from repro.core.functional_bench import cross_validate, measure_functionally
from repro.kernel.primitives import Primitive

#: ``full_report()`` text, captured before the executor price memo.
REPORT_GOLDEN = Path(__file__).parent / "goldens" / "report.txt"


# ----------------------------------------------------------------------
# §2.5 proposals
# ----------------------------------------------------------------------

def test_every_proposal_saves_time():
    for proposal in all_proposals().values():
        assert proposal.proposed_us < proposal.baseline_us, proposal.name
        assert proposal.proposed_instructions < proposal.baseline_instructions
        assert 0.0 < proposal.saving_fraction < 1.0


def test_m88000_deferred_check_saves_pipeline_share():
    proposal = m88000_deferred_exception_check()
    assert 0.15 <= proposal.saving_fraction <= 0.4


def test_sparc_window_fault_is_the_biggest_win():
    sparc = sparc_hardware_window_fault()
    others = [m88000_deferred_exception_check(), mips_vectored_dispatch(),
              i860_fault_address_register()]
    assert all(sparc.saving_fraction > other.saving_fraction for other in others)


def test_i860_fault_register_removes_26_instructions():
    proposal = i860_fault_address_register()
    assert proposal.baseline_instructions - proposal.proposed_instructions == 26


def test_mips_tas_removes_parthenon_sync_tax():
    result = mips_atomic_test_and_set_on_parthenon()
    assert result["speedup"] > 1.2
    assert result["proposed_sync_fraction"] < 0.05
    assert result["baseline_sync_fraction"] > 0.15


# ----------------------------------------------------------------------
# future generation sweep (§6)
# ----------------------------------------------------------------------

def test_generation_sweep_lag_worsens():
    points = generation_sweep((1.0, 2.0, 4.0, 8.0))
    lags = [p.primitive_lag for p in points]
    assert lags[0] == pytest.approx(1.0)
    assert lags == sorted(lags, reverse=True)
    assert lags[-1] < 0.5  # severe lag by 8x


def test_generation_sweep_primitive_share_grows():
    points = generation_sweep((1.0, 4.0, 8.0))
    shares = [p.kernelized_primitive_share for p in points]
    assert shares == sorted(shares)


def test_generation_sweep_primitives_still_improve_absolutely():
    points = generation_sweep((1.0, 8.0))
    assert points[1].syscall_speedup > 1.5  # faster, just not 8x


def test_derive_generation_scales_fields():
    base = get_arch("r3000")
    gen = derive_generation(base, 4.0)
    assert gen.clock_mhz == base.clock_mhz * 4
    assert gen.app_performance_ratio == base.app_performance_ratio * 4
    assert gen.cost.trap_entry_cycles > base.cost.trap_entry_cycles
    assert gen.thread_state.total_words > base.thread_state.total_words
    assert base.clock_mhz == 25.0  # original untouched


# ----------------------------------------------------------------------
# functional cross-validation
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name", ["cvax", "r2000", "r3000", "sparc", "m88000", "i860"])
def test_functional_matches_analytic(name):
    ratios = cross_validate(get_arch(name))
    for primitive, ratio in ratios.items():
        assert ratio == pytest.approx(1.0, rel=0.15), (name, primitive)


def test_functional_measurement_returns_all_primitives():
    result = measure_functionally(get_arch("r3000"), iterations=5)
    assert set(result.times_us) == set(Primitive)
    assert all(us > 0 for us in result.times_us.values())


# ----------------------------------------------------------------------
# full report
# ----------------------------------------------------------------------

def test_full_report_contains_everything():
    from repro.core.report import full_report

    text = full_report()
    for marker in (
        "Table 1", "Table 2", "Table 3", "Table 4", "Table 5", "Table 6",
        "Table 7", "In-text claims", "Cross-table", "Scaling projections",
        "architectural proposals", "Motivation traces",
    ):
        assert marker in text, marker
    assert "NO" not in text.split("In-text claims")[1].split("Cross-table")[0]
    # byte for byte: a faster pricing path must not move a single digit
    assert text == REPORT_GOLDEN.read_text(encoding="utf-8")
