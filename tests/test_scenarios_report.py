"""Kernelization-cost sweeps, frontier integration, and the CLI."""

import json

import pytest

from repro.cli import main
from repro.scenarios import (
    DEFAULT_SWEEP_ARCHES,
    fit_table7_pair,
    kernelization_sweep,
    render_model,
    render_scenario,
    render_sweep,
    run_kernelization,
    specs_from_frontier,
    sweep_specs,
)

#: small but statistically sufficient sweep for tests — the closed-form
#: expectations are far enough apart that 3 paired seeds order reliably.
SEEDS = [0, 1, 2]
EVENTS = 8_000


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def sweep_report():
    return kernelization_sweep(
        "andrew-local", sweep_specs(DEFAULT_SWEEP_ARCHES), SEEDS, EVENTS)


# ----------------------------------------------------------------------
# the acceptance ordering
# ----------------------------------------------------------------------

def test_sweep_reproduces_the_papers_kernelization_ordering(sweep_report):
    """§6 acceptance: OS-friendly pays the least for the 2.5→3.0 split,
    the CISC CVAX the most, and the sampled ordering agrees with the
    closed-form Σ rate·cost expectation."""
    ordering = sweep_report.ordering()
    assert set(ordering) == set(DEFAULT_SWEEP_ARCHES)
    assert ordering[0] == "osfriendly"
    assert ordering[-1] == "cvax"
    assert ordering == sweep_report.expected_ordering()


def test_sweep_costs_are_positive_with_tight_intervals(sweep_report):
    for result in sweep_report.results:
        ci = result.cost_ci()
        assert ci["mean"] > 0  # kernelization always costs something
        assert ci["n"] == len(SEEDS)
        # paired seeds (common random numbers) keep the interval far
        # tighter than the between-arch differences being ordered
        assert ci["half_width"] < ci["mean"] / 2
        assert ci["mean"] == pytest.approx(result.expected_cost, rel=0.15)
        assert result.ratio_ci()["mean"] > 1.0


def test_kernelization_pairs_by_seed():
    models = fit_table7_pair("spellcheck-1")
    result = run_kernelization(models, sweep_specs(["r3000"])[0],
                               SEEDS, EVENTS)
    assert len(result.cost_values()) == len(SEEDS)
    assert result.monolithic.seeds() == result.kernelized.seeds() == SEEDS


def test_sweep_from_explore_frontier(tmp_path):
    """Frontier specs materialize and sweep like registered arches."""
    from repro.explore import ExploreRunner, ObjectiveSchema, ResultStore
    from repro.explore.space import get_space

    store_path = str(tmp_path / "trials.jsonl")
    schema = ObjectiveSchema()
    runner = ExploreRunner(get_space("tiny"), schema,
                           store=ResultStore(store_path))
    outcome = runner.run()
    frontier = outcome.frontier()
    assert frontier

    specs = specs_from_frontier(store_path, schema)
    assert len(specs) == len(frontier)
    report = kernelization_sweep("spellcheck-1", specs[:2], [0, 1], 4_000)
    assert len(report.results) == min(2, len(specs))
    for result in report.results:
        assert result.cost_ci()["mean"] > 0


def test_specs_from_frontier_rejects_empty_store(tmp_path):
    empty = str(tmp_path / "empty.jsonl")
    with pytest.raises(ValueError):
        specs_from_frontier(empty)


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------

def test_render_sweep_orders_and_annotates(sweep_report):
    text = render_sweep(sweep_report)
    assert "Kernelization cost under 'andrew-local'" in text
    assert "osfriendly" in text and "cvax" in text
    assert "cheapest first" in text
    assert "closed-form" in text
    # table rows appear in cost order
    assert text.index("osfriendly") < text.index("cvax")


def test_render_scenario_and_model():
    models = fit_table7_pair("spellcheck-1")
    result = run_kernelization(models, sweep_specs(["r3000"])[0],
                               [0], 4_000)
    text = render_scenario(result.kernelized)
    assert "mach3.0" in text and "r3000" in text
    assert "95% CI" in text
    model_text = render_model(models[1])
    assert "ipc_message" in model_text
    assert "exponential" in model_text


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def test_cli_scenario_fit(capsys):
    code, out, _ = run(capsys, "scenario", "fit", "--workload",
                       "spellcheck-1", "--structure", "both")
    assert code == 0
    assert "mach2.5" in out and "mach3.0" in out
    assert "syscall" in out


def test_cli_scenario_fit_json(capsys):
    code, out, _ = run(capsys, "scenario", "fit", "--structure",
                       "mach3.0", "--json")
    assert code == 0
    payloads = json.loads(out)
    assert len(payloads) == 1
    assert payloads[0]["structure"] == "mach3.0"
    assert "ipc_message" in payloads[0]["inter_arrival_us"]


def test_cli_scenario_fit_session(capsys):
    code, out, _ = run(capsys, "scenario", "fit", "--source", "session",
                       "--session-seed", "3")
    assert code == 0
    assert "session" in out


def test_cli_scenario_fit_unknown_workload(capsys):
    code, _, err = run(capsys, "scenario", "fit", "--workload", "nope")
    assert code == 2
    assert "nope" in err


def test_cli_scenario_run_digest_is_bit_identical(capsys):
    argv = ("scenario", "run", "--arch", "r3000", "--workload",
            "spellcheck-1", "--seeds", "2", "--events", "2000", "--digest")
    code_a, out_a, _ = run(capsys, *argv)
    code_b, out_b, _ = run(capsys, *argv)
    assert code_a == code_b == 0
    assert out_a == out_b
    lines = out_a.strip().splitlines()
    assert len(lines) == 4  # 2 structures x 2 seeds
    assert all(len(line.split()) == 3 for line in lines)


def test_cli_scenario_run_renders(capsys):
    code, out, _ = run(capsys, "scenario", "run", "--arch", "sparc",
                       "--structure", "mach2.5", "--seeds", "2",
                       "--events", "2000")
    assert code == 0
    assert "scenario 'andrew-local' [mach2.5] on sparc" in out
    assert "replications: 2" in out


def test_cli_scenario_run_unknown_arch(capsys):
    code, _, err = run(capsys, "scenario", "run", "--arch", "alpha")
    assert code == 2
    assert "alpha" in err


def test_cli_scenario_sweep_store_and_report(capsys, tmp_path):
    store = str(tmp_path / "scen.jsonl")
    out_json = str(tmp_path / "sweep.json")
    code, out, _ = run(capsys, "scenario", "sweep", "--workload",
                       "spellcheck-1", "--arches", "r3000,cvax",
                       "--seeds", "2", "--events", "2000",
                       "--store", store, "--out", out_json)
    assert code == 0
    assert "kernelization-cost ordering" in out
    with open(out_json) as fh:
        payload = json.load(fh)
    assert payload["ordering"] == ["r3000", "cvax"]
    assert payload["ordering"] == payload["expected_ordering"]

    # rerun answers entirely from the store
    code, out, _ = run(capsys, "scenario", "sweep", "--workload",
                       "spellcheck-1", "--arches", "r3000,cvax",
                       "--seeds", "2", "--events", "2000",
                       "--store", store)
    assert code == 0

    code, out, _ = run(capsys, "scenario", "report", "--store", store)
    assert code == 0
    assert "spellcheck-1" in out
    assert "mach2.5" in out and "mach3.0" in out


def test_cli_scenario_report_empty_store(capsys, tmp_path):
    code, _, err = run(capsys, "scenario", "report", "--store",
                       str(tmp_path / "none.jsonl"))
    assert code == 1
    assert "no scenario replications" in err


def test_cli_scenario_seed_list(capsys):
    code, out, _ = run(capsys, "scenario", "run", "--arch", "r3000",
                       "--structure", "mach2.5", "--seed-list", "5,9",
                       "--events", "2000", "--workload", "spellcheck-1",
                       "--digest")
    assert code == 0
    seeds = [line.split()[1] for line in out.strip().splitlines()]
    assert seeds == ["5", "9"]


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_cli_scenario_rejects_duplicate_seeds(capsys, command):
    extra = ("--arch", "r3000", "--structure", "mach2.5") if command == "run" else ()
    code, out, err = run(capsys, "scenario", command, *extra,
                         "--seed-list", "1,1,1,2", "--events", "3000")
    assert code == 2
    assert "duplicate scenario seeds 1" in err
    assert out == ""
