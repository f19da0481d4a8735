"""Repeat the benchmark over seeds and report how steady each metric is.

    python3 repobench/steadiness.py

Runs every workload of ``BENCHMARK.json`` with its run length: two sets
of ten untraced runs (seeds 1-10 and 1001-1010), then two traced runs.
Prints each run as it ends, and writes ``repobench/STEADINESS.md``:
per workload and end-to-end metric, each set's median, quartiles and
spread (quartile distance over the median, as
``statistics.quantiles(values, n=4)`` gives them) beside the bound, the
drift between the two set medians, and the per-layer counts of the
traced runs that did not repeat exactly.  Takes about 40 minutes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from typing import Any, Dict, List

import common
import stats

SEEDS = range(1, 11)
SETS = 2
#: seeds of set ``k`` are SEEDS shifted by ``SET_STRIDE * (k - 1)``.
SET_STRIDE = 1000
TRACED_RUNS = 2
REPORT_PATH = os.path.join(common.BENCH_DIR, "STEADINESS.md")


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> Dict[str, Any]:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(common.BENCH_DIR, "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)], capture_output=True, text=True, cwd=common.ROOT, timeout=600)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
    host = next((json.loads(l[6:]) for l in lines if l.startswith("host: ")), {})
    return {"workload": workload, "seed": seed, "exit": proc.returncode,
            "wall_s": round(wall, 2), "result": result, "host": host}


def summarize(runs: List[Dict[str, Any]], spec: Dict[str, Any]) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        sets: Dict[int, List[float]] = {}
        for run in runs:
            value = run["result"].get("metrics", {}).get(name, {}).get("value")
            if value is not None:
                sets.setdefault(run["set"], []).append(value)
        rows = []
        for set_id, values in sorted(sets.items()):
            q1, q2, q3 = stats.quartiles(values)
            rows.append({"set": set_id, "n": len(values), "q1": q1, "median": q2,
                         "q3": q3, "spread": stats.relative_spread(values)})
        drift = None
        if len(rows) == SETS:
            first, second = rows[0]["median"], rows[1]["median"]
            worse = (second - first) if metric["better"] == "lower" else (first - second)
            drift = worse / abs(first) if first else None
        out[name] = {"bound": metric["bound"], "sets": rows, "drift": drift}
    return out


def traced_summary(traced: List[Dict[str, Any]], spec: Dict[str, Any]) -> Dict[str, Any]:
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    return {
        "runs": len(traced),
        "correct": all(t["result"].get("correct") for t in traced),
        "counts_not_repeated": sorted(
            name for name in counts
            if len({t["result"].get("metrics", {}).get(name, {}).get("value")
                    for t in traced}) > 1),
    }


def verdict(summary: Dict[str, Any]) -> List[str]:
    """Which gated figures a bound does not cover, and which spreads sit
    above a third of their bound."""
    outside, loose = [], []
    for workload, metrics in summary.items():
        for name, row in metrics["end_to_end"].items():
            bound = row["bound"]
            if row["drift"] is None or row["drift"] > bound:
                outside.append(f"{workload} {name} drift")
            if name == "setup_s":
                continue
            for s in row["sets"]:
                if s["spread"] > bound:
                    outside.append(f"{workload} {name} set {s['set']} spread")
                elif s["spread"] >= bound / 3:
                    loose.append(f"{workload} {name} set {s['set']} ({s['spread']:.3f})")
    return [
        "Bounds that do not cover their figure: " + (", ".join(outside) or "none") + ".",
        "Spreads at or above a third of their bound: " + (", ".join(loose) or "none") + ".",
    ]


def render_markdown(summary: Dict[str, Any], runs: List[Dict[str, Any]],
                    spec: Dict[str, Any]) -> str:
    host = runs[0]["host"] if runs else {}
    walls: Dict[str, List[float]] = {}
    stores: Dict[str, List[str]] = {}
    for run in runs:
        walls.setdefault(run["workload"], []).append(run["wall_s"])
        fs = stores.setdefault(run["workload"], [])
        if run["host"].get("store_fs") not in fs:
            fs.append(run["host"].get("store_fs"))
    failed = [r for r in runs if not r["result"].get("correct")]
    traced = sum(m["traced"]["runs"] for m in summary.values())
    lines = [
        "# Steadiness report",
        "",
        "Written by",
        "",
        "```bash",
        "python3 repobench/steadiness.py",
        "```",
        "",
        f"in one invocation: for every workload, {SETS} sets of {len(SEEDS)} untraced "
        f"runs (seeds {SEEDS[0]}–{SEEDS[-1]} and {SEEDS[0] + SET_STRIDE}–"
        f"{SEEDS[-1] + SET_STRIDE}) of {spec['run_seconds']} s each, then "
        f"{TRACED_RUNS} traced runs; {len(runs)} untraced and {traced} traced runs "
        f"in all.  Host: {host.get('cpu_model')}, nproc {host.get('nproc')}, "
        f"Python {host.get('python')}, every run "
        f"pinned to CPU {host.get('pinned_cpu')}.  Wall time per untraced run: "
        + ", ".join(f"{w} {min(v):.1f}–{max(v):.1f} s" for w, v in walls.items())
        + ".  Scratch state on: "
        + ", ".join(f"{w} {'/'.join(map(str, fs))}" for w, fs in stores.items()) + ".",
        "",
        f"Untraced runs not correct: {len(failed)} of {len(runs)}.",
        *verdict(summary),
        "",
        "`spread` is the distance between the first and third quartile of a",
        "set's ten values over their median; `drift` is how much worse the",
        "second set's median is than the first's, as a share of the first.",
        "A bound covers a metric when both spreads and the drift stay within",
        "it; the benchmark aims for spreads below a third of the bound.",
        "`setup_s` spreads are not gated, only its drift.",
        "",
        "| workload | metric | set | n | q1 | median | q3 | spread | bound | "
        "spread < bound/3 | drift |",
        "|---|---|---|---|---|---|---|---|---|---|---|",
    ]
    for workload, metrics in summary.items():
        for name, row in metrics["end_to_end"].items():
            for s in row["sets"]:
                drift = row["drift"] if s["set"] == 1 and row["drift"] is not None else None
                gated = name != "setup_s"
                lines.append(
                    f"| {workload} | {name} | {s['set']} | {s['n']} | {s['q1']:.5g} | "
                    f"{s['median']:.5g} | {s['q3']:.5g} | {s['spread']:.3f} | {row['bound']} | "
                    f"{('yes' if s['spread'] < row['bound'] / 3 else 'NO') if gated else 'not gated'} | "
                    f"{'' if drift is None else f'{drift:+.3f}'} |")
    lines.append("")
    for workload, metrics in summary.items():
        t = metrics["traced"]
        lines.append(f"- {workload}: {t['runs']} traced runs, all correct: {t['correct']}; "
                     "per-layer counts that did not repeat exactly: "
                     f"{', '.join(t['counts_not_repeated']) or 'none'}")
    refs = [r["host"].get("ref_ms") for r in runs if r["host"].get("ref_ms")]
    if refs:
        q1, q2, q3 = stats.quartiles(refs)
        lines.append(f"- host.ref_ms over the untraced runs: median {q2:.3f} ms, quartiles "
                     f"{q1:.3f}–{q3:.3f} ms (nominal {common.NOMINAL_REF_MS} ms)")
    return "\n".join(lines) + "\n"


def main() -> int:
    with open(os.path.join(common.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    runs: List[Dict[str, Any]] = []
    summary: Dict[str, Any] = {}
    for workload in [w["name"] for w in spec["workloads"]]:
        mine = []
        for set_id in range(1, SETS + 1):
            for seed in SEEDS:
                run = run_once(workload, seed + SET_STRIDE * (set_id - 1), spec["run_seconds"])
                run["set"] = set_id
                mine.append(run)
                metrics = run["result"].get("metrics", {})
                print(f"{workload} set {set_id} seed {run['seed']}: exit {run['exit']} "
                      f"correct {run['result'].get('correct')} wall {run['wall_s']} s "
                      f"ref {run['host'].get('ref_ms')} "
                      + " ".join(f"{k}={v['value']:.5g}" for k, v in sorted(metrics.items())),
                      flush=True)
        runs += mine
        traced = [run_once(workload, seed, spec["run_seconds"], trace=1)
                  for seed in list(SEEDS)[:TRACED_RUNS]]
        summary[workload] = {"end_to_end": summarize(mine, spec),
                             "traced": traced_summary(traced, spec)}
        print(f"  {workload} traced: {summary[workload]['traced']}", flush=True)
    with open(REPORT_PATH, "w", encoding="utf-8") as fh:
        fh.write(render_markdown(summary, runs, spec))
    print(f"wrote {REPORT_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
