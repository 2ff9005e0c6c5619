"""Reduced-size self-test of the benchmark.

    python3 bench/selftest.py

Runs every workload once untraced and twice traced on tiny inputs, then
checks that every metric BENCHMARK.json names is reported, that no operation
fails, that the work counts of the two traced runs repeat exactly, that the
layer self times plus the unattributed remainder sum to the traced wall
time, that a deliberately wrong reference counts every operation as
failed, and that a work count whose parameter was renamed reads 0 without
changing the traced call's result.  Exits 1 when any check fails.
"""

import json
import sys

import run
from tracer import CALL_METRICS, COUNT_METRICS, GRID_CELLS, LAYERS, Tracer

SEED = 7

#: Work each workload must show in its trace, so a wrapper that stops
#: firing is noticed.
MUST_COUNT = {
    "sweep-hex": ("quantum.curve_cells", "stochastic.grid_cells", "hitting.converge_calls"),
    "scan-large": ("quantum.eigh_n3", "stochastic.grid_cells", "cli.bytes_written"),
    "qsw-mix": ("stochastic.rhs_calls", "graphs.nodes_built"),
    "analyze-frames": ("imaging.parse_bytes", "imaging.circles", "imaging.pixels"),
}


def _renamed_parameter_reads_zero() -> bool:
    """A counter that no longer finds its parameter leaves the call's result alone."""

    def grid(times, generator):  # ``ts`` renamed to ``times``
        return len(times) * generator

    tracer = Tracer()
    traced = tracer._wrap(grid, "stochastic.grid", GRID_CELLS)
    result = traced([0.0, 1.0], generator=3)
    summary = tracer.summary(1.0)
    return (
        result == 6
        and summary["metrics"]["stochastic.grid_cells"] == 0
        and summary["missing_targets"] == ["count stochastic.grid_cells"]
    )


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    from workloads import NAMES

    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((run.HERE / "spec.json").read_text())
    end_to_end = [m["name"] for m in bench["end_to_end"]]
    per_layer = [m["name"] for m in bench["per_layer"]]
    exact = list(COUNT_METRICS) + list(CALL_METRICS) + ["stochastic.rhs_useful_ratio"]
    problems = []

    def expect(ok, what):
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            problems.append(what)

    expect(sorted(per_layer) == sorted(spec["per_layer"]), "spec.json maps every per-layer metric")
    expect(set(MUST_COUNT) == set(NAMES), "every workload has expected work counts")
    expect(_renamed_parameter_reads_zero(), "a count whose parameter was renamed reads 0")
    for name in NAMES:
        metrics, attempted, failed, correct, info = run.run_workload(name, SEED, 0, False, "tiny")
        expect(list(metrics) == end_to_end, f"{name}: every end-to-end metric reported")
        expect(all(m["value"] > 0 for m in metrics.values()), f"{name}: end-to-end metrics > 0")
        expect(failed == 0 and correct, f"{name}: fail_frac is 0 ({failed}/{attempted})")
        expect(info["environment"]["src_lines"] > 0, f"{name}: src line count recorded")

        traced = [run.run_workload(name, SEED, 0, True, "tiny") for _ in range(2)]
        first, second = (t[0] for t in traced)
        expect(all(list(t[0]) == per_layer for t in traced), f"{name}: every per-layer metric reported")
        expect(all(t[3] for t in traced), f"{name}: traced runs pass their checks")
        moved = [m for m in exact if first[m]["value"] != second[m]["value"]]
        expect(not moved, f"{name}: work counts repeat exactly between traced runs {moved}")
        expect(
            all(first[m]["value"] > 0 for m in MUST_COUNT[name]),
            f"{name}: trace counts {MUST_COUNT[name]}",
        )
        self_sum = sum(first[f"{layer}.self_s"]["value"] for layer in LAYERS)
        wall = first["trace.wall_s"]["value"]
        unattributed = first["trace.unattributed_s"]["value"]
        expect(
            abs(self_sum + unattributed - wall) < 1e-9 and unattributed > -1e-9,
            f"{name}: layer self times + unattributed = traced wall",
        )
        trace_info = traced[0][4]["trace"]
        expect(
            abs(trace_info["self_total_s"] - trace_info["top_level_s"]) < 1e-9,
            f"{name}: span self times telescope to top-level durations",
        )
        expect(not trace_info["missing_targets"], f"{name}: every trace target installed")

        _, attempted, failed, correct, _ = run.run_workload(name, SEED, 0, False, "tiny", shift=1e-2)
        expect(
            failed == attempted and not correct,
            f"{name}: a wrong reference fails every operation ({failed}/{attempted})",
        )
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
