"""Benchmark runner for hexwalk.

One workload, measured for a fixed time, with one JSON result as the last
line of standard output:

    python3 bench/run.py --workload sweep-hex --seed 1 --seconds 20 --trace 0

Every workload, untraced and then traced, with every metric printed by name
and unit; the exit code is 1 when any correctness check failed:

    python3 bench/run.py --workload all

A run is a closed loop with one client: it starts a fresh worker process
(``bench/worker.py``) for each pass, waits for it to finish, checks every
output, and starts the next pass until the time is used, with at least three
passes.  Between passes of an untraced run it also spawns a worker with no
operations, so set-up is sampled twice per pass.  ``setup_s`` is the time
from spawning a worker until it reports ready (interpreter start,
``import hexwalk``, warm-up); ``wall_s`` the time of the workload's
operations inside the worker, summed over the operations; ``peak_rss_mb``
the worker's peak resident memory (the median over passes).

``wall_s`` and ``setup_s`` are calibrated seconds.  The host these figures
were taken on slows by up to 1.8x for seconds to minutes at a time, in CPU
time as well as wall time, so raw times of the same code differ by more
than any useful bound from one run to the next.  Each worker therefore
times a fixed calibration (``worker.calibrate``, about 20 ms of interpreter
and BLAS work that calls no hexwalk code) before its first operation and
after each one, and the runner just before spawning it.  Every time is
scaled by ``CALIBRATION_S`` over the mean of the calibrations around it:
it is the time the operation would take on a host where the calibration
takes ``CALIBRATION_S``.  A period of slowness scales both alike and
cancels; a change to hexwalk moves only the operation.  ``wall_s`` sums
each operation's median over the passes, ``setup_s`` is the median of the
set-up samples.  The raw medians are kept in the ``info`` line.

With ``--trace 1`` untraced and traced passes alternate, and the per-layer
metrics come from the traced pass of median wall time.

The benchmark measures only its own processes: system-wide tracing is not
used.  Everything it writes stays under ``.bench_work/`` (removed at the end
of a run) and ``.bench_out/`` (span dumps of traced runs).
"""

import os

PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import select  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from worker import calibrate  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
PASS_TIMEOUT_S = 45
#: Seconds the calibration takes on the reference host: two vCPUs of an
#: Intel Xeon, undisturbed (measured 17-22 ms).
CALIBRATION_S = 0.020
MIN_PASSES = 3
MIN_TRACED_PASSES = 2


class SetupError(RuntimeError):
    """A worker never became ready, so nothing can be measured."""


def _load(path: Path) -> dict:
    return json.loads(path.read_text())


def _run_pass(job: dict, work: Path, index: int) -> dict:
    """Spawn one worker, time its set-up, and return its result."""
    job = dict(job, result=str(work / f"result{index}.json"), spans=str(work / f"spans{index}.json"))
    job_path = work / f"job{index}.json"
    job_path.write_text(json.dumps(job))
    err_path = work / f"stderr{index}.txt"
    line = b""
    before = calibrate()
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(WORKER), str(job_path)],
            stdout=subprocess.PIPE,
            stderr=err,
            cwd=ROOT,
            env=dict(os.environ, **PINS),
        )
        try:
            if select.select([proc.stdout], [], [], PASS_TIMEOUT_S)[0]:
                line = proc.stdout.readline()
            setup = time.perf_counter() - start
            if line.strip() == b"ready":
                proc.communicate(timeout=PASS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            pass
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.communicate()
    if line.strip() != b"ready":
        raise SetupError(f"worker did not start:\n{err_path.read_text()[-2000:]}")
    result_path = Path(job["result"])
    if proc.returncode != 0 or not result_path.exists():
        return {
            "setup_s": setup * CALIBRATION_S / before,
            "setup_raw_s": setup,
            "error": err_path.read_text()[-2000:] or "worker killed",
        }
    result = _load(result_path)
    cal = result["calibration_s"]
    result["setup_raw_s"] = setup
    result["setup_s"] = setup * CALIBRATION_S / ((before + cal[0]) / 2)
    for j, op in enumerate(result["ops"]):
        op["calibrated_s"] = op["seconds"] * CALIBRATION_S / ((cal[j] + cal[j + 1]) / 2)
    return result


def _digest(out: Path, stdout: str) -> tuple[str, dict]:
    """Hash of everything an operation produced, and the sha256 of each CSV."""
    whole = hashlib.sha256(stdout.encode())
    csvs = {}
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        whole.update(path.name.encode() + data)
        if path.suffix == ".csv":
            csvs[path.name] = hashlib.sha256(data).hexdigest()
    return whole.hexdigest(), csvs


def _check_pass(result: dict, case, ops: list, verdicts: dict) -> None:
    """Record every failed operation of a pass and the sha256 of its CSVs."""
    failures = []
    csvs = {}
    for j, op in enumerate(ops):
        if "ops" not in result:
            failures.append([j, "worker failed: " + result["error"].strip().splitlines()[-1]])
            continue
        got = result["ops"][j]
        if got["error"]:
            failures.append([j, got["error"].strip().splitlines()[-1]])
            continue
        if got["rc"] != 0:
            failures.append([j, f"exit code {got['rc']}: {got['stderr'].strip()[-200:]}"])
            continue
        out = Path(op["out"])
        key, hashes = _digest(out, got["stdout"])
        csvs.update({f"op{j}/{name}": h for name, h in hashes.items()})
        if (j, key) not in verdicts:
            verdicts[(j, key)] = case.check(op, out, got["stdout"])
        if verdicts[(j, key)]:
            failures.append([j, verdicts[(j, key)][0]])
    result["failures"] = failures
    result["csv_sha256"] = csvs


def _environment(worker: dict) -> dict:
    cpu = "unknown"
    try:
        for row in Path("/proc/cpuinfo").read_text().splitlines():
            if row.startswith("model name"):
                cpu = row.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": worker.get("numpy"),
        "blas": worker.get("blas"),
        "blas_threads_env": worker.get("blas_threads_env"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "src_lines": sum(p.read_text().count("\n") for p in (ROOT / "src").rglob("*.py")),
    }


def _op_medians(passes: list, key: str) -> list:
    """Median over the passes of each operation's time (``seconds`` or ``calibrated_s``)."""
    count = len(passes[0]["ops"])
    return [statistics.median(p["ops"][j][key] for p in passes) for j in range(count)]


def run_workload(name: str, seed: int, seconds: float, trace: bool, size="full", shift=0.0):
    """Run one workload; return (metrics by name, attempted, failed, correct, info)."""
    from tracer import CALL_METRICS, COUNT_METRICS
    from workloads import Case

    bench = _load(ROOT / "BENCHMARK.json")
    tol = {k: v["value"] for k, v in _load(HERE / "spec.json")["tolerances"].items()}
    work = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        case = Case(name, size, seed, work / "inputs", tol, shift)
        passes = []
        probes = []
        verdicts: dict = {}
        begin = time.perf_counter()
        while True:
            k = len(passes)
            traced = trace and k % 2 == 1
            ops = [dict(op, out=str(work / f"pass{k}" / f"op{j}")) for j, op in enumerate(case.ops)]
            started = time.perf_counter()
            result = _run_pass({"root": str(ROOT), "trace": traced, "ops": ops}, work, k)
            result["traced"] = traced
            result["index"] = k
            _check_pass(result, case, ops, verdicts)
            shutil.rmtree(work / f"pass{k}", ignore_errors=True)
            passes.append(result)
            if not trace:
                empty = {"root": str(ROOT), "trace": False, "ops": []}
                probes.append(_run_pass(empty, work, f"probe{k}"))
            took = time.perf_counter() - started
            enough = sum(p["traced"] for p in passes) >= MIN_TRACED_PASSES if trace else True
            if len(passes) >= MIN_PASSES and enough and time.perf_counter() - begin + took > seconds:
                break

        setups = [p["setup_s"] for p in passes + probes]
        timed = [p for p in passes if "ops" in p]
        plain = [p for p in timed if not p["traced"]]
        if not plain:
            raise SetupError("no pass completed: " + passes[-1]["error"][-2000:])
        attempted = len(case.ops) * len(passes)
        failed = sum(len(p["failures"]) for p in passes)
        info = {
            "workload": name,
            "seed": seed,
            "size": size,
            "seconds": seconds,
            "passes": len(passes),
            "fail_frac": failed / attempted,
            "failures": [f for p in passes for f in p["failures"]][:5],
            "wall_s_by_pass": [p["wall_s"] for p in plain],
            "setup_s_samples": setups,
            "setup_raw_s_median": statistics.median(p["setup_raw_s"] for p in passes + probes),
            "calibration_s_median": statistics.median(
                c for p in timed for c in p["calibration_s"]
            ),
            "wall_raw_s": sum(_op_medians(plain, "seconds")),
            "ops_s_median": _op_medians(plain, "seconds"),
            "ops_calibrated_s_median": _op_medians(plain, "calibrated_s"),
            "csv_sha256": plain[0]["csv_sha256"],
            "csv_identical_across_passes": all(
                p["csv_sha256"] == plain[0]["csv_sha256"] for p in timed if not p["failures"]
            ),
            "environment": _environment(plain[0]),
        }
        correct = failed == 0
        if trace:
            tracedp = sorted((p for p in timed if p["traced"]), key=lambda p: p["wall_s"])
            if not tracedp:
                raise SetupError("no traced pass completed: " + passes[1]["error"][-2000:])
            chosen = tracedp[(len(tracedp) - 1) // 2]
            values = dict(chosen["trace"]["metrics"])
            values["trace.overhead_s"] = sum(_op_medians(tracedp, "calibrated_s")) - sum(
                _op_medians(plain, "calibrated_s")
            )
            exact = list(COUNT_METRICS) + list(CALL_METRICS) + ["stochastic.rhs_useful_ratio"]
            repeat = all(p["trace"]["metrics"][m] == values[m] for p in tracedp for m in exact)
            correct = correct and repeat
            info["counts_repeat"] = repeat
            info["trace"] = {k: v for k, v in chosen["trace"].items() if k != "metrics"}
            spans = work / f"spans{chosen['index']}.json"
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            dump = out_dir / f"spans-{name}-seed{seed}.json"
            shutil.copyfile(spans, dump)
            info["spans_file"] = str(dump.relative_to(ROOT))
            wanted = bench["per_layer"]
        else:
            values = {
                "wall_s": sum(_op_medians(plain, "calibrated_s")),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
            }
            wanted = bench["end_to_end"]
        metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
        return metrics, attempted, failed, correct, info
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


def _run_all(seed: int, seconds: float) -> int:
    from workloads import NAMES

    bad = False
    for name in NAMES:
        for trace in (False, True):
            metrics, attempted, failed, correct, info = run_workload(name, seed, seconds, trace)
            bad = bad or not correct
            if not trace:
                print(f"{name:15} {'fail_frac':28} {failed / attempted:>14.6g} ratio")
            for metric, entry in metrics.items():
                print(f"{name:15} {metric:28} {entry['value']:>14.6g} {entry['unit']}")
            for failure in info["failures"]:
                print(f"{name:15} FAILED op {failure[0]}: {failure[1]}")
            sys.stdout.flush()
    print(json.dumps({"environment": info["environment"]}))
    return 1 if bad else 0


def main(argv=None) -> int:
    bench_seconds = _load(ROOT / "BENCHMARK.json")["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=bench_seconds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hexwalk" / "__init__.py").is_file():
        print(f"hexwalk sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import NAMES

    if args.workload != "all" and args.workload not in NAMES:
        parser.error(f"unknown workload {args.workload!r}; expected one of {NAMES} or 'all'")
    try:
        if args.workload == "all":
            return _run_all(args.seed, args.seconds)
        metrics, attempted, failed, correct, info = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
    except SetupError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 3
    print(json.dumps({"info": info}))
    print(
        json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics})
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
