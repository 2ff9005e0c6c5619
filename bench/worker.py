"""One benchmark pass in a fresh process.

Usage: python3 bench/worker.py JOB.json

The job file names the checkout root, the operations to run and where to
write the result.  The worker pins BLAS to one thread, imports hexwalk from
the checkout's ``src/``, runs a warm-up on inputs that no workload uses,
prints ``ready`` on stdout and then runs the operations back to back (a
closed loop with one client), with a short calibration before the first and
after each one.  Each operation is timed on its own; the result file holds
the times, calibration times, exit codes, captured output, peak resident
memory and, for a traced pass, the per-layer summary.  Outputs are left in
each operation's directory for the parent to check.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def calibrate() -> float:
    """Seconds this process takes for a fixed mix of interpreter and BLAS work.

    The runner divides each operation's time by the calibrations taken just
    before and after it, so a period in which the host runs slow scales the
    operation and its calibration alike and cancels out.  The work touches
    no hexwalk code, so a change to hexwalk moves only the operation.
    """
    import numpy as np

    m = np.linspace(-1.0, 1.0, 128 * 128).reshape(128, 128)
    start = time.perf_counter()
    total = 0
    for i in range(150000):
        total += i * i
    for _ in range(80):
        m = np.tanh(m @ m.T)
    return time.perf_counter() - start


def _run_qsw(hexwalk, op):
    from hexwalk import quantum, stochastic

    family, size = op["graph"]
    graph = getattr(hexwalk, family)(size)
    h = quantum.Hamiltonian(graph)
    rho0 = stochastic.density_from_state(quantum.entry_state(graph))
    return stochastic.evolve_qsw(rho0, h, stochastic.QswParams(omega=op["omega"]), op["t"])


def _run_op(hexwalk, np, op):
    out = Path(op["out"])
    out.mkdir(parents=True, exist_ok=True)
    captured, errors = io.StringIO(), io.StringIO()
    rho = None
    error = None
    rc = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(errors):
            if op["kind"] == "cli":
                rc = hexwalk.cli.main(op["argv"] + ["--out", str(out)])
            else:
                rho = _run_qsw(hexwalk, op)
                rc = 0
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        error = traceback.format_exc()
    end = time.perf_counter()
    if rho is not None:
        np.save(out / "rho.npy", rho)
    written = sum(p.stat().st_size for p in out.iterdir() if p.is_file())
    return {
        "seconds": end - start,
        "rc": rc,
        "error": error,
        "stdout": captured.getvalue(),
        "stderr": errors.getvalue(),
        "bytes_written": written if op["kind"] == "cli" else 0,
    }


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text())
    src = (Path(job["root"]) / "src").resolve()
    sys.path.insert(0, str(src))

    import numpy as np

    import hexwalk
    import hexwalk.cli

    if Path(hexwalk.__file__).resolve().parent.parent != src:
        print(f"hexwalk imported from {hexwalk.__file__}, not from {src}", file=sys.stderr)
        return 3
    # Warm-up on inputs that no workload uses: the first eigh of a process
    # is many times slower than later ones, and a CLI user pays it too, so
    # it belongs to set-up, not to the timed operations.
    a = np.random.default_rng(12345).standard_normal((40, 40))
    np.linalg.eigh(a + a.T)
    hexwalk.hexagonal_graph(1).adjacency
    _peak_rss_mb()  # a platform without VmHWM fails here, before "ready"

    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    print("ready", flush=True)

    calibration = [calibrate()]
    ops = []
    for op in job["ops"]:
        ops.append(_run_op(hexwalk, np, op))
        calibration.append(calibrate())

    result = {
        "ops": ops,
        "calibration_s": calibration,
        "wall_s": sum(op["seconds"] for op in ops),
        "peak_rss_mb": _peak_rss_mb(),
        "numpy": np.__version__,
        "blas": _blas_info(np),
        "blas_threads_env": {
            v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }
    if tracer is not None:
        summary = tracer.summary(result["wall_s"])
        summary["metrics"]["cli.bytes_written"] = sum(op["bytes_written"] for op in ops)
        result["trace"] = summary
        tracer.dump(job["spans"])
    Path(job["result"]).write_text(json.dumps(result))
    return 0


def _peak_rss_mb() -> float:
    """Peak resident memory of this process image (``VmHWM``), in MiB.

    ``VmHWM`` counts only the image started by exec.  ``ru_maxrss`` is no
    substitute: a spawned child's value starts from the parent's resident
    memory, and on some platforms it is in bytes rather than KiB.
    """
    for row in Path("/proc/self/status").read_text().splitlines():
        if row.startswith("VmHWM:"):
            return int(row.split()[1]) / 1024.0
    raise OSError("/proc/self/status has no VmHWM line")


def _blas_info(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


if __name__ == "__main__":
    sys.exit(main())
