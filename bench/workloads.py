"""The four benchmark workloads: their inputs, operations, references and checks.

Every workload is a list of operations that one worker runs back to back.
Inputs that are random come from the run's seed.  Each operation's output is
checked against a reference reached by another route than the code under
test (a sparse Krylov exponential from scipy, the exact Lindblad generator
built from its jump operators, the probabilities a frame was rendered from,
or sweep rows stored in ``bench/reference``).  Tolerances come from
``bench/spec.json`` and are no tighter than the test suite's own.

A reference can be shifted by a constant (``shift``); the self-test uses
that to prove that a wrong reference is counted as a failure.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import expm_multiply

HERE = Path(__file__).resolve().parent

NAMES = ("sweep-hex", "scan-large", "qsw-mix", "analyze-frames")

OMEGAS = (0.0, 0.25, 0.5, 0.75, 1.0)

# Frame layout: a node at doubled-lattice (X, Y) sits at pixel
# (MARGIN + SCALE * (X - min X), MARGIN + SCALE * (Y - min Y)).  Diagonal
# neighbours are 10 * sqrt(2) pixels apart, so circles of radius 7 touch no
# other circle, and a spot cut at 4 * sigma = 6 pixels lies wholly inside
# its own circle: extraction then returns the rendered probabilities.
MARGIN, SCALE, RADIUS, SIGMA = 20, 10, 7.0, 1.5

SIZES = {
    "full": {
        "depths": (2, 16),
        "scans": (
            ("hexagonal:n=24", "quantum", None),
            ("glued-tree:d=9", "quantum", None),
            ("hypercube:d=9", "quantum", None),
            ("hexagonal:n=12", "classical", 300.0),
        ),
        "qsw": ((("hexagonal_graph", 4), 8.0), (("hypercube_graph", 6), 3.0)),
        "frames": (16, 16, 16, 8, 8, 8),
    },
    "tiny": {
        "depths": (2, 4),
        "scans": (
            ("hexagonal:n=3", "quantum", None),
            ("glued-tree:d=3", "quantum", None),
            ("hypercube:d=3", "quantum", None),
            ("hexagonal:n=2", "classical", 30.0),
        ),
        "qsw": ((("hexagonal_graph", 1), 1.0), (("hypercube_graph", 3), 0.5)),
        "frames": (2, 1),
    },
}


class Case:
    """One workload's operations for a given size and seed, and how to check them."""

    def __init__(self, name, size, seed, inputs: Path, tol: dict, shift: float = 0.0):
        import hexwalk

        self.hexwalk = hexwalk
        self.name = name
        self.seed = seed
        self.tol = tol
        self.shift = shift
        self.params = SIZES[size]
        self.ops = getattr(self, "_ops_" + name.replace("-", "_"))(inputs)

    # -- operations ----------------------------------------------------------

    def _ops_sweep_hex(self, inputs):
        lo, hi = self.params["depths"]
        return [{"kind": "cli", "argv": ["sweep", "--depths", f"{lo}..{hi}"], "depths": [lo, hi]}]

    def _ops_scan_large(self, inputs):
        ops = []
        for selector, engine, z_max in self.params["scans"]:
            argv = ["scan", "--graph", selector, "--engine", engine, "--seed", str(self.seed)]
            if z_max is not None:
                argv += ["--z-max", format(z_max, "g")]
            ops.append({"kind": "cli", "argv": argv, "selector": selector, "engine": engine})
        return ops

    def _ops_qsw_mix(self, inputs):
        return [
            {"kind": "qsw", "graph": list(graph), "omega": omega, "t": t}
            for graph, t in self.params["qsw"]
            for omega in OMEGAS
        ]

    def _ops_analyze_frames(self, inputs):
        from hexwalk.imaging import MaskEntry, MaskSpec, format_image, mask_csv, render_synthetic

        rng = np.random.default_rng(self.seed)
        inputs.mkdir(parents=True, exist_ok=True)
        ops = []
        for k, depth in enumerate(self.params["frames"]):
            graph = self.hexwalk.hexagonal_graph(depth)
            xs = np.array([x for x, _ in graph.coords])
            ys = np.array([y for _, y in graph.coords])
            px = MARGIN + SCALE * (xs - xs.min())
            py = MARGIN + SCALE * (ys - ys.min())
            mask = MaskSpec(
                MaskEntry(i, float(px[i]), float(py[i]), RADIUS) for i in range(graph.n_nodes)
            )
            p = rng.dirichlet(np.ones(graph.n_nodes))
            shape = (int(py.max()) + MARGIN + 1, int(px.max()) + MARGIN + 1)
            image = render_synthetic(p, mask, shape, SIGMA)
            image_path = inputs / f"frame{k}.txt"
            mask_path = inputs / f"mask{k}.csv"
            image_path.write_text(format_image(image))
            mask_path.write_text(mask_csv(mask))
            ops.append(
                {
                    "kind": "cli",
                    "argv": ["analyze", str(image_path), str(mask_path)],
                    "p": (p / p.sum()).tolist(),
                }
            )
        return ops

    # -- checks --------------------------------------------------------------

    def check(self, op: dict, out: Path, stdout: str) -> list[str]:
        """Failure messages for one operation's output; empty when it passes."""
        try:
            return getattr(self, "_check_" + self.name.replace("-", "_"))(op, out, stdout)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return [f"unreadable output: {exc!r}"]

    def _check_sweep_hex(self, op, out, stdout):
        tol = self.tol
        lo, hi = op["depths"]
        stored = {int(r["n"]): r for r in _read_table(HERE / "reference" / "sweep.csv")}
        rows = _read_table(out / "sweep.csv")
        bad = []
        if [int(r["n"]) for r in rows] != list(range(lo, hi + 1)):
            return [f"sweep.csv depths {[r['n'] for r in rows]}, expected {lo}..{hi}"]
        for row in rows:
            n = int(row["n"])
            ref = {k: float(v) + self.shift for k, v in stored[n].items()}
            got = {k: float(v) for k, v in row.items()}
            if abs(got["z_opt"] - ref["z_opt"]) > tol["sweep_z_opt_abs"]:
                bad.append(f"n={n}: z_opt {got['z_opt']} vs stored {ref['z_opt']}")
            if abs(got["p_opt"] - ref["p_opt"]) > tol["sweep_p_opt_abs"]:
                bad.append(f"n={n}: p_opt {got['p_opt']} vs stored {ref['p_opt']}")
            for key in ("t_converge", "t_low", "t_high"):
                if abs(got[key] - ref[key]) > tol["sweep_t_rel"] * abs(ref[key]):
                    bad.append(f"n={n}: {key} {got[key]} vs stored {ref[key]}")
            if abs(got["P_a"] - ref["P_a"]) > tol["p_uniform_abs"]:
                bad.append(f"n={n}: P_a {got['P_a']} vs stored {ref['P_a']}")
            # independent route: p_exit at the reported optimum, and the
            # deviation from uniform at the reported settling time
            graph = self.hexwalk.hexagonal_graph(n)
            p_ref = _quantum_exit(graph, np.array([got["z_opt"]]))[0] + self.shift
            if abs(got["p_opt"] - p_ref) > tol["p_exit_abs"]:
                bad.append(f"n={n}: p_opt {got['p_opt']} but expm gives {p_ref} at z_opt")
            dev = _classical_deviation(graph, got["t_converge"]) + self.shift
            limit = 1.0e-4 * got["P_a"] * (1.0 + tol["settle_rel"])
            if dev > limit:
                bad.append(f"n={n}: deviation {dev:.3e} at t_converge exceeds {limit:.3e}")
        bad += self._check_fits(rows, _read_table(out / "fit.csv"))
        return bad

    def _check_fits(self, rows, fits):
        n = np.array([float(r["n"]) for r in rows])
        z = np.array([float(r["z_opt"]) for r in rows])
        t = np.array([float(r["t_converge"]) for r in rows])
        expected = {"linear": _lstsq(n, z), "power-law": _lstsq(np.log(n), np.log(t))}
        bad = []
        for fit in fits:
            ref = expected[fit["model"]]
            for key, value in zip(("slope", "intercept", "r_squared"), ref):
                if abs(float(fit[key]) - (value + self.shift)) > self.tol["fit_abs"]:
                    bad.append(f"{fit['model']} {key} {fit[key]} vs least squares {value}")
        if sorted(f["model"] for f in fits) != sorted(expected):
            bad.append(f"fit.csv models {[f['model'] for f in fits]}")
        return bad

    def _check_scan_large(self, op, out, stdout):
        tol = self.tol["p_exit_abs"]
        graph = self._graph(op["selector"])
        rows = _read_table(out / "curve.csv")
        z = np.array([float(r["z"]) for r in rows])
        p = np.array([float(r["p_exit"]) for r in rows])
        stride = max(1, (len(z) - 1) // 300)
        pick = np.arange(0, len(z), stride)
        if op["engine"] == "quantum":
            ref = _quantum_exit(graph, z[pick])
        else:
            ref = _classical_exit(graph, z[pick])
        ref = ref + self.shift
        bad = []
        worst = float(np.max(np.abs(p[pick] - ref)))
        if worst > tol:
            bad.append(f"curve.csv differs from expm by {worst:.3e}")
        if not np.allclose(z[pick], z[pick[1]] * np.arange(len(pick)), rtol=0, atol=1e-9):
            bad.append("curve.csv grid is not uniform from 0")
        printed = dict(kv.split("=") for kv in stdout.split())
        z_opt, p_opt = float(printed["z_opt"]), float(printed["p_opt"])
        if op["engine"] == "quantum":
            at_opt = _quantum_exit(graph, np.array([z_opt]))[0] + self.shift
        else:
            at_opt = _classical_exit(graph, np.array([z_opt]))[0] + self.shift
        if abs(p_opt - at_opt) > tol:
            bad.append(f"p_opt {p_opt} but expm gives {at_opt} at z_opt {z_opt}")
        if p_opt < p.max() - tol:
            bad.append(f"p_opt {p_opt} below the curve maximum {p.max()}")
        return bad

    def _check_qsw_mix(self, op, out, stdout):
        family, size = op["graph"]
        graph = getattr(self.hexwalk, family)(size)
        rho = np.load(out / "rho.npy")
        ref = _lindblad_exact(graph, op["omega"], op["t"]) + self.shift
        worst = float(np.max(np.abs(rho - ref)))
        if worst > self.tol["qsw_rho_abs"]:
            return [f"rho differs from the exact Lindblad solution by {worst:.3e}"]
        return []

    def _check_analyze_frames(self, op, out, stdout):
        tol = self.tol["analyze_p_abs"]
        p = np.array(op["p"]) + self.shift
        rows = _read_table(out / "probabilities.csv")
        ids = [int(r["node_id"]) for r in rows]
        got = np.array([float(r["probability"]) for r in rows])
        if ids != list(range(len(p))):
            return [f"node ids {ids[:5]}... do not cover 0..{len(p) - 1}"]
        bad = []
        worst = float(np.max(np.abs(got - p)))
        if worst > tol:
            bad.append(f"probabilities differ from the rendered ones by {worst:.3e}")
        efficiency = float(stdout.strip().split("=", 1)[1])
        if abs(efficiency - p[-1]) > tol:
            bad.append(f"efficiency {efficiency} vs rendered {p[-1]}")
        return bad

    def _graph(self, selector):
        from hexwalk.cli import parse_graph_selector

        return parse_graph_selector(selector, self.seed)


def _read_table(path: Path) -> list[dict]:
    """Rows of a hexwalk CSV, skipping its one-line run header."""
    lines = path.read_text().splitlines()
    if not lines or not lines[0].startswith("#"):
        raise ValueError(f"{path.name} lacks its run header")
    return list(csv.DictReader(lines[1:]))


def _lstsq(x, y):
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    r2 = 1.0 - float(np.sum(resid**2)) / float(np.sum((y - y.mean()) ** 2))
    return float(slope), float(intercept), r2


def _adjacency(graph) -> sparse.csr_matrix:
    a, b = np.array(graph.edges).T
    n = graph.n_nodes
    ones = np.ones(len(a))
    return sparse.csr_matrix((np.r_[ones, ones], (np.r_[a, b], np.r_[b, a])), shape=(n, n))


def _on_grid(op, v0, ts):
    """exp(op * t) v0 for every t of a uniform grid starting at 0 (or one t)."""
    if len(ts) == 1:
        return expm_multiply(op * float(ts[0]), v0)[None, :]
    return expm_multiply(op, v0, start=0.0, stop=float(ts[-1]), num=len(ts), endpoint=True)


def _quantum_exit(graph, zs):
    psi0 = np.zeros(graph.n_nodes, dtype=complex)
    psi0[graph.entry] = 1.0
    psi = _on_grid(-1j * _adjacency(graph).astype(complex), psi0, zs)
    return np.abs(psi[:, graph.exit]) ** 2


def _classical_generator(graph):
    a = _adjacency(graph)
    return (a - sparse.diags(np.asarray(a.sum(axis=1)).ravel())).tocsr()


def _classical_exit(graph, ts):
    p0 = np.zeros(graph.n_nodes)
    p0[graph.entry] = 1.0
    return _on_grid(_classical_generator(graph), p0, ts)[:, graph.exit]


def _classical_deviation(graph, t):
    p0 = np.zeros(graph.n_nodes)
    p0[graph.entry] = 1.0
    p = expm_multiply(_classical_generator(graph) * t, p0)
    return float(np.max(np.abs(p - 1.0 / graph.n_nodes)))


def _lindblad_exact(graph, omega, t):
    """rho(t) of the mixed walk, from the Lindblad form with one jump per directed edge.

    The generator is assembled on row-major vec(rho) from first principles:
    -(1 - omega) i [H, rho] + omega * sum_L (L rho L^+ - {L^+ L, rho} / 2)
    with L = |i><j| for every ordered adjacent pair and H the adjacency.
    """
    n = graph.n_nodes
    h = _adjacency(graph).astype(complex)
    eye = sparse.identity(n, dtype=complex, format="csr")
    coherent = -1j * (sparse.kron(h, eye) - sparse.kron(eye, h.T))
    ii, jj = np.array(graph.edges).T
    src, dst = np.r_[ii, jj], np.r_[jj, ii]
    # sum_L L (x) conj(L): |i><j| (x) |i><j| maps vec index (j, j) to (i, i)
    jump = sparse.csr_matrix(
        (np.ones(len(src), dtype=complex), (dst * n + dst, src * n + src)), shape=(n * n, n * n)
    )
    # sum_L L^+ L = diag(degree)
    deg = sparse.diags(np.asarray(_adjacency(graph).sum(axis=1)).ravel().astype(complex))
    anti = 0.5 * (sparse.kron(deg, eye) + sparse.kron(eye, deg.T))
    generator = ((1.0 - omega) * coherent + omega * (jump - anti)).tocsr()
    rho0 = np.zeros(n * n, dtype=complex)
    rho0[graph.entry * n + graph.entry] = 1.0
    return expm_multiply(generator * t, rho0).reshape(n, n)

