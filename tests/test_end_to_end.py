"""The command line's largest claims against references reached by other routes.

Each test drives ``hexwalk.cli.main`` in a temporary directory: the headline
sweep against the stored reference rows and the benchmark's tolerances
(``bench/`` is only read), scan optima against numpy's ``eigh`` of the whole
adjacency, the largest graphs the docs name against closed-form counts, a
scan at the point budget, ``analyze`` read-back of three spellings of one
frame, and every benchmark workload at its tiny size against its own checks.
"""

from __future__ import annotations

import csv
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

import hexwalk
from hexwalk import Hamiltonian, QswParams, entry_state, evolve_qsw, hexagonal_graph
from hexwalk.cli import main
from hexwalk.imaging import MaskEntry, MaskSpec, format_image, mask_csv, render_synthetic
from hexwalk.stochastic import density_from_state

BENCH = Path(__file__).resolve().parent.parent / "bench"


def tolerances():
    spec = json.loads((BENCH / "spec.json").read_text())
    return {key: entry["value"] for key, entry in spec["tolerances"].items()}


def table(path):
    """Rows of a hexwalk CSV as dicts, below its ``#`` header line."""
    with open(path) as fh:
        return list(csv.DictReader(line for line in fh if line[0] != "#"))


def read_graph(out):
    """Node and edge rows ``generate`` wrote, as int64 arrays."""
    def load(name):
        return np.loadtxt(out / name, delimiter=",", skiprows=2, dtype=np.int64, ndmin=2)

    return load("nodes.csv"), load("edges.csv")


def test_sweep_matches_every_stored_reference_row(tmp_path):
    tol = tolerances()
    assert main(["sweep", "--depths", "2..16", "--out", str(tmp_path)]) == 0
    got = {r["n"]: {k: float(v) for k, v in r.items()} for r in table(tmp_path / "sweep.csv")}
    ref = {r["n"]: {k: float(v) for k, v in r.items()} for r in table(BENCH / "reference" / "sweep.csv")}
    assert sorted(got, key=int) == [str(n) for n in range(2, 17)] == sorted(ref, key=int)
    for n, r in ref.items():
        g = got[n]
        assert abs(g["z_opt"] - r["z_opt"]) <= tol["sweep_z_opt_abs"], (n, "z_opt", g, r)
        assert abs(g["p_opt"] - r["p_opt"]) <= tol["sweep_p_opt_abs"], (n, "p_opt", g, r)
        for key in ("t_converge", "t_low", "t_high"):
            assert abs(g[key] - r[key]) <= tol["sweep_t_rel"] * abs(r[key]), (n, key, g, r)


@pytest.mark.parametrize("graph", ["hexagonal:n=24", "glued-tree:d=6,glue=identity"])
def test_scan_optimum_matches_the_whole_adjacency_eigh(graph, tmp_path, capsys):
    # p_opt is |<exit|exp(-iAz)|entry>|^2 at the printed z_opt, with no quotient and no mirror
    assert main(["generate", "--graph", graph, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert main(["scan", "--graph", graph, "--out", str(tmp_path)]) == 0
    fields = dict(pair.split("=") for pair in capsys.readouterr().out.split())
    nodes, edges = read_graph(tmp_path)
    entry, exit = np.flatnonzero(nodes[:, 3])[0], np.flatnonzero(nodes[:, 4])[0]
    a = np.zeros((len(nodes), len(nodes)))
    a[edges[:, 0], edges[:, 1]] = a[edges[:, 1], edges[:, 0]] = 1.0
    w, v = np.linalg.eigh(a)
    amp = v[exit] @ (np.exp(-1j * w * float(fields["z_opt"])) * v[entry])
    assert abs(abs(amp) ** 2 - float(fields["p_opt"])) <= 1e-10, (abs(amp) ** 2, fields)


@pytest.mark.parametrize("graph", ["hexagonal:n=200", "glued-tree:d=14", "hypercube:d=14"])
def test_largest_named_graphs_match_their_closed_form_counts(graph, tmp_path):
    assert main(["generate", "--graph", graph, "--out", str(tmp_path)]) == 0
    nodes, edges = read_graph(tmp_path)
    family, size = graph.split(":")[0], int(graph.split("=")[1])
    if family == "hexagonal":
        n_nodes, n_edges = 2 * size**2 + 4 * size, 3 * size**2 + 4 * size - 1
        want = {2: 4 * size + 2, 3: 2 * size**2 - 2}
    elif family == "glued-tree":  # random gluing: every node but the two roots has degree 3
        n_nodes, n_edges = 2 ** (size + 2) - 2, 2 ** (size + 2) - 4 + 2 ** (size + 1)
        want = {2: 2, 3: n_nodes - 2}
    else:
        n_nodes, n_edges = 2**size, size * 2 ** (size - 1)
        want = {size: n_nodes}
    assert len(nodes) == n_nodes and nodes[:, 0].tolist() == list(range(n_nodes))
    assert len(edges) == n_edges
    assert len(np.unique(nodes[:, 1:3], axis=0)) == n_nodes
    degree = np.bincount(edges.ravel(), minlength=n_nodes)
    assert degree.sum() == 2 * n_edges
    values, counts = np.unique(degree, return_counts=True)
    assert dict(zip(values.tolist(), counts.tolist())) == want
    assert nodes[:, 3].sum() == nodes[:, 4].sum() == 1


def test_scan_at_the_point_budget_writes_every_point(tmp_path):
    assert main(["scan", "--graph", "hexagonal:n=12", "--z-max", "9999", "--out", str(tmp_path)]) == 0
    with open(tmp_path / "curve.csv") as fh:
        assert sum(1 for _ in fh) - 2 == 999901


def test_analyze_reads_back_plain_crlf_and_underscore_frames(tmp_path, capsys):
    graph = hexagonal_graph(8)
    xy = np.array(graph.coords, dtype=float)
    px, py = 20 + 10 * (xy - xy.min(axis=0)).T
    mask = MaskSpec(MaskEntry(i, px[i], py[i], 7.0) for i in range(graph.n_nodes))
    p = np.random.default_rng(0).dirichlet(np.ones(graph.n_nodes))
    text = format_image(render_synthetic(p, mask, (int(py.max()) + 21, int(px.max()) + 21), 1.5))
    (tmp_path / "mask.csv").write_text(mask_csv(mask))
    # the same frame with CRLF line ends, and with a 1_0 token (numpy does not read
    # it, float() does) on the corner pixel, which lies inside no circle
    first, rest = text.split(" ", 1)
    assert float(first) == 0.0, first
    frames = {"frame": text, "frame_crlf": text.replace("\n", "\r\n"), "frame_underscore": "1_0 " + rest}
    outputs = {}
    for name, frame in frames.items():
        with open(tmp_path / f"{name}.txt", "w", newline="") as fh:
            fh.write(frame)
        out = tmp_path / name
        argv = ["analyze", str(tmp_path / f"{name}.txt"), str(tmp_path / "mask.csv")]
        assert main(argv + ["--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        rows = table(out / "probabilities.csv")
        # every frame reads back the rendered probabilities, and the exit node's as efficiency
        assert [int(r["node_id"]) for r in rows] == list(range(len(p)))
        got = np.array([float(r["probability"]) for r in rows])
        assert np.max(np.abs(got - p)) <= 1e-9, (name, np.max(np.abs(got - p)))
        (line,) = stdout.splitlines()
        assert line.startswith("efficiency=") and abs(float(line[11:]) - p[-1]) <= 1e-9, line
        outputs[name] = ((out / "probabilities.csv").read_text().split("\n", 1)[1], stdout)
    # all three write the same table below the header line, which names the frame
    assert outputs["frame_crlf"] == outputs["frame"]
    assert outputs["frame_underscore"] == outputs["frame"]


def test_every_benchmark_workload_passes_its_own_checks_at_tiny_size(tmp_path, capsys):
    # the benchmark runs each operation as its worker does (bench/worker.py is not
    # imported: it pins the BLAS thread variables for every later child process)
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    # the worker's warm-up reads the dense adjacency before it reports ready
    assert hexagonal_graph(1).adjacency.shape == (6, 6)
    tol = tolerances()
    for name in workloads.NAMES:
        case = workloads.Case(name, "tiny", 0, tmp_path / name / "inputs", tol)
        assert case.ops, name
        for j, op in enumerate(case.ops):
            out = tmp_path / name / f"op{j}"
            out.mkdir(parents=True)
            if op["kind"] == "cli":
                rc = main(op["argv"] + ["--out", str(out)])
            else:
                family, size = op["graph"]
                graph = getattr(hexwalk, family)(size)
                rho0 = density_from_state(entry_state(graph))
                rho = evolve_qsw(rho0, Hamiltonian(graph), QswParams(omega=op["omega"]), op["t"])
                np.save(out / "rho.npy", rho)
                rc = 0
            assert rc == 0, (name, op)
            assert case.check(op, out, capsys.readouterr().out) == [], (name, op)
