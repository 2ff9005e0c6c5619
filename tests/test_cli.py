"""End-to-end tests for the command-line interface."""

from __future__ import annotations

import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import hexwalk
from hexwalk import hexagonal_graph
from hexwalk.cli import _write_table, main
from hexwalk.imaging import MaskEntry, MaskSpec, format_image, mask_csv, render_synthetic
from child_process import run_child
from test_quantum import count_eigh


def read(path):
    return path.read_text()


def data_rows(path):
    """CSV rows below the comment header and the column header."""
    lines = read(path).strip().split("\n")
    assert lines[0].startswith("# hexwalk ")
    return lines[2:]


def run_cli_process(*argv):
    """Run ``hexwalk.cli.main`` in a child interpreter on the package this session imported."""
    return run_child("import sys; from hexwalk.cli import main; sys.exit(main())", *argv)


def stdout_value(capsys, key):
    out = capsys.readouterr().out
    match = re.search(rf"{key}=([-0-9.e+]+)", out)
    assert match, f"{key!r} not printed in {out!r}"
    return float(match.group(1))


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def test_generate_diamond_writes_both_tables(tmp_path, capsys):
    code = main(["generate", "--graph", "hexagonal:n=2", "--out", str(tmp_path)])
    assert code == 0
    nodes = data_rows(tmp_path / "nodes.csv")
    edges = data_rows(tmp_path / "edges.csv")
    assert len(nodes) == 16
    assert len(edges) == 19
    assert "16 nodes" in capsys.readouterr().out


def test_node_csv_shape_and_flags(tmp_path):
    assert main(["generate", "--graph", "path:m=3", "--out", str(tmp_path)]) == 0
    lines = read(tmp_path / "nodes.csv").strip().split("\n")[1:]
    assert lines[0] == "id,X,Y,is_entry,is_exit"
    assert len(lines) == 4
    assert lines[2] == "1,2,0,1,0"
    assert lines[3] == "2,4,0,0,1"


def test_edge_csv_is_sorted_and_complete(tmp_path):
    assert main(["generate", "--graph", "hexagonal:n=1", "--out", str(tmp_path)]) == 0
    lines = read(tmp_path / "edges.csv").strip().split("\n")[1:]
    assert lines[0] == "node_a,node_b"
    pairs = [tuple(int(x) for x in ln.split(",")) for ln in lines[1:]]
    assert pairs == sorted(pairs)
    assert len(pairs) == hexagonal_graph(1).n_edges


def test_generate_hypercube_counts(tmp_path):
    assert main(["generate", "--graph", "hypercube:d=3", "--out", str(tmp_path)]) == 0
    assert len(data_rows(tmp_path / "nodes.csv")) == 8
    assert len(data_rows(tmp_path / "edges.csv")) == 12


def test_generate_is_reproducible_across_directories(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    sel = "glued-tree:d=4,glue=random,seed=7"
    assert main(["generate", "--graph", sel, "--out", str(a)]) == 0
    assert main(["generate", "--graph", sel, "--out", str(b)]) == 0
    assert read(a / "nodes.csv") == read(b / "nodes.csv")
    assert read(a / "edges.csv") == read(b / "edges.csv")


@pytest.mark.parametrize("command", ["generate", "analyze"])
@pytest.mark.parametrize(
    "flag", [["--coupling", "2"], ["--rate", "0.5"], ["--calibrate"]], ids=lambda f: f[0]
)
def test_walk_flags_are_refused_where_no_walk_runs(command, flag, tmp_path, capsys):
    inputs = ["--graph", "hexagonal:n=1"] if command == "generate" else ["image.txt", "mask.csv"]
    with pytest.raises(SystemExit) as exc:
        main([command, *inputs, *flag, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["sweep", "variance", "analyze"])
def test_seed_is_refused_where_no_graph_is_built(command, tmp_path, capsys):
    inputs = ["image.txt", "mask.csv"] if command == "analyze" else []
    with pytest.raises(SystemExit) as exc:
        main([command, *inputs, "--seed", "9", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 9" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_generate_header_records_only_what_generate_uses(tmp_path):
    code = main(["generate", "--graph", "hexagonal:n=1", "--seed", "3", "--out", str(tmp_path)])
    assert code == 0
    header = read(tmp_path / "nodes.csv").split("\n")[0]
    assert header == f"# hexwalk {hexwalk.__version__} | generate | graph=hexagonal:n=1"


@pytest.mark.parametrize("command", ["generate", "scan"])
@pytest.mark.parametrize(
    "selector, seed",
    [
        ("glued-tree:d=3", "seed=9"),
        ("glued-tree:d=3,seed=2", "seed=2"),
        ("glued-tree:d=3,glue=identity", None),
        ("hexagonal:n=1", None),
        ("hypercube:d=2", None),
    ],
)
def test_header_records_the_seed_only_where_the_graph_drew_from_it(
    command, selector, seed, tmp_path
):
    assert main([command, "--graph", selector, "--seed", "9", "--out", str(tmp_path)]) == 0
    header = read(tmp_path / ("nodes.csv" if command == "generate" else "curve.csv"))
    seeds = re.findall(r" (seed=\d+)", header.split("\n")[0])
    assert seeds == ([] if seed is None else [seed])


def test_generate_seed_flag_reaches_the_gluing(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["generate", "--graph", "glued-tree:d=3,glue=random", "--seed", "5", "--out", str(a)]) == 0
    assert main(["generate", "--graph", "glued-tree:d=3,glue=random", "--seed", "6", "--out", str(b)]) == 0
    assert read(a / "edges.csv") != read(b / "edges.csv")


def test_identity_gluing_refuses_a_seed(tmp_path, capsys):
    # the identity gluing draws nothing, so a seed there is an unused key
    argv = ["generate", "--graph", "glued-tree:d=2,glue=identity,seed=4", "--out", str(tmp_path)]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "hexwalk: unknown selector parameter(s) ['seed'] for 'glued-tree'\n"
    )
    assert not any(tmp_path.iterdir())
    assert main(["generate", "--graph", "glued-tree:d=2,glue=random,seed=4", "--out", str(tmp_path)]) == 0


# Runs ``generate`` on each selector after the first argument (the output
# directory) and prints each exit code.
_GENERATE_CHILD = """
import sys
from hexwalk.cli import main
for selector in sys.argv[2:]:
    print(main(["generate", "--graph", selector, "--out", sys.argv[1]]), flush=True)
"""


def test_generate_refuses_a_graph_above_the_node_cap(tmp_path):
    # in a child with a deadline: a builder without its cap runs until killed
    counts = {
        "hypercube:d=40": 2**40,
        "glued-tree:d=40": 2**42 - 2,
        "hexagonal:n=100000": 2 * 10**10 + 4 * 10**5,
        "path:m=1000000000000": 10**12,
    }
    proc = run_child(_GENERATE_CHILD, str(tmp_path), *counts, timeout=10)
    assert proc.stdout == "2\n" * len(counts), proc.stderr
    cap = hexwalk.graphs.MAX_NODES
    assert proc.stderr == "".join(
        f"hexwalk: graph would have {count} nodes, above the cap of {cap}\n"
        for count in counts.values()
    )
    assert not any(tmp_path.iterdir())


# Runs ``sweep`` on each depth list after the first argument (the output
# directory) and prints each exit code.  Its sweep fails if any depth runs.
_SWEEP_CHILD = """
import sys
from hexwalk import cli
def no_sweep(*args):
    raise AssertionError("a depth ran")
cli.depth_sweep = no_sweep
for depths in sys.argv[2:]:
    print(cli.main(["sweep", "--depths", depths, "--out", sys.argv[1]]), flush=True)
"""


def test_sweep_refuses_a_depth_above_the_node_cap_before_any_depth_runs(tmp_path):
    # in a child with a deadline: a range listed before it is checked may never come back
    counts = {"2..10000000000000": 2 * 10**26 + 4 * 10**13, "2,3,707": 2 * 707**2 + 4 * 707}
    proc = run_child(_SWEEP_CHILD, str(tmp_path), *counts, timeout=10)
    assert proc.stdout == "2\n" * len(counts), proc.stderr
    cap = hexwalk.graphs.MAX_NODES
    assert proc.stderr == "".join(
        f"hexwalk: graph would have {count} nodes, above the cap of {cap}\n"
        for count in counts.values()
    )
    assert not any(tmp_path.iterdir())


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------


def test_scan_single_hexagon(tmp_path, capsys):
    code = main(["scan", "--graph", "hexagonal:n=1", "--out", str(tmp_path)])
    assert code == 0
    z_opt = stdout_value(capsys, "z_opt")
    assert abs(z_opt - 2.0944) < 1e-3
    rows = data_rows(tmp_path / "curve.csv")
    first_z, first_p = (float(x) for x in rows[0].split(","))
    assert first_z == 0.0
    assert first_p < 1e-12
    header = read(tmp_path / "curve.csv").split("\n")[0]
    assert "engine=quantum" in header
    assert "seed=" not in header


def test_scan_calibrated_diamond_peaks_near_25mm(tmp_path, capsys):
    code = main(["scan", "--graph", "hexagonal:n=2", "--calibrate", "--out", str(tmp_path)])
    assert code == 0
    z_opt = stdout_value(capsys, "z_opt")
    assert 24.0 <= z_opt <= 26.0


def test_scan_dump_state_holds_one_probability_per_node(tmp_path, capsys):
    code = main(
        ["scan", "--graph", "hexagonal:n=1", "--dump-state", "--out", str(tmp_path)]
    )
    assert code == 0
    rows = data_rows(tmp_path / "state.csv")
    assert len(rows) == 6
    probs = [float(r.split(",")[3]) for r in rows]
    assert abs(sum(probs) - 1.0) < 1e-9
    p_opt = stdout_value(capsys, "p_opt")
    assert abs(probs[-1] - p_opt) < 1e-9


def test_scan_classical_dump_state_has_no_negative_probability(tmp_path):
    # before the walk arrives the exact probabilities are 0; rounding must not go below
    argv = ["scan", "--graph", "hexagonal:n=12", "--engine", "classical", "--z-max", "3"]
    with pytest.warns(Warning, match="rounding floor"):
        assert main(argv + ["--dump-state", "--out", str(tmp_path)]) == 0
    probs = [float(r.split(",")[1]) for r in data_rows(tmp_path / "state.csv")]
    assert len(probs) == 336
    assert min(probs) >= 0.0
    assert abs(sum(probs) - 1.0) < 1e-9


def test_scan_classical_engine(tmp_path, capsys):
    code = main(
        [
            "scan", "--graph", "hexagonal:n=2", "--engine", "classical",
            "--z-max", "300", "--dz", "0.5", "--out", str(tmp_path),
        ]
    )
    assert code == 0
    rows = data_rows(tmp_path / "curve.csv")
    last_p = float(rows[-1].split(",")[1])
    assert abs(last_p - 0.0625) < 1e-6
    header = read(tmp_path / "curve.csv").split("\n")[0]
    assert "engine=classical" in header
    assert "omega=1" in header


def test_scan_header_records_the_resolved_window(tmp_path):
    argv = ["scan", "--graph", "hexagonal:n=1", "--engine", "classical", "--rate", "0.5"]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    assert read(tmp_path / "curve.csv").split("\n")[0] == (
        f"# hexwalk {hexwalk.__version__} | scan | graph=hexagonal:n=1 rate=0.5 "
        "omega=1 z_max=8 dz=0.02 calibrate=0 engine=classical"
    )


@pytest.mark.parametrize(
    "command, engine, used, unused",
    [
        ("scan", "quantum", "coupling=2", "rate="),
        ("scan", "classical", "rate=2", "coupling="),
        ("variance", "quantum", "coupling=2", "rate="),
        ("variance", "classical", "rate=2", "coupling="),
    ],
)
def test_header_records_only_the_walk_parameter_the_engine_uses(
    command, engine, used, unused, tmp_path
):
    inputs = ["--graph", "hexagonal:n=1"] if command == "scan" else ["--sites", "21"]
    argv = [command, *inputs, "--engine", engine, "--coupling", "2", "--rate", "2"]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    header = read(tmp_path / ("curve.csv" if command == "scan" else "fit.csv")).split("\n")[0]
    assert f" {used} " in header
    assert f" {unused}" not in header


@pytest.mark.parametrize(
    "engine, flags, message",
    [
        ("quantum", ["--rate", "-1"], "hop rate must be finite and > 0, got -1.0"),
        ("quantum", ["--rate", "nan"], "hop rate must be finite and > 0, got nan"),
        ("classical", ["--coupling", "-1", "--rate", "1"], "coupling must be finite and > 0, got -1.0"),
    ],
)
def test_scan_refuses_a_bad_walk_parameter_its_engine_does_not_use(
    engine, flags, message, tmp_path, capsys
):
    argv = ["scan", "--graph", "hexagonal:n=1", "--engine", engine, *flags]
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"hexwalk: {message}\n"
    assert not any(tmp_path.iterdir())


def test_scan_runs_a_glued_tree_too_large_for_a_dense_matrix(tmp_path, capsys, monkeypatch):
    # 16382 nodes: the node spectrum alone would take 2.1 GB; the walk lives on 26 cells
    from hexwalk.quantum import WalkOperator

    monkeypatch.setattr(WalkOperator, "spectrum", property(lambda self: pytest.fail("node spectrum")))
    sizes = count_eigh(monkeypatch)
    assert main(["scan", "--graph", "glued-tree:d=12", "--dump-state", "--out", str(tmp_path)]) == 0
    assert sizes == [26]  # the random gluing has no mirror; the dump reuses the scan's spectrum
    assert 0.4 < stdout_value(capsys, "p_opt") < 1.0
    assert len(data_rows(tmp_path / "state.csv")) == 16382


@pytest.mark.parametrize("engine", ["quantum", "classical"])
def test_scan_dump_state_diagonalises_nothing_more(engine, tmp_path, monkeypatch):
    sizes = count_eigh(monkeypatch)
    scan = ["scan", "--graph", "hexagonal:n=3", "--engine", engine, "--z-max", "12"]
    # the 18 entry cells split into the two mirror sectors; the coherent odd sector is derived
    expected = [9] if engine == "quantum" else [9, 9]
    assert main(scan + ["--out", str(tmp_path / "plain")]) == 0
    assert sizes == expected
    sizes.clear()
    assert main(scan + ["--dump-state", "--out", str(tmp_path / "dump")]) == 0
    assert sizes == expected
    assert len(data_rows(tmp_path / "dump" / "state.csv")) == 30


def test_scan_refuses_a_spectrum_over_the_memory_limit(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(hexwalk.graphs, "MAX_WALK_BYTES", 2**20)
    assert main(["scan", "--graph", "hexagonal:n=12", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        "hexwalk: the walk spectrum on 180 cells would take about 0.125 GiB, "
        "above the limit of 0.000977 GiB\n"
    )
    assert not any(tmp_path.iterdir())


def test_scan_classical_bad_rate_is_named_as_a_hop_rate(tmp_path, capsys):
    argv = ["scan", "--graph", "hexagonal:n=2", "--engine", "classical", "--rate", "-1"]
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "hexwalk: hop rate must be finite and > 0, got -1.0\n"
    assert not any(tmp_path.iterdir())


def test_scan_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["scan", "--graph", "hexagonal:n=1", "--dz", "0.02"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert read(a / "curve.csv") == read(b / "curve.csv")


def test_dat_mirrors_and_the_colon_range_exit_2(tmp_path, capsys):
    # each table is one CSV, which gnuplot reads with `set datafile separator comma`
    for argv in (["scan", "--graph", "hexagonal:n=1", "--dat"], ["sweep", "--dat"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --dat" in capsys.readouterr().err
    assert main(["sweep", "--depths", "2:4", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "hexwalk: --depths '2:4': '2:4' is not an integer\n"
    assert not any(tmp_path.iterdir())


# ---------------------------------------------------------------------------
# sweep and variance
# ---------------------------------------------------------------------------


def test_sweep_two_depths_skips_fits(tmp_path, capsys):
    code = main(["sweep", "--depths", "2,3", "--out", str(tmp_path)])
    assert code == 0
    rows = data_rows(tmp_path / "sweep.csv")
    assert len(rows) == 2
    assert not (tmp_path / "fit.csv").exists()
    first = rows[0].split(",")
    assert first[0] == "2"
    assert abs(float(first[-1]) - 0.0625) < 1e-12


def test_sweep_range_syntax_writes_fits(tmp_path, capsys):
    code = main(["sweep", "--depths", "2..4", "--out", str(tmp_path)])
    assert code == 0
    assert len(data_rows(tmp_path / "sweep.csv")) == 3
    fits = data_rows(tmp_path / "fit.csv")
    assert fits[0].startswith("linear,")
    assert fits[1].startswith("power-law,")


def test_sweep_fit_r_squared_does_not_depend_on_the_coupling_scale(tmp_path):
    # z_opt goes as 1 / C: at C = 1e200 its squares underflow, at 1e-160 they overflow
    def fits(coupling):
        out = tmp_path / coupling
        argv = ["sweep", "--depths", "2..5", "--coupling", coupling, "--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 0
        return {row.split(",")[0]: float(row.split(",")[3]) for row in data_rows(out / "fit.csv")}

    reference = fits("1")
    for coupling in ("1e200", "1e-200", "1e160", "1e-160"):
        scaled = fits(coupling)
        assert scaled.keys() == reference.keys()
        for model, r_squared in reference.items():
            assert abs(scaled[model] - r_squared) < 1e-12, (coupling, model)


@pytest.mark.parametrize("window", [[], ["--z-max", "5"]], ids=["default", "z-max-5"])
def test_variance_quantum_exponent(window, tmp_path, capsys):
    code = main(["variance", "--sites", "41", *window, "--out", str(tmp_path)])
    assert code == 0
    exponent = stdout_value(capsys, "exponent")
    assert abs(exponent - 2.0) < 0.05
    fits = data_rows(tmp_path / "fit.csv")
    assert len(fits) == 1
    assert fits[0].startswith("power-law,")
    if window:
        assert read(tmp_path / "fit.csv").split("\n")[0] == (
            f"# hexwalk {hexwalk.__version__} | variance | coupling=1 z_max=5 calibrate=0 "
            "engine=quantum sites=41"
        )


def test_variance_classical_exponent(tmp_path, capsys):
    code = main(["variance", "--sites", "41", "--engine", "classical", "--out", str(tmp_path)])
    assert code == 0
    assert abs(stdout_value(capsys, "exponent") - 1.0) < 0.05


@pytest.mark.parametrize("z_max", ["nan", "inf", "0"])
def test_variance_refuses_a_non_finite_or_empty_window(z_max, tmp_path, capsys):
    code = main(["variance", "--sites", "41", "--z-max", z_max, "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"hexwalk: --z-max must be finite and > 0, got {float(z_max)}\n"
    assert not (tmp_path / "fit.csv").exists()


@pytest.mark.parametrize(
    "window, steps",
    [(["--z-max", "1e300"], "1e+302"), (["--z-max", "1e300", "--dz", "1e-300"], "inf")],
)
def test_scan_refuses_a_window_over_the_point_budget(window, steps, tmp_path, capsys):
    code = main(["scan", "--graph", "hexagonal:n=2", *window, "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"hexwalk: scan window z_max/dz (--z-max/--dz) = {steps} steps is more than "
        "the 1000000 grid points a scan may take\n"
    )
    assert not any(tmp_path.iterdir())


def test_calibrate_and_coupling_are_exclusive(tmp_path, capsys):
    argv = ["scan", "--graph", "hexagonal:n=2", "--coupling", "3", "--calibrate"]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "--calibrate: not allowed with argument --coupling" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


@pytest.fixture()
def rendered_fixture(tmp_path):
    entries = [MaskEntry(i, 20.0 + 30.0 * i, 15.0, 6.0) for i in range(4)]
    mask = MaskSpec(entries)
    p = np.array([0.1, 0.2, 0.3, 0.4])
    image = render_synthetic(p, mask, (31, 131), sigma=2.0)
    image_path = tmp_path / "image.txt"
    mask_path = tmp_path / "mask.csv"
    image_path.write_text(format_image(image))
    mask_path.write_text(mask_csv(mask))
    return image_path, mask_path, p


def test_analyze_recovers_rendered_probabilities(rendered_fixture, tmp_path, capsys):
    image_path, mask_path, p = rendered_fixture
    code = main(["analyze", str(image_path), str(mask_path), "--out", str(tmp_path)])
    assert code == 0
    efficiency = stdout_value(capsys, "efficiency")
    assert abs(efficiency - p[-1]) < 1e-3
    rows = data_rows(tmp_path / "probabilities.csv")
    assert len(rows) == 4
    recovered = np.array([float(r.split(",")[1]) for r in rows])
    assert np.max(np.abs(recovered - p)) < 1e-3


def test_analyze_exit_node_override(rendered_fixture, tmp_path, capsys):
    image_path, mask_path, p = rendered_fixture
    code = main(
        ["analyze", str(image_path), str(mask_path), "--exit-node", "0", "--out", str(tmp_path)]
    )
    assert code == 0
    assert abs(stdout_value(capsys, "efficiency") - p[0]) < 1e-3


def test_analyze_leaves_numpy_ma_unimported(rendered_fixture, tmp_path):
    # a plain np.unique imports numpy.ma on first use, a cost nothing in analyze needs
    image_path, mask_path, _ = rendered_fixture
    code = "import sys; from hexwalk.cli import main; print(main(), 'numpy.ma' in sys.modules)"
    proc = run_child(code, "analyze", str(image_path), str(mask_path), "--out", str(tmp_path))
    assert proc.stdout.splitlines()[-1] == "0 False", proc.stderr


_DEPENDENCY_CHILD = """
import sys
from hexwalk.cli import main
out = sys.argv[1]
for argv in (
    ["sweep", "--depths", "2..4"],
    ["scan", "--graph", "hexagonal:n=2", "--dump-state"],
    ["variance", "--sites", "41"],
):
    assert main([*argv, "--out", out]) == 0, argv
test_only = {"scipy", "networkx", "hypothesis", "mpmath", "pytest"}
print(sorted(test_only & {name.partition(".")[0] for name in sys.modules}))
"""


def test_the_commands_import_no_test_dependency(tmp_path):
    # numpy is the one declared dependency; the test extra's packages must not leak in
    proc = run_child(_DEPENDENCY_CHILD, str(tmp_path), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_analyze_header_records_only_what_analyze_uses(rendered_fixture, tmp_path):
    image_path, mask_path, _ = rendered_fixture
    assert main(["analyze", str(image_path), str(mask_path), "--out", str(tmp_path)]) == 0
    header = read(tmp_path / "probabilities.csv").split("\n")[0]
    assert header == (
        f"# hexwalk {hexwalk.__version__} | analyze | "
        "image=image.txt mask=mask.csv exit_node=3"
    )


# ---------------------------------------------------------------------------
# table writer
# ---------------------------------------------------------------------------


def test_write_table_formats_each_column_by_its_type(tmp_path):
    nan, inf = float("nan"), float("inf")
    columns = {
        "ints": [0, np.int64(-7), True, np.bool_(False), 10**13, np.int32(3), 2**53 + 1],
        "floats": [-0.0, 1e-300, nan, inf, -inf, np.float64(0.1), 1.0 / 3.0],
        "ints_nan": [np.int64(5), True, nan, 2, -3, np.int16(4), 0],
        "floats_inf": [1e-300, np.bool_(True), 7, inf, -0.0, np.int64(-2), 2.5e12],
        "text": ["a", "bb", "", "c d", "e", "f", "g"],
    }

    def rule(cells):
        # a column holding any float is written as floats, the others as integers
        if any(isinstance(c, (float, np.floating)) for c in cells):
            return [f"{float(c):.12g}" for c in cells]
        if all(isinstance(c, str) for c in cells):
            return cells
        return [str(int(c)) for c in cells]

    _write_table(tmp_path / "t.csv", "# head", columns)
    expected = [",".join(row) for row in zip(*(rule(c) for c in columns.values()))]
    assert read(tmp_path / "t.csv") == "\n".join(["# head", ",".join(columns), *expected]) + "\n"
    assert expected[0] == "0,-0,5,1e-300,a"
    assert expected[1] == "-7,1e-300,1,1,bb"
    assert expected[2] == "1,nan,nan,7,"
    assert expected[4] == "10000000000000,-inf,-3,-0,e"
    assert expected[6] == "9007199254740993,0.333333333333,0,2.5e+12,g"

    _write_table(tmp_path / "empty.csv", "# head", {"a": [], "b": []})
    assert read(tmp_path / "empty.csv") == "# head\na,b\n"


# Builds the columns of a million-row table, writes it only when told to, and
# prints the peak resident memory of its own process image.  VmHWM starts at
# exec; ru_maxrss would carry the parent's peak across it.
_TABLE_CHILD = """
import sys
from pathlib import Path
import numpy as np
from hexwalk.cli import _write_table
z = np.linspace(0.0, 1.0, 10**6)
p = np.sin(z) ** 2
if sys.argv[1] == "write":
    _write_table(Path(sys.argv[2]) / "big.csv", "# head", {"z": z, "p_exit": p})
status = Path("/proc/self/status").read_text().splitlines()
print(next(int(row.split()[1]) for row in status if row.startswith("VmHWM:")) * 1024)
"""


def test_write_table_streams_a_million_rows_in_bounded_memory(tmp_path):
    # the write's own cost: a child that writes against one that builds the same columns only
    write, skip = (run_child(_TABLE_CHILD, mode, str(tmp_path)) for mode in ("write", "skip"))
    assert write.returncode == skip.returncode == 0, write.stderr + skip.stderr
    assert int(write.stdout) - int(skip.stdout) < 32 * 2**20
    z = np.linspace(0.0, 1.0, 10**6)
    p = np.sin(z) ** 2
    with open(tmp_path / "big.csv") as fh:
        assert sum(1 for _ in fh) == 2 + 10**6
    assert read(tmp_path / "big.csv").endswith(f"\n1,{p[-1]:.12g}\n")


def test_write_table_failure_keeps_the_old_file_and_leaves_no_temp(tmp_path):
    class Unprintable:
        def __format__(self, spec):
            raise RuntimeError("unprintable cell")

    (tmp_path / "t.csv").write_text("old\n")
    # the bad cell sits in the second block, after the first was written
    cells = [0] * 5000 + [Unprintable()]
    with pytest.raises(RuntimeError, match="unprintable cell"):
        _write_table(tmp_path / "t.csv", "# head", {"a": range(5001), "b": cells})
    assert [path.name for path in tmp_path.iterdir()] == ["t.csv"]
    assert read(tmp_path / "t.csv") == "old\n"


def test_write_table_leaves_a_temp_name_already_in_use_alone(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "urandom", lambda size: bytes(size))
    taken = tmp_path / f"t.csv.{bytes(8).hex()}.tmp"
    taken.write_text("not ours\n")
    with pytest.raises(FileExistsError):
        _write_table(tmp_path / "t.csv", "# head", {"a": [1, 2]})
    assert [path.name for path in tmp_path.iterdir()] == [taken.name]
    assert read(taken) == "not ours\n"


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_written_files_get_the_umask_mode(tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        assert main(["generate", "--graph", "hexagonal:n=1", "--out", str(tmp_path)]) == 0
        scan = ["scan", "--graph", "hexagonal:n=1", "--dump-state"]
        assert main(scan + ["--out", str(tmp_path)]) == 0
    finally:
        os.umask(old)
    written = sorted(path.name for path in tmp_path.iterdir())
    assert written == ["curve.csv", "edges.csv", "nodes.csv", "state.csv"]
    assert {(tmp_path / name).stat().st_mode & 0o777 for name in written} == {mode}


def test_write_table_never_changes_the_process_umask(tmp_path, monkeypatch):
    # a umask round trip would leave the whole process at 0 for a moment, so the
    # writer leaves the mode of each new file to the operating system
    def refuse(mask):
        raise AssertionError("the process umask was changed")

    real = os.umask
    old = real(0o027)
    try:
        monkeypatch.setattr(os, "umask", refuse)
        _write_table(tmp_path / "t.csv", "# head", {"a": [1, 2]})
    finally:
        monkeypatch.undo()
        real(old)
    assert [path.name for path in tmp_path.iterdir()] == ["t.csv"]
    assert (tmp_path / "t.csv").stat().st_mode & 0o777 == 0o640
    assert read(tmp_path / "t.csv") == "# head\na\n1\n2\n"


# ---------------------------------------------------------------------------
# failure modes and exit codes
# ---------------------------------------------------------------------------


def test_bad_graph_parameters_exit_2(tmp_path, capsys):
    assert main(["generate", "--graph", "hexagonal:n=0", "--out", str(tmp_path)]) == 2
    assert main(["generate", "--graph", "pentagon:n=2", "--out", str(tmp_path)]) == 2
    assert main(["generate", "--graph", "hexagonal:n=two", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "hexwalk:" in err
    assert main(["generate", "--graph", "hexagonal:n=4,n=5", "--out", str(tmp_path)]) == 2
    assert "repeats parameter 'n'" in capsys.readouterr().err
    for glue in ("random-cycle", "Random", "cycle"):
        assert main(["generate", "--graph", f"glued-tree:d=3,glue={glue}", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"hexwalk: glue must be 'identity' or 'random', got {glue!r}\n"
    assert not (tmp_path / "nodes.csv").exists()


def test_bad_integers_are_named_and_exit_2(tmp_path, capsys):
    graph = "glued-tree:d=3,seed=abc"
    assert main(["generate", "--graph", graph, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "hexwalk: selector parameter seed='abc' is not an integer\n"
    assert main(["sweep", "--depths", "2..x", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "hexwalk: --depths '2..x': 'x' is not an integer\n"
    assert main(["sweep", "--depths", "2,3,four", "--out", str(tmp_path)]) == 2
    assert "--depths '2,3,four': 'four' is not an integer" in capsys.readouterr().err


def test_malformed_image_exits_3(tmp_path, capsys):
    img = tmp_path / "bad.txt"
    msk = tmp_path / "mask.csv"
    img.write_text("1 2 3\n4 5\n")
    msk.write_text("node_id,cx,cy,radius\n0,5,1,1\n")
    assert main(["analyze", str(img), str(msk), "--out", str(tmp_path)]) == 3
    assert "line 2" in capsys.readouterr().err


def test_missing_input_file_exits_3(tmp_path, capsys):
    missing = tmp_path / "nope.txt"
    msk = tmp_path / "mask.csv"
    msk.write_text("node_id,cx,cy,radius\n0,5,5,2\n")
    assert main(["analyze", str(missing), str(msk), "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert f"cannot read input file {missing}: No such file or directory" in err
    assert "line 0" not in err


@pytest.mark.parametrize("bad", ["image", "mask"])
def test_non_utf8_input_exits_3(tmp_path, capsys, bad):
    files = {"image": tmp_path / "image.txt", "mask": tmp_path / "mask.csv"}
    files["image"].write_text("0 1 0\n1 2 1\n0 1 0\n")
    files["mask"].write_text("node_id,cx,cy,radius\n0,1,1,1\n")
    files[bad].write_bytes(b"\xff\xfe")
    assert main(["analyze", str(files["image"]), str(files["mask"]), "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert f"cannot read input file {files[bad]}: 'utf-8' codec can't decode byte 0xff" in err
    assert not (tmp_path / "probabilities.csv").exists()


def test_analyze_reads_any_line_break_and_names_a_late_bad_line(rendered_fixture, tmp_path, capsys):
    image_path, mask_path, _ = rendered_fixture
    lines = image_path.read_text().splitlines()

    def analyze(name, text):
        (tmp_path / name).mkdir()
        frame = tmp_path / name / "image.txt"
        frame.write_bytes(text.encode())
        code = main(["analyze", str(frame), str(mask_path), "--out", str(tmp_path / name)])
        out, err = capsys.readouterr()
        csv = tmp_path / name / "probabilities.csv"
        return code, out + err, csv.read_text() if csv.exists() else None

    expected = analyze("plain", "\n".join(lines) + "\n")
    assert expected[0] == 0
    assert analyze("crlf", "\r\n".join(lines) + "\r\n") == expected
    assert analyze("cr", "\r".join(lines) + "\r\n\r\n") == expected
    n, width = len(lines), len(lines[0].split())
    for k, (lineno, line, message) in enumerate(
        (
            (n - 1, " ".join(["x"] + lines[-2].split()[1:]), "non-numeric value 'x'"),
            (n - 1, "", "blank row inside the pixel matrix"),
            (n, lines[-1] + " 1", f"row has {width + 1} values, expected {width}"),
        )
    ):
        edited = lines[: lineno - 1] + [line] + lines[lineno:]
        assert analyze(f"bad{k}", "\r\n".join(edited) + "\r\n") == (
            3, f"hexwalk: input error: line {lineno}: {message}\n", None
        )


def test_mask_node_id_beyond_int64_exits_3(tmp_path, capsys):
    img, msk = tmp_path / "image.txt", tmp_path / "mask.csv"
    img.write_text("0 1 0\n1 2 1\n0 1 0\n")
    msk.write_text("node_id,cx,cy,radius\n99999999999999999999,1,1,0.5\n")
    assert main(["analyze", str(img), str(msk), "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err == (
        "hexwalk: input error: node id must be below 2**63, got 99999999999999999999\n"
    )
    assert not (tmp_path / "probabilities.csv").exists()


def test_degenerate_window_exits_4(tmp_path, capsys):
    code = main(["variance", "--sites", "5", "--z-max", "100", "--out", str(tmp_path)])
    assert code == 4
    assert "numerical failure" in capsys.readouterr().err


def test_boundary_maximum_warning_is_emitted(tmp_path):
    with pytest.warns(Warning, match="boundary"):
        code = main(
            ["scan", "--graph", "path:m=2", "--z-max", "1.0", "--out", str(tmp_path)]
        )
    assert code == 0


def test_boundary_warning_is_one_plain_stderr_line(tmp_path):
    proc = run_cli_process("scan", "--graph", "path:m=21", "--z-max", "3", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == (
        "hexwalk: warning: exit probability is maximal at the scan boundary (z = 3); "
        "enlarge the window to bracket the true optimum\n"
    )
    assert "cli.py" not in proc.stderr


def test_classical_scan_short_of_the_exit_is_the_same_at_any_blas_thread_count(tmp_path, monkeypatch):
    runs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
        out = tmp_path / threads
        proc = run_cli_process(
            "scan", "--graph", "hexagonal:n=12", "--engine", "classical", "--z-max", "3",
            "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        runs.append((proc.stdout, proc.stderr, read(out / "curve.csv")))
    assert runs[0] == runs[1]
    stdout, stderr, _ = runs[0]
    assert stdout == "z_opt=3 p_opt=0\n"
    assert stderr == (
        "hexwalk: warning: exit probability stays below the rounding floor 1e-12 "
        "up to the scan boundary (t = 3); enlarge the window to reach the exit\n"
    )


# ---------------------------------------------------------------------------
# console entry point
# ---------------------------------------------------------------------------


def test_installed_script_generates_files(tmp_path):
    """The `hexwalk` command declared in pyproject.toml runs as its own process.

    The child runs exactly what the generated console-script wrapper runs, with
    the directory of the `hexwalk` package this session imported put first on
    its path, so it tests this code whether or not a `hexwalk` executable (from
    this tree or any other) is on PATH.
    """
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"].get("scripts", {})
    assert "hexwalk" in scripts, "no hexwalk entry in [project.scripts]"
    module, attr = scripts["hexwalk"].split(":")
    package_root = str(Path(hexwalk.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    proc = subprocess.run(
        [sys.executable, "-c", wrapper,
         "generate", "--graph", "hexagonal:n=1", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "nodes.csv").exists()
    assert "6 nodes" in proc.stdout
