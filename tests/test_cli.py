"""End-to-end tests for the command-line interface."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hexwalk
from hexwalk.cli import main
from hexwalk.imaging import MaskEntry, MaskSpec, format_image, mask_csv, render_synthetic


def read(path):
    return path.read_text()


def data_rows(path):
    """CSV rows below the comment header and the column header."""
    lines = read(path).strip().split("\n")
    assert lines[0].startswith("# hexwalk ")
    return lines[2:]


def run_cli_process(*argv):
    """Run ``hexwalk.cli.main`` in a child interpreter on the package this session imported."""
    package_root = str(Path(hexwalk.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    wrapper = "import sys; from hexwalk.cli import main; sys.exit(main())"
    return subprocess.run(
        [sys.executable, "-c", wrapper, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


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


def test_generate_header_records_only_what_generate_uses(tmp_path):
    code = main(["generate", "--graph", "hexagonal:n=1", "--seed", "3", "--out", str(tmp_path)])
    assert code == 0
    header = read(tmp_path / "nodes.csv").split("\n")[0]
    assert header == f"# hexwalk {hexwalk.__version__} | generate | graph=hexagonal:n=1 seed=3"


def test_generate_seed_flag_reaches_the_gluing(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["generate", "--graph", "glued-tree:d=3,glue=random", "--seed", "5", "--out", str(a)]) == 0
    assert main(["generate", "--graph", "glued-tree:d=3,glue=random", "--seed", "6", "--out", str(b)]) == 0
    assert read(a / "edges.csv") != read(b / "edges.csv")


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
    assert "seed=0" in header


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


def test_scan_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["scan", "--graph", "hexagonal:n=1", "--dz", "0.02"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert read(a / "curve.csv") == read(b / "curve.csv")


def test_scan_dat_mirror_is_whitespace_separated(tmp_path):
    assert main(["scan", "--graph", "hexagonal:n=1", "--dat", "--out", str(tmp_path)]) == 0
    dat = data_rows(tmp_path / "curve.dat")
    assert "," not in dat[0]
    assert len(dat[0].split()) == 2


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
    code = main(["sweep", "--depths", "2..4", "--dat", "--out", str(tmp_path)])
    assert code == 0
    assert len(data_rows(tmp_path / "sweep.csv")) == 3
    fits = data_rows(tmp_path / "fit.csv")
    assert fits[0].startswith("linear,")
    assert fits[1].startswith("power-law,")
    assert (tmp_path / "sweep.dat").exists()
    assert (tmp_path / "fit.dat").exists()


def test_variance_quantum_exponent(tmp_path, capsys):
    code = main(["variance", "--sites", "41", "--out", str(tmp_path)])
    assert code == 0
    exponent = stdout_value(capsys, "exponent")
    assert abs(exponent - 2.0) < 0.05
    fits = data_rows(tmp_path / "fit.csv")
    assert len(fits) == 1
    assert fits[0].startswith("power-law,")


def test_variance_classical_exponent(tmp_path, capsys):
    code = main(["variance", "--sites", "41", "--engine", "classical", "--out", str(tmp_path)])
    assert code == 0
    assert abs(stdout_value(capsys, "exponent") - 1.0) < 0.05


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


def test_analyze_header_records_only_what_analyze_uses(rendered_fixture, tmp_path):
    image_path, mask_path, _ = rendered_fixture
    assert main(["analyze", str(image_path), str(mask_path), "--out", str(tmp_path)]) == 0
    header = read(tmp_path / "probabilities.csv").split("\n")[0]
    assert header == (
        f"# hexwalk {hexwalk.__version__} | analyze | "
        "seed=0 image=image.txt mask=mask.csv exit_node=3"
    )


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
    assert "cannot read input file" in err
    assert str(missing) in err
    assert "line 0" not in err


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
