"""Command-line front end.

Subcommands
-----------
generate   build a graph and write its node and edge tables
scan       scan the exit probability over evolution length, locate the optimum
sweep      scan hexagonal depths, collect settling times, fit both scalings
variance   fit the spreading exponent of a centred walk on a path
analyze    turn a pixel image plus node mask into probabilities and efficiency

Every output file starts with one comment line recording the tool version
and the full run configuration, and is written atomically (temp file plus
rename), so identical configurations rerun to byte-identical files.

Exit codes: 0 success, 2 usage error, 3 input parse error, 4 numerical
failure.  A scan whose optimum sits on the window edge prints one
``hexwalk: warning: ...`` line on stderr and still exits 0.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

import hexwalk
from hexwalk.graphs import edge_csv, node_csv, parse_graph_selector
from hexwalk.hitting import (
    BoundaryMaximumWarning,
    ConvergenceError,
    FitError,
    WindowError,
    calibrated_coupling,
    classical_hitting_curve,
    default_scan_window,
    depth_sweep,
    fit_linear,
    fit_power,
    quantum_hitting_curve,
    variance_slope_1d,
)
from hexwalk.imaging import (
    DegenerateImageError,
    ImageParseError,
    MaskError,
    extract_probabilities,
    parse_image,
    parse_mask,
)
from hexwalk.quantum import CouplingModel, Hamiltonian, entry_state, propagate
from hexwalk.stochastic import ClassicalGenerator, entry_distribution

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_NUMERICAL = 4


def _header(command: str, **pairs) -> str:
    """Output header: the version, the subcommand and each setting that is not None, in order."""
    body = " ".join(
        f"{key}={value if isinstance(value, str) else _fmt(value)}"
        for key, value in pairs.items()
        if value is not None
    )
    return f"# hexwalk {hexwalk.__version__} | {command} | {body}"


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".12g")


def _write_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_table(path: Path, header: str, columns: list[str], rows, sep: str = ",") -> None:
    lines = [header, sep.join(columns)]
    for row in rows:
        lines.append(sep.join(_fmt(cell) if not isinstance(cell, str) else cell for cell in row))
    _write_atomic(path, "\n".join(lines) + "\n")


def _add_common(parser: argparse.ArgumentParser, walk: bool = True) -> None:
    parser.add_argument("--out", default=".", help="output directory (default: current)")
    parser.add_argument("--seed", type=int, default=0, help="seed for randomised gluings")
    if walk:
        parser.add_argument("--coupling", type=float, default=1.0, help="edge coupling C in 1/mm")
        parser.add_argument(
            "--rate", type=float, default=None, help="classical hop rate (default: the coupling)"
        )
        parser.add_argument(
            "--calibrate",
            action="store_true",
            help="rescale the coupling so the depth-2 hexagonal optimum sits at 25.2 mm",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hexwalk",
        description="quantum and classical walk experiments on hexagonal and reference graphs",
    )
    parser.add_argument("--version", action="version", version=f"hexwalk {hexwalk.__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write node and edge tables of a graph")
    p.add_argument("--graph", required=True, help="graph selector, e.g. hexagonal:n=4")
    _add_common(p, walk=False)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("scan", help="scan exit probability over evolution length")
    p.add_argument("--graph", required=True, help="graph selector, e.g. hexagonal:n=2")
    p.add_argument("--engine", choices=("quantum", "classical"), default="quantum")
    p.add_argument("--z-max", type=float, default=None, help="scan window (default 4*depth/C)")
    p.add_argument("--dz", type=float, default=None, help="scan step (default 0.01/C)")
    p.add_argument(
        "--dump-state",
        action="store_true",
        help="also write the walker state at the located optimum",
    )
    p.add_argument("--dat", action="store_true", help="also write a gnuplot-style .dat mirror")
    _add_common(p)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("sweep", help="sweep hexagonal depths and fit both scalings")
    p.add_argument(
        "--depths",
        default="2..8",
        help="depth range 'lo..hi' (or 'lo:hi') or comma list (default 2..8)",
    )
    p.add_argument("--dat", action="store_true", help="also write gnuplot-style .dat mirrors")
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("variance", help="fit the spreading exponent on a path graph")
    p.add_argument("--sites", type=int, default=101, help="odd number of path sites")
    p.add_argument("--engine", choices=("quantum", "classical"), default="quantum")
    p.add_argument("--z-max", type=float, default=None, help="top of the evolution grid")
    _add_common(p)
    p.set_defaults(func=cmd_variance)

    p = sub.add_parser("analyze", help="extract node probabilities from a pixel image")
    p.add_argument("image", help="whitespace-separated pixel matrix file")
    p.add_argument("mask", help="mask CSV with header node_id,cx,cy,radius")
    p.add_argument(
        "--exit-node",
        type=int,
        default=None,
        help="node id whose share is the efficiency (default: highest id in the mask)",
    )
    _add_common(p, walk=False)
    p.set_defaults(func=cmd_analyze)

    return parser


def _resolve_rates(args) -> tuple[float, float]:
    coupling = calibrated_coupling() if args.calibrate else args.coupling
    rate = args.rate if args.rate is not None else coupling
    return coupling, rate


def cmd_generate(args) -> int:
    graph = parse_graph_selector(args.graph, args.seed)
    header = _header("generate", graph=args.graph, seed=args.seed)
    out = Path(args.out)
    _write_atomic(out / "nodes.csv", header + "\n" + node_csv(graph))
    _write_atomic(out / "edges.csv", header + "\n" + edge_csv(graph))
    print(
        f"{graph.family}: {graph.n_nodes} nodes, {graph.n_edges} edges, "
        f"entry={graph.entry}, exit={graph.exit}"
    )
    return EXIT_OK


def cmd_scan(args) -> int:
    graph = parse_graph_selector(args.graph, args.seed)
    coupling, rate = _resolve_rates(args)
    auto_z_max, auto_dz = default_scan_window(graph, coupling if args.engine == "quantum" else rate)
    z_max = args.z_max if args.z_max is not None else auto_z_max
    dz = args.dz if args.dz is not None else auto_dz
    if args.engine == "quantum":
        curve = quantum_hitting_curve(graph, CouplingModel(coupling=coupling), z_max, dz)
    else:
        curve = classical_hitting_curve(graph, rate, z_max, dz)
    out = Path(args.out)
    header = _header(
        "scan",
        graph=args.graph,
        coupling=coupling,
        rate=rate,
        omega=0.0 if args.engine == "quantum" else 1.0,
        z_max=z_max,
        dz=dz,
        seed=args.seed,
        calibrate=args.calibrate,
        engine=args.engine,
    )
    rows = zip(curve.z, curve.p_exit)
    _write_table(out / "curve.csv", header, ["z", "p_exit"], rows)
    if args.dat:
        _write_table(out / "curve.dat", header, ["z", "p_exit"], zip(curve.z, curve.p_exit), sep=" ")
    if args.dump_state:
        if args.engine == "quantum":
            h = Hamiltonian(graph, CouplingModel(coupling=coupling))
            psi = propagate(h, entry_state(graph), curve.z_opt)
            state_rows = [
                (i, psi[i].real, psi[i].imag, abs(psi[i]) ** 2) for i in range(graph.n_nodes)
            ]
            _write_table(out / "state.csv", header, ["node_id", "re", "im", "prob"], state_rows)
        else:
            p = propagate(ClassicalGenerator(graph, rate), entry_distribution(graph), curve.z_opt)
            state_rows = [(i, p[i]) for i in range(graph.n_nodes)]
            _write_table(out / "state.csv", header, ["node_id", "probability"], state_rows)
    print(f"z_opt={_fmt(curve.z_opt)} p_opt={_fmt(curve.p_opt)}")
    return EXIT_OK


def _parse_depths(text: str) -> list[int]:
    text = text.strip()

    def depth(chunk: str) -> int:
        try:
            return int(chunk)
        except ValueError:
            raise ValueError(f"--depths {text!r}: {chunk.strip()!r} is not an integer") from None

    for sep in ("..", ":"):
        if sep in text:
            lo_s, _, hi_s = text.partition(sep)
            lo, hi = depth(lo_s), depth(hi_s)
            if hi < lo:
                raise ValueError(f"empty depth range {text!r}")
            return list(range(lo, hi + 1))
    return [depth(chunk) for chunk in text.split(",") if chunk.strip()]


def cmd_sweep(args) -> int:
    depths = _parse_depths(args.depths)
    coupling, rate = _resolve_rates(args)
    rows = depth_sweep(depths, CouplingModel(coupling=coupling), rate)
    out = Path(args.out)
    header = _header(
        "sweep",
        coupling=coupling,
        rate=rate,
        seed=args.seed,
        calibrate=args.calibrate,
        depths=",".join(str(r.n) for r in rows),
    )
    columns = ["n", "z_opt", "p_opt", "t_converge", "t_low", "t_high", "P_a"]
    table = [
        (r.n, r.z_opt, r.p_opt, r.t_converge, r.t_low, r.t_high, r.p_uniform) for r in rows
    ]
    _write_table(out / "sweep.csv", header, columns, table)
    fits = []
    if len(rows) >= 3:
        linear = fit_linear([(r.n, r.z_opt) for r in rows])
        power = fit_power([(r.n, r.t_converge) for r in rows])
        fits = [
            ("linear", linear.slope, linear.intercept, linear.r_squared),
            ("power-law", power.slope, power.intercept, power.r_squared),
        ]
        _write_table(
            out / "fit.csv", header, ["model", "slope", "intercept", "r_squared"], fits
        )
        print(
            f"linear z_opt(n): slope={_fmt(linear.slope)} r2={_fmt(linear.r_squared)}; "
            f"power t_converge(n): exponent={_fmt(power.slope)} r2={_fmt(power.r_squared)}"
        )
    else:
        print("sweep of fewer than 3 depths: tables written, fits skipped")
    if args.dat:
        _write_table(out / "sweep.dat", header, columns, table, sep=" ")
        if fits:
            _write_table(
                out / "fit.dat", header, ["model", "slope", "intercept", "r_squared"], fits, sep=" "
            )
    return EXIT_OK


def cmd_variance(args) -> int:
    coupling, rate = _resolve_rates(args)
    z_grid = None
    if args.z_max is not None:
        if args.z_max <= 0:
            raise ValueError(f"--z-max must be > 0, got {args.z_max}")
        z_grid = np.linspace(args.z_max / 48.0, args.z_max, 48)
    fit = variance_slope_1d(args.sites, args.engine, z_grid, coupling=coupling, rate=rate)
    header = _header(
        "variance",
        coupling=coupling,
        rate=rate,
        z_max=args.z_max,
        seed=args.seed,
        calibrate=args.calibrate,
        engine=args.engine,
        sites=args.sites,
    )
    _write_table(
        Path(args.out) / "fit.csv",
        header,
        ["model", "slope", "intercept", "r_squared"],
        [(fit.model, fit.slope, fit.intercept, fit.r_squared)],
    )
    print(f"engine={args.engine} exponent={_fmt(fit.slope)} r2={_fmt(fit.r_squared)}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    try:
        image_text = Path(args.image).read_text()
        mask_text = Path(args.mask).read_text()
    except OSError as exc:
        print(f"hexwalk: input error: cannot read input file: {exc}", file=sys.stderr)
        return EXIT_INPUT
    image = parse_image(image_text)
    mask = parse_mask(mask_text)
    result = extract_probabilities(image, mask, args.exit_node)
    header = _header(
        "analyze",
        seed=args.seed,
        image=os.path.basename(args.image),
        mask=os.path.basename(args.mask),
        exit_node=int(result.node_ids[-1]) if args.exit_node is None else args.exit_node,
    )
    rows = list(zip(result.node_ids, result.probabilities))
    _write_table(Path(args.out) / "probabilities.csv", header, ["node_id", "probability"], rows)
    print(f"efficiency={_fmt(result.efficiency)}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    python_format = warnings.formatwarning

    def format_warning(message, category, *location):
        # the warning is about the run, not about the source line that raised it
        if issubclass(category, BoundaryMaximumWarning):
            return f"hexwalk: warning: {message}\n"
        return python_format(message, category, *location)

    warnings.formatwarning = format_warning
    try:
        return args.func(args)
    except (ImageParseError, MaskError, DegenerateImageError) as exc:
        print(f"hexwalk: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ConvergenceError, FitError, WindowError) as exc:
        print(f"hexwalk: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"hexwalk: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        warnings.formatwarning = python_format


if __name__ == "__main__":
    sys.exit(main())
