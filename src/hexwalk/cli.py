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
failure.  A scan whose optimum sits on the window edge, or beyond it,
prints one ``hexwalk: warning: ...`` line on stderr and still exits 0.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import warnings
from pathlib import Path

import numpy as np

import hexwalk
from hexwalk.graphs import _positive, parse_graph_selector, path_graph
from hexwalk.hitting import (
    BoundaryMaximumWarning,
    ConvergenceError,
    FitError,
    WindowError,
    calibrated_coupling,
    classical_hitting_curve,
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
from hexwalk.quantum import Hamiltonian, entry_state, propagate
from hexwalk.stochastic import ClassicalGenerator

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
    if isinstance(value, (int, np.integer, np.bool_)):
        return str(int(value))
    return format(float(value), ".12g")


#: Rows formatted and written per step, so a table never sits in memory as text.
_BLOCK_ROWS = 4096

#: Cell format by numpy dtype kind: bools and ints as integers, floats to 12 digits.  Any
#: other column is text, written as is.  A column holding any float is a float column.
_CELL_FORMATS = {"b": "%d", "i": "%d", "u": "%d", "f": "%.12g"}


def _write_table(path: Path, header: str, columns: dict, dat: bool = False) -> None:
    """Write ``header``, the names of ``columns`` (name -> values), then one line per row.

    With ``dat`` the same table also goes to ``path`` with suffix ``.dat``, a
    space for every comma below the header line.  Rows stream a block at a
    time into temp files, renamed into place once complete.  Each temp file
    is created by ``open(temp, "x")`` under a random name beside its target,
    so the operating system gives it the mode of a plain ``open`` under the
    umask.  Each block is one ``%`` operation: the row format repeated once
    per row, applied to the block's cells in row order.  Text cells are
    formatted by ``format(cell)`` first, as ``str.format`` would.
    """
    values = [np.asarray(column) for column in columns.values()]
    row = ",".join(_CELL_FORMATS.get(v.dtype.kind, "%s") for v in values) + "\n"
    targets = [(path, ",")] + [(path.with_suffix(".dat"), " ")] * dat
    path.parent.mkdir(parents=True, exist_ok=True)
    temps = []
    try:
        with contextlib.ExitStack() as stack:
            files = []
            for target, sep in targets:
                temp = target.with_name(f"{target.name}.{os.urandom(8).hex()}.tmp")
                fh = stack.enter_context(open(temp, "x"))
                temps.append(temp)  # only once made here: a name in use is not ours to remove
                fh.write(f"{header}\n{sep.join(columns)}\n")
                files.append((fh, sep))
            for start in range(0, len(values[0]), _BLOCK_ROWS):
                block = [v[start : start + _BLOCK_ROWS].tolist() for v in values]
                cells = [None] * (len(values) * len(block[0]))
                for j, (v, column) in enumerate(zip(values, block)):
                    text_cells = v.dtype.kind not in _CELL_FORMATS
                    cells[j :: len(values)] = map(format, column) if text_cells else column
                text = row * len(block[0]) % tuple(cells)
                for fh, sep in files:
                    fh.write(text.replace(",", sep))
        for (target, _), temp in zip(targets, temps):
            os.replace(temp, target)
    except BaseException:
        for temp in temps:
            temp.unlink(missing_ok=True)
        raise


def _add_graph(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--graph", required=True, help="graph selector, e.g. hexagonal:n=2")
    parser.add_argument("--seed", type=int, default=0, help="seed for randomised gluings")


def _add_common(parser: argparse.ArgumentParser, walk: bool = True) -> None:
    parser.add_argument("--out", default=".", help="output directory (default: current)")
    if walk:
        coupling = parser.add_mutually_exclusive_group()
        coupling.add_argument("--coupling", type=float, default=1.0, help="edge coupling C in 1/mm")
        coupling.add_argument(
            "--calibrate",
            action="store_true",
            help="rescale the coupling so the depth-2 hexagonal optimum sits at 25.2 mm",
        )
        parser.add_argument(
            "--rate", type=float, default=None, help="classical hop rate (default: the coupling)"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hexwalk",
        description="quantum and classical walk experiments on hexagonal and reference graphs",
    )
    parser.add_argument("--version", action="version", version=f"hexwalk {hexwalk.__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write node and edge tables of a graph")
    _add_graph(p)
    _add_common(p, walk=False)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("scan", help="scan exit probability over evolution length")
    _add_graph(p)
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
    # checked here, since a walk that does not use one of them never would
    return _positive(coupling, "coupling"), _positive(rate, "hop rate")


def _walk(engine: str, graph, coupling: float, rate: float) -> tuple:
    """The walk ``--engine`` names on ``graph``, and the header pair of its one parameter."""
    if engine == "quantum":
        return Hamiltonian(graph, coupling), {"coupling": coupling}
    return ClassicalGenerator(graph, rate), {"rate": rate}


def cmd_generate(args) -> int:
    graph = parse_graph_selector(args.graph, args.seed)
    header = _header("generate", graph=args.graph, seed=graph.params.get("seed"))
    out = Path(args.out)
    ids = np.arange(graph.n_nodes)
    x, y = graph.coord_array.T
    flags = {"is_entry": ids == graph.entry, "is_exit": ids == graph.exit}
    _write_table(out / "nodes.csv", header, {"id": ids, "X": x, "Y": y, **flags})
    a, b = graph.edges.T
    _write_table(out / "edges.csv", header, {"node_a": a, "node_b": b})
    print(
        f"{graph.family}: {graph.n_nodes} nodes, {graph.n_edges} edges, "
        f"entry={graph.entry}, exit={graph.exit}"
    )
    return EXIT_OK


def cmd_scan(args) -> int:
    graph = parse_graph_selector(args.graph, args.seed)
    op, pairs = _walk(args.engine, graph, *_resolve_rates(args))
    scan = quantum_hitting_curve if args.engine == "quantum" else classical_hitting_curve
    curve = scan(op, args.z_max, args.dz)
    state = None
    if args.dump_state:
        ids = np.arange(graph.n_nodes)
        x = propagate(op, entry_state(graph), curve.z_opt)
        if args.engine == "quantum":
            state = {"node_id": ids, "re": x.real, "im": x.imag, "prob": np.abs(x) ** 2}
        else:
            state = {"node_id": ids, "probability": x}
    del op  # the tables need no spectrum: free it before they are written
    out = Path(args.out)
    header = _header(
        "scan",
        graph=args.graph,
        **pairs,
        omega=0.0 if args.engine == "quantum" else 1.0,
        z_max=curve.z_max,
        dz=curve.dz,
        seed=graph.params.get("seed"),
        calibrate=args.calibrate,
        engine=args.engine,
    )
    _write_table(out / "curve.csv", header, {"z": curve.z, "p_exit": curve.p_exit}, args.dat)
    if state is not None:
        _write_table(out / "state.csv", header, state)
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


def _fit_columns(*fits) -> dict:
    """The fit table, one row per fit."""
    names = ("model", "slope", "intercept", "r_squared")
    return {name: [getattr(fit, name) for fit in fits] for name in names}


def cmd_sweep(args) -> int:
    depths = _parse_depths(args.depths)
    coupling, rate = _resolve_rates(args)
    rows = depth_sweep(depths, coupling, rate)
    out = Path(args.out)
    header = _header(
        "sweep",
        coupling=coupling,
        rate=rate,
        calibrate=args.calibrate,
        depths=",".join(str(r.n) for r in rows),
    )
    names = ("n", "z_opt", "p_opt", "t_converge", "t_low", "t_high", "P_a")
    cells = [(r.n, r.z_opt, r.p_opt, r.t_converge, r.t_low, r.t_high, r.p_uniform) for r in rows]
    table = dict(zip(names, zip(*cells)))
    _write_table(out / "sweep.csv", header, table, args.dat)
    if len(rows) >= 3:
        linear = fit_linear([(r.n, r.z_opt) for r in rows])
        power = fit_power([(r.n, r.t_converge) for r in rows])
        _write_table(out / "fit.csv", header, _fit_columns(linear, power), args.dat)
        print(
            f"linear z_opt(n): slope={_fmt(linear.slope)} r2={_fmt(linear.r_squared)}; "
            f"power t_converge(n): exponent={_fmt(power.slope)} r2={_fmt(power.r_squared)}"
        )
    else:
        print("sweep of fewer than 3 depths: tables written, fits skipped")
    return EXIT_OK


def cmd_variance(args) -> int:
    coupling, rate = _resolve_rates(args)
    walk, pairs = _walk(args.engine, path_graph(args.sites), coupling, rate)
    fit = variance_slope_1d(walk, args.z_max)
    header = _header(
        "variance",
        **pairs,
        z_max=args.z_max,
        calibrate=args.calibrate,
        engine=args.engine,
        sites=args.sites,
    )
    _write_table(Path(args.out) / "fit.csv", header, _fit_columns(fit))
    print(f"engine={args.engine} exponent={_fmt(fit.slope)} r2={_fmt(fit.r_squared)}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    texts = []
    for name in (args.image, args.mask):
        try:
            texts.append(Path(name).read_text())
        except (OSError, UnicodeDecodeError) as exc:
            reason = getattr(exc, "strerror", None) or exc
            print(f"hexwalk: input error: cannot read input file {name}: {reason}", file=sys.stderr)
            return EXIT_INPUT
    image = parse_image(texts.pop(0))  # the frame's text is let go once it is parsed
    mask = parse_mask(texts.pop())
    result = extract_probabilities(image, mask, args.exit_node)
    header = _header(
        "analyze",
        image=os.path.basename(args.image),
        mask=os.path.basename(args.mask),
        exit_node=int(result.node_ids[-1]) if args.exit_node is None else args.exit_node,
    )
    table = {"node_id": result.node_ids, "probability": result.probabilities}
    _write_table(Path(args.out) / "probabilities.csv", header, table)
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
