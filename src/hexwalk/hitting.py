"""Optimal hitting lengths, classical convergence times, and scaling fits.

The quantum side scans the exit-node probability over a grid of evolution
lengths and refines the global grid maximum with a three-point parabola.
The classical side finds the earliest time at which the walk's distribution
has settled onto the uniform stationary distribution to within a relative
tolerance, bracketing that time with a looser and a tighter tolerance.  The
max-norm deviation from uniform never increases, so that time is bisected
directly, below a horizon set by the spectral gap.
Depth sweeps collect both quantities across a family of hexagonal patches
so their growth laws can be fitted: the optimal length grows linearly with
depth while the classical convergence time grows roughly quadratically.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from hexwalk.graphs import Graph, depth_scale, hexagonal_graph, path_graph
from hexwalk.quantum import CouplingModel, Hamiltonian, entry_state, propagate
from hexwalk.stochastic import ClassicalGenerator, entry_distribution

#: Default scan window, in units of depth / coupling.  Wide enough to bracket
#: the dominant early hitting peak (near 2.5 * depth / C on hexagonal patches)
#: yet short of the late-time revivals that overtake it beyond ~6 * depth / C;
#: a window that ran into the revivals would report optima with no scaling law.
SCAN_WINDOW_FACTOR = 4.0

#: Default scan step, in units of 1 / coupling.
SCAN_STEP_FACTOR = 0.01

#: Physical length (mm) at which the depth-2 patch's optimum is pinned when
#: calibrating the dimensionless coupling onto a real device.
DEFAULT_CALIBRATION_LENGTH_MM = 25.2


class BoundaryMaximumWarning(UserWarning):
    """The best exit probability sat on the edge of the scan window."""


class ConvergenceError(RuntimeError):
    """The classical walk cannot settle (disconnected graph, or numerics miss the horizon)."""


class FitError(RuntimeError):
    """The supplied points cannot support the requested fit."""


class WindowError(RuntimeError):
    """No usable samples remain after windowing a variance curve."""


@dataclass
class HittingCurve:
    """Exit-probability samples over an evolution grid plus the located optimum.

    ``kind`` records which engine produced the curve; classical curves use
    the same ``z`` axis for their evolution time.
    """

    z: np.ndarray
    p_exit: np.ndarray
    z_opt: float
    p_opt: float
    kind: str


@dataclass
class ConvergenceResult:
    """Earliest settling time onto the uniform distribution, with brackets.

    ``t_low`` and ``t_high`` repeat the search at relative tolerances 1e-3
    and 1e-5; for the default tolerance they bracket ``t_converge``.
    """

    t_converge: float
    epsilon: float
    p_uniform: float
    t_low: float
    t_high: float


@dataclass
class FitResult:
    """Least-squares line through (x, y) or (ln x, ln y) points.

    For ``model="linear"`` the prediction is slope * x + intercept; for
    ``model="power-law"`` the fit runs in log-log space, so ``slope`` is the
    scaling exponent, ``intercept`` is the log-space offset, and the
    prediction is exp(intercept) * x ** slope.  ``residuals`` and
    ``r_squared`` live in the space the fit ran in.
    """

    model: str
    slope: float
    intercept: float
    r_squared: float
    residuals: np.ndarray = field(repr=False)

    def predict(self, x):
        x = np.asarray(x, dtype=float)
        if self.model == "linear":
            return self.slope * x + self.intercept
        return np.exp(self.intercept) * x**self.slope


def default_scan_window(graph: Graph, coupling: float = 1.0) -> tuple[float, float]:
    """Default (z_max, dz) for a scan: 4 * depth / C in steps of 0.01 / C."""
    if not np.isfinite(coupling) or coupling <= 0.0:
        raise ValueError(f"coupling must be finite and > 0, got {coupling}")
    return (
        SCAN_WINDOW_FACTOR * depth_scale(graph) / coupling,
        SCAN_STEP_FACTOR / coupling,
    )


def _scan_grid(graph: Graph, scale: float, z_max: float | None, dz: float | None) -> np.ndarray:
    """Grid 0, dz, 2 dz, ... up to z_max; unset ends take the default window for ``scale``."""
    auto_z_max, auto_dz = default_scan_window(graph, scale)
    z_max = auto_z_max if z_max is None else z_max
    dz = auto_dz if dz is None else dz
    if not np.isfinite(z_max) or z_max <= 0.0:
        raise ValueError(f"scan window must be finite and > 0, got {z_max}")
    if not np.isfinite(dz) or dz <= 0.0:
        raise ValueError(f"scan step must be finite and > 0, got {dz}")
    count = int(round(z_max / dz))
    if count < 2:
        raise ValueError("scan window must span at least two steps")
    return dz * np.arange(count + 1)


def _refine_parabolic(z: np.ndarray, p: np.ndarray, i: int) -> float:
    """Vertex of the parabola through the three equally spaced points around i."""
    denom = p[i - 1] - 2.0 * p[i] + p[i + 1]
    if denom >= 0.0:
        return float(z[i])
    shift = 0.5 * (p[i - 1] - p[i + 1]) / denom
    shift = min(0.5, max(-0.5, shift))
    return float(z[i] + shift * (z[i] - z[i - 1]))


def quantum_hitting_curve(
    graph: Graph,
    model: CouplingModel | None = None,
    z_max: float | None = None,
    dz: float | None = None,
) -> HittingCurve:
    """Scan the coherent walk's exit probability and locate its optimum.

    The walk launches from the entry node.  The default window is
    4 * depth / coupling with a step of 0.01 / coupling, so rescaling the
    coupling rescales the grid with it and the located optimum obeys
    z_opt -> z_opt / a under coupling -> a * coupling.

    The global grid maximum is refined by a parabola through its bracketing
    neighbours and the exit probability is re-evaluated at the refined
    length.  A maximum on the window edge cannot be refined; it is returned
    as-is under a :class:`BoundaryMaximumWarning`.
    """
    model = model if model is not None else CouplingModel()
    zs = _scan_grid(graph, model.coupling, z_max, dz)
    h = Hamiltonian(graph, model)
    psi0 = entry_state(graph)

    def exit_probability(lengths):
        return np.abs(propagate(h, psi0, lengths, graph.exit)) ** 2

    p = exit_probability(zs)
    i = int(np.argmax(p))
    if i == 0 or i == len(zs) - 1:
        warnings.warn(
            f"exit probability is maximal at the scan boundary (z = {zs[i]:g}); "
            "enlarge the window to bracket the true optimum",
            BoundaryMaximumWarning,
            stacklevel=2,
        )
        return HittingCurve(zs, p, float(zs[i]), float(p[i]), "quantum")
    z_opt = _refine_parabolic(zs, p, i)
    p_opt = float(exit_probability(np.array([z_opt]))[0])
    if p_opt < p[i]:
        z_opt, p_opt = float(zs[i]), float(p[i])
    return HittingCurve(zs, p, z_opt, p_opt, "quantum")


def classical_hitting_curve(
    graph: Graph,
    rate: float = 1.0,
    t_max: float | None = None,
    dt: float | None = None,
) -> HittingCurve:
    """Exit probability of the classical walk over a time grid.

    The curve rises monotonically towards the uniform share 1/N, so the
    reported optimum is simply the best sampled point (the grid end once
    the walk has mixed) and no boundary warning is raised.  Spectral
    rounding leaves residues of order 1e-16 around the true value, so
    samples below 0 (at early times, where p_exit is ~0) are clipped to 0.
    """
    gen = ClassicalGenerator(graph, rate)
    ts = _scan_grid(graph, rate, t_max, dt)
    p = np.maximum(propagate(gen, entry_distribution(graph), ts, graph.exit), 0.0)
    i = int(np.argmax(p))
    return HittingCurve(ts, p, float(ts[i]), float(p[i]), "classical")


def _deviation_at(gen: ClassicalGenerator, p0: np.ndarray, t: float) -> float:
    return float(np.max(np.abs(propagate(gen, p0, t) - 1.0 / gen.dim)))


def _settling_time(
    gen: ClassicalGenerator, p0: np.ndarray, threshold: float, horizon: float
) -> float:
    """Earliest time the deviation max_i |p_i(t) - 1/N| is at most threshold.

    The deviation never increases (see :func:`classical_convergence_time`),
    so the crossing is bisected on [0, horizon] until the midpoint stops
    moving.  Failing at the analytic horizon means the numerics broke.
    """
    lo, hi = 0.0, horizon
    if _deviation_at(gen, p0, lo) <= threshold:
        return lo
    if _deviation_at(gen, p0, hi) > threshold:
        raise ConvergenceError(
            f"no settling below {threshold:.3e} found within the spectral-gap horizon "
            f"(t <= {horizon:g})"
        )
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if _deviation_at(gen, p0, mid) <= threshold:
            hi = mid
        else:
            lo = mid
    return hi


def classical_convergence_time(
    graph: Graph,
    rate: float = 1.0,
    epsilon: float = 1.0e-4,
) -> ConvergenceResult:
    """Time for the classical walk to settle onto the uniform distribution.

    Convergence means every site's probability is within epsilon * (1/N) of
    the uniform value 1/N.  Once reached it holds for good: K = rate * (A - D)
    is symmetric with zero row sums, so exp(K s) is doubly stochastic, each
    entry of p(t + s) - 1/N is a convex combination of the entries of
    p(t) - 1/N, and the max-norm deviation never increases.  The first
    crossing is therefore the last, and it lies before the horizon
    (ln(1/threshold) + ln N) / gap, where the spectral-gap decay
    e^(-gap t) of the Euclidean deviation already bounds the max-norm one.
    The same search at relative tolerances 1e-3 and 1e-5 gives the bracket
    (t_low, t_high).

    Raises :class:`ConvergenceError` for a disconnected graph, which has no
    uniform limit from a localised start.
    """
    if not np.isfinite(epsilon) or epsilon <= 0.0:
        raise ValueError(f"relative tolerance must be finite and > 0, got {epsilon}")
    if not graph.connected:
        raise ConvergenceError("graph is disconnected; the walk cannot reach uniformity")
    gen = ClassicalGenerator(graph, rate)
    w, _ = gen.spectrum
    nonzero = w[w < -1.0e-12 * max(1.0, float(np.max(np.abs(w))))]
    if nonzero.size == 0:
        raise ConvergenceError("generator has no relaxing modes")
    gap = -float(np.max(nonzero))
    p_uniform = 1.0 / graph.n_nodes
    p0 = entry_distribution(graph)
    tolerances = sorted({1.0e-3, float(epsilon), 1.0e-5}, reverse=True)
    times = {}
    for tol in tolerances:
        horizon = (math.log(1.0 / (tol * p_uniform)) + math.log(graph.n_nodes)) / gap
        times[tol] = _settling_time(gen, p0, tol * p_uniform, horizon)
    return ConvergenceResult(
        t_converge=times[float(epsilon)],
        epsilon=float(epsilon),
        p_uniform=p_uniform,
        t_low=times[1.0e-3],
        t_high=times[1.0e-5],
    )


@dataclass
class SweepRow:
    """One hexagonal depth's optimum and classical settling summary."""

    n: int
    z_opt: float
    p_opt: float
    t_converge: float
    t_low: float
    t_high: float
    p_uniform: float


def depth_sweep(
    depths,
    model: CouplingModel | None = None,
    rate: float | None = None,
) -> list[SweepRow]:
    """Optimal hitting and classical settling across hexagonal depths.

    The hop rate defaults to the coupling strength so both walks move on
    the same timescale.  Depths are deduplicated and sorted ascending.
    """
    model = model if model is not None else CouplingModel()
    if rate is None:
        rate = model.coupling
    depths = sorted(set(int(n) for n in depths))
    if not depths:
        raise ValueError("depth sweep needs at least one depth")
    rows = []
    for n in depths:
        g = hexagonal_graph(n)
        curve = quantum_hitting_curve(g, model)
        conv = classical_convergence_time(g, rate)
        rows.append(
            SweepRow(
                n=n,
                z_opt=curve.z_opt,
                p_opt=curve.p_opt,
                t_converge=conv.t_converge,
                t_low=conv.t_low,
                t_high=conv.t_high,
                p_uniform=conv.p_uniform,
            )
        )
    return rows


def _as_points(points) -> tuple[np.ndarray, np.ndarray]:
    arr = np.asarray(list(points), dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise FitError("points must be (x, y) pairs")
    if arr.shape[0] < 3:
        raise FitError(f"need at least 3 points to fit, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)):
        raise FitError("points must be finite")
    return arr[:, 0], arr[:, 1]


def _line_fit(x: np.ndarray, y: np.ndarray, model: str) -> FitResult:
    if np.ptp(x) == 0.0:
        raise FitError("all x values are identical; the slope is undetermined")
    slope, intercept = np.polyfit(x, y, 1)
    residuals = y - (slope * x + intercept)
    ss_res = float(np.sum(residuals**2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    if ss_tot == 0.0:
        r_squared = 1.0 if ss_res <= 1.0e-30 else 0.0
    else:
        r_squared = 1.0 - ss_res / ss_tot
    return FitResult(model, float(slope), float(intercept), r_squared, residuals)


def fit_linear(points) -> FitResult:
    """Least-squares line through (x, y) pairs."""
    x, y = _as_points(points)
    return _line_fit(x, y, "linear")


def fit_power(points) -> FitResult:
    """Power law y = a * x**b through (x, y) pairs, fitted in log-log space."""
    x, y = _as_points(points)
    if np.any(x <= 0.0) or np.any(y <= 0.0):
        raise FitError("power-law fits need strictly positive x and y")
    return _line_fit(np.log(x), np.log(y), "power-law")


#: Walkers whose end-site probability exceeds this are touching the boundary.
BOUNDARY_LEAK_TOL = 1.0e-6


def variance_slope_1d(
    m: int,
    engine: str,
    z_grid: np.ndarray | None = None,
    coupling: float = 1.0,
    rate: float = 1.0,
) -> FitResult:
    """Growth exponent of the positional variance of a centred 1D walk.

    Runs the chosen engine on an m-site path from the central site and fits
    Var(x) = sum_i p_i (i - i_entry)^2 against the evolution parameter as a
    power law.  Samples where either end site already holds more than 1e-6
    probability are dropped (the boundary would bend the growth law), as is
    z = 0 where the variance vanishes.  The coherent walk spreads
    ballistically (exponent 2), the classical walk diffusively (exponent 1).

    Raises :class:`WindowError` when no samples survive the windowing.
    """
    if engine not in ("quantum", "classical"):
        raise ValueError(f"engine must be 'quantum' or 'classical', got {engine!r}")
    if m % 2 == 0:
        raise ValueError("site count m must be odd so the launch is centred")
    g = path_graph(m)
    if z_grid is None:
        if engine == "quantum":
            z_top = (m - 1) / (8.0 * coupling)
        else:
            z_top = (m - 1) ** 2 / (250.0 * rate)
        z_grid = np.linspace(z_top / 48.0, z_top, 48)
    z_grid = np.asarray(z_grid, dtype=float)
    if engine == "quantum":
        h = Hamiltonian(g, CouplingModel(coupling=coupling))
        dist = np.abs(propagate(h, entry_state(g), z_grid)) ** 2
    else:
        dist = propagate(ClassicalGenerator(g, rate), entry_distribution(g), z_grid)
    offsets = np.arange(m) - g.entry
    variances = dist @ (offsets.astype(float) ** 2)
    keep = (
        (z_grid > 0.0)
        & (variances > 0.0)
        & (dist[:, 0] < BOUNDARY_LEAK_TOL)
        & (dist[:, -1] < BOUNDARY_LEAK_TOL)
    )
    if not np.any(keep):
        raise WindowError(
            "no variance samples left after excluding z = 0 and boundary-touching walks"
        )
    return fit_power(np.column_stack((z_grid[keep], variances[keep])))


@lru_cache(maxsize=None)
def calibrated_coupling(target_z_opt: float = DEFAULT_CALIBRATION_LENGTH_MM) -> float:
    """Coupling (1/mm) that places the depth-2 patch's optimum at the target length.

    The scan itself is coupling-invariant in the product C * z, so the
    calibration just rescales the dimensionless optimum onto the requested
    physical length.
    """
    if not np.isfinite(target_z_opt) or target_z_opt <= 0.0:
        raise ValueError(f"target length must be finite and > 0, got {target_z_opt}")
    curve = quantum_hitting_curve(hexagonal_graph(2), CouplingModel())
    return curve.z_opt / target_z_opt
