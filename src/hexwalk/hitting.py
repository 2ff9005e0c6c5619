"""Optimal hitting lengths, classical convergence times, and scaling fits.

The quantum side scans the exit-node probability over a grid of evolution
lengths and refines the global grid maximum with a three-point parabola.
The classical side finds the earliest time at which the walk's distribution
has settled onto the uniform stationary distribution to within a relative
tolerance of 1e-4, bracketed by the times for 1e-3 and 1e-5.  The
max-norm deviation from uniform never increases and decays exponentially
once the transient has passed, so each time is a root of its logarithm,
found by safeguarded regula falsi below a horizon set by the spectral gap,
the three searches sharing their samples.  Whether the walk can
settle at all is decided before any spectrum, by the breadth-first
distances from the entry: the graph is connected exactly when every node
has one.
Depth sweeps collect both quantities across a family of hexagonal patches
so their growth laws can be fitted: the optimal length grows linearly with
depth while the classical convergence time grows roughly quadratically.
Every routine but the sweep and the calibration takes the walk it runs
from its caller, so the routines run on one walk share its cached spectra.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, field
from functools import lru_cache

import numpy as np

from hexwalk.graphs import Graph, _integer, _positive, depth_scale, hexagonal_graph
from hexwalk.quantum import Hamiltonian, entry_state, propagate
from hexwalk.stochastic import ClassicalGenerator

#: Default scan window, in units of depth / coupling.  Wide enough to bracket
#: the dominant early hitting peak (near 2.5 * depth / C on hexagonal patches)
#: yet short of the late-time revivals that overtake it beyond ~6 * depth / C;
#: a window that ran into the revivals would report optima with no scaling law.
SCAN_WINDOW_FACTOR = 4.0

#: Default scan step, in units of 1 / coupling.
SCAN_STEP_FACTOR = 0.01

#: Most grid points a scan may have.  Scans in use stay far below it (a
#: classical scan to z = 300 at the default step has 30001 points).  The
#: exit curve costs a few numbers per point plus about 2 sqrt(T) k mode
#: factors (:func:`hexwalk.quantum.propagate`), so a scan at the budget
#: holds tens of MiB; writing its million-row curve.csv costs more.
MAX_SCAN_POINTS = 10**6

#: Classical exit probability below which a sample is rounding residue of
#: the spectral sum (about 1e-16 on spectra of up to 1720 cells).
_RESIDUE_FLOOR = 1e-12

#: Physical length (mm) at which the depth-2 patch's optimum is pinned when
#: calibrating the dimensionless coupling onto a real device.
CALIBRATION_LENGTH_MM = 25.2


class BoundaryMaximumWarning(UserWarning):
    """The best exit probability sat on the edge of the scan window, or beyond it."""


class ConvergenceError(RuntimeError):
    """The classical walk cannot settle (disconnected graph, or numerics miss the horizon)."""


class FitError(RuntimeError):
    """The supplied points cannot support the requested fit."""


class WindowError(RuntimeError):
    """No usable samples remain after windowing a variance curve."""


@dataclass
class HittingCurve:
    """Exit-probability samples over an evolution grid plus the located optimum.

    Classical curves use the same ``z`` axis for their evolution time.
    ``z_max`` and ``dz`` are the scan window as resolved, defaults filled
    in; the grid runs in steps of ``dz`` to the nearest whole step to
    ``z_max``.  The curve holds numbers only, not the walk it scanned.
    """

    z: np.ndarray
    p_exit: np.ndarray
    z_opt: float
    p_opt: float
    z_max: float
    dz: float


@dataclass
class ConvergenceResult:
    """Earliest settling times onto the uniform distribution ``p_uniform`` = 1/N.

    ``t_low``, ``t_converge`` and ``t_high`` are the times at relative
    tolerances 1e-3, 1e-4 and 1e-5, so they come in that order.
    """

    t_converge: float
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


def _scan_grid(
    graph: Graph, scale: float, z_max: float | None, dz: float | None
) -> tuple[np.ndarray, float, float]:
    """Grid 0, dz, 2 dz, ... up to z_max, and the window (z_max, dz) it was built from.

    An unset end takes the default window, 4 * depth / scale in steps of
    0.01 / scale, for a ``scale`` the caller has checked; only an unset
    ``z_max`` needs the family's size parameter.  A window of more than
    :data:`MAX_SCAN_POINTS` points is refused before anything is allocated.
    """
    if z_max is None:
        z_max = SCAN_WINDOW_FACTOR * depth_scale(graph) / scale
    if dz is None:
        dz = SCAN_STEP_FACTOR / scale
    steps = _positive(z_max, "scan window") / _positive(dz, "scan step")
    if not np.isfinite(steps) or round(steps) >= MAX_SCAN_POINTS:
        raise ValueError(
            f"scan window z_max/dz (--z-max/--dz) = {steps:g} steps is more than "
            f"the {MAX_SCAN_POINTS} grid points a scan may take"
        )
    count = round(steps)
    if count < 2:
        raise ValueError("scan window must span at least two steps")
    return dz * np.arange(count + 1), z_max, dz


def _refine_parabolic(z: np.ndarray, p: np.ndarray, i: int) -> float:
    """Vertex of the parabola through the three equally spaced points around i."""
    # i is the first argmax inside the grid, so a > 0 and b >= 0: a + b > 0, |shift| <= 1/2
    a, b = p[i] - p[i - 1], p[i] - p[i + 1]
    return float(z[i] + 0.5 * (a - b) / (a + b) * (z[i] - z[i - 1]))


def quantum_hitting_curve(
    h: Hamiltonian, z_max: float | None = None, dz: float | None = None
) -> HittingCurve:
    """Scan the coherent walk ``h``'s exit probability and locate its optimum.

    The walk launches from the entry node.  The default window is
    4 * depth / coupling with a step of 0.01 / coupling, for ``h.coupling``,
    so rescaling the coupling rescales the grid with it and the located
    optimum obeys z_opt -> z_opt / a under coupling -> a * coupling.  The
    scan fills ``h``'s cached entry spectrum, which ``propagate(h, ...)``
    reuses.  A walk without a ``coupling`` raises ``AttributeError`` first.

    The global grid maximum is refined by a parabola through its bracketing
    neighbours and the exit probability is re-evaluated at the refined
    length.  A maximum on the window edge cannot be refined; it is returned
    as-is under a :class:`BoundaryMaximumWarning`.
    """
    zs, z_max, dz = _scan_grid(h.graph, h.coupling, z_max, dz)

    def exit_probability(lengths):
        return np.abs(propagate(h, entry_state(h.graph), lengths, h.graph.exit)) ** 2

    p = exit_probability(zs)
    i = int(np.argmax(p))
    if i == 0 or i == len(zs) - 1:
        warnings.warn(
            f"exit probability is maximal at the scan boundary (z = {zs[i]:g}); "
            "enlarge the window to bracket the true optimum",
            BoundaryMaximumWarning,
            stacklevel=2,
        )
        return HittingCurve(zs, p, float(zs[i]), float(p[i]), z_max, dz)
    z_opt = _refine_parabolic(zs, p, i)
    p_opt = float(exit_probability(np.array([z_opt]))[0])
    if p_opt < p[i]:
        z_opt, p_opt = float(zs[i]), float(p[i])
    return HittingCurve(zs, p, z_opt, p_opt, z_max, dz)


def classical_hitting_curve(
    gen: ClassicalGenerator, t_max: float | None = None, dt: float | None = None
) -> HittingCurve:
    """Exit probability of the classical walk ``gen`` over a time grid.

    The default window is the coherent one's for the rate ``gen.rate``, and
    a walk without a ``rate`` raises ``AttributeError`` first.  The curve
    rises monotonically towards the uniform share 1/N, so the reported
    optimum is simply the best sampled point (the grid end once
    the walk has mixed).  The samples are clipped at 0 by
    :func:`hexwalk.quantum.propagate`.  Before the walk reaches the
    exit they are spectral rounding residue, of order 1e-16 and different
    for each BLAS thread count, so a curve wholly below the floor
    :data:`_RESIDUE_FLOOR` = 1e-12 is returned as zeros with the optimum at
    the window end, p_opt = 0, under a :class:`BoundaryMaximumWarning`.
    """
    ts, t_max, dt = _scan_grid(gen.graph, gen.rate, t_max, dt)
    p = propagate(gen, entry_state(gen.graph), ts, gen.graph.exit)
    if p.max() < _RESIDUE_FLOOR:
        warnings.warn(
            f"exit probability stays below the rounding floor {_RESIDUE_FLOOR:g} "
            f"up to the scan boundary (t = {ts[-1]:g}); enlarge the window to reach the exit",
            BoundaryMaximumWarning,
            stacklevel=2,
        )
        return HittingCurve(ts, np.zeros_like(p), float(ts[-1]), 0.0, t_max, dt)
    i = int(np.argmax(p))
    return HittingCurve(ts, p, float(ts[i]), float(p[i]), t_max, dt)


def _settling_time(
    deviation, threshold: float, horizon: float, samples: dict | None = None
) -> float:
    """Earliest time the deviation D(t) = max_i |p_i(t) - 1/N| is at most threshold.

    D never increases (see :func:`classical_convergence_time`) and D(0)
    exceeds every threshold, so [0, horizon] brackets one crossing.  Past
    the transient D decays like e^(-gap t), so the crossing is found by
    Illinois regula falsi on the nearly linear f = ln D - ln threshold
    (Dowell & Jarratt, BIT 11, 168, 1971): the secant root of the bracket
    [lo, hi] (its midpoint if f is 0 at both ends) replaces the end of its
    sign, and an end kept twice running has its f halved, so a kink or a
    plateau cannot pin it.  D = 0 counts as the least positive double.
    Each step lands at least 0.5e-13 hi inside the bracket (Brent's
    minimum step), so the step after an iterate on the crossing closes it.
    The bracket keeps D(lo) > threshold >= D(hi) and shrinks to
    hi - lo <= 1e-13 hi, below the 12 digits the CSV prints; hi is
    returned.  Failing at the horizon means the numerics broke.
    ``samples`` maps each t evaluated to D(t) and is filled in; as D never
    increases, searches for several thresholds can share it and each
    start from the tightest bracket it holds.
    """
    samples = {} if samples is None else samples

    def f(t: float) -> tuple[bool, float]:
        if t not in samples:
            samples[t] = deviation(t)
        return samples[t] > threshold, math.log(max(samples[t], 5e-324)) - math.log(threshold)

    lo = max((t for t, d in samples.items() if d > threshold), default=0.0)
    hi = min((t for t, d in samples.items() if d <= threshold), default=horizon)
    above, f_hi = f(hi)
    if above:
        raise ConvergenceError(
            f"no settling below {threshold:.3e} found within the spectral-gap horizon "
            f"(t <= {horizon:g})"
        )
    f_lo, moved = f(lo)[1], None
    while hi - lo > 1e-13 * hi:
        t = hi - f_hi * (hi - lo) / (f_hi - f_lo) if f_lo > f_hi else 0.5 * (lo + hi)
        t = min(max(t, lo + 0.5e-13 * hi), hi - 0.5e-13 * hi)
        above, f_t = f(t)
        if above:
            if moved == "lo":
                f_hi *= 0.5
            lo, f_lo, moved = t, f_t, "lo"
        else:
            if moved == "hi":
                f_lo *= 0.5
            hi, f_hi, moved = t, f_t, "hi"
    return hi


def classical_convergence_time(gen: ClassicalGenerator) -> ConvergenceResult:
    """Times for the classical walk ``gen`` to settle onto the uniform distribution.

    Convergence at relative tolerance tol means every site's probability is
    within tol * (1/N) of the uniform value 1/N; ``t_converge`` takes
    tol = 1e-4 and the bracket (``t_low``, ``t_high``) tol = 1e-3 and 1e-5.
    At t = 0 the deviation is 1 - 1/N >= 1/2, above every such threshold.
    Once reached it holds for good: K = rate * (A - D)
    is symmetric with zero row sums, so exp(K s) is doubly stochastic, each
    entry of p(t + s) - 1/N is a convex combination of the entries of
    p(t) - 1/N, and the max-norm deviation never increases.  The first
    crossing is therefore the last, and it lies before the horizon
    (ln(1/threshold) + ln N) / gap, where the spectral-gap decay
    e^(-gap t) of the Euclidean deviation already bounds the max-norm one.

    The walk runs on the spectrum of the entry cells,
    :attr:`hexwalk.quantum.WalkOperator.entry_spectrum`: p(0) - 1/N is
    constant on the cells, so only their modes enter it and the gap is
    taken among them.  The entry's modes are its row of V, the projection
    of its indicator (:meth:`hexwalk.quantum.Spectrum.project`), and the
    deviation is the largest magnitude among the cell values
    ``Spectrum.expand`` gives, each the value at every node of its cell.
    On a connected graph every mode of K but the zero mode is negative, so
    the zero mode is the largest w.  It carries exactly the 1/N, so the
    deviation gives it weight 0 and sums the other modes only: summing it
    from eigenvectors and subtracting 1/N would leave an absolute rounding
    floor near 1e-16 instead of decaying to 0.

    A disconnected graph, which has no uniform limit from a localised start,
    raises :class:`ConvergenceError` before any spectrum is made: some node
    has no distance from the entry (:attr:`hexwalk.graphs.Graph.distances`).
    So does a walk without a ``rate``, with ``AttributeError``.  The search
    shares ``gen``'s cached entry spectrum with its scans and ``propagate``.
    """
    gen.rate  # a coherent walk has no rate and no uniform limit
    graph = gen.graph
    if graph.distances.min() < 0:
        raise ConvergenceError("graph is disconnected; the walk cannot reach uniformity")
    spectrum = gen.entry_spectrum
    w = spectrum.w
    zero = np.arange(len(w)) == np.argmax(w)
    gap = -float(np.max(w[~zero]))
    p_uniform = 1.0 / graph.n_nodes
    modes = np.where(zero, 0.0, spectrum.project(entry_state(graph)))

    def deviation(t: float) -> float:
        return float(np.max(np.abs(spectrum.expand(np.exp(w * t) * modes))))

    samples = {}  # every (t, D(t)) evaluated, shared by the three searches
    t_low, t_converge, t_high = (
        _settling_time(
            deviation,
            tol * p_uniform,
            (math.log(1.0 / (tol * p_uniform)) + math.log(graph.n_nodes)) / gap,
            samples,
        )
        for tol in (1.0e-3, 1.0e-4, 1.0e-5)
    )
    return ConvergenceResult(t_converge, p_uniform, t_low, t_high)


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
    coupling: float = 1.0,
    rate: float | None = None,
) -> list[SweepRow]:
    """Optimal hitting and classical settling across hexagonal depths.

    The hop rate defaults to the coupling strength so both walks move on
    the same timescale.  Depths are deduplicated and sorted ascending.
    """
    if rate is None:
        rate = coupling
    depths = sorted(set(_integer(n, "depth") for n in depths))
    if not depths:
        raise ValueError("depth sweep needs at least one depth")
    rows = []
    for n in depths:
        g = hexagonal_graph(n)
        curve = quantum_hitting_curve(Hamiltonian(g, coupling))  # the walk goes as it returns
        z_opt, p_opt = curve.z_opt, curve.p_opt
        del curve  # and the curve's grid, before the classical spectrum is formed
        conv = classical_convergence_time(ClassicalGenerator(g, rate))  # freed as it returns
        rows.append(SweepRow(n, z_opt, p_opt, **asdict(conv)))
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
    # r^2 is scale-free, but squares of raw y under- or overflow: both sums run on y / 2^e,
    # 2^e just above max |y| (exact), so they are in max |y|^2 units and 1e-30 is relative
    e = np.frexp(np.max(np.abs(y)))[1]
    ss_res = float(np.sum(np.ldexp(residuals, -e) ** 2))
    ss_tot = float(np.sum(np.ldexp(y - np.mean(y), -e) ** 2))
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
    walk: Hamiltonian | ClassicalGenerator, z_max: float | None = None
) -> FitResult:
    """Growth exponent of the positional variance of a centred 1D walk.

    Runs ``walk`` on ``path_graph(m)``, m odd, from the central site over
    the 48 evenly spaced lengths z_max / 48, ..., z_max and fits
    Var(x) = sum_i p_i (i - i_entry)^2 against them as a power law.  An
    unset ``z_max`` takes (m - 1) / (8 walk.scale) for the coherent walk and
    (m - 1)^2 / (250 walk.scale) for the classical one, told apart by
    ``walk.dtype``.  Samples where either end site already holds more than
    1e-6 probability are dropped (the boundary would bend the growth law).
    The coherent walk spreads ballistically (exponent 2), the classical walk
    diffusively (exponent 1).  A walk on another graph, or on an even path,
    raises ``ValueError`` before any spectrum is made.

    Raises :class:`WindowError` when no samples survive the windowing.
    """
    if z_max is not None:
        _positive(z_max, "--z-max")
    g, m = walk.graph, walk.dim
    i = np.arange(m)
    if g.entry != (m - 1) // 2 or not np.array_equal(g.edges, np.column_stack((i[:-1], i[1:]))):
        raise ValueError(f"variance needs a walk on path_graph(m), not on this {g.family} graph")
    if m % 2 == 0:
        raise ValueError("site count m must be odd so the launch is centred")
    coherent = walk.dtype is complex
    if z_max is None:
        z_max = (m - 1) / (8.0 * walk.scale) if coherent else (m - 1) ** 2 / (250.0 * walk.scale)
    zs = np.linspace(z_max / 48.0, z_max, 48)
    x = propagate(walk, entry_state(g), zs)
    dist = np.abs(x) ** 2 if coherent else x
    variances = dist @ ((i - g.entry).astype(float) ** 2)
    keep = (variances > 0.0) & (dist[:, 0] < BOUNDARY_LEAK_TOL) & (dist[:, -1] < BOUNDARY_LEAK_TOL)
    if not np.any(keep):
        raise WindowError(
            "no variance samples left after excluding z = 0 and boundary-touching walks"
        )
    return fit_power(np.column_stack((zs[keep], variances[keep])))


@lru_cache(maxsize=None)
def calibrated_coupling() -> float:
    """Coupling (1/mm) that places the depth-2 patch's optimum at 25.2 mm.

    The scan itself is coupling-invariant in the product C * z, so the
    calibration just rescales the dimensionless optimum onto that physical
    length.
    """
    curve = quantum_hitting_curve(Hamiltonian(hexagonal_graph(2)))
    return curve.z_opt / CALIBRATION_LENGTH_MM
