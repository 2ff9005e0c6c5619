"""Tests for hitting-curve scans, convergence times, fits, and 1D variance."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from hexwalk.graphs import Graph, glued_tree, hexagonal_graph, hypercube_graph, path_graph
from hexwalk.hitting import (
    BoundaryMaximumWarning,
    ConvergenceError,
    FitError,
    WindowError,
    calibrated_coupling,
    classical_convergence_time,
    classical_hitting_curve,
    default_scan_window,
    depth_sweep,
    fit_linear,
    fit_power,
    quantum_hitting_curve,
    variance_slope_1d,
)
from hexwalk.quantum import CouplingModel, build_hamiltonian, entry_state, propagate
from hexwalk.stochastic import ClassicalGenerator, entry_distribution

# Refined optimum of the single-hexagon walk at C=1 (the peak sits at 2pi/3).
HEX1_Z_OPT = 2.094390970657552
HEX1_P_OPT = 0.7499999999743929

# Refined optimum of the 16-node diamond at C=1.
HEX2_Z_OPT = 5.6165209625
HEX2_P_OPT = 0.9376227082

# Convergence of the 30-node diamond at rate 1, threshold 1e-4.
HEX3_T_CONVERGE = 75.009735
HEX3_T_LOW = 58.211066
HEX3_T_HIGH = 91.808428


# ---------------------------------------------------------------------------
# quantum hitting curves
# ---------------------------------------------------------------------------


def test_two_site_peak_is_exact():
    curve = quantum_hitting_curve(path_graph(2), CouplingModel(coupling=1.0), z_max=math.pi)
    assert abs(curve.z_opt - math.pi / 2.0) < 1e-6
    assert abs(curve.p_opt - 1.0) < 1e-9
    assert curve.kind == "quantum"


def test_single_hexagon_refinement_matches_dense_scan():
    g = hexagonal_graph(1)
    curve = quantum_hitting_curve(g)
    # brute-force oracle: dense scan at 1e-4 resolution over the same window
    h = build_hamiltonian(g)
    zs = np.arange(0.0, curve.z[-1] + 1e-4, 1e-4)
    dense = np.abs(propagate(h, entry_state(g), zs, g.exit)) ** 2
    k = int(np.argmax(dense))
    assert abs(curve.z_opt - zs[k]) < 1e-3
    assert curve.p_opt >= dense[k] - 1e-9
    assert abs(curve.z_opt - HEX1_Z_OPT) < 1e-9
    assert abs(curve.p_opt - HEX1_P_OPT) < 1e-9
    assert abs(curve.z_opt - 2.0 * math.pi / 3.0) < 1e-5


def test_sixteen_node_frozen_optimum():
    curve = quantum_hitting_curve(hexagonal_graph(2))
    assert abs(curve.z_opt - HEX2_Z_OPT) < 1e-6
    assert abs(curve.p_opt - HEX2_P_OPT) < 1e-6
    assert 0.80 <= curve.p_opt <= 0.98


def test_curve_arrays_cover_the_window():
    curve = quantum_hitting_curve(hexagonal_graph(1), z_max=3.0, dz=0.01)
    assert curve.z[0] == 0.0
    assert abs(curve.z[-1] - 3.0) < 1e-9
    assert len(curve.z) == len(curve.p_exit) == 301
    assert curve.p_exit[0] < 1e-30


def test_boundary_maximum_warns_and_reports_grid_point():
    # the two-site curve still rises at z=1 < pi/2, so the max is the edge
    with pytest.warns(BoundaryMaximumWarning):
        curve = quantum_hitting_curve(path_graph(2), z_max=1.0)
    assert abs(curve.z_opt - 1.0) < 1e-12
    assert abs(curve.p_opt - math.sin(1.0) ** 2) < 1e-12


def test_refined_optimum_is_grid_phase_insensitive():
    g = hexagonal_graph(2)
    a = quantum_hitting_curve(g, dz=0.010)
    b = quantum_hitting_curve(g, dz=0.013)
    assert abs(a.z_opt - b.z_opt) < 0.001


def test_doubling_coupling_halves_the_optimal_length():
    g = hexagonal_graph(2)
    base = quantum_hitting_curve(g, CouplingModel(coupling=1.0))
    double = quantum_hitting_curve(g, CouplingModel(coupling=2.0))
    assert abs(double.z_opt - base.z_opt / 2.0) < 1e-6
    assert abs(double.p_opt - base.p_opt) < 1e-6


def test_default_window_grows_with_depth():
    z3, dz3 = default_scan_window(hexagonal_graph(3))
    z5, dz5 = default_scan_window(hexagonal_graph(5))
    assert z5 > z3
    assert dz3 == dz5 == 0.01
    zc, dzc = default_scan_window(hexagonal_graph(3), coupling=2.0)
    assert abs(zc - z3 / 2.0) < 1e-12
    assert abs(dzc - 0.005) < 1e-15


def test_scan_rejects_bad_window():
    with pytest.raises(ValueError):
        quantum_hitting_curve(path_graph(2), z_max=-1.0)
    with pytest.raises(ValueError):
        quantum_hitting_curve(path_graph(2), z_max=1.0, dz=0.9)


def test_calibrated_coupling_pins_the_diamond_peak():
    c = calibrated_coupling()
    curve = quantum_hitting_curve(hexagonal_graph(2), CouplingModel(coupling=c))
    assert abs(curve.z_opt - 25.2) < 1e-3
    assert 24.0 <= curve.z_opt <= 26.0


# ---------------------------------------------------------------------------
# classical hitting curves and convergence
# ---------------------------------------------------------------------------


def test_classical_curve_saturates_at_uniform_share():
    g = hexagonal_graph(2)
    curve = classical_hitting_curve(g, t_max=300.0, dt=0.5)
    assert curve.kind == "classical"
    assert abs(curve.p_exit[-1] - 0.0625) < 1e-6
    assert curve.p_opt <= 0.0625 + 1e-9


@pytest.mark.parametrize("n", [2, 3, 4])
def test_classical_exit_curve_is_never_negative(n):
    # the exact curve starts at 0; spectral rounding must not show up below it
    curve = classical_hitting_curve(hexagonal_graph(n))
    assert curve.p_exit.min() >= 0.0


def test_two_site_convergence_is_analytic():
    rate, eps = 0.7, 1e-4
    res = classical_convergence_time(path_graph(2), rate=rate, epsilon=eps)
    # deviation from 1/2 decays as e^{-2 rate t}/2, and P_a = 1/2
    expected = math.log(1.0 / eps) / (2.0 * rate)
    assert abs(res.t_converge - expected) < 1e-6
    assert abs(res.t_converge - 6.578814551411560) < 1e-6
    assert res.p_uniform == 0.5


def test_thirty_node_convergence_frozen_values():
    res = classical_convergence_time(hexagonal_graph(3))
    assert abs(res.t_converge - HEX3_T_CONVERGE) < 1e-3
    assert abs(res.t_low - HEX3_T_LOW) < 1e-3
    assert abs(res.t_high - HEX3_T_HIGH) < 1e-3
    assert res.t_low <= res.t_converge <= res.t_high
    assert abs(res.p_uniform - 1.0 / 30.0) < 1e-15


def _deviation_grid(g, ts, rate=1.0):
    grid = propagate(ClassicalGenerator(g, rate=rate), entry_distribution(g), ts)
    return np.max(np.abs(grid - 1.0 / g.n_nodes), axis=1)


# One small graph per family, each with a few hundred modes or fewer.
SMALL_GRAPHS = {
    "hexagonal-3": lambda: hexagonal_graph(3),
    "glued-tree-4": lambda: glued_tree(4, gluing="random-cycle", seed=1),
    "hypercube-5": lambda: hypercube_graph(5),
    "path-21": lambda: path_graph(21),
}


@pytest.mark.parametrize("name", sorted(SMALL_GRAPHS))
def test_max_norm_deviation_never_increases(name):
    # exp(K s) is doubly stochastic, so each entry of p(t + s) - u is a convex
    # combination of the entries of p(t) - u: the bisection relies on this
    g = SMALL_GRAPHS[name]()
    t_end = classical_convergence_time(g, epsilon=1e-5).t_converge * 1.5
    dev = _deviation_grid(g, np.linspace(0.0, t_end, 5001))
    assert np.max(np.diff(dev)) <= 1e-15


def test_convergence_matches_dense_grid_oracle():
    g = hexagonal_graph(2)
    rate, eps = 1.0, 1e-4
    res = classical_convergence_time(g, rate=rate, epsilon=eps)
    gen = ClassicalGenerator(g, rate=rate)
    ts = np.linspace(0.0, 2.0 * res.t_converge, 20001)
    grid = propagate(gen, entry_distribution(g), ts)
    dev = np.max(np.abs(grid - res.p_uniform), axis=1)
    passing = np.nonzero(dev <= eps * res.p_uniform)[0]
    oracle_t = ts[passing[0]]
    assert abs(res.t_converge - oracle_t) <= ts[1] - ts[0] + 1e-9


def test_convergence_deviation_is_threshold_tight():
    g = hexagonal_graph(2)
    res = classical_convergence_time(g)
    gen = ClassicalGenerator(g)
    at = np.max(np.abs(propagate(gen, entry_distribution(g), np.array([res.t_converge]))[0] - res.p_uniform))
    assert at <= 1e-4 * res.p_uniform * (1.0 + 1e-6)
    just_before = res.t_converge * (1.0 - 1e-6)
    before = np.max(np.abs(propagate(gen, entry_distribution(g), np.array([just_before]))[0] - res.p_uniform))
    assert before > 1e-4 * res.p_uniform * (1.0 - 1e-6)


@pytest.mark.parametrize("name", ["glued-tree-4", "hypercube-5"])
def test_convergence_matches_dense_grid_oracle_beyond_hexagons(name):
    g = SMALL_GRAPHS[name]()
    res = classical_convergence_time(g)
    ts = np.linspace(0.0, 2.0 * res.t_converge, 20001)
    passing = np.nonzero(_deviation_grid(g, ts) <= 1e-4 * res.p_uniform)[0]
    assert abs(res.t_converge - ts[passing[0]]) <= ts[1] - ts[0] + 1e-9


@pytest.mark.parametrize("name", ["glued-tree-4", "hypercube-5"])
def test_convergence_is_threshold_tight_beyond_hexagons(name):
    g = SMALL_GRAPHS[name]()
    res = classical_convergence_time(g)
    at, before = _deviation_grid(g, np.array([res.t_converge, res.t_converge * (1.0 - 1e-6)]))
    assert at <= 1e-4 * res.p_uniform * (1.0 + 1e-6)
    assert before > 1e-4 * res.p_uniform * (1.0 - 1e-6)


def test_convergence_at_start_when_tolerance_covers_the_launch():
    # deviation at t = 0 is 1/2 on two sites, within 1 * (1/2)
    res = classical_convergence_time(path_graph(2), epsilon=1.0)
    assert res.t_converge == 0.0
    assert 0.0 < res.t_low < res.t_high


def test_disconnected_graph_fails_at_the_horizon_without_the_connectivity_check(monkeypatch):
    # the doubled zero mode keeps the deviation up, so the horizon guard catches it
    coords = [(0, 0), (2, 0), (4, 0), (6, 0)]
    broken = Graph("path", coords, [(0, 1), (2, 3)], entry=0, exit=3)
    monkeypatch.setattr(Graph, "connected", property(lambda graph: True))
    with pytest.raises(ConvergenceError, match="horizon"):
        classical_convergence_time(broken)


def test_convergence_bracket_ordering_and_uniform_share():
    res = classical_convergence_time(hexagonal_graph(2))
    assert res.p_uniform == 0.0625
    assert res.t_low <= res.t_converge <= res.t_high
    assert res.epsilon == 1e-4


def test_disconnected_graph_never_converges():
    coords = [(0, 0), (2, 0), (4, 0), (6, 0)]
    broken = Graph("path", coords, [(0, 1), (2, 3)], entry=0, exit=3)
    with pytest.raises(ConvergenceError):
        classical_convergence_time(broken)


# ---------------------------------------------------------------------------
# depth sweep
# ---------------------------------------------------------------------------


def test_sweep_single_row():
    rows = depth_sweep([2])
    assert len(rows) == 1
    row = rows[0]
    assert row.n == 2
    assert row.p_uniform == 0.0625
    assert abs(row.z_opt - HEX2_Z_OPT) < 1e-6
    assert row.t_low <= row.t_converge <= row.t_high


def test_sweep_is_sorted_and_deduplicated():
    rows = depth_sweep([3, 2, 3])
    assert [r.n for r in rows] == [2, 3]
    assert rows[1].z_opt > rows[0].z_opt


def test_sweep_rejects_empty_range():
    with pytest.raises(ValueError):
        depth_sweep([])


# ---------------------------------------------------------------------------
# fits
# ---------------------------------------------------------------------------


def test_linear_fit_recovers_exact_line():
    pts = [(n, 2.0 * n + 1.0) for n in range(2, 9)]
    fit = fit_linear(pts)
    assert fit.model == "linear"
    assert abs(fit.slope - 2.0) < 1e-12
    assert abs(fit.intercept - 1.0) < 1e-12
    assert abs(fit.r_squared - 1.0) < 1e-12
    assert abs(fit.predict(10.0) - 21.0) < 1e-10


def test_power_fit_recovers_exact_quadratic():
    pts = [(n, float(n * n)) for n in range(2, 9)]
    fit = fit_power(pts)
    assert fit.model == "power-law"
    assert abs(fit.slope - 2.0) < 1e-12
    assert abs(fit.intercept) < 1e-12
    assert abs(fit.r_squared - 1.0) < 1e-12
    assert abs(fit.predict(3.0) - 9.0) < 1e-9


def test_fit_r_squared_stays_in_unit_interval():
    rng = np.random.default_rng(2)
    x = np.arange(2.0, 12.0)
    y = 3.0 * x + 1.0 + rng.normal(scale=4.0, size=x.size)
    fit = fit_linear(list(zip(x, np.abs(y) + 0.1)))
    assert 0.0 <= fit.r_squared <= 1.0


def test_refit_on_predictions_is_idempotent():
    pts = [(float(n), 0.5 * n + 3.0 + 0.01 * (-1) ** n) for n in range(2, 10)]
    first = fit_linear(pts)
    refit = fit_linear([(x, first.predict(x)) for x, _ in pts])
    assert abs(refit.slope - first.slope) < 1e-10
    assert abs(refit.intercept - first.intercept) < 1e-10


def test_fit_errors():
    with pytest.raises(FitError):
        fit_linear([(1.0, 2.0), (2.0, 3.0)])
    with pytest.raises(FitError):
        fit_linear([(1.0, 2.0), (1.0, 3.0), (1.0, 4.0)])
    with pytest.raises(FitError):
        fit_power([(1.0, 2.0), (2.0, -3.0), (3.0, 4.0)])
    with pytest.raises(FitError):
        fit_power([(0.0, 2.0), (2.0, 3.0), (3.0, 4.0)])


# ---------------------------------------------------------------------------
# 1D variance
# ---------------------------------------------------------------------------


def test_quantum_variance_grows_quadratically():
    fit = variance_slope_1d(101, "quantum")
    assert abs(fit.slope - 2.0) < 0.05
    assert fit.r_squared > 0.999


def test_classical_variance_grows_linearly():
    fit = variance_slope_1d(101, "classical")
    assert abs(fit.slope - 1.0) < 0.05
    assert fit.r_squared > 0.999


def test_variance_drops_zero_length_sample():
    zs = np.linspace(0.0, 10.0, 21)  # includes z=0
    fit = variance_slope_1d(101, "quantum", z_grid=zs)
    assert abs(fit.slope - 2.0) < 0.05


def test_variance_rejects_even_chain_and_unknown_engine():
    with pytest.raises(ValueError):
        variance_slope_1d(100, "quantum")
    with pytest.raises(ValueError):
        variance_slope_1d(101, "semiclassical")


def test_variance_window_error_when_walk_hits_the_ends():
    with pytest.raises(WindowError):
        variance_slope_1d(5, "quantum", z_grid=np.array([10.0, 20.0]))
