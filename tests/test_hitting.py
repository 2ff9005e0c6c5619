"""Tests for hitting-curve scans, convergence times, fits, and 1D variance."""

from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np
import pytest

from hexwalk import hitting
from hexwalk.graphs import Graph, glued_tree, hexagonal_graph, hypercube_graph, path_graph
from hexwalk.hitting import (
    BoundaryMaximumWarning,
    ConvergenceError,
    FitError,
    HittingCurve,
    MAX_SCAN_POINTS,
    WindowError,
    calibrated_coupling,
    classical_convergence_time,
    classical_hitting_curve,
    depth_sweep,
    fit_linear,
    fit_power,
    quantum_hitting_curve,
    variance_slope_1d,
    _scan_grid,
    _settling_time,
)
from hexwalk.quantum import Hamiltonian, Spectrum, entry_state, propagate
from hexwalk.stochastic import ClassicalGenerator
from refinement_oracle import with_oracle_cells
from spectrum_oracle import dense_v, propagate_dense, propagate_expm


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
    curve = quantum_hitting_curve(Hamiltonian(path_graph(2), 1.0), z_max=math.pi)
    assert abs(curve.z_opt - math.pi / 2.0) < 1e-6
    assert abs(curve.p_opt - 1.0) < 1e-9


def test_single_hexagon_refinement_matches_dense_scan():
    g = hexagonal_graph(1)
    curve = quantum_hitting_curve(Hamiltonian(g))
    # brute-force oracle: dense scan at 1e-4 resolution over the same window
    h = Hamiltonian(g)
    zs = np.arange(0.0, curve.z[-1] + 1e-4, 1e-4)
    dense_scan = np.abs(propagate_dense(h, entry_state(g), zs)[:, g.exit]) ** 2
    k = int(np.argmax(dense_scan))
    assert abs(curve.z_opt - zs[k]) < 1e-3
    assert curve.p_opt >= dense_scan[k] - 1e-9
    assert abs(curve.z_opt - HEX1_Z_OPT) < 1e-9
    assert abs(curve.p_opt - HEX1_P_OPT) < 1e-9
    assert abs(curve.z_opt - 2.0 * math.pi / 3.0) < 1e-5


def test_sixteen_node_frozen_optimum():
    curve = quantum_hitting_curve(Hamiltonian(hexagonal_graph(2)))
    assert abs(curve.z_opt - HEX2_Z_OPT) < 1e-6
    assert abs(curve.p_opt - HEX2_P_OPT) < 1e-6
    assert 0.80 <= curve.p_opt <= 0.98


def test_curve_arrays_cover_the_window():
    curve = quantum_hitting_curve(Hamiltonian(hexagonal_graph(1)), z_max=3.0, dz=0.01)
    assert curve.z[0] == 0.0
    assert abs(curve.z[-1] - 3.0) < 1e-9
    assert len(curve.z) == len(curve.p_exit) == 301
    assert curve.p_exit[0] < 1e-30


def test_boundary_maximum_warns_and_reports_grid_point():
    # the two-site curve still rises at z=1 < pi/2, so the max is the edge
    with pytest.warns(BoundaryMaximumWarning):
        curve = quantum_hitting_curve(Hamiltonian(path_graph(2)), z_max=1.0)
    assert abs(curve.z_opt - 1.0) < 1e-12
    assert abs(curve.p_opt - math.sin(1.0) ** 2) < 1e-12


def test_refined_optimum_is_grid_phase_insensitive():
    g = hexagonal_graph(2)
    a = quantum_hitting_curve(Hamiltonian(g), dz=0.010)
    b = quantum_hitting_curve(Hamiltonian(g), dz=0.013)
    assert abs(a.z_opt - b.z_opt) < 0.001


def test_doubling_coupling_halves_the_optimal_length():
    g = hexagonal_graph(2)
    base = quantum_hitting_curve(Hamiltonian(g, 1.0))
    double = quantum_hitting_curve(Hamiltonian(g, 2.0))
    assert abs(double.z_opt - base.z_opt / 2.0) < 1e-6
    assert abs(double.p_opt - base.p_opt) < 1e-6


@pytest.mark.parametrize(
    "build",
    [lambda: hexagonal_graph(4), lambda: glued_tree(4, seed=2), lambda: hypercube_graph(5), lambda: path_graph(9)],
    ids=["hexagonal-4", "glued-tree-4", "hypercube-5", "path-9"],
)
def test_scaling_coupling_rescales_the_optimum_on_the_quotient(build):
    g = build()
    base = quantum_hitting_curve(Hamiltonian(g, 1.0))
    fast = quantum_hitting_curve(Hamiltonian(g, 2.5))
    assert abs(fast.z_opt - base.z_opt / 2.5) < 1e-9
    assert abs(fast.p_opt - base.p_opt) < 1e-9
    # and the optimum is the dense walk's
    psi = propagate_expm(Hamiltonian(g), entry_state(g), base.z_opt)
    assert abs(abs(psi[g.exit]) ** 2 - base.p_opt) < 1e-12


def test_default_window_grows_with_depth():
    three = quantum_hitting_curve(Hamiltonian(hexagonal_graph(3)))
    five = quantum_hitting_curve(Hamiltonian(hexagonal_graph(5)))
    assert (three.z_max, three.dz) == (12.0, 0.01)
    assert (five.z_max, five.dz) == (20.0, 0.01)
    fast = quantum_hitting_curve(Hamiltonian(hexagonal_graph(3), coupling=2.0))
    assert (fast.z_max, fast.dz) == (6.0, 0.005)


def test_scan_rejects_bad_window():
    with pytest.raises(ValueError):
        quantum_hitting_curve(Hamiltonian(path_graph(2)), z_max=-1.0)
    with pytest.raises(ValueError):
        quantum_hitting_curve(Hamiltonian(path_graph(2)), z_max=1.0, dz=0.9)


def test_scan_grid_refuses_a_window_over_the_point_budget():
    g = path_graph(2)
    zs, _, _ = _scan_grid(g, 1.0, MAX_SCAN_POINTS - 1.0, 1.0)
    assert len(zs) == MAX_SCAN_POINTS
    for z_max, dz in ((float(MAX_SCAN_POINTS), 1.0), (1e300, 0.01), (1e300, 1e-300)):
        with pytest.raises(ValueError, match=r"z_max/dz \(--z-max/--dz\)"):
            _scan_grid(g, 1.0, z_max, dz)


def test_hand_built_graph_scans_with_an_explicit_window():
    # a graph built without a family size parameter has no default window
    g = Graph("path", [(0, 0), (2, 0), (4, 0), (6, 0)], [(0, 1), (1, 2), (2, 3)], 0, 3)
    quantum = quantum_hitting_curve(Hamiltonian(g), z_max=5.0, dz=0.01)
    psi = propagate_expm(Hamiltonian(g), entry_state(g), quantum.z_opt)
    assert abs(psi[g.exit]) ** 2 == pytest.approx(quantum.p_opt, abs=1e-12)
    classical = classical_hitting_curve(ClassicalGenerator(g, 1.0), 5.0, 0.01)
    p = propagate_expm(ClassicalGenerator(g), entry_state(g), 5.0)
    assert classical.p_exit[-1] == pytest.approx(p[g.exit], abs=1e-12)
    for scan in (
        lambda: quantum_hitting_curve(Hamiltonian(g), dz=0.01),
        lambda: classical_hitting_curve(ClassicalGenerator(g)),
    ):
        with pytest.raises(ValueError, match="size parameter 'm'"):
            scan()


def test_curve_carries_the_resolved_window():
    g = hexagonal_graph(1)
    classical = classical_hitting_curve(ClassicalGenerator(g, 0.5))
    assert (classical.z_max, classical.dz) == (8.0, 0.02)
    quantum = quantum_hitting_curve(Hamiltonian(g, 1.0), z_max=3.0, dz=0.7)
    assert (quantum.z_max, quantum.dz) == (3.0, 0.7)
    assert quantum.z[-1] == pytest.approx(2.8)


def test_calibrated_coupling_pins_the_diamond_peak():
    c = calibrated_coupling()
    curve = quantum_hitting_curve(Hamiltonian(hexagonal_graph(2), c))
    assert abs(curve.z_opt - 25.2) < 1e-3
    assert 24.0 <= curve.z_opt <= 26.0


def test_a_curve_holds_only_numbers():
    assert [f.name for f in dataclasses.fields(HittingCurve)] == [
        "z", "p_exit", "z_opt", "p_opt", "z_max", "dz"
    ]
    g = hexagonal_graph(1)
    gen = ClassicalGenerator(g, 0.5)
    assert (gen.rate, gen.scale) == (0.5, 0.5)
    assert not hasattr(Hamiltonian(g), "rate") and not hasattr(gen, "coupling")


@pytest.mark.parametrize("walk", ["quantum", "classical"])
def test_the_state_at_the_optimum_reuses_the_scans_spectrum(walk, monkeypatch):
    # the README's flow: scan a walk, then evolve the launch state on it to the optimum;
    # hexagonal_graph(2) has 10 entry cells in 5 mirror pairs
    g = hexagonal_graph(2)
    sizes, eigh = [], np.linalg.eigh  # the order of every matrix given to eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: sizes.append(len(m)) or eigh(m))
    if walk == "quantum":
        op = Hamiltonian(g, 1.0)
        curve = quantum_hitting_curve(op)
    else:
        op = ClassicalGenerator(g, 1.0)
        curve = classical_hitting_curve(op)
    x = propagate(op, entry_state(g), curve.z_opt)
    # one eigh for the paired coherent walk, one per mirror sector for the classical one
    assert sizes == ([5] if walk == "quantum" else [5, 5])
    p_exit = np.abs(x[g.exit]) ** 2 if walk == "quantum" else x[g.exit]
    assert p_exit == pytest.approx(curve.p_opt, abs=1e-12)


def test_a_scan_refuses_a_walk_of_the_other_kind_before_any_spectrum(monkeypatch):
    g = hexagonal_graph(2)
    monkeypatch.setattr(np.linalg, "eigh", lambda m: pytest.fail("eigh ran"))
    monkeypatch.setattr(Spectrum, "__init__", lambda self, op, cell: pytest.fail("spectrum made"))
    for scan, walk in (
        (quantum_hitting_curve, ClassicalGenerator(g)),
        (classical_hitting_curve, Hamiltonian(g)),
        (quantum_hitting_curve, g),
        (classical_hitting_curve, g),
    ):
        with pytest.raises(AttributeError):
            scan(walk)
    # the old (graph, scale) call shape as well
    with pytest.raises(AttributeError):
        quantum_hitting_curve(g, 1.0)
    with pytest.raises(AttributeError):
        classical_hitting_curve(g, 1.0, 5.0)


# ---------------------------------------------------------------------------
# classical hitting curves and convergence
# ---------------------------------------------------------------------------


def test_classical_curve_saturates_at_uniform_share():
    g = hexagonal_graph(2)
    curve = classical_hitting_curve(ClassicalGenerator(g), t_max=300.0, dt=0.5)
    assert abs(curve.p_exit[-1] - 0.0625) < 1e-6
    assert curve.p_opt <= 0.0625 + 1e-9


@pytest.mark.parametrize("n", [2, 3, 4])
def test_classical_exit_curve_is_never_negative(n):
    # the exact curve starts at 0; spectral rounding must not show up below it
    curve = classical_hitting_curve(ClassicalGenerator(hexagonal_graph(n)))
    assert curve.p_exit.min() >= 0.0


def test_classical_window_short_of_the_exit_warns_and_reports_zero():
    # up to t = 3 the exit is about 50 hops away and the exact curve lies below
    # 1e-40: what the spectral sum leaves there is rounding residue
    g = hexagonal_graph(12)
    with pytest.warns(BoundaryMaximumWarning, match="below the rounding floor 1e-12"):
        curve = classical_hitting_curve(ClassicalGenerator(g, 1.0), 3.0)
    assert not np.any(curve.p_exit)
    assert (curve.z_opt, curve.p_opt) == (curve.z[-1], 0.0) == (3.0, 0.0)


def test_classical_window_that_reaches_the_exit_does_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error", BoundaryMaximumWarning)
        curve = classical_hitting_curve(ClassicalGenerator(hexagonal_graph(2)), t_max=30.0)
    assert curve.p_opt == curve.p_exit.max() > 1e-12


def test_two_site_convergence_is_analytic():
    rate = 0.7
    res = classical_convergence_time(ClassicalGenerator(path_graph(2), rate))
    # deviation from 1/2 decays as e^{-2 rate t}/2, and P_a = 1/2
    for t, tol in ((res.t_low, 1e-3), (res.t_converge, 1e-4), (res.t_high, 1e-5)):
        assert abs(t - math.log(1.0 / tol) / (2.0 * rate)) < 1e-6
    assert abs(res.t_converge - 6.578814551411560) < 1e-6
    assert res.p_uniform == 0.5


def test_thirty_node_convergence_frozen_values():
    res = classical_convergence_time(ClassicalGenerator(hexagonal_graph(3)))
    assert abs(res.t_converge - HEX3_T_CONVERGE) < 1e-3
    assert abs(res.t_low - HEX3_T_LOW) < 1e-3
    assert abs(res.t_high - HEX3_T_HIGH) < 1e-3
    assert res.t_low <= res.t_converge <= res.t_high
    assert abs(res.p_uniform - 1.0 / 30.0) < 1e-15


def _deviation_grid(g, ts, rate=1.0):
    grid = propagate_dense(ClassicalGenerator(g, rate=rate), entry_state(g), ts)
    return np.max(np.abs(grid - 1.0 / g.n_nodes), axis=1)


# One small graph per family, each with a few hundred modes or fewer.
SMALL_GRAPHS = {
    "hexagonal-3": lambda: hexagonal_graph(3),
    "glued-tree-4": lambda: glued_tree(4, gluing="random", seed=1),
    "hypercube-5": lambda: hypercube_graph(5),
    "path-21": lambda: path_graph(21),
}


@pytest.mark.parametrize("name", sorted(SMALL_GRAPHS))
def test_max_norm_deviation_never_increases(name):
    # exp(K s) is doubly stochastic, so each entry of p(t + s) - u is a convex
    # combination of the entries of p(t) - u: the settling search relies on this
    g = SMALL_GRAPHS[name]()
    t_end = classical_convergence_time(ClassicalGenerator(g)).t_high * 1.5
    dev = _deviation_grid(g, np.linspace(0.0, t_end, 5001))
    assert np.max(np.diff(dev)) <= 1e-15


def test_convergence_matches_dense_grid_oracle():
    g = hexagonal_graph(2)
    rate, eps = 1.0, 1e-4
    res = classical_convergence_time(ClassicalGenerator(g, rate))
    gen = ClassicalGenerator(g, rate=rate)
    ts = np.linspace(0.0, 2.0 * res.t_converge, 20001)
    grid = propagate_dense(gen, entry_state(g), ts)
    dev = np.max(np.abs(grid - res.p_uniform), axis=1)
    passing = np.nonzero(dev <= eps * res.p_uniform)[0]
    oracle_t = ts[passing[0]]
    assert abs(res.t_converge - oracle_t) <= ts[1] - ts[0] + 1e-9


def test_convergence_deviation_is_threshold_tight():
    g = hexagonal_graph(2)
    res = classical_convergence_time(ClassicalGenerator(g))
    gen = ClassicalGenerator(g)
    at = np.max(np.abs(propagate_expm(gen, entry_state(g), res.t_converge) - res.p_uniform))
    assert at <= 1e-4 * res.p_uniform * (1.0 + 1e-6)
    just_before = res.t_converge * (1.0 - 1e-6)
    before = np.max(np.abs(propagate_expm(gen, entry_state(g), just_before) - res.p_uniform))
    assert before > 1e-4 * res.p_uniform * (1.0 - 1e-6)


@pytest.mark.parametrize("name", ["glued-tree-4", "hypercube-5"])
def test_convergence_matches_dense_grid_oracle_beyond_hexagons(name):
    g = SMALL_GRAPHS[name]()
    res = classical_convergence_time(ClassicalGenerator(g))
    ts = np.linspace(0.0, 2.0 * res.t_converge, 20001)
    passing = np.nonzero(_deviation_grid(g, ts) <= 1e-4 * res.p_uniform)[0]
    assert abs(res.t_converge - ts[passing[0]]) <= ts[1] - ts[0] + 1e-9


@pytest.mark.parametrize("name", ["glued-tree-4", "hypercube-5"])
def test_convergence_is_threshold_tight_beyond_hexagons(name):
    g = SMALL_GRAPHS[name]()
    res = classical_convergence_time(ClassicalGenerator(g))
    at, before = _deviation_grid(g, np.array([res.t_converge, res.t_converge * (1.0 - 1e-6)]))
    assert at <= 1e-4 * res.p_uniform * (1.0 + 1e-6)
    assert before > 1e-4 * res.p_uniform * (1.0 - 1e-6)


def test_settling_search_fails_at_the_horizon():
    # a deviation that never drops below the threshold is caught at the horizon
    with pytest.raises(ConvergenceError, match="horizon"):
        _settling_time(lambda t: 0.5, 1e-4, 10.0)


def _settle(deviation, threshold, horizon):
    """The settling time, the last sampled t above threshold, and the deviation calls made."""
    calls = []
    samples = {}
    t = _settling_time(lambda s: calls.append(s) or deviation(s), threshold, horizon, samples)
    assert len(calls) == len(set(calls)) == len(samples)
    return t, max(s for s, d in samples.items() if d > threshold), len(calls)


@pytest.mark.parametrize("horizon", [12.0, 30.0, 1000.0])
def test_settling_search_solves_an_exponential_in_few_calls(horizon):
    # ln D is linear: the secant lands on ln 1e4, and one minimum step closes the bracket
    t, lo, calls = _settle(lambda s: math.exp(-s), 1e-4, horizon)
    assert abs(t - math.log(1e4)) <= 1e-13 * math.log(1e4)
    assert math.exp(-lo) > 1e-4 >= math.exp(-t)
    assert 0.0 < t - lo <= 1e-13 * t
    assert calls <= 6


# Deviations that defeat a bare secant, each with its crossing of threshold 1e-4: the kink
# pins one end of plain regula falsi (47 calls, against 6 with the Illinois halving), and
# two samples on a plateau give a flat secant with no root.
HARD_DEVIATIONS = {
    # a fast decay that hands over to a slow one: ln D is kinked at t = 2 ln(100) / 9
    "kink": (lambda s: max(math.exp(-5.0 * s), 1e-2 * math.exp(-0.5 * s)), 4.0 * math.log(10.0)),
    # no decay at all until t = 5
    "plateau": (lambda s: min(1.0, math.exp(5.0 - s)), 5.0 + math.log(1e4)),
    # a long plateau just above the threshold, then a drop
    "ledge": (
        lambda s: max(math.exp(-s), 2e-4) if s < 20.0 else 2e-4 * math.exp(20.0 - s),
        20.0 + math.log(2.0),
    ),
}


@pytest.mark.parametrize("name", sorted(HARD_DEVIATIONS))
def test_settling_search_crosses_kinks_and_plateaus(name):
    deviation, crossing = HARD_DEVIATIONS[name]
    t, lo, calls = _settle(deviation, 1e-4, 40.0)
    assert deviation(lo) > 1e-4 >= deviation(t)
    assert 0.0 < t - lo <= 1e-13 * t
    assert abs(t - crossing) <= 1e-12 * crossing
    assert calls <= 16


def test_settling_search_takes_no_log_of_a_zero_deviation():
    # D = 0 past t = 1 counts as the least positive double: the search still closes
    t, lo, calls = _settle(lambda s: max(0.0, 1.0 - s), 1e-3, 30.0)
    assert 1.0 - lo > 1e-3 >= 1.0 - t
    assert 0.0 < t - lo <= 1e-13 * t
    assert calls < 54  # bisection's count to the last bit of [0, 30]


@pytest.mark.parametrize("name", sorted(SMALL_GRAPHS))
def test_settling_times_carry_their_certificate(name, monkeypatch):
    # each time t has D(t (1 - 1e-12)) > threshold >= D(t), for the deviation the search used
    searches = []

    def recording(deviation, threshold, horizon, samples):
        t = _settling_time(deviation, threshold, horizon, samples)
        searches.append((deviation, threshold, t, samples))
        return t

    monkeypatch.setattr(hitting, "_settling_time", recording)
    res = classical_convergence_time(ClassicalGenerator(SMALL_GRAPHS[name]()))
    assert [t for *_, t, _ in searches] == [res.t_low, res.t_converge, res.t_high]
    for deviation, threshold, t, samples in searches:
        assert deviation(t * (1.0 - 1e-12)) > threshold >= deviation(t)
        lo = max(s for s, d in samples.items() if d > threshold)
        assert 0.0 < t - lo <= 1e-13 * t


@pytest.mark.parametrize("n", [3, 10])
def test_settling_deviation_decays_below_the_rounding_of_one_over_n(n, monkeypatch):
    # the zero mode is exactly 1/N and left out: summing it from eigenvectors and
    # subtracting 1/N floored the deviation near 1.5e-14 on these graphs
    deviations = []

    def recording(deviation, threshold, horizon, samples):
        deviations.append(deviation)
        return _settling_time(deviation, threshold, horizon, samples)

    monkeypatch.setattr(hitting, "_settling_time", recording)
    res = classical_convergence_time(ClassicalGenerator(hexagonal_graph(n)))
    assert deviations and all(d(3.0 * res.t_high) < 1e-16 for d in deviations)


def test_depth_sweep_evaluates_the_deviation_a_few_times_per_search(monkeypatch):
    # bisection to the last bit took 2449 deviation calls over depths 2..16
    calls = []

    def counting(deviation, threshold, horizon, samples):
        return _settling_time(lambda s: calls.append(s) or deviation(s), threshold, horizon, samples)

    monkeypatch.setattr(hitting, "_settling_time", counting)
    depth_sweep(range(2, 17))
    assert len(calls) <= 600


def test_convergence_bracket_ordering_and_uniform_share():
    res = classical_convergence_time(ClassicalGenerator(hexagonal_graph(2)))
    assert res.p_uniform == 0.0625
    assert res.t_low <= res.t_converge <= res.t_high


def _two_hexagons(n: int) -> Graph:
    one = hexagonal_graph(n)
    shift = one.coords[-1][0] + 4
    coords = list(one.coords) + [(x + shift, y) for x, y in one.coords]
    edges = list(one.edges) + [(a + one.n_nodes, b + one.n_nodes) for a, b in one.edges]
    return with_oracle_cells(Graph("hexagonal", coords, edges, one.entry, one.exit))


def _disconnected_graphs() -> tuple[Graph, Graph, Graph]:
    two_parts = Graph("path", [(0, 0), (2, 0), (4, 0), (6, 0)], [(0, 1), (2, 3)], 0, 3)
    edgeless = Graph("path", [(0, 0), (2, 0)], [], 0, 1)
    return two_parts, edgeless, _two_hexagons(4)


def test_disconnected_graph_never_converges():
    graphs = _disconnected_graphs()
    two_hexagons = graphs[2]
    w = ClassicalGenerator(two_hexagons).entry_spectrum.w
    assert (two_hexagons.n_nodes, len(w)) == (96, 42)
    assert np.count_nonzero(w >= -1e-12 * np.max(np.abs(w))) == 2
    for g in graphs:
        with pytest.raises(ConvergenceError, match="disconnected"):
            classical_convergence_time(ClassicalGenerator(g))


def test_a_disconnected_graph_is_refused_before_any_spectrum(monkeypatch):
    # the breadth-first distances decide connectivity; no eigh runs and no Spectrum is made
    graphs = _disconnected_graphs()
    monkeypatch.setattr(np.linalg, "eigh", lambda m: pytest.fail("eigh ran"))
    monkeypatch.setattr(Spectrum, "__init__", lambda self, op, cell: pytest.fail("spectrum made"))
    message = "^graph is disconnected; the walk cannot reach uniformity$"
    for g in graphs:
        with pytest.raises(ConvergenceError, match=message):
            classical_convergence_time(ClassicalGenerator(g))
    # the caller builds the generator, which refuses a bad rate as such
    with pytest.raises(ValueError, match="hop rate"):
        classical_convergence_time(ClassicalGenerator(graphs[0], 0.0))


def test_a_coherent_walk_is_refused_before_any_spectrum(monkeypatch):
    # the coherent walk has no rate and no uniform limit to settle onto
    monkeypatch.setattr(np.linalg, "eigh", lambda m: pytest.fail("eigh ran"))
    monkeypatch.setattr(Spectrum, "__init__", lambda self, op, cell: pytest.fail("spectrum made"))
    with pytest.raises(AttributeError, match="rate"):
        classical_convergence_time(Hamiltonian(hexagonal_graph(3)))


@pytest.mark.parametrize("name", sorted(SMALL_GRAPHS))
def test_a_scan_and_a_settling_search_share_one_spectrum(name, monkeypatch):
    # the caller owns the generator: the scan fills its entry spectrum, and neither the
    # settling search nor propagate at the optimum diagonalises anything more
    g = SMALL_GRAPHS[name]()
    gen, calls = ClassicalGenerator(g), []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(len(m)) or eigh(m))
    curve = classical_hitting_curve(gen, t_max=30.0)
    scanned = list(calls)
    assert scanned
    res = classical_convergence_time(gen)
    propagate(gen, entry_state(g), curve.z_opt)
    assert calls == scanned
    assert repr(res) == repr(classical_convergence_time(ClassicalGenerator(g)))


@pytest.mark.parametrize(
    "build",
    [
        lambda: hexagonal_graph(3),
        lambda: hypercube_graph(4),  # its mirror fixes the middle layer of cells
        lambda: glued_tree(3, "identity"),
        lambda: glued_tree(3, "random", seed=3),  # no mirror
    ],
    ids=["hexagonal-3", "hypercube-4", "glued-identity-3", "glued-random-3"],
)
def test_convergence_matches_a_search_through_the_dense_v_oracle(build):
    # the entry row is read off V, and the deviation expands the modes through V whole
    g = build()
    op = ClassicalGenerator(g)
    spectrum, v = op.entry_spectrum, dense_v(op, entry=True)
    entry = g.entry_cells[g.entry]
    assert np.array_equal(spectrum.project(entry_state(g)), v[entry])
    w = spectrum.w
    zero = w >= -1.0e-12 * np.max(np.abs(w))
    modes = np.where(zero, 0.0, v[entry])
    gap = -np.max(w[~zero])

    def deviation(t):
        return float(np.max(np.abs(v @ (np.exp(w * t) * modes))))

    result = classical_convergence_time(ClassicalGenerator(g))
    n = g.n_nodes
    for tol, t in ((1e-3, result.t_low), (1e-4, result.t_converge), (1e-5, result.t_high)):
        horizon = (math.log(n / tol) + math.log(n)) / gap
        assert _settling_time(deviation, tol / n, horizon) == pytest.approx(t, rel=1e-9)


def test_convergence_times_scale_inversely_with_any_valid_rate():
    g = hexagonal_graph(2)
    base = classical_convergence_time(ClassicalGenerator(g))
    slow = classical_convergence_time(ClassicalGenerator(g, 1e-13))
    for name in ("t_converge", "t_low", "t_high"):
        assert getattr(slow, name) * 1e-13 == pytest.approx(getattr(base, name), rel=1e-9)


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


def test_sweep_refuses_a_fractional_depth():
    with pytest.raises(ValueError, match=r"^depth 2\.7 is not an integer$"):
        depth_sweep([2.7, 3.2, 3])


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
    fit = variance_slope_1d(Hamiltonian(path_graph(101)))
    assert abs(fit.slope - 2.0) < 0.05
    assert fit.r_squared > 0.999


def test_classical_variance_grows_linearly():
    fit = variance_slope_1d(ClassicalGenerator(path_graph(101)))
    assert abs(fit.slope - 1.0) < 0.05
    assert fit.r_squared > 0.999


def test_variance_takes_a_numpy_site_count():
    fit = variance_slope_1d(Hamiltonian(path_graph(np.int64(101))))
    ref = variance_slope_1d(Hamiltonian(path_graph(101)))
    assert repr(fit) == repr(ref)
    assert np.array_equal(fit.residuals, ref.residuals)


def test_variance_rejects_even_chain():
    with pytest.raises(ValueError):
        variance_slope_1d(Hamiltonian(path_graph(100)))


@pytest.mark.parametrize(
    "walk, scale, label",
    [
        (Hamiltonian, 0.0, "coupling"),
        (Hamiltonian, -1.0, "coupling"),
        (Hamiltonian, math.nan, "coupling"),
        (ClassicalGenerator, 0.0, "hop rate"),
        (ClassicalGenerator, math.inf, "hop rate"),
    ],
)
def test_variance_refuses_its_engines_parameter_before_the_window(walk, scale, label):
    # a zero coupling or rate once divided the default window by zero
    with pytest.raises(ValueError, match=f"^{label} must be finite and > 0, got "):
        variance_slope_1d(walk(path_graph(101), scale))


@pytest.mark.parametrize("walk", [Hamiltonian, ClassicalGenerator])
@pytest.mark.parametrize(
    "graph, message",
    [
        (lambda: path_graph(100), r"^site count m must be odd so the launch is centred$"),
        (
            lambda: hexagonal_graph(2),
            r"^variance needs a walk on path_graph\(m\), not on this hexagonal graph$",
        ),
        # three path sites out of order: the middle one is an end
        (
            lambda: Graph("path", [(0, 0), (2, 0), (4, 0)], [(0, 2), (1, 2)], 1, 2),
            r"^variance needs a walk on path_graph\(m\), not on this path graph$",
        ),
    ],
    ids=["even-path", "hexagonal", "shuffled-path"],
)
def test_variance_refuses_a_walk_off_an_odd_path_before_any_spectrum(
    walk, graph, message, monkeypatch
):
    op = walk(graph())
    monkeypatch.setattr(Spectrum, "__init__", lambda self, op, cell: pytest.fail("spectrum made"))
    with pytest.raises(ValueError, match=message):
        variance_slope_1d(op)
    with pytest.raises(ValueError, match="^--z-max must be finite and > 0, got 0.0$"):
        variance_slope_1d(op, z_max=0.0)  # the window is checked first, as in the CLI


@pytest.mark.parametrize(
    "walk, z_max",
    [
        (Hamiltonian(path_graph(41), 2.0), 40 / (8.0 * 2.0)),  # (m - 1) / (8 C)
        (ClassicalGenerator(path_graph(41), 0.5), 40**2 / (250.0 * 0.5)),  # (m - 1)^2 / (250 rate)
    ],
    ids=["coherent", "classical"],
)
def test_variance_reads_its_default_window_from_the_walk(walk, z_max):
    fit, ref = variance_slope_1d(walk), variance_slope_1d(walk, z_max)
    assert repr(fit) == repr(ref)
    assert np.array_equal(fit.residuals, ref.residuals)


def test_variance_window_error_when_walk_hits_the_ends():
    with pytest.raises(WindowError):
        variance_slope_1d(Hamiltonian(path_graph(5)), z_max=20.0)
