"""Acceptance suite: the ten gate checks, one printed verdict line each.

Each test prints ``criterion NN <label>: PASS`` (or FAIL) so a log scrape can
confirm every gate ran. The depth sweep is computed once and shared.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np
import pytest

from hexwalk.cli import main
from hexwalk.graphs import glued_tree, hexagonal_graph, hypercube_graph, path_graph
from hexwalk.hitting import (
    calibrated_coupling,
    depth_sweep,
    fit_linear,
    fit_power,
    variance_slope_1d,
)
from hexwalk.imaging import (
    ImageParseError,
    MaskEntry,
    MaskError,
    MaskSpec,
    PixelImage,
    extract_probabilities,
    parse_image,
    render_synthetic,
)
from hexwalk.quantum import Hamiltonian, entry_state, propagate
from hexwalk.stochastic import ClassicalGenerator, QswParams, density_from_state, evolve_qsw
from lindblad_oracle import lindblad_rhs
from spectrum_oracle import dense_matrix, propagate_expm

# Best sample lengths in mm reported for depths 3 through 8; used in the
# calibrated cross-check of criterion 4.
REPORTED_LENGTHS_MM = {3: 30.4, 4: 43.7, 5: 48.4, 6: 61.8, 7: 70.8, 8: 85.8}

SMALL_GRAPHS = [
    hexagonal_graph(1),
    hexagonal_graph(2),
    glued_tree(2, gluing="identity"),
    glued_tree(2, gluing="random-cycle", seed=4),
    hypercube_graph(3),
    hypercube_graph(4),
    path_graph(9),
]


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} {label}: FAIL")
        raise
    print(f"criterion {number:02d} {label}: PASS")


@pytest.fixture(scope="module")
def sweep_rows():
    return depth_sweep(range(2, 9))


def test_criterion_01_structure_counts():
    with criterion(1, "structure counts"):
        for n in range(1, 13):
            assert hexagonal_graph(n).n_nodes == 2 * n * n + 4 * n
        assert hexagonal_graph(8).n_nodes == 160


def test_criterion_02_classical_efficiency():
    with criterion(2, "classical efficiency"):
        for n in range(1, 5):
            g = hexagonal_graph(n)
            gen = ClassicalGenerator(g)
            p = propagate(gen, entry_state(g), 600.0)
            assert abs(p[g.exit] - 1.0 / (2 * n * n + 4 * n)) < 1e-6
            if n == 2:
                assert abs(p[g.exit] - 0.0625) < 1e-6


def test_criterion_03_quantum_advantage_ratio(sweep_rows):
    with criterion(3, "quantum advantage ratio"):
        for row in sweep_rows:
            assert row.p_opt / row.p_uniform > 10.0
        by_n = {row.n: row for row in sweep_rows}
        assert 0.80 <= by_n[2].p_opt <= 0.98


def test_criterion_04_linear_quantum_scaling(sweep_rows):
    with criterion(4, "linear quantum scaling"):
        fit = fit_linear([(row.n, row.z_opt) for row in sweep_rows])
        assert fit.r_squared >= 0.98
        assert fit.slope > 0.0
        # informative cross-check: pin the 16-node optimum to 25.2 mm and
        # compare the other depths against the reported sample lengths
        scale = calibrated_coupling()
        for row in sweep_rows:
            if row.n == 2:
                assert abs(row.z_opt / scale - 25.2) < 1e-3
                continue
            reported = REPORTED_LENGTHS_MM[row.n]
            assert abs(row.z_opt / scale - reported) / reported <= 0.15


def test_criterion_05_quadratic_classical_scaling(sweep_rows):
    with criterion(5, "quadratic classical scaling"):
        fit = fit_power([(row.n, row.t_converge) for row in sweep_rows])
        assert 1.8 <= fit.slope <= 2.2
        for row in sweep_rows:
            assert row.t_low <= row.t_converge <= row.t_high


def test_criterion_06_ballistic_vs_diffusive():
    with criterion(6, "ballistic vs diffusive 1D"):
        quantum = variance_slope_1d(Hamiltonian(path_graph(101)))
        classical = variance_slope_1d(ClassicalGenerator(path_graph(101)))
        assert abs(quantum.slope - 2.0) <= 0.05
        assert abs(classical.slope - 1.0) <= 0.05


def test_criterion_07_engine_cross_validation():
    with criterion(7, "engine cross-validation"):
        rng = np.random.default_rng(21)
        t = 1.5
        for g in SMALL_GRAPHS:
            assert g.n_nodes <= 30
            h = Hamiltonian(g)
            rho0 = density_from_state(entry_state(g))

            coherent = evolve_qsw(rho0, h, QswParams(omega=0.0), t)
            psi = propagate_expm(h, entry_state(g), t)
            assert np.max(np.abs(np.diag(coherent).real - np.abs(psi) ** 2)) < 1e-6

            hopping = evolve_qsw(rho0, h, QswParams(omega=1.0), t)
            p = propagate_expm(ClassicalGenerator(g), entry_state(g), t)
            assert np.max(np.abs(np.diag(hopping).real - p)) < 1e-6

        # closed-form dissipator against the explicit operator sum
        g = hexagonal_graph(1)
        h = Hamiltonian(g)
        raw = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        rho = raw @ raw.conj().T
        rho /= np.trace(rho).real
        omega, rate = 0.4, 1.1
        rhs = lindblad_rhs(rho, h, QswParams(omega=omega, rate=rate))
        adjacency = g.adjacency
        dissipator = np.zeros_like(rho)
        for i in range(6):
            for j in range(6):
                if adjacency[i, j] == 0.0:
                    continue
                jump = np.zeros((6, 6), dtype=complex)
                jump[i, j] = math.sqrt(rate)
                anti = jump.conj().T @ jump
                dissipator += jump @ rho @ jump.conj().T - 0.5 * (anti @ rho + rho @ anti)
        m = dense_matrix(h)
        coherent_term = -1j * (m @ rho - rho @ m)
        assert np.max(np.abs(rhs - (1 - omega) * coherent_term - omega * dissipator)) < 1e-12

        # spectral propagator against a truncated series
        for g in (hexagonal_graph(1), hexagonal_graph(2)):
            h = Hamiltonian(g)
            m = dense_matrix(h)
            psi0 = entry_state(g)
            series = psi0.astype(complex)
            term = psi0.astype(complex)
            for k in range(1, 41):
                term = (-1j / k) * (m @ term)
                series = series + term
            assert np.max(np.abs(propagate(h, psi0, 1.0) - series)) < 1e-8


def test_criterion_08_conservation_suite():
    with criterion(8, "conservation suite"):
        rng = np.random.default_rng(33)
        g = hexagonal_graph(3)
        h = Hamiltonian(g)
        gen = ClassicalGenerator(g)
        for _ in range(8):
            psi0 = rng.normal(size=g.n_nodes) + 1j * rng.normal(size=g.n_nodes)
            psi0 /= np.linalg.norm(psi0)
            z = rng.uniform(0.0, 100.0)
            assert abs(np.linalg.norm(propagate(h, psi0, z)) - 1.0) < 1e-10

            p0 = rng.random(g.n_nodes)
            p0 /= p0.sum()
            p = propagate(gen, p0, rng.uniform(0.0, 80.0))
            assert abs(p.sum() - 1.0) < 1e-10
            assert p.min() > -1e-12

        small = hexagonal_graph(1)
        hs = Hamiltonian(small)
        rho0 = density_from_state(entry_state(small))
        for omega in (0.0, 0.4, 1.0):
            rho = evolve_qsw(rho0, hs, QswParams(omega=omega), 2.5)
            assert abs(np.trace(rho).real - 1.0) < 1e-6
            assert np.linalg.eigvalsh(rho).min() >= -1e-6


def test_criterion_09_imaging_round_trip():
    with criterion(9, "imaging round trip"):
        for radius in (6.0, 9.0):
            spacing = 4.0 * radius
            mask = MaskSpec(
                [MaskEntry(i, 20.0 + spacing * i, 20.0, radius) for i in range(4)]
            )
            shape = (41, int(40 + 3 * spacing + 1))
            p = np.array([0.08, 0.42, 0.27, 0.23])
            image = render_synthetic(p, mask, shape, sigma=radius / 3.0)
            result = extract_probabilities(image, mask)
            assert np.max(np.abs(result.probabilities - p)) < 1e-3

        with pytest.raises(ImageParseError):
            parse_image("1 2 3\n4 5\n")
        overlapping = MaskSpec(
            [MaskEntry(0, 10.0, 10.0, 5.0), MaskEntry(1, 18.0, 10.0, 5.0)]
        )
        with pytest.raises(MaskError):
            overlapping.validate_for(PixelImage(np.ones((21, 41))))


def test_criterion_10_determinism(tmp_path):
    with criterion(10, "determinism"):
        a, b = tmp_path / "a", tmp_path / "b"
        sel = "glued-tree:d=3,glue=random,seed=9"
        assert main(["generate", "--graph", sel, "--out", str(a)]) == 0
        assert main(["generate", "--graph", sel, "--out", str(b)]) == 0
        assert (a / "nodes.csv").read_bytes() == (b / "nodes.csv").read_bytes()
        assert (a / "edges.csv").read_bytes() == (b / "edges.csv").read_bytes()

        c, d = tmp_path / "c", tmp_path / "d"
        scan = ["scan", "--graph", "hexagonal:n=2", "--dz", "0.02"]
        assert main(scan + ["--out", str(c)]) == 0
        assert main(scan + ["--out", str(d)]) == 0
        assert (c / "curve.csv").read_bytes() == (d / "curve.csv").read_bytes()

        e, f = tmp_path / "e", tmp_path / "f"
        sweep = ["sweep", "--depths", "2,3"]
        assert main(sweep + ["--out", str(e)]) == 0
        assert main(sweep + ["--out", str(f)]) == 0
        assert (e / "sweep.csv").read_bytes() == (f / "sweep.csv").read_bytes()
