"""Continuous-time quantum and stochastic walks on hexagonal polyhex graphs.

The package builds the graph families used in fast-hitting experiments
(diamond-shaped honeycomb patches, glued binary trees, hypercubes, paths),
evolves quantum, classical, and interpolating stochastic walks on them,
locates optimal hitting lengths and classical convergence times, fits the
scaling of both against graph depth, and reads walker distributions back
out of pixel images through circular node masks.
"""

from hexwalk.graphs import Graph, glued_tree, hexagonal_graph, hypercube_graph, path_graph
from hexwalk.quantum import Hamiltonian, entry_state, propagate
from hexwalk.stochastic import ClassicalGenerator, QswParams, evolve_qsw
from hexwalk.hitting import (
    BoundaryMaximumWarning,
    ConvergenceError,
    ConvergenceResult,
    FitError,
    FitResult,
    HittingCurve,
    WindowError,
    classical_convergence_time,
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
    MaskSpec,
    PixelImage,
    extract_probabilities,
    parse_image,
    parse_mask,
)

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "hexagonal_graph",
    "glued_tree",
    "hypercube_graph",
    "path_graph",
    "Hamiltonian",
    "entry_state",
    "propagate",
    "ClassicalGenerator",
    "QswParams",
    "evolve_qsw",
    "HittingCurve",
    "ConvergenceResult",
    "ConvergenceError",
    "FitResult",
    "FitError",
    "WindowError",
    "BoundaryMaximumWarning",
    "quantum_hitting_curve",
    "classical_convergence_time",
    "depth_sweep",
    "fit_linear",
    "fit_power",
    "variance_slope_1d",
    "PixelImage",
    "MaskSpec",
    "ImageParseError",
    "MaskError",
    "DegenerateImageError",
    "parse_image",
    "parse_mask",
    "extract_probabilities",
    "__version__",
]
