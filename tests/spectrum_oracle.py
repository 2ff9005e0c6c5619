"""The dense eigenvector matrix V of a sector-held spectrum, for tests only.

:class:`hexwalk.quantum.Spectrum` keeps V as two blocks and applies them in
sector products.  :func:`dense_v` puts V together whole, from the mirror and
the chirality of the operator rather than from the spectrum's own index
arrays, so products with it check the sector products.
"""

from __future__ import annotations

import numpy as np

from hexwalk.quantum import SpectralOperator


def dense_v(op: SpectralOperator) -> np.ndarray:
    """The k x k eigenvector matrix of ``op.spectrum``, columns in the order of its ``w``.

    A pair cell p and its image r[p] share the even rows ``y_even[a]`` and
    take the odd rows +-``y_odd[a]``; a fixed cell has its even row and 0 on
    the odd columns.  A derived odd block is Gamma[p] times the even block
    with its columns reversed.
    """
    spectrum, k = op.spectrum, op.dim
    cell = np.arange(k)
    r = cell if op.mirror is None else op.mirror
    p, f = np.flatnonzero(cell < r), np.flatnonzero(cell == r)
    n = len(p)
    y_odd = spectrum.y_odd
    if y_odd is None:
        y_odd = op.chirality[p, None] * spectrum.y_even[:, ::-1]
    v = np.zeros((k, k))
    even, odd = v[:, : k - n], v[:, k - n :]
    even[p] = even[r[p]] = spectrum.y_even[:n]
    even[f] = spectrum.y_even[n:]
    odd[p] = y_odd
    odd[r[p]] = -y_odd
    return v


def propagate_dense(op: SpectralOperator, x0: np.ndarray, ts) -> np.ndarray:
    """V exp(phase w t) V^T x0 through :func:`dense_v`, at one length or one row per length."""
    v, w = dense_v(op), op.spectrum.w
    modes = v.T @ x0
    ts = np.asarray(ts, dtype=float)
    if ts.ndim == 0:
        return v @ (np.exp(op.phase * w * float(ts)) * modes)
    return (np.exp(op.phase * np.outer(ts, w)) * modes) @ v.T
