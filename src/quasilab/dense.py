"""Dense symmetric eigenvalues through LAPACK (``np.linalg.eigvalsh``).

The 2D checks compare the product formula, built on the certified 1D solves of
``jacobi1d``, with a dense solve of the whole Labyrinth box.  The dense solve
(dsyevd) shares no routine with that path's dqds values or Sturm counts, so the
comparison stays an independent check; the spectral-symmetry criterion reads
these eigenvalues for the same reason.
"""

from __future__ import annotations

import numpy as np


def symmetric_eigenvalues(matrix) -> np.ndarray:
    """All eigenvalues of a real symmetric matrix, sorted ascending.

    Raises ``ValueError`` if the matrix is not square or not symmetric.
    """
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    if not np.allclose(a, a.T, atol=1e-12 * (1.0 + float(np.max(np.abs(a))))):
        raise ValueError("expected a symmetric matrix")
    return np.linalg.eigvalsh(a)
