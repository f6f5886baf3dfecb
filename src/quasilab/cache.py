"""Optional on-disk memoisation of 1D eigenvalue lists.

Activated by setting the environment variable QUASILAB_CACHE_DIR; cache files
are the CSV serialisation of an empirical measure, keyed by the toolkit
version, substitution order, hopping value, matrix size, restriction
convention, and solver tolerance.  A file that does not parse or holds the
wrong number of values is recomputed and rewritten.  Without the variable every
call recomputes.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from . import __version__
from .measures import EmpiricalMeasure

ENV_VAR = "QUASILAB_CACHE_DIR"


def _sanitize(x) -> str:
    return repr(x).replace(".", "p").replace("-", "m").replace("+", "")


def cache_key(s: int, a: float, n: int, convention: str, tol: float) -> str:
    version = __version__.replace(".", "p")
    return f"eigs1d_v{version}_s{s}_a{_sanitize(float(a))}_N{n}_{convention}_tol{_sanitize(tol)}.csv"


def _read(path: str, size: int) -> np.ndarray | None:
    """The list stored at ``path``; None if it is missing, unreadable, not finite or not ``size`` long."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            support = EmpiricalMeasure.from_csv_text(fh.read()).support
    except (OSError, ValueError):
        return None
    return support if support.size == size and np.isfinite(support).all() else None


def cached_eigenvalues(key: str, size: int, compute) -> np.ndarray:
    """Return ``compute()`` as a sorted array of ``size`` eigenvalues, memoised under ``key``."""
    root = os.environ.get(ENV_VAR)
    if not root:
        return np.sort(np.asarray(compute(), dtype=float))
    os.makedirs(root, exist_ok=True)
    path = os.path.join(root, key)
    stored = _read(path, size)
    if stored is not None:
        return stored
    measure = EmpiricalMeasure(np.asarray(compute(), dtype=float))
    fd, tmp = tempfile.mkstemp(dir=root, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="ascii") as fh:
            fh.write(measure.to_csv_text())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return measure.support
