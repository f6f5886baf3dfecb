import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from quasilab import labyrinth

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture
def solves(monkeypatch):
    """Empty the axis memo and record the size of every 1D eigensolve behind it."""
    labyrinth.axis_eigenvalues.cache_clear()
    sizes = []
    solve = labyrinth.eigenvalues_offdiag

    def counting(off, *args, **kwargs):
        # a stack of P windows is P solves
        sizes.extend([np.shape(off)[-1] + 1] * (len(off) if np.ndim(off) == 2 else 1))
        return solve(off, *args, **kwargs)

    monkeypatch.setattr(labyrinth, "eigenvalues_offdiag", counting)
    return sizes
