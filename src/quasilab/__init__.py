"""quasilab: spectra and density-of-states numerics for metallic-mean hopping
chains and the 2D Labyrinth model.

The toolkit generates metallic-mean substitution sequences, assembles the
associated off-diagonal (hopping) operators, computes finite-volume eigenvalue
statistics and band covers of the spectrum through the trace-map recursion, and
combines two chains into the Labyrinth model whose eigenvalues are products of
the one-dimensional ones.
"""

__version__ = "0.1.0"

from .bands import BandCover
from .errors import ResourceLimitError
from .jacobi1d import ModelParams, coupling_constant, free_ids, hopping_from_coupling
from .labyrinth import LabyrinthParams
from .measures import EmpiricalMeasure

__all__ = [
    "BandCover",
    "EmpiricalMeasure",
    "LabyrinthParams",
    "ModelParams",
    "ResourceLimitError",
    "coupling_constant",
    "free_ids",
    "hopping_from_coupling",
    "__version__",
]
