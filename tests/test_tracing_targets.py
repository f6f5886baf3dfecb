"""Every function the benchmark's tracer wraps must still exist in the library.

The tracer skips a target it cannot find and reports it as missing, so a
deletion or rename would silently zero that span's per-layer metrics.  Its
work counters read arguments by position, so a reordered signature would
count the wrong argument or none.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("name, owner_path, attr", [t[:3] for t in tracing.TARGETS],
                         ids=[f"{t[1]}.{t[2]}" for t in tracing.TARGETS])
def test_target_resolves(name, owner_path, attr):
    owner = tracing._resolve(owner_path)
    assert owner is not None, f"{name}: {owner_path} does not import"
    assert callable(getattr(owner, attr, None)), f"{name}: {owner_path} has no {attr}"


#: The leading parameters of each target with a counter, which the counter reads
#: by position (``args[4]`` of ``escape_steps`` is ``max_iter``); the cover
#: counters read only the result.
COUNTED_PARAMETERS = {
    ("quasilab.tracemap", "escape_steps"): ("s", "x", "y", "z", "max_iter"),
    ("quasilab.tracemap", "spectrum_cover"): (),
    ("quasilab.tracemap", "cover_sequence"): (),
    ("quasilab.bands", "product_set"): ("a", "b"),
    ("quasilab.bands", "merge_intervals"): ("pairs",),
    ("quasilab.jacobi1d", "eigenvalues_offdiag"): ("offdiag",),
    ("quasilab.jacobi1d", "count_below_offdiag"): ("offdiag", "energies"),
    ("quasilab.labyrinth", "eigs_1d_axes"): ("p", "n"),
    ("quasilab.dense", "symmetric_eigenvalues"): ("matrix",),
}


def test_every_counter_has_its_parameters_pinned():
    assert {(t[1], t[2]) for t in tracing.TARGETS if t[3] is not None} == set(COUNTED_PARAMETERS)


@pytest.mark.parametrize("owner_path, attr", sorted(COUNTED_PARAMETERS),
                         ids=[f"{o}.{a}" for o, a in sorted(COUNTED_PARAMETERS)])
def test_counter_reads_the_parameters_it_expects(owner_path, attr):
    leading = COUNTED_PARAMETERS[owner_path, attr]
    names = list(inspect.signature(getattr(tracing._resolve(owner_path), attr)).parameters)
    assert names[: len(leading)] == list(leading)
