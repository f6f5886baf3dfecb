"""Acceptance gate: every quantitative criterion at its pinned tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one line per criterion,
or equivalently ``quasilab verify`` for the table form.
"""

import pytest

from quasilab import acceptance, jacobi1d, labyrinth


@pytest.fixture(scope="module")
def ctx():
    return acceptance.VerifyContext()


def _check(result):
    marker = "PASS" if result.ok else "FAIL"
    print(f"{marker} criterion {result.number:2d} [{result.name}]: {result.detail}")
    assert result.passed, f"criterion {result.number} failed: {result.detail}"
    if result.runtime_ok is not None:
        assert result.runtime_ok, (
            f"criterion {result.number} exceeded its {result.runtime_limit:.0f}s budget"
        )
    return result


def test_criterion_01_trace_conservation(ctx):
    _check(acceptance.run_criterion(1, ctx))


def test_criterion_02_semiconjugacy(ctx):
    _check(acceptance.run_criterion(2, ctx))


def test_criterion_03_free_spectrum(ctx):
    _check(acceptance.run_criterion(3, ctx))


def test_criterion_04_free_ids(ctx):
    _check(acceptance.run_criterion(4, ctx))


def test_criterion_05_spectral_symmetry(ctx):
    _check(acceptance.run_criterion(5, ctx))


def test_criterion_05_does_not_use_the_sturm_solver(ctx, monkeypatch):
    # the solver mirrors its nonnegative half, so its lists are symmetric by
    # construction; the criterion must hold without it
    def refuse(*args, **kwargs):
        raise AssertionError("criterion 5 called the Sturm solver")

    for module in (jacobi1d, labyrinth, acceptance):
        monkeypatch.setattr(module, "eigenvalues_offdiag", refuse, raising=False)
    labyrinth.axis_eigenvalues.cache_clear()
    _check(acceptance.run_criterion(5, ctx))


def test_criterion_06_tensor_law(ctx):
    _check(acceptance.run_criterion(6, ctx))


def test_criterion_07_product_cdf(ctx):
    _check(acceptance.run_criterion(7, ctx))


def test_criterion_08_log_convolution(ctx):
    _check(acceptance.run_criterion(8, ctx))


def test_criterion_09_small_coupling_interval(ctx):
    _check(acceptance.run_criterion(9, ctx))


def test_criterion_10_large_coupling_cantor(ctx):
    _check(acceptance.run_criterion(10, ctx))


def test_criterion_11_zero_in_spectrum(ctx):
    _check(acceptance.run_criterion(11, ctx))


def test_criterion_12_twins(ctx):
    _check(acceptance.run_criterion(12, ctx))


def test_criterion_13_thickness_trend(ctx):
    _check(acceptance.run_criterion(13, ctx))


def test_criterion_14_determinism():
    result, first_run = acceptance.run_determinism_check()
    marker = "PASS" if result.ok else "FAIL"
    print(f"{marker} criterion {result.number:2d} [{result.name}]: {result.detail}")
    # the determinism re-run must also have produced an all-green table
    assert all(r.passed for r in first_run), "underlying criteria failed during the re-run"
    assert result.passed, result.detail


def test_criterion_14_recomputes_the_1d_lists(monkeypatch, solves):
    # the second run must repeat every 1D solve, not reuse the first run's memo
    per_run = []
    run_all = acceptance.run_all

    def counted_run_all():
        before = len(solves)
        results = run_all([6, 7, 8])  # the criteria that read 1D lists
        per_run.append(len(solves) - before)
        return results

    monkeypatch.setattr(acceptance, "run_all", counted_run_all)
    result, _ = acceptance.run_determinism_check()
    assert result.passed
    assert len(per_run) == 2 and per_run[0] == per_run[1] > 0
