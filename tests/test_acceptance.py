"""Acceptance gate: every quantitative criterion at its pinned tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one line per criterion,
or equivalently ``quasilab verify`` for the table form.
"""

from quasilab import acceptance, jacobi1d, labyrinth


def _check(result):
    marker = "PASS" if result.ok else "FAIL"
    print(f"{marker} criterion {result.number:2d} [{result.name}]: {result.detail}")
    assert result.passed, f"criterion {result.number} failed: {result.detail}"
    if result.runtime_ok is not None:
        assert result.runtime_ok, (
            f"criterion {result.number} exceeded its {result.runtime_limit:.0f}s budget"
        )
    return result


def test_criterion_01_trace_conservation():
    _check(acceptance.run_criterion(1))


def test_criterion_02_semiconjugacy():
    _check(acceptance.run_criterion(2))


def test_criterion_03_free_spectrum():
    _check(acceptance.run_criterion(3))


def test_criterion_04_free_ids():
    _check(acceptance.run_criterion(4))


def test_criterion_05_spectral_symmetry():
    _check(acceptance.run_criterion(5))


def test_criterion_05_does_not_use_the_sturm_solver(monkeypatch):
    # the solver mirrors its nonnegative half, so its lists are symmetric by
    # construction; the criterion must hold without it
    def refuse(*args, **kwargs):
        raise AssertionError("criterion 5 called the Sturm solver")

    for module in (jacobi1d, labyrinth, acceptance):
        monkeypatch.setattr(module, "eigenvalues_offdiag", refuse, raising=False)
    labyrinth.axis_eigenvalues.cache_clear()
    _check(acceptance.run_criterion(5))


def test_criterion_06_tensor_law():
    _check(acceptance.run_criterion(6))


def test_criterion_07_product_cdf():
    _check(acceptance.run_criterion(7))


def test_criterion_08_log_convolution():
    _check(acceptance.run_criterion(8))


def test_criterion_09_small_coupling_interval():
    _check(acceptance.run_criterion(9))


def test_criterion_10_large_coupling_cantor():
    _check(acceptance.run_criterion(10))


def test_criterion_11_zero_in_spectrum():
    _check(acceptance.run_criterion(11))


def test_criterion_12_twins():
    _check(acceptance.run_criterion(12))


def test_criterion_13_thickness_trend():
    _check(acceptance.run_criterion(13))


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
