"""Acceptance gate: every quantitative criterion at its pinned tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one line per criterion,
or equivalently ``quasilab verify`` for the table form.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from quasilab import acceptance, cli, jacobi1d, labyrinth, tracemap


def _check(result):
    marker = "PASS" if result.ok else "FAIL"
    print(f"{marker} criterion {result.number:2d} [{result.name}]: {result.detail}")
    assert result.passed, f"criterion {result.number} failed: {result.detail}"
    if result.runtime_ok is not None:
        assert result.runtime_ok, (
            f"criterion {result.number} exceeded its {result.runtime_limit_s:.0f}s budget"
        )
    return result


def _criterion_test(number):
    def test():
        _check(acceptance.run_criterion(number))
    return test


# one test per row of the table, named after its check so that a failure names
# the criterion: test_criterion_01_trace_conservation, ...
for _number in range(1, acceptance.DETERMINISM_CRITERION):
    _name = f"test_criterion_{_number:02d}{acceptance._CRITERIA[_number - 1][2].__name__}"
    globals()[_name] = _criterion_test(_number)


def test_criterion_05_does_not_use_the_sturm_solver(monkeypatch):
    # the solver mirrors its nonnegative half, so its lists are symmetric by
    # construction; the criterion must hold without it
    def refuse(*args, **kwargs):
        raise AssertionError("criterion 5 called the Sturm solver")

    for module in (jacobi1d, labyrinth, acceptance):
        monkeypatch.setattr(module, "eigenvalues_offdiag", refuse, raising=False)
    labyrinth.axis_eigenvalues.cache_clear()
    _check(acceptance.run_criterion(5))


def test_every_name_fits_the_table_column():
    assert all(len(name) <= 38 for name, _, _ in acceptance._CRITERIA)


def test_a_check_over_its_budget_fails_its_row(monkeypatch, capsys):
    rows = list(acceptance._CRITERIA)
    name, _, check = rows[1]
    rows[1] = (name, 0.0, check)
    monkeypatch.setattr(acceptance, "_CRITERIA", rows)
    result = acceptance.run_criterion(2)
    assert (result.passed, result.runtime_ok, result.runtime_limit_s, result.ok) == (True, False, 0.0, False)
    assert acceptance.format_table([result]).splitlines()[1].startswith(f" 2 {name:<38} FAIL   OVER     max")
    assert cli.main(["verify", "--criteria", "2"]) == 1
    assert "FAIL   OVER" in capsys.readouterr().out


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


@settings(max_examples=60)
@given(st.sampled_from([1, 2, 3]),
       st.one_of(st.floats(min_value=1e-3, max_value=1e150),
                 st.floats(min_value=-3.0, max_value=150.0).map(lambda u: min(max(10.0**u, 1e-3), 1e150))))
@example(1, 1e-3)
@example(2, 1.0)
@example(3, 1.3)
@example(1, 4.0)
@example(2, 1e150)
@example(3, 1e150)
def test_the_zero_orbit_returns_after_its_derived_period(s, a):
    # returns exactly at [p, 2p] make the period criterion 11 checks the minimal one
    period = acceptance.ZERO_ORBIT_PERIOD[s]
    start = v = tracemap.line_point(jacobi1d.ModelParams(s, a), 0.0)
    steps = []
    for t in range(1, 2 * period + 1):
        v = tracemap.trace_map(s, v)
        if all(x == x0 for x, x0 in zip(v, start)):  # == equates +-0
            steps.append(t)
    assert steps == [period, 2 * period]
