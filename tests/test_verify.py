import time

import pytest

from stoimenow import enumeration
from stoimenow.enumeration import MAX_ARCS
from stoimenow.verify import MAX_CHECK_WALK_ARCS, SUITES, run_suite


@pytest.mark.parametrize(
    "suite, n_max",
    [(suite, MAX_CHECK_WALK_ARCS + 1) for suite in ("omega", "bijections", "all")]
    + [(suite, 0) for suite in SUITES]
    + [(suite, MAX_ARCS + 1) for suite in SUITES],
)
def test_run_suite_refuses_n_max_out_of_range_at_once(monkeypatch, suite, n_max):
    def no_walk(n):
        raise AssertionError(f"walked M_{n}")

    monkeypatch.setattr(enumeration, "completions", no_walk)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="--n-max must be"):
        run_suite(suite, order=8, n_max=n_max)
    assert time.perf_counter() - start < 0.5


def test_series_suite_accepts_the_counter_cap():
    outcomes = run_suite("h-eq", order=8, n_max=MAX_ARCS)
    assert outcomes and all(o.passed for o in outcomes)
