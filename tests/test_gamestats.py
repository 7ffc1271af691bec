"""Tests for the proportion z-tests, their intervals and the crosstab."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from segforge.gamestats import (
    ContingencyTable2x2,
    InsufficientSample,
    analyze_sessions,
    crosstab,
    format_report,
    proportion_ztest,
    render_p_value,
    report_rows,
)
from segforge.config import load_config

CONFIG = load_config()
STATS = dict(
    ci_level=CONFIG.stats_ci_level,
    significance=CONFIG.stats_significance,
    min_n=CONFIG.stats_min_n,
)


# ===== Proportion z-test =====


def test_fun_reports_z_and_verdicts():
    # 352 fun reports out of 540 game sessions
    result = proportion_ztest(352, 540, alternative="greater", **STATS)
    assert round(result.z, 2) == 7.06
    assert render_p_value(result.p_value) == "0.00000"
    assert result.h0_rejected
    assert proportion_ztest(352, 540, alternative="two-sided", **STATS).h0_rejected
    assert not proportion_ztest(352, 540, alternative="less", **STATS).h0_rejected


def test_fun_reports_walds_interval():
    result = proportion_ztest(352, 540, **STATS)
    lo, hi = result.ci
    assert abs(lo - 0.59905) < 5e-4
    assert abs(hi - 0.70466) < 5e-4


@pytest.mark.parametrize("x, n", [(352, 540), (9, 39)])
def test_one_sided_bound_uses_the_correctly_rounded_quantile(x, n):
    # 2.3263478740408408: the correctly rounded quantile of the double nearest 0.99
    result = proportion_ztest(x, n, alternative="greater", **STATS)
    p_hat = x / n
    se = math.sqrt(p_hat * (1.0 - p_hat) / n)
    assert result.ci[0] == p_hat - 2.3263478740408408 * se


def test_exact_null_gives_unit_p():
    result = proportion_ztest(270, 540, **STATS)
    assert result.z == 0.0
    assert result.p_value == 1.0
    assert not result.h0_rejected


def test_improved_learning_z():
    # 219 improved out of 309 eligible participants
    result = proportion_ztest(219, 309, alternative="greater", **STATS)
    assert round(result.z, 2) == 7.34
    assert abs(result.p_hat - 0.709) < 5e-4
    assert result.h0_rejected


def test_one_sided_intervals_touch_the_bound():
    greater = proportion_ztest(352, 540, alternative="greater", **STATS)
    less = proportion_ztest(352, 540, alternative="less", **STATS)
    assert greater.ci[1] == 1.0
    assert less.ci[0] == 0.0
    assert greater.ci[0] > 0.5


def test_insufficient_sample():
    with pytest.raises(InsufficientSample):
        proportion_ztest(10, 29, **STATS)
    # guard is configurable
    assert proportion_ztest(10, 29, **dict(STATS, min_n=20)).n == 29


@pytest.mark.parametrize(
    "kwargs",
    [
        {"x": -1, "n": 100},
        {"x": 101, "n": 100},
        {"x": 50, "n": 100, "pi0": 0.0},
        {"x": 50, "n": 100, "pi0": 1.0},
        {"x": 50, "n": 100, "alternative": "different"},
    ],
)
def test_ztest_rejects_bad_arguments(kwargs):
    with pytest.raises(ValueError):
        proportion_ztest(**kwargs, **STATS)


@given(st.integers(0, 200), st.integers(30, 200))
def test_two_sided_p_symmetric_about_half(x, n):
    x = min(x, n)
    a = proportion_ztest(x, n, **STATS)
    b = proportion_ztest(n - x, n, **STATS)
    assert math.isclose(a.p_value, b.p_value, rel_tol=0, abs_tol=1e-12)


@given(st.integers(0, 300), st.integers(30, 300))
def test_one_sided_ps_sum_to_one(x, n):
    x = min(x, n)
    greater = proportion_ztest(x, n, alternative="greater", **STATS)
    less = proportion_ztest(x, n, alternative="less", **STATS)
    assert greater.p_value + less.p_value == 1.0


def test_ci_symmetric_and_narrowing():
    small = proportion_ztest(60, 100, **STATS)
    big = proportion_ztest(240, 400, **STATS)
    for result in (small, big):
        mid = (result.ci[0] + result.ci[1]) / 2.0
        assert abs(mid - result.p_hat) < 1e-12
    assert (big.ci[1] - big.ci[0]) < (small.ci[1] - small.ci[0])


def test_p_value_rendering():
    assert render_p_value(0.25) == "0.25000"
    assert render_p_value(1e-5) == "0.00001"
    assert render_p_value(9.9e-6) == "0.00000"
    assert render_p_value(0.0) == "0.00000"


# ===== Crosstab =====


def test_crosstab_survey_counts():
    pairs = (
        [(True, True)] * 154
        + [(True, False)] * 48
        + [(False, True)] * 65
        + [(False, False)] * 42
    )
    table = crosstab(pairs)
    assert table == ContingencyTable2x2(154, 48, 65, 42)
    assert table.total == 309


def test_crosstab_empty_and_single():
    assert crosstab([]).total == 0
    assert crosstab([(True, True)]) == ContingencyTable2x2(1, 0, 0, 0)


@given(st.lists(st.tuples(st.booleans(), st.booleans()), max_size=200))
def test_crosstab_cells_sum_to_input_length(pairs):
    assert crosstab(pairs).total == len(pairs)


# ===== Session analysis =====


def _records():
    return (
        [{"fun": True, "pre_exam": 0, "post_exam": 1}] * 25
        + [{"fun": False, "pre_exam": 0, "post_exam": 0}] * 10
        + [{"fun": True, "pre_exam": 1, "post_exam": 1}] * 10
    )


def test_analyze_counts_eligibility():
    analysis = analyze_sessions(_records(), **STATS)
    assert analysis.total_sessions == 45
    assert analysis.eligible_sessions == 35
    assert analysis.fun_test.x == 35
    assert analysis.fun_test.n == 45
    assert analysis.learning_test.x == 25
    assert analysis.learning_test.n == 35
    assert analysis.table == ContingencyTable2x2(25, 0, 0, 10)


def test_analyze_respects_min_n():
    records = _records()
    few_eligible = records[:25] + records[35:]  # 35 sessions, 25 eligible
    with pytest.raises(InsufficientSample):
        analyze_sessions(few_eligible, **STATS)
    analyze_sessions(few_eligible, **dict(STATS, min_n=10))


def test_report_mentions_key_numbers():
    text = format_report(analyze_sessions(_records(), **STATS))
    assert "successes 35 of 45" in text
    assert "successes 25 of 35" in text
    assert "H0 pi = 0.5 rejected" in text
    assert "total pairs: 35" in text


def test_report_rows_round_to_report():
    rows = dict(report_rows(analyze_sessions(_records(), **STATS)))
    assert rows["fun_successes"] == "35"
    assert rows["learning_trials"] == "35"
    assert rows["fun_learning"] == "25"
    assert float(rows["learning_proportion"]) == 25 / 35
