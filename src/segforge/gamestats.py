"""Survey statistics: proportion z-tests, intervals and the 2x2 crosstab.

The normal distribution is the standard library's ``statistics.NormalDist``.
Its quantile, ``inv_cdf`` (Wichura's AS241), is pure Python over ``log`` and
``sqrt``, so the interval bounds written to artifacts depend on the platform
no more than those two functions do. Its ``cdf`` goes through the platform's
``erf``, but p-values reach artifacts only through the five-decimal
:func:`render_p_value`, so a last-bit difference there cannot show.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

from .errors import SegforgeError

ALTERNATIVES = ("two-sided", "greater", "less")

DEFAULT_NULL_PROPORTION = 0.5

# p-values below this render as "0.00000" in reports
_P_DISPLAY_FLOOR = 1e-5

_STANDARD_NORMAL = NormalDist()


class InsufficientSample(SegforgeError):
    """Too few trials for the normal approximation to hold."""


# ===== Proportion z-test =====


@dataclass(frozen=True)
class ZTestResult:
    """A one-sample proportion z-test against a fixed null proportion."""

    x: int
    n: int
    p_hat: float
    pi0: float
    alternative: str
    z: float
    p_value: float
    ci_level: float
    ci: tuple[float, float]
    h0_rejected: bool


def proportion_ztest(
    x: int,
    n: int,
    pi0: float = DEFAULT_NULL_PROPORTION,
    alternative: str = "two-sided",
    *,
    ci_level: float,
    significance: float,
    min_n: int,
) -> ZTestResult:
    """Test whether a success proportion differs from ``pi0``.

    Uses the normal approximation z = (p_hat - pi0) / sqrt(pi0(1-pi0)/n)
    with a Wald interval around p_hat. The interval is one-sided when the
    alternative is; the reported bound matches the test direction.
    """
    if alternative not in ALTERNATIVES:
        raise ValueError(f"alternative must be one of {ALTERNATIVES}, got {alternative!r}")
    if not 0.0 < pi0 < 1.0:
        raise ValueError(f"pi0 must lie strictly between 0 and 1, got {pi0}")
    if not 0 <= x <= n:
        raise ValueError(f"successes must lie in [0, n], got x={x}, n={n}")
    if n < min_n:
        raise InsufficientSample(f"need at least {min_n} trials, got {n}")

    p_hat = x / n
    z = (p_hat - pi0) / math.sqrt(pi0 * (1.0 - pi0) / n)
    p_less = _STANDARD_NORMAL.cdf(z)
    if alternative == "less":
        p_value = p_less
    elif alternative == "greater":
        p_value = 1.0 - p_less
    else:
        p_value = min(1.0, 2.0 * (1.0 - _STANDARD_NORMAL.cdf(abs(z))))

    se_hat = math.sqrt(p_hat * (1.0 - p_hat) / n)
    alpha = 1.0 - ci_level
    if alternative == "two-sided":
        margin = _STANDARD_NORMAL.inv_cdf(1.0 - alpha / 2.0) * se_hat
        ci = (p_hat - margin, p_hat + margin)
    elif alternative == "greater":
        ci = (p_hat - _STANDARD_NORMAL.inv_cdf(1.0 - alpha) * se_hat, 1.0)
    else:
        ci = (0.0, p_hat + _STANDARD_NORMAL.inv_cdf(1.0 - alpha) * se_hat)

    return ZTestResult(
        x=x,
        n=n,
        p_hat=p_hat,
        pi0=pi0,
        alternative=alternative,
        z=z,
        p_value=p_value,
        ci_level=ci_level,
        ci=ci,
        h0_rejected=p_value < significance,
    )


def render_p_value(p: float) -> str:
    """Fixed five-decimal rendering; tiny values print as 0.00000."""
    if p < _P_DISPLAY_FLOOR:
        return "0.00000"
    return f"{p:.5f}"


# ===== Contingency table =====


@dataclass(frozen=True)
class ContingencyTable2x2:
    """Counts of fun/not-fun crossed with learning/not-learning, row by row;
    the field names are the report's metric names."""

    fun_learning: int
    fun_not_learning: int
    not_fun_learning: int
    not_fun_not_learning: int

    @property
    def total(self) -> int:
        return sum(vars(self).values())


def crosstab(pairs: list[tuple[bool, bool]]) -> ContingencyTable2x2:
    """Count (fun, learned) outcome pairs into the four cells."""
    cells = [[0, 0], [0, 0]]
    for fun, learned in pairs:
        cells[0 if fun else 1][0 if learned else 1] += 1
    return ContingencyTable2x2(*cells[0], *cells[1])


# ===== Session analysis =====


@dataclass(frozen=True)
class SurveyAnalysis:
    """The analysis bundle for one batch of session summaries."""

    fun_test: ZTestResult
    learning_test: ZTestResult
    table: ContingencyTable2x2
    total_sessions: int
    eligible_sessions: int


def analyze_sessions(
    records: list[dict],
    *,
    ci_level: float,
    significance: float,
    min_n: int,
) -> SurveyAnalysis:
    """Run both proportion tests and the crosstab over session summaries.

    Each record carries a ``fun`` report plus ``pre_exam``/``post_exam``
    knowledge bits. Learning is assessed only on sessions that started
    without prior knowledge (pre_exam 0); improvement means post_exam 1.
    """
    fun_count = sum(1 for r in records if r["fun"])
    eligible = [r for r in records if r["pre_exam"] == 0]
    improved = sum(1 for r in eligible if r["post_exam"] == 1)
    fun_test = proportion_ztest(
        fun_count,
        len(records),
        alternative="greater",
        ci_level=ci_level,
        significance=significance,
        min_n=min_n,
    )
    learning_test = proportion_ztest(
        improved,
        len(eligible),
        alternative="greater",
        ci_level=ci_level,
        significance=significance,
        min_n=min_n,
    )
    table = crosstab([(bool(r["fun"]), r["post_exam"] == 1) for r in eligible])
    return SurveyAnalysis(
        fun_test=fun_test,
        learning_test=learning_test,
        table=table,
        total_sessions=len(records),
        eligible_sessions=len(eligible),
    )


def _format_test(title: str, result: ZTestResult) -> list[str]:
    level = int(round(result.ci_level * 100))
    verdict = "rejected" if result.h0_rejected else "not rejected"
    return [
        title,
        f"  successes {result.x} of {result.n}  (proportion {result.p_hat:.5f})",
        f"  z = {result.z:.5f}  p-value ({result.alternative}) = {render_p_value(result.p_value)}",
        f"  {level}% CI [{result.ci[0]:.5f}, {result.ci[1]:.5f}]",
        f"  H0 pi = {result.pi0:g} {verdict}",
        "",
    ]


def format_report(analysis: SurveyAnalysis) -> str:
    """Human-readable summary of both tests and the contingency table."""
    lines = [
        "Survey analysis",
        "===============",
        f"sessions analyzed: {analysis.total_sessions}"
        f" (learning-eligible: {analysis.eligible_sessions})",
        "",
    ]
    lines += _format_test("Proportion of sessions reported fun", analysis.fun_test)
    lines += _format_test("Proportion of improved learning", analysis.learning_test)
    cells = tuple(vars(analysis.table).values())
    width = max(len("Learning"), *(len(str(c)) for c in cells))
    lines += [
        "Learning outcome by fun report",
        f"  {'':8s} {'Learning':>{width}s} {'NotLearning':>11s}",
        f"  {'Fun':8s} {cells[0]:>{width}d} {cells[1]:>11d}",
        f"  {'NotFun':8s} {cells[2]:>{width}d} {cells[3]:>11d}",
        f"  total pairs: {analysis.table.total}",
    ]
    return "\n".join(lines) + "\n"


def report_rows(analysis: SurveyAnalysis) -> list[tuple[str, str]]:
    """(metric, value) rows backing the text report, for CSV export."""
    rows: list[tuple[str, str]] = [
        ("total_sessions", str(analysis.total_sessions)),
        ("eligible_sessions", str(analysis.eligible_sessions)),
    ]
    for name, test in (("fun", analysis.fun_test), ("learning", analysis.learning_test)):
        rows += [
            (f"{name}_successes", str(test.x)),
            (f"{name}_trials", str(test.n)),
            (f"{name}_proportion", repr(test.p_hat)),
            (f"{name}_z", repr(test.z)),
            (f"{name}_p_value", render_p_value(test.p_value)),
            (f"{name}_ci_low", repr(test.ci[0])),
            (f"{name}_ci_high", repr(test.ci[1])),
            (f"{name}_h0_rejected", str(test.h0_rejected).lower()),
        ]
    rows += [(name, str(count)) for name, count in vars(analysis.table).items()]
    return rows
