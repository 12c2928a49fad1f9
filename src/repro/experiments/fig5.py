"""Figure 5: systems under NTP DDoS attack per hour (the null result).

Applies the conservative filter learned from the self-attacks (>200-byte
NTP packets, more than 10 amplifiers, >1 Gbps peak) hour by hour at the
IXP, then runs the same Welch methodology as Figure 4. The paper's
central negative finding: no significant reduction after the takedown.

The hourly reduction runs through :func:`repro.core.pipeline.collect_streaming`
with a :class:`~repro.core.streaming.StreamingAnalyzer`, so it
parallelizes over days (``--jobs``) and, with the day cache on, reads the
one-day analyzer clones the run's day plan computed alongside Fig 4's
port counts, with bit-identical results.
"""

from __future__ import annotations

from repro.core.parallel import DayNeed
from repro.core.pipeline import collect_streaming
from repro.core.streaming import StreamingAnalyzer
from repro.core.takedown_analysis import analyze_takedown
from repro.experiments.base import (
    ExperimentConfig,
    ExperimentResult,
    build_scenario,
    format_table,
)

__all__ = ["run", "day_needs"]


def day_needs(config: ExperimentConfig) -> list[DayNeed]:
    """One hourly attack-count stream over Fig 4's days at the IXP."""
    scenario_config = config.scenario_config()
    analyzer = StreamingAnalyzer(
        [],
        n_days=scenario_config.n_days,
        sampling_factor=float(scenario_config.ixp_sampling),
    )
    days = range(40, scenario_config.n_days - 1)
    return [DayNeed("stream", "ixp", days, analyzer=analyzer)]


def run(config: ExperimentConfig) -> ExperimentResult:
    """Regenerate Figure 5: systems under NTP attack per hour (null)."""
    scenario = build_scenario(config)
    takedown_day = scenario.config.takedown_day
    (need,) = day_needs(config)
    day_range = need.day_range

    analyzer = need.analyzer
    collect_streaming(
        scenario,
        need.vantage,
        analyzer,
        day_range=day_range,
        jobs=config.jobs,
        cache=config.use_cache,
        batch_days=config.batch_days,
    )
    start, end = day_range
    daily = analyzer.daily_attack_counts()[start:end].astype(float)
    hourly_series = analyzer.hourly_attacks[start * 24 : end * 24]

    takedown_index = takedown_day - day_range[0]
    report = analyze_takedown(
        daily, takedown_index, windows=(30, 40), series_name="NTP attacks/hour @ IXP"
    )
    w30, w40 = report.window(30), report.window(40)

    before_mean = daily[:takedown_index].mean() / 24.0
    after_mean = daily[takedown_index + 1 :].mean() / 24.0
    table = format_table(
        ["metric", "value"],
        [
            ["mean systems under attack/hour (before)", f"{before_mean:.2f}"],
            ["mean systems under attack/hour (after)", f"{after_mean:.2f}"],
            ["wt30 significant", str(w30.significant)],
            ["wt40 significant", str(w40.significant)],
            ["red30", f"{w30.reduction_ratio * 100:.1f}%"],
            ["red40", f"{w40.reduction_ratio * 100:.1f}%"],
        ],
    )

    return ExperimentResult(
        experiment_id="fig5",
        title="Systems under NTP DDoS attack per hour",
        data={
            "hourly_series": hourly_series,
            "daily_series": daily,
            "report": report,
            "takedown_index": takedown_index,
        },
        tables=[table],
        paper_vs_measured=[
            ("wt30 significant", "False", str(w30.significant)),
            ("wt40 significant", "False", str(w40.significant)),
            (
                "attacks continue after takedown",
                "yes",
                "yes" if after_mean > 0.3 * before_mean else "no",
            ),
        ],
    )
