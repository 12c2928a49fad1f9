"""Experiment registry and lookup."""

from __future__ import annotations

from typing import Callable

from repro.experiments import (
    attribution_exp,
    extensions,
    honeypot_exp,
    victimization_exp,
    fig1,
    fig2,
    fig3,
    fig4,
    fig5,
    selfattack_summary,
    table1,
)
from repro.core.parallel import DayNeed
from repro.experiments.base import ExperimentConfig, ExperimentResult

__all__ = ["EXPERIMENTS", "DAY_NEEDS", "day_needs", "get_experiment", "run_experiment"]

EXPERIMENTS: dict[str, Callable[[ExperimentConfig], ExperimentResult]] = {
    "table1": table1.run,
    "fig1a": fig1.run_fig1a,
    "fig1b": fig1.run_fig1b,
    "fig1c": fig1.run_fig1c,
    "fig2a": fig2.run_fig2a,
    "fig2b": fig2.run_fig2b,
    "fig2c": fig2.run_fig2c,
    "fig3": fig3.run,
    "fig4": fig4.run,
    "fig5": fig5.run,
    "selfattack": selfattack_summary.run,
    "landscape": fig2.run_landscape,
    # Extensions beyond the paper (its stated future work).
    "econ": extensions.run_econ,
    "market": extensions.run_market,
    "whatif": extensions.run_whatif,
    "attribution": attribution_exp.run,
    "honeypot": honeypot_exp.run,
    "victimization": victimization_exp.run,
}

#: What each day fan-out experiment reads from the day products; the
#: runner unions the selected experiments' needs into one plan.
DAY_NEEDS: dict[str, Callable[[ExperimentConfig], list[DayNeed]]] = {
    "fig2a": fig2.fig2a_needs,
    "fig2b": fig2.window_needs,
    "fig2c": fig2.window_needs,
    "landscape": fig2.landscape_needs,
    "fig4": fig4.day_needs,
    "fig5": fig5.day_needs,
    "victimization": victimization_exp.day_needs,
}


def day_needs(experiment_ids: list[str], config: ExperimentConfig) -> list[DayNeed]:
    """The day needs of ``experiment_ids``, in order."""
    return [
        need
        for experiment_id in experiment_ids
        if experiment_id in DAY_NEEDS
        for need in DAY_NEEDS[experiment_id](config)
    ]


def get_experiment(experiment_id: str) -> Callable[[ExperimentConfig], ExperimentResult]:
    """Look up an experiment driver by id (raises KeyError with the known ids)."""
    try:
        return EXPERIMENTS[experiment_id]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise KeyError(f"unknown experiment {experiment_id!r} (known: {known})") from None


def run_experiment(
    experiment_id: str, config: ExperimentConfig | None = None
) -> ExperimentResult:
    """Run one experiment by id with the given (or default) config."""
    return get_experiment(experiment_id)(config or ExperimentConfig())
