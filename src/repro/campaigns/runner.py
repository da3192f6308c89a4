"""One-call campaign orchestration: sample → fit → decide → validate.

:func:`run_campaign` is the subsystem's front door (the CLI and the tests
both go through it). It chains the four stages and returns a single
:class:`CampaignReport` whose ``as_dict()`` is stable enough to diff
against a golden fixture: floats are rounded to 9 significant digits so
the JSON is byte-identical across runs of the same seed, yet any real
behavioural change still shows up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .closure import ValidationReport, validate_assignment
from .decision import PolicyAssignment, recommend
from .model import CampaignModel, fit_campaign_model
from .sampler import CampaignSampler
from .strata import CampaignConfig


def _round_floats(value):
    """Round every float to 9 significant digits, recursively.

    Repr noise in the 17th digit would make golden-fixture comparisons
    brittle for no diagnostic value; 9 digits keeps every quantity we
    report (probabilities, seconds, grams) meaningful.
    """
    if isinstance(value, float):
        return float(f"{value:.9g}")
    if isinstance(value, dict):
        return {k: _round_floats(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round_floats(v) for v in value]
    return value


@dataclass
class CampaignReport:
    """Everything one closed-loop campaign produced."""

    config: CampaignConfig
    sampler: CampaignSampler
    model: CampaignModel
    assignment: PolicyAssignment
    validation: Optional[ValidationReport] = None
    rounds: int = 0
    warnings: "list[str]" = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Recommendation feasible and (if run) validation inside the CIs."""
        if not self.assignment.feasible:
            return False
        return self.validation is None or self.validation.ok

    def as_dict(self) -> dict:
        return _round_floats(
            {
                "config": self.config.summary(),
                "rounds": self.rounds,
                "strata": self.sampler.strata_table(),
                "model": self.model.as_dict(),
                "assignment": self.assignment.as_dict(),
                "validation": (
                    self.validation.as_dict()
                    if self.validation is not None
                    else None
                ),
                "ok": self.ok,
                "warnings": list(self.warnings),
            }
        )


def run_campaign(
    config: Optional[CampaignConfig] = None,
    validate: bool = True,
    run_fleet: bool = True,
    sampler: Optional[CampaignSampler] = None,
) -> CampaignReport:
    """Run a full closed-loop campaign.

    ``sampler`` may carry a resumed checkpoint (see
    :meth:`CampaignSampler.resume`); the remaining rounds run from where
    it stopped and the rest of the loop proceeds as usual.
    """
    if config is None:
        config = CampaignConfig()
    if sampler is None:
        sampler = CampaignSampler(config)
    elif sampler.config is not config:
        config = sampler.config

    converged = sampler.run()
    warnings: "list[str]" = []
    if not converged:
        warnings.append("campaign hit max_rounds before every stratum converged")
    for stratum in config.strata():
        acc = sampler.accumulators[stratum.key]
        if acc.interval(config.confidence).halfwidth > config.ci_halfwidth:
            warnings.append(
                f"stratum {stratum.key} stopped at the sampling cap with "
                f"half-width {acc.interval(config.confidence).halfwidth:.3f}"
            )

    model = fit_campaign_model(config, sampler.accumulators)
    assignment = recommend(model, config, sampler.accumulators)
    validation: Optional[ValidationReport] = None
    if validate:
        validation = validate_assignment(assignment, config, run_fleet=run_fleet)
    return CampaignReport(
        config=config,
        sampler=sampler,
        model=model,
        assignment=assignment,
        validation=validation,
        rounds=sampler.rounds_run,
        warnings=warnings,
    )
