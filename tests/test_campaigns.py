"""Tests for repro.campaigns: the statistical machinery, seeded
determinism and checkpoint/resume, the fitted model, the MCDM decision
layer, and the closed loop that re-measures a recommendation live.

The acceptance bar from the issue: a campaign spanning >=3 fault classes
x >=2 domains x >=2 backends must converge, recommend, apply the
assignment to the fleet driver, and re-measure availability and
per-recovery carbon inside the model's own confidence intervals --
deterministically.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from pathlib import Path

import pytest

from repro.campaigns import (
    CampaignConfig,
    CampaignSampler,
    InjectionPhase,
    apply_assignment,
    clopper_pearson,
    fit_campaign_model,
    recommend,
    run_campaign,
)
from repro.campaigns.closure import validate_assignment
from repro.campaigns.decision import (
    POLICY_ORDER,
    PolicyAssignment,
    PolicyInputs,
    carbon_per_fault,
    downtime_per_fault,
    score_policies,
)
from repro.campaigns.stats import (
    ConfidenceInterval,
    mat_identity,
    mat_inverse,
    mat_mul,
    mat_solve,
    normal_quantile,
)
from repro.campaigns.sampler import InjectionProcess
from repro.faultinj.models import FaultKind
from repro.sim.clock import YEARS

FIXTURES = Path(__file__).parent / "fixtures"


def small_config(**overrides) -> CampaignConfig:
    """The campaign-smoke factor space: 2 kinds x 1 domain x 1 phase x
    2 backends, 8 rounds — the same config CI's golden job runs."""
    defaults = dict(
        kinds=(FaultKind.STACK_SMASH, FaultKind.HEAP_OVERFLOW),
        domains=("shard-0",),
        phases=(InjectionPhase.ENTRY,),
        backends=("mpk", "cheri"),
        max_rounds=8,
    )
    defaults.update(overrides)
    return CampaignConfig(**defaults)


@pytest.fixture(scope="module")
def small_report():
    """One full closed-loop run of the smoke config, shared read-only."""
    return run_campaign(small_config())


# ----------------------------------------------------------------------
# Statistical primitives
# ----------------------------------------------------------------------


class TestStats:
    def test_clopper_pearson_known_values(self):
        # 0/10 at 95%: hi is the exact 1 - (alpha/2)^(1/n) "rule of three"
        ci = clopper_pearson(0, 10)
        assert ci.lo == 0.0
        assert ci.hi == pytest.approx(1.0 - 0.025 ** 0.1, abs=1e-6)
        # 10/10 mirrors it
        ci = clopper_pearson(10, 10)
        assert ci.hi == 1.0
        assert ci.lo == pytest.approx(0.025 ** 0.1, abs=1e-6)
        # 5/10: the textbook (0.187, 0.813)
        ci = clopper_pearson(5, 10)
        assert ci.lo == pytest.approx(0.1871, abs=2e-4)
        assert ci.hi == pytest.approx(0.8129, abs=2e-4)

    def test_clopper_pearson_zero_trials_is_vacuous(self):
        ci = clopper_pearson(0, 0)
        assert (ci.lo, ci.hi) == (0.0, 1.0)

    def test_clopper_pearson_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            clopper_pearson(5, 3)
        with pytest.raises(ValueError):
            clopper_pearson(1, 10, confidence=1.0)

    def test_normal_quantile(self):
        assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-9)
        assert normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-5)
        assert normal_quantile(0.025) == pytest.approx(-1.959964, abs=1e-5)

    def test_mat_solve_and_inverse(self):
        a = [[2.0, 1.0], [1.0, 3.0]]
        x = mat_solve(a, [[5.0], [10.0]])
        assert x[0][0] == pytest.approx(1.0)
        assert x[1][0] == pytest.approx(3.0)
        prod = mat_mul(a, mat_inverse(a))
        for i, row in enumerate(mat_identity(2)):
            for j, want in enumerate(row):
                assert prod[i][j] == pytest.approx(want, abs=1e-12)

    def test_interval_contains_and_overlaps(self):
        a = ConfidenceInterval(0.2, 0.3, 0.4)
        b = ConfidenceInterval(0.35, 0.5, 0.6)
        c = ConfidenceInterval(0.45, 0.5, 0.6)
        assert a.contains(0.25) and not a.contains(0.45)
        assert a.overlaps(b) and b.overlaps(a)
        assert not a.overlaps(c) and not c.overlaps(a)


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------


class TestDeterminism:
    def test_round_plan_is_pure_function_of_seed(self):
        cfg = small_config()
        a, b = CampaignSampler(cfg), CampaignSampler(small_config())
        for stratum in cfg.strata():
            for round_index in range(3):
                assert a.round_plan(stratum, round_index) == b.round_plan(
                    stratum, round_index
                )

    def test_different_seed_different_plan(self):
        cfg0, cfg1 = small_config(seed=0), small_config(seed=1)
        a, b = CampaignSampler(cfg0), CampaignSampler(cfg1)
        plans0 = [a.round_plan(s, 0) for s in cfg0.strata()]
        plans1 = [b.round_plan(s, 0) for s in cfg1.strata()]
        assert plans0 != plans1

    def test_full_report_is_byte_identical(self):
        dumps = []
        for _ in range(2):
            report = run_campaign(small_config(), run_fleet=False)
            dumps.append(json.dumps(report.as_dict(), sort_keys=True))
        assert dumps[0] == dumps[1]

    def test_seed_reaches_the_coefficients(self):
        a = run_campaign(small_config(seed=0), validate=False)
        b = run_campaign(small_config(seed=7), validate=False)
        assert a.model.as_dict() != b.model.as_dict()


# ----------------------------------------------------------------------
# Checkpoint / resume
# ----------------------------------------------------------------------


class TestResume:
    def test_resume_mid_campaign_is_exact(self):
        cfg = small_config()
        partial = CampaignSampler(cfg)
        partial.step()
        partial.step()
        # The checkpoint survives a JSON round trip (it's what a driver
        # would persist between processes).
        state = json.loads(json.dumps(partial.state()))

        resumed = CampaignSampler.resume(small_config(), state)
        resumed.run()
        baseline = CampaignSampler(small_config())
        baseline.run()

        assert resumed.rounds_run == baseline.rounds_run
        assert json.dumps(resumed.strata_table(), sort_keys=True) == json.dumps(
            baseline.strata_table(), sort_keys=True
        )
        # ... and identity extends through the model fit.
        fit_resumed = fit_campaign_model(cfg, resumed.accumulators)
        fit_base = fit_campaign_model(cfg, baseline.accumulators)
        assert fit_resumed.as_dict() == fit_base.as_dict()

    def test_resume_through_runner(self):
        cfg = small_config()
        partial = CampaignSampler(cfg)
        partial.step()
        resumed = CampaignSampler.resume(
            cfg, json.loads(json.dumps(partial.state()))
        )
        report = run_campaign(sampler=resumed, run_fleet=False)
        baseline = run_campaign(small_config(), run_fleet=False)
        assert json.dumps(report.as_dict(), sort_keys=True) == json.dumps(
            baseline.as_dict(), sort_keys=True
        )

    def test_resume_rejects_seed_mismatch(self):
        partial = CampaignSampler(small_config(seed=0))
        partial.step()
        with pytest.raises(ValueError):
            CampaignSampler.resume(small_config(seed=1), partial.state())

    def test_resume_rejects_unknown_stratum(self):
        partial = CampaignSampler(small_config())
        partial.step()
        state = partial.state()
        state["strata"]["bogus|shard-9|entry|mpk"] = next(
            iter(state["strata"].values())
        )
        with pytest.raises(ValueError):
            CampaignSampler.resume(small_config(), state)


# ----------------------------------------------------------------------
# Sampler behaviour
# ----------------------------------------------------------------------


class TestSampler:
    def test_stopping_rule_honours_floor_and_cap(self, small_report):
        cfg = small_report.config
        for acc in small_report.sampler.accumulators.values():
            assert acc.trials >= cfg.min_per_stratum
            assert acc.trials <= cfg.max_per_stratum
            assert acc.trials == len(acc.observations)
            assert 0 <= acc.contained <= acc.trials

    def test_strata_table_shape(self, small_report):
        table = small_report.sampler.strata_table()
        assert len(table) == len(small_report.config.strata())
        for row in table:
            assert 0.0 <= row["containment"]["lo"] <= row["containment"]["hi"] <= 1.0
            assert row["halfwidth"] >= 0.0

    def test_backend_reaches_the_observations(self):
        # Cross-domain faults are where the backends differ: the same
        # stratum records MPK pkey violations under mpk and capability
        # violations under cheri.
        sampler = CampaignSampler(
            small_config(kinds=(FaultKind.CROSS_DOMAIN_READ,), max_rounds=1)
        )
        sampler.step()
        violations = {"mpk": set(), "cheri": set()}
        for acc in sampler.accumulators.values():
            for obs in acc.observations:
                if obs.violation is not None:
                    violations[acc.stratum.backend].add(obs.violation)
        assert violations["mpk"] == {"ProtectionKeyViolation"}
        assert violations["cheri"] == {"CapabilityViolation"}


# ----------------------------------------------------------------------
# Model fit
# ----------------------------------------------------------------------


class TestModel:
    def test_predictions_are_sane(self, small_report):
        cfg, model = small_report.config, small_report.model
        for stratum in cfg.strata():
            p = model.predict_containment(stratum)
            assert 0.0 <= p.lo <= p.mid <= p.hi <= 1.0
            r = model.predict_recovery(stratum)
            assert r.lo <= r.mid <= r.hi
            assert r.mid > 0.0

    def test_interval_floor_applies(self, small_report):
        # The simulator's cost models are deterministic; without the
        # relative-half-width floor the latency fit would claim ~zero
        # uncertainty. With it, every interval is at least 5% wide.
        cfg, model = small_report.config, small_report.model
        floor = cfg.min_relative_halfwidth
        for stratum in cfg.strata():
            r = model.predict_recovery(stratum)
            assert r.halfwidth >= floor * abs(r.mid) * (1.0 - 1e-9)

    def test_model_tracks_observed_containment(self, small_report):
        # The logistic fit must stay statistically compatible with each
        # stratum's own exact interval.
        cfg, model = small_report.config, small_report.model
        for acc in small_report.sampler.accumulators.values():
            observed = acc.interval(cfg.confidence)
            predicted = model.predict_containment(acc.stratum)
            assert predicted.overlaps(observed), acc.stratum.key

    def test_fit_requires_samples(self):
        cfg = small_config()
        with pytest.raises(ValueError):
            fit_campaign_model(cfg, CampaignSampler(cfg).accumulators)


# ----------------------------------------------------------------------
# Decision layer
# ----------------------------------------------------------------------


def _inputs() -> PolicyInputs:
    return PolicyInputs(
        containment=ConfidenceInterval(0.6, 0.7, 0.8),
        recovery_seconds=ConfidenceInterval(3e-6, 3.5e-6, 4e-6),
        rewind_gco2e_per_recovery=ConfidenceInterval(5e-8, 7e-8, 9e-8),
        restart_downtime=114.58,
        restart_gco2e_per_fault=2.3125,
    )


class TestDecisionFormulas:
    def test_rewind_beats_restart_on_downtime(self):
        cfg, inputs = CampaignConfig(), _inputs()
        d_rw = downtime_per_fault("rewind", 0.7, 3.5e-6, inputs, cfg)
        d_rst = downtime_per_fault("restart", 0.7, 3.5e-6, inputs, cfg)
        assert d_rw < d_rst
        # the uncontained fraction still pays the restart
        assert d_rw == pytest.approx(0.7 * 3.5e-6 + 0.3 * 114.58)

    def test_retry_charges_the_backoff(self):
        inputs = _inputs()
        with_backoff = downtime_per_fault(
            "retry", 0.7, 3.5e-6, inputs, CampaignConfig()
        )
        without = downtime_per_fault(
            "retry", 0.7, 3.5e-6, inputs, CampaignConfig(retry_backoff=0.0)
        )
        cfg = CampaignConfig()
        persistent = 1.0 - cfg.transient_fraction
        expected_backoff = cfg.transient_fraction * cfg.retry_backoff + (
            persistent * cfg.retry_backoff * (2.0 ** cfg.retry_budget - 1.0)
        )
        assert with_backoff - without == pytest.approx(0.7 * expected_backoff)

    def test_backoff_is_carbon_free(self):
        # Backoff is idle wait: retry's carbon must not move with it.
        inputs = _inputs()
        a = carbon_per_fault("retry", 0.7, 7e-8, inputs, CampaignConfig())
        b = carbon_per_fault(
            "retry", 0.7, 7e-8, inputs, CampaignConfig(retry_backoff=1.0)
        )
        assert a == b
        assert a > carbon_per_fault("rewind", 0.7, 7e-8, inputs, CampaignConfig())

    def test_restart_is_the_baseline(self):
        cfg, inputs = CampaignConfig(), _inputs()
        assert downtime_per_fault("restart", 0.9, 1e-6, inputs, cfg) == 114.58
        assert carbon_per_fault("restart", 0.9, 1e-6, inputs, cfg) == 2.3125

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            downtime_per_fault("reboot", 0.5, 1e-6, _inputs(), CampaignConfig())


class TestRecommendation:
    def test_scoreboard_covers_every_policy(self, small_report):
        assignment = small_report.assignment
        for domain in small_report.config.domains:
            policies = {s.policy for s in assignment.scores if s.domain == domain}
            assert policies == {"rewind", "retry", "quarantine", "restart"}

    def test_rewind_recommended_and_feasible(self, small_report):
        assignment = small_report.assignment
        assert assignment.feasible
        assert assignment.policies == {"shard-0": "rewind"}
        assert assignment.backend == "mpk"

    def test_restart_is_infeasible_at_the_defaults(self, small_report):
        # The paper's core contrast: whole-process restart at 10 GiB blows
        # both the availability SLO and the carbon budget.
        cfg = small_report.config
        for score in small_report.assignment.scores:
            if score.policy != "restart":
                continue
            assert not score.feasible
            assert score.availability.mid < cfg.slo
            assert score.carbon_g_per_year.mid > cfg.carbon_budget_g_per_year

    def test_pareto_front_contains_the_choice(self, small_report):
        assignment = small_report.assignment
        for domain, policy in assignment.policies.items():
            front = assignment.pareto_front(domain)
            assert front
            assert policy in {s.policy for s in front}

    def test_recommend_is_deterministic(self, small_report):
        again = recommend(
            small_report.model,
            small_report.config,
            small_report.sampler.accumulators,
        )
        assert again.as_dict() == small_report.assignment.as_dict()


# ----------------------------------------------------------------------
# The closed loop
# ----------------------------------------------------------------------


class TestClosedLoop:
    def test_validation_matches_the_model(self, small_report):
        validation = small_report.validation
        assert validation is not None and validation.ok
        for dv in validation.domains:
            assert dv.availability_ok
            assert dv.predicted_availability.overlaps(dv.measured_interval)
            assert dv.gco2e_ok
            if dv.measured_gco2e_per_recovery is not None:
                assert dv.predicted_gco2e_per_recovery.contains(
                    dv.measured_gco2e_per_recovery
                )

    def test_assignment_reaches_the_fleet(self, small_report):
        fleet = small_report.validation.fleet
        assert fleet["requested"]["shard-0"] == "rewind"
        for domain, policy in small_report.assignment.policies.items():
            assert fleet["applied"][domain] == policy
        assert fleet["availability"] > 0.99
        assert fleet["served"] > 0

    def test_apply_assignment_builds_live_policies(self, small_report):
        policies = apply_assignment(
            small_report.assignment, small_report.config
        )
        assert set(policies) == set(small_report.config.domains)
        for policy in policies.values():
            assert hasattr(policy, "decide")

    def test_acceptance_full_factor_space(self):
        """The issue's bar: >=3 fault classes x >=2 domains x >=2 backends,
        closed loop, deterministic verdict."""
        cfg = CampaignConfig()
        assert len(cfg.kinds) >= 3
        assert len(cfg.domains) >= 2
        assert len(cfg.backends) >= 2
        report = run_campaign(cfg)
        assert report.ok
        assert report.assignment.feasible
        assert report.validation.ok
        assert set(report.assignment.policies) == set(cfg.domains)
        applied = report.validation.fleet["applied"]
        for domain, policy in report.assignment.policies.items():
            assert applied[domain] == policy


# ----------------------------------------------------------------------
# Golden fixture (mirrors CI's campaign-smoke job)
# ----------------------------------------------------------------------


class TestGoldenFixture:
    def test_small_campaign_matches_golden(self, small_report):
        want = json.loads(
            (FIXTURES / "campaign_golden.json").read_text()
        )
        got = json.loads(json.dumps(small_report.as_dict(), sort_keys=True))
        assert got == want


# ----------------------------------------------------------------------
# Recorded pins: full-precision outputs of the closure under each of the
# four policies, of the per-fault cost formulas and of one sampler round
# ----------------------------------------------------------------------

#: ``(p, recovery, rewind_g)`` points the cost formulas are pinned at.
PIN_POINTS = (
    (0.0, 3.5e-6, 7e-8),
    (0.7, 3.5e-6, 7e-8),
    (0.95, 1.2e-5, 1.3e-7),
    (1.0, 4e-6, 9e-8),
    # Near p = 1 the restart term no longer swamps the contained term, so
    # these two see a change in the contained term's rounding.
    (0.999999999, 9.3e-6, 5.9e-8),
    (0.999999999997, 1.1e-5, 1.7e-7),
)


def _pin_config() -> CampaignConfig:
    """Two domains (both heap sizes), an addressed kind and all phases."""
    return CampaignConfig(
        kinds=(
            FaultKind.STACK_SMASH,
            FaultKind.CROSS_DOMAIN_WRITE,
            FaultKind.OVER_READ,
        ),
        domains=("shard-0", "shard-1"),
        phases=(InjectionPhase.ENTRY, InjectionPhase.WARM, InjectionPhase.DRAIN),
        backends=("mpk",),
        validation_injections=12,
    )


def _pin_inputs(cfg: CampaignConfig) -> PolicyInputs:
    return dataclasses.replace(
        _inputs(),
        restart_downtime=cfg.cost.process_restart_time(cfg.dataset_bytes),
    )


def _forced_assignment(policy: str, cfg: CampaignConfig) -> PolicyAssignment:
    """Every domain assigned ``policy``, scored from :func:`_pin_inputs`."""
    inputs = _pin_inputs(cfg)
    return PolicyAssignment(
        backend="mpk",
        policies=dict.fromkeys(cfg.domains, policy),
        scores=[s for d in cfg.domains for s in score_policies(inputs, d, cfg)],
        slo=cfg.slo,
        carbon_budget_g_per_year=cfg.carbon_budget_g_per_year,
        inputs=dict.fromkeys(cfg.domains, inputs),
        feasible=True,
    )


def _pin_sampler_state() -> dict:
    """One round of every stratum: addressed and over-read kinds in the
    warm and drain phases on two backends."""
    sampler = CampaignSampler(
        CampaignConfig(
            kinds=(FaultKind.CROSS_DOMAIN_WRITE, FaultKind.OVER_READ),
            domains=("shard-0", "shard-1"),
            phases=(InjectionPhase.WARM, InjectionPhase.DRAIN),
            backends=("mpk", "sfi"),
        )
    )
    sampler.step()
    return sampler.state()


#: ``validate_assignment(...).as_dict()`` per forced policy; ``restart``
#: reboots the process on every detected fault. The ``restart`` intervals
#: were re-recorded when a non-containing policy's measured interval became
#: a point: their upper bound had charged the Clopper–Pearson upper share
#: of faults nothing, an availability no restart run can reach.
VALIDATION_PINS = {
    "rewind": {
        "backend": "mpk",
        "ok": True,
        "domains": [
            {
                "domain": "shard-0",
                "policy": "rewind",
                "injections": 12,
                "contained": 8,
                "measured_availability": 0.9999370238794981,
                "measured_interval": {
                    "lo": 0.9998769841217936,
                    "mid": 0.9999370238794981,
                    "hi": 0.9999812495945604,
                },
                "predicted_availability": {
                    "lo": 0.9999244286560572,
                    "mid": 0.9999433214909712,
                    "hi": 0.9999622143260499,
                },
                "availability_ok": True,
                "measured_gco2e_per_recovery": 7.141341666666666e-08,
                "predicted_gco2e_per_recovery": {
                    "lo": 5e-08,
                    "mid": 7e-08,
                    "hi": 9e-08,
                },
                "gco2e_ok": True,
            },
            {
                "domain": "shard-1",
                "policy": "rewind",
                "injections": 12,
                "contained": 7,
                "measured_availability": 0.9999212798508154,
                "measured_interval": {
                    "lo": 0.9998633423956408,
                    "mid": 0.9999212798508154,
                    "hi": 0.999971348589558,
                },
                "predicted_availability": {
                    "lo": 0.9999244286560572,
                    "mid": 0.9999433214909712,
                    "hi": 0.9999622143260499,
                },
                "availability_ok": True,
                "measured_gco2e_per_recovery": 7.141341666666666e-08,
                "predicted_gco2e_per_recovery": {
                    "lo": 5e-08,
                    "mid": 7e-08,
                    "hi": 9e-08,
                },
                "gco2e_ok": True,
            },
        ],
        "fleet": {},
    },
    "retry": {
        "backend": "mpk",
        "ok": True,
        "domains": [
            {
                "domain": "shard-0",
                "policy": "retry",
                "injections": 12,
                "contained": 8,
                "measured_availability": 0.9999370237657234,
                "measured_interval": {
                    "lo": 0.9998769840622538,
                    "mid": 0.9999370237657234,
                    "hi": 0.9999812494408358,
                },
                "predicted_availability": {
                    "lo": 0.9999244285531653,
                    "mid": 0.9999433213715077,
                    "hi": 0.9999622141901798,
                },
                "availability_ok": True,
                "measured_gco2e_per_recovery": 7.141341666666666e-08,
                "predicted_gco2e_per_recovery": {
                    "lo": 5e-08,
                    "mid": 7e-08,
                    "hi": 9e-08,
                },
                "gco2e_ok": True,
            },
            {
                "domain": "shard-1",
                "policy": "retry",
                "injections": 12,
                "contained": 7,
                "measured_availability": 0.9999212797512625,
                "measured_interval": {
                    "lo": 0.9998633423484237,
                    "mid": 0.9999212797512625,
                    "hi": 0.9999713484447772,
                },
                "predicted_availability": {
                    "lo": 0.9999244285531653,
                    "mid": 0.9999433213715077,
                    "hi": 0.9999622141901798,
                },
                "availability_ok": True,
                "measured_gco2e_per_recovery": 7.141341666666666e-08,
                "predicted_gco2e_per_recovery": {
                    "lo": 5e-08,
                    "mid": 7e-08,
                    "hi": 9e-08,
                },
                "gco2e_ok": True,
            },
        ],
        "fleet": {},
    },
    "quarantine": {
        "backend": "mpk",
        "ok": True,
        "domains": [
            {
                "domain": "shard-0",
                "policy": "quarantine",
                "injections": 12,
                "contained": 8,
                "measured_availability": 0.9999370046447251,
                "measured_interval": {
                    "lo": 0.9998769740559819,
                    "mid": 0.9999370046447251,
                    "hi": 0.9999812236058649,
                },
                "predicted_availability": {
                    "lo": 0.9999244113450831,
                    "mid": 0.9999433012944595,
                    "hi": 0.9999621912438936,
                },
                "availability_ok": True,
                "measured_gco2e_per_recovery": 7.141341666666666e-08,
                "predicted_gco2e_per_recovery": {
                    "lo": 5e-08,
                    "mid": 7e-08,
                    "hi": 9e-08,
                },
                "gco2e_ok": True,
            },
            {
                "domain": "shard-1",
                "policy": "quarantine",
                "injections": 12,
                "contained": 7,
                "measured_availability": 0.9999212630203891,
                "measured_interval": {
                    "lo": 0.9998633344131228,
                    "mid": 0.9999212630203891,
                    "hi": 0.9999713241128929,
                },
                "predicted_availability": {
                    "lo": 0.9999244113450831,
                    "mid": 0.9999433012944595,
                    "hi": 0.9999621912438936,
                },
                "availability_ok": True,
                "measured_gco2e_per_recovery": 7.141341666666666e-08,
                "predicted_gco2e_per_recovery": {
                    "lo": 5e-08,
                    "mid": 7e-08,
                    "hi": 9e-08,
                },
                "gco2e_ok": True,
            },
        ],
        "fleet": {},
    },
    "restart": {
        "backend": "mpk",
        "ok": True,
        "domains": [
            {
                "domain": "shard-0",
                "policy": "restart",
                "injections": 12,
                "contained": 0,
                "measured_availability": 0.9998110716500367,
                "measured_interval": {
                    "lo": 0.9998110716500367,
                    "mid": 0.9998110716500367,
                    "hi": 0.9998110716500367,
                },
                "predicted_availability": {
                    "lo": 0.9998110716500367,
                    "mid": 0.9998110716500367,
                    "hi": 0.9998110716500367,
                },
                "availability_ok": True,
                "measured_gco2e_per_recovery": None,
                "predicted_gco2e_per_recovery": {
                    "lo": 5e-08,
                    "mid": 7e-08,
                    "hi": 9e-08,
                },
                "gco2e_ok": True,
            },
            {
                "domain": "shard-1",
                "policy": "restart",
                "injections": 12,
                "contained": 0,
                "measured_availability": 0.9998110716500367,
                "measured_interval": {
                    "lo": 0.9998110716500367,
                    "mid": 0.9998110716500367,
                    "hi": 0.9998110716500367,
                },
                "predicted_availability": {
                    "lo": 0.9998110716500367,
                    "mid": 0.9998110716500367,
                    "hi": 0.9998110716500367,
                },
                "availability_ok": True,
                "measured_gco2e_per_recovery": None,
                "predicted_gco2e_per_recovery": {
                    "lo": 5e-08,
                    "mid": 7e-08,
                    "hi": 9e-08,
                },
                "gco2e_ok": True,
            },
        ],
        "fleet": {},
    },
}

#: ``downtime_per_fault`` per policy at each of :data:`PIN_POINTS`.
DOWNTIME_PINS = {
    "rewind": [
        114.57777777777777,
        34.37333578333333,
        5.728900288888894,
        4e-06,
        9.414577765237298e-06,
        1.1000343738417048e-05,
    ],
    "retry": [
        114.57777777777777,
        34.373408233333336,
        5.7290066888888935,
        0.00010800000000000001,
        0.00011871457765593731,
        0.00012200034373808406,
    ],
    "quarantine": [
        114.57777777777777,
        34.385584190833335,
        5.745517878888894,
        0.0175014,
        0.017503369560271285,
        0.01750385034368594,
    ],
    "restart": [
        114.57777777777777,
        114.57777777777777,
        114.57777777777777,
        114.57777777777777,
        114.57777777777777,
        114.57777777777777,
    ],
}

#: ``carbon_per_fault`` per policy at each of :data:`PIN_POINTS`.
CARBON_PINS = {
    "rewind": [
        2.3125,
        0.693750049,
        0.11562512350000011,
        9e-08,
        6.131249987559803e-08,
        1.700069376027596e-07,
    ],
    "retry": [
        2.3125,
        0.6937500980000001,
        0.1156252470000001,
        1.8e-07,
        1.2031249981659803e-07,
        3.400069376022496e-07,
    ],
    "quarantine": [
        2.3125,
        0.6937500171500001,
        0.1156250432250001,
        3.15e-08,
        2.2962499913948035e-08,
        5.950693760309113e-08,
    ],
    "restart": [2.3125, 2.3125, 2.3125, 2.3125, 2.3125, 2.3125],
}

#: SHA-256 of the JSON checkpoint after :func:`_pin_sampler_state`.
SAMPLER_STATE_SHA256 = (
    "b73c2bb8054d73484b6a75eb9ebc5286331bb4b885187b518d89e5cbed6db7f9"
)


class TestRecordedPins:
    @pytest.mark.parametrize("policy", POLICY_ORDER)
    def test_validation_under_forced_policy(self, policy):
        cfg = _pin_config()
        report = validate_assignment(
            _forced_assignment(policy, cfg), cfg, run_fleet=False
        )
        assert report.as_dict() == VALIDATION_PINS[policy]

    def test_restart_interval_is_a_point(self):
        """Every restart-policy fault pays a restart, so the validation
        sample has no containment share to be uncertain about."""
        cfg = _pin_config()
        report = validate_assignment(
            _forced_assignment("restart", cfg), cfg, run_fleet=False
        )
        for domain in report.domains:
            interval = domain.measured_interval
            assert interval.lo == interval.mid == interval.hi
            assert interval.mid == domain.measured_availability

    def test_uncontained_sample_charges_the_rows_recovery(self, monkeypatch):
        """A containing policy whose validation contained nothing still
        charges the upper containment share at its row's recovery cost."""
        inject = InjectionProcess.inject

        def undetected(self, *args):
            result = inject(self, *args)
            result.detected = False
            return result

        monkeypatch.setattr(InjectionProcess, "inject", undetected)
        cfg = _pin_config()
        inputs = _pin_inputs(cfg)
        lam = cfg.faults_per_year / YEARS
        p_hi = clopper_pearson(0, cfg.validation_injections, cfg.confidence).hi
        for policy in ("rewind", "retry", "quarantine"):
            report = validate_assignment(
                _forced_assignment(policy, cfg), cfg, run_fleet=False
            )
            charged = downtime_per_fault(
                policy, p_hi, inputs.recovery_seconds.mid, inputs, cfg
            )
            for domain in report.domains:
                interval = domain.measured_interval
                assert domain.contained == 0
                assert interval.lo == pytest.approx(
                    1.0 - lam * inputs.restart_downtime, rel=1e-15
                )
                assert interval.hi == pytest.approx(1.0 - lam * charged, rel=1e-15)
                assert interval.hi > interval.mid

    @pytest.mark.parametrize("policy", POLICY_ORDER)
    def test_cost_formulas(self, policy):
        cfg = _pin_config()
        inputs = _pin_inputs(cfg)
        assert [
            downtime_per_fault(policy, p, r, inputs, cfg) for p, r, _ in PIN_POINTS
        ] == DOWNTIME_PINS[policy]
        assert [
            carbon_per_fault(policy, p, g, inputs, cfg) for p, _, g in PIN_POINTS
        ] == CARBON_PINS[policy]

    def test_sampler_round(self):
        blob = json.dumps(_pin_sampler_state(), sort_keys=True)
        assert hashlib.sha256(blob.encode()).hexdigest() == SAMPLER_STATE_SHA256
