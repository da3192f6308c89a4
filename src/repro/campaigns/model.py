"""Factorial regression over campaign outcomes — pure python, no deps.

Three responses, one shared one-hot design over the campaign factors
(fault kind, target domain, injection phase, backend; reference level =
first config entry of each factor, plus an intercept):

* **containment** — ridge-regularised logistic regression fitted by IRLS
  on per-stratum binomial counts. Ridge matters: strata with p̂ = 0 or 1
  (null derefs) quasi-separate a plain MLE and the coefficients diverge.
* **recovery seconds** and **added latency** — weighted least squares via
  normal equations on the per-injection observations.
* **per-recovery joules / gCO₂e** — least squares on the per-stratum
  ledger readings, weighted by how many recoveries each reading averages.

Wald intervals come from the inverse (penalised) Fisher information; every
prediction interval is floored at ``config.min_relative_halfwidth`` because
a deterministic simulator can drive residuals to zero and an honest model
should not claim infinite precision from that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from .sampler import StratumAccumulator
from .stats import (
    ConfidenceInterval,
    Matrix,
    Vector,
    mat_inverse,
    mat_vec,
    normal_quantile,
    solve_normal_equations,
)
from .strata import CampaignConfig, Stratum


@dataclass(frozen=True)
class Coefficient:
    name: str
    estimate: float
    stderr: float
    lo: float
    hi: float

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "estimate": self.estimate,
            "stderr": self.stderr,
            "lo": self.lo,
            "hi": self.hi,
        }


class FactorEncoder:
    """One-hot (drop-first) encoding of the campaign factor space."""

    def __init__(self, config: CampaignConfig) -> None:
        self.config = config
        self.columns: List[str] = ["intercept"]
        self._offsets: Dict[str, Dict[str, int]] = {}
        for factor, levels in (
            ("kind", [k.value for k in config.kinds]),
            ("domain", list(config.domains)),
            ("phase", [p.value for p in config.phases]),
            ("backend", list(config.backends)),
        ):
            table: Dict[str, int] = {}
            for level in levels[1:]:
                table[level] = len(self.columns)
                self.columns.append(f"{factor}={level}")
            # Reference level encodes as all-zero.
            table[levels[0]] = -1
            self._offsets[factor] = table

    @property
    def width(self) -> int:
        return len(self.columns)

    def encode(self, stratum: Stratum) -> Vector:
        row = [0.0] * self.width
        row[0] = 1.0
        for factor, level in (
            ("kind", stratum.kind.value),
            ("domain", stratum.domain),
            ("phase", stratum.phase.value),
            ("backend", stratum.backend),
        ):
            index = self._offsets[factor][level]
            if index >= 0:
                row[index] = 1.0
        return row


def _clip(p: float) -> float:
    return min(1.0 - 1e-12, max(1e-12, p))


@dataclass
class FittedResponse:
    """One fitted response surface (logistic or linear)."""

    kind: str  # "logistic" | "linear"
    coefficients: List[Coefficient]
    beta: Vector
    covariance: Matrix
    goodness: dict
    z: float
    min_relative_halfwidth: float

    def _linear_predictor(self, row: Vector) -> "tuple[float, float]":
        eta = sum(b * x for b, x in zip(self.beta, row))
        var = 0.0
        for i, xi in enumerate(row):
            if xi == 0.0:
                continue
            for j, xj in enumerate(row):
                if xj == 0.0:
                    continue
                var += xi * xj * self.covariance[i][j]
        return eta, math.sqrt(max(0.0, var))

    def predict(self, row: Vector) -> ConfidenceInterval:
        eta, se = self._linear_predictor(row)
        lo_eta = eta - self.z * se
        hi_eta = eta + self.z * se
        if self.kind == "logistic":
            lo = 1.0 / (1.0 + math.exp(-lo_eta))
            mid = 1.0 / (1.0 + math.exp(-eta))
            hi = 1.0 / (1.0 + math.exp(-hi_eta))
        else:
            lo, mid, hi = lo_eta, eta, hi_eta
        # Irreducible model-form floor, then clamp probabilities.
        floor = abs(mid) * self.min_relative_halfwidth
        lo = min(lo, mid - floor)
        hi = max(hi, mid + floor)
        if self.kind == "logistic":
            lo = max(0.0, lo)
            hi = min(1.0, hi)
        elif mid >= 0.0:
            lo = max(0.0, lo)
        return ConfidenceInterval(lo, mid, hi)

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "coefficients": [c.as_dict() for c in self.coefficients],
            "goodness": self.goodness,
        }


def _wald_coefficients(
    names: Sequence[str], beta: Vector, cov: Matrix, z: float
) -> "list[Coefficient]":
    out = []
    for i, name in enumerate(names):
        se = math.sqrt(max(0.0, cov[i][i]))
        out.append(
            Coefficient(
                name=name,
                estimate=beta[i],
                stderr=se,
                lo=beta[i] - z * se,
                hi=beta[i] + z * se,
            )
        )
    return out


def _fit_logistic(
    x: Matrix,
    successes: Sequence[float],
    trials: Sequence[float],
    names: Sequence[str],
    ridge: float,
    z: float,
    floor: float,
) -> FittedResponse:
    """Binomial IRLS with an L2 penalty (penalised Fisher scoring)."""
    n = len(x)
    p = len(x[0])
    beta = [0.0] * p
    cov: Matrix = [[0.0] * p for _ in range(p)]
    for _ in range(100):
        # Working response/weights of the current iterate.
        grad = [0.0] * p
        info = [[0.0] * p for _ in range(p)]
        for row, s, m in zip(x, successes, trials):
            eta = sum(b * v for b, v in zip(beta, row))
            mu = _clip(1.0 / (1.0 + math.exp(-eta)))
            w = m * mu * (1.0 - mu)
            r = s - m * mu
            for i in range(p):
                if row[i] == 0.0:
                    continue
                grad[i] += row[i] * r
                wxi = w * row[i]
                for j in range(i, p):
                    info[i][j] += wxi * row[j]
        for i in range(p):
            for j in range(i + 1, p):
                info[j][i] = info[i][j]
            info[i][i] += ridge
            grad[i] -= ridge * beta[i]
        cov = mat_inverse(info)
        step = mat_vec(cov, grad)
        beta = [b + s for b, s in zip(beta, step)]
        if max(abs(s) for s in step) < 1e-10:
            break

    def deviance_for(mus: Sequence[float]) -> float:
        dev = 0.0
        for s, m, mu in zip(successes, trials, mus):
            mu = _clip(mu)
            if s > 0:
                dev += 2.0 * s * math.log(s / (m * mu))
            if m - s > 0:
                dev += 2.0 * (m - s) * math.log((m - s) / (m * (1.0 - mu)))
        return dev

    fitted = [
        _clip(1.0 / (1.0 + math.exp(-sum(b * v for b, v in zip(beta, row)))))
        for row in x
    ]
    total_s = sum(successes)
    total_m = sum(trials)
    null_mu = _clip(total_s / total_m) if total_m else 0.5
    deviance = deviance_for(fitted)
    null_deviance = deviance_for([null_mu] * n)
    mcfadden = 0.0 if null_deviance <= 0 else max(0.0, 1.0 - deviance / null_deviance)
    return FittedResponse(
        kind="logistic",
        coefficients=_wald_coefficients(names, beta, cov, z),
        beta=beta,
        covariance=cov,
        goodness={
            "deviance": deviance,
            "null_deviance": null_deviance,
            "mcfadden_r2": mcfadden,
            "cells": n,
            "trials": total_m,
        },
        z=z,
        min_relative_halfwidth=floor,
    )


def _fit_linear(
    x: Matrix,
    y: Sequence[float],
    weights: "Optional[Sequence[float]]",
    names: Sequence[str],
    ridge: float,
    z: float,
    floor: float,
) -> FittedResponse:
    n = len(x)
    p = len(x[0])
    beta, inv_gram = solve_normal_equations(x, y, weights=weights, ridge=ridge)
    w = weights if weights is not None else [1.0] * n
    rss = 0.0
    tss = 0.0
    total_w = sum(w)
    mean_y = sum(wi * yi for wi, yi in zip(w, y)) / total_w if total_w else 0.0
    for row, yi, wi in zip(x, y, w):
        pred = sum(b * v for b, v in zip(beta, row))
        rss += wi * (yi - pred) ** 2
        tss += wi * (yi - mean_y) ** 2
    dof = max(1.0, total_w - p)
    sigma2 = rss / dof
    cov = [[sigma2 * inv_gram[i][j] for j in range(p)] for i in range(p)]
    r2 = 0.0 if tss <= 0 else max(0.0, 1.0 - rss / tss)
    return FittedResponse(
        kind="linear",
        coefficients=_wald_coefficients(names, beta, cov, z),
        beta=beta,
        covariance=cov,
        goodness={"rss": rss, "r2": r2, "sigma": math.sqrt(sigma2), "rows": n},
        z=z,
        min_relative_halfwidth=floor,
    )


@dataclass
class CampaignModel:
    """The fitted model bundle the decision layer consumes."""

    encoder: FactorEncoder
    containment: FittedResponse
    recovery: FittedResponse
    latency: FittedResponse
    joules: Optional[FittedResponse]
    gco2e: Optional[FittedResponse]

    def predict_containment(self, stratum: Stratum) -> ConfidenceInterval:
        return self.containment.predict(self.encoder.encode(stratum))

    def predict_recovery(self, stratum: Stratum) -> ConfidenceInterval:
        return self.recovery.predict(self.encoder.encode(stratum))

    def predict_gco2e(self, stratum: Stratum) -> Optional[ConfidenceInterval]:
        if self.gco2e is None:
            return None
        return self.gco2e.predict(self.encoder.encode(stratum))

    def as_dict(self) -> dict:
        return {
            "columns": self.encoder.columns,
            "containment": self.containment.as_dict(),
            "recovery": self.recovery.as_dict(),
            "latency": self.latency.as_dict(),
            "joules": self.joules.as_dict() if self.joules else None,
            "gco2e": self.gco2e.as_dict() if self.gco2e else None,
        }


def fit_campaign_model(
    config: CampaignConfig,
    accumulators: "Dict[str, StratumAccumulator]",
) -> CampaignModel:
    encoder = FactorEncoder(config)
    z = normal_quantile(0.5 + config.confidence / 2.0)
    floor = config.min_relative_halfwidth
    names = encoder.columns

    # Containment: one binomial cell per stratum.
    cells = [acc for acc in accumulators.values() if acc.trials > 0]
    if not cells:
        raise ValueError("cannot fit a model with zero sampled strata")
    x_cells = [encoder.encode(acc.stratum) for acc in cells]
    containment = _fit_logistic(
        x_cells,
        [float(acc.contained) for acc in cells],
        [float(acc.trials) for acc in cells],
        names,
        ridge=config.ridge,
        z=z,
        floor=floor,
    )

    # Recovery: per-injection rows, contained injections only (an
    # undetected fault has no recovery to measure).
    rec_x: Matrix = []
    rec_y: List[float] = []
    lat_x: Matrix = []
    lat_y: List[float] = []
    for acc in cells:
        row = encoder.encode(acc.stratum)
        for obs in acc.observations:
            lat_x.append(row)
            lat_y.append(obs.latency)
            if obs.contained:
                rec_x.append(row)
                rec_y.append(obs.recovery_seconds)
    if not rec_y:
        raise ValueError("no contained injections: nothing to fit recovery on")
    recovery = _fit_linear(
        rec_x, rec_y, None, names, ridge=config.ridge, z=z, floor=floor
    )
    latency = _fit_linear(
        lat_x, lat_y, None, names, ridge=config.ridge, z=z, floor=floor
    )

    # Energy/carbon per recovery: per-stratum ledger readings, weighted by
    # the number of recoveries each reading aggregates.
    joules = gco2e = None
    led_x: Matrix = []
    led_j: List[float] = []
    led_g: List[float] = []
    led_w: List[float] = []
    for acc in cells:
        jpr = acc.joules_per_recovery()
        gpr = acc.gco2e_per_recovery()
        if jpr is None or gpr is None:
            continue
        led_x.append(encoder.encode(acc.stratum))
        led_j.append(jpr)
        led_g.append(gpr)
        led_w.append(float(acc.rewind_faults))
    if led_x:
        joules = _fit_linear(
            led_x, led_j, led_w, names, ridge=config.ridge, z=z, floor=floor
        )
        gco2e = _fit_linear(
            led_x, led_g, led_w, names, ridge=config.ridge, z=z, floor=floor
        )

    return CampaignModel(
        encoder=encoder,
        containment=containment,
        recovery=recovery,
        latency=latency,
        joules=joules,
        gco2e=gco2e,
    )
