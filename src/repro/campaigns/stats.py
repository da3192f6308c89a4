"""Pure-python statistics for campaign sampling and model fitting.

No numpy/scipy: the container bakes in only the standard toolchain, so the
exact Clopper–Pearson interval is built from a regularized incomplete beta
(Lentz continued fraction) inverted by bisection, and the linear algebra is
Gauss–Jordan with partial pivoting. Everything here is deterministic
arithmetic — the sampling loop's stopping rule and the fitted coefficients
must be byte-identical across runs of the same seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

Matrix = List[List[float]]
Vector = List[float]

# ----------------------------------------------------------------------
# Incomplete beta / exact binomial intervals
# ----------------------------------------------------------------------


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (Lentz's method)."""
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-14:
            break
    return h


def betainc_reg(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log(1.0 - x)
    )
    front = math.exp(ln_front)
    # The continued fraction converges fast for x < (a+1)/(a+b+2); use the
    # symmetry I_x(a,b) = 1 - I_{1-x}(b,a) on the other side.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def beta_ppf(q: float, a: float, b: float) -> float:
    """Quantile of the Beta(a, b) distribution by bisection.

    Bisection (not Newton) on purpose: it is unconditionally convergent and
    bit-reproducible, and the campaign stopping rule only needs ~1e-12
    accuracy on probabilities.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must be in (0, 1), got {q}")
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if betainc_reg(a, b, mid) < q:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-14:
            break
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class ConfidenceInterval:
    """A two-sided interval with its point estimate."""

    lo: float
    mid: float
    hi: float

    @property
    def halfwidth(self) -> float:
        return 0.5 * (self.hi - self.lo)

    def contains(self, value: float) -> bool:
        return self.lo <= value <= self.hi

    def overlaps(self, other: "ConfidenceInterval") -> bool:
        """Statistical compatibility: the two intervals intersect."""
        return self.lo <= other.hi and other.lo <= self.hi

    def as_dict(self) -> dict:
        return {"lo": self.lo, "mid": self.mid, "hi": self.hi}


def clopper_pearson(
    successes: int, trials: int, confidence: float = 0.95
) -> ConfidenceInterval:
    """Exact (Clopper–Pearson) binomial confidence interval.

    The campaign's stopping rule: sample a stratum until this interval's
    half-width on the containment probability drops below the target. Exact
    rather than Wald because strata routinely sit at p near 0 or 1 (e.g.
    null derefs are always detected) where the normal approximation is
    garbage.
    """
    if trials < 0 or successes < 0 or successes > trials:
        raise ValueError(f"bad binomial counts: {successes}/{trials}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    if trials == 0:
        return ConfidenceInterval(0.0, 0.5, 1.0)
    alpha = 1.0 - confidence
    mid = successes / trials
    lo = (
        0.0
        if successes == 0
        else beta_ppf(alpha / 2.0, successes, trials - successes + 1)
    )
    hi = (
        1.0
        if successes == trials
        else beta_ppf(1.0 - alpha / 2.0, successes + 1, trials - successes)
    )
    return ConfidenceInterval(lo, mid, hi)


def normal_quantile(p: float) -> float:
    """Standard normal quantile (Acklam's rational approximation).

    Good to ~1.15e-9 absolute error everywhere — far below the sampling
    noise the Wald intervals it feeds carry anyway.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile must be in (0, 1), got {p}")
    a = (
        -3.969683028665376e01,
        2.209460984245205e02,
        -2.759285104469687e02,
        1.383577518672690e02,
        -3.066479806614716e01,
        2.506628277459239e00,
    )
    b = (
        -5.447609879822406e01,
        1.615858368580409e02,
        -1.556989798598866e02,
        6.680131188771972e01,
        -1.328068155288572e01,
    )
    c = (
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e00,
        -2.549732539343734e00,
        4.374664141464968e00,
        2.938163982698783e00,
    )
    d = (
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e00,
        3.754408661907416e00,
    )
    p_low = 0.02425
    if p < p_low:
        q = math.sqrt(-2.0 * math.log(p))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        )
    if p > 1.0 - p_low:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        return -(
            ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
        ) / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    q = p - 0.5
    r = q * q
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / (
        ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
    )


# ----------------------------------------------------------------------
# Dense linear algebra (tiny systems: p ~ a dozen coefficients)
# ----------------------------------------------------------------------


def mat_transpose(m: Matrix) -> Matrix:
    return [list(col) for col in zip(*m)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = mat_transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def mat_vec(m: Matrix, v: Sequence[float]) -> Vector:
    return [sum(x * y for x, y in zip(row, v)) for row in m]


def mat_identity(n: int) -> Matrix:
    return [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]


def mat_solve(a: Matrix, rhs: Matrix) -> Matrix:
    """Solve ``a @ x = rhs`` by Gauss–Jordan with partial pivoting.

    ``rhs`` is a matrix so one elimination yields both solves and inverses
    (pass the identity). Raises :class:`ArithmeticError` on a singular
    system — the model layer turns that into "add more ridge".
    """
    n = len(a)
    aug = [list(a[i]) + list(rhs[i]) for i in range(n)]
    width = len(aug[0])
    for col in range(n):
        pivot_row = max(range(col, n), key=lambda r: abs(aug[r][col]))
        pivot = aug[pivot_row][col]
        if abs(pivot) < 1e-300:
            raise ArithmeticError(f"singular matrix at column {col}")
        if pivot_row != col:
            aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        inv = 1.0 / pivot
        aug[col] = [x * inv for x in aug[col]]
        for row in range(n):
            if row == col:
                continue
            factor = aug[row][col]
            if factor == 0.0:
                continue
            base = aug[col]
            aug[row] = [aug[row][k] - factor * base[k] for k in range(width)]
    return [row[n:] for row in aug]


def mat_inverse(a: Matrix) -> Matrix:
    return mat_solve(a, mat_identity(len(a)))


def solve_normal_equations(
    x: Matrix, y: Sequence[float], weights: "Sequence[float] | None" = None,
    ridge: float = 0.0,
) -> "tuple[Vector, Matrix]":
    """Weighted least squares via normal equations.

    Returns ``(beta, inverse_gram)`` where ``inverse_gram`` is
    ``(XᵀWX + ridge·I)⁻¹`` — the unscaled covariance shape the caller turns
    into standard errors.
    """
    n = len(x)
    p = len(x[0])
    if weights is None:
        weights = [1.0] * n
    gram = [[0.0] * p for _ in range(p)]
    moment = [0.0] * p
    for row, target, w in zip(x, y, weights):
        for i in range(p):
            wxi = w * row[i]
            moment[i] += wxi * target
            for j in range(i, p):
                gram[i][j] += wxi * row[j]
    for i in range(p):
        for j in range(i + 1, p):
            gram[j][i] = gram[i][j]
        gram[i][i] += ridge
    inv = mat_inverse(gram)
    beta = mat_vec(inv, moment)
    return beta, inv
