"""Closed-form convergence/variance results and a Monte-Carlo cross-check.

The pairwise round dynamics of both protocols reduce to a scalar recursion in
the normalized rate error z_h = rate_multiplier(h) * nominal_freq - 1.  With
per-round white frequency-deviation integral w (mean 0, variance
beacon_period * max_deviation**2 / 3) and per-round delay-noise difference d:

    e(h+1) = z_h * (B + w/f0) + w/f0 - d
    z_{h+1} = z_h - c * e(h+1),   c = step * error_scale * f0

with error_scale = 2*B*f0 for grades and 1 for pisync (see
``protocols.error_scale``), so the contraction factor in expectation is
1 - 2*step*B**2*f0**2 resp. 1 - step*B*f0.  This module evaluates the
resulting eigenvalues and steady-state error variances, and
`estimate_variance_mc` replays the same recursion stochastically so every
formula can be validated against an independent sample estimate.

Delay-noise conventions: the closed forms treat d as an i.i.d. draw of
variance delay_std**2.  Mechanistically d is a difference of consecutive
per-message noises (variance 2*delay_std**2, correlated with z).  The oracle
implements both; see ``noise_convention``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidRegimeError
from .protocols import GRADES, PISYNC, error_scale, step_size_limit


@dataclass(frozen=True)
class SystemParams:
    """Round geometry plus noise levels for the pairwise analysis.

    beacon_period   seconds between broadcasts (rounds in normalized units)
    nominal_freq    ticks per second of an ideal oscillator
    max_deviation   white frequency-deviation bound, ticks per second
    delay_std       per-message delay noise std, seconds
    step_size       protocol step size
    """

    beacon_period: float
    nominal_freq: float
    step_size: float
    max_deviation: float = 0.0
    delay_std: float = 0.0

    def __post_init__(self):
        if self.beacon_period <= 0 or self.nominal_freq <= 0:
            raise ValueError("beacon_period and nominal_freq must be positive")
        if self.step_size <= 0:
            raise ValueError("step_size must be positive")
        if self.max_deviation < 0 or self.delay_std < 0:
            raise ValueError("noise levels must be non-negative")

    def normalized(self, protocol: str) -> "SystemParams":
        """Equivalent parameters in round/nominal-tick units (B=1, f0=1).

        Time is measured in beacon periods and clock values in beacon periods
        of nominal ticks.  Under the white drift model the per-round deviation
        integral must keep its variance, so max_deviation scales by
        1/(f0*sqrt(B)); delay_std scales by 1/B; the step size scales by the
        ratio of stability bounds (B**2*f0**2 for grades, B*f0 for pisync).
        Steady-state error variances map exactly as Var_norm = Var / B**2.
        """
        b, f0 = self.beacon_period, self.nominal_freq
        scale = step_size_limit(protocol, 1.0, 1.0) / step_size_limit(protocol, b, f0)
        return SystemParams(
            beacon_period=1.0,
            nominal_freq=1.0,
            step_size=self.step_size * scale,
            max_deviation=self.max_deviation / (f0 * math.sqrt(b)),
            delay_std=self.delay_std / b,
        )


def _update_coefficient(p: SystemParams, protocol: str) -> float:
    """c in z_{h+1} = z_h - c * e(h+1): the step times the error scale, per rate unit."""
    return p.step_size * error_scale(protocol, p.beacon_period, p.nominal_freq) * p.nominal_freq


def eigenvalues(p: SystemParams, protocol: str) -> tuple[float, float]:
    """Eigenvalues of the expected (offset, rate-error) round map: (0, lambda2)."""
    return 0.0, 1.0 - _update_coefficient(p, protocol) * p.beacon_period


def variance(p: SystemParams, protocol: str) -> float:
    """Steady-state variance of the per-round sync error, squared seconds.

    The z second moment is step*(w + f0**2*d) / (lead - step*(B**2*f0**2 + w))
    with lead = 2*B*f0 / error_scale: 1 for grades, 2*B*f0 for pisync.  The
    formula is valid only while that denominator is positive, which is
    slightly stricter than the mean stability bound.
    """
    b, f0, a = p.beacon_period, p.nominal_freq, p.step_size
    w_var = b * p.max_deviation**2 / 3.0  # per-round deviation-integral variance
    d_var = p.delay_std**2
    lead = 2.0 * b * f0 / error_scale(protocol, b, f0)
    denom = lead - a * (b * b * f0 * f0 + w_var)
    if denom <= 0:
        raise InvalidRegimeError(
            f"step size {a} is outside the variance-stable region (denominator {denom})"
        )
    z2 = a * (w_var + f0 * f0 * d_var) / denom
    f0sq = f0**2
    return z2 * (b**2 + w_var / f0sq) + w_var / f0sq + d_var


@dataclass(frozen=True)
class ProtocolComparison:
    convergence_winner: str
    variance_winner: str
    grades_lambda2: float
    pisync_lambda2: float
    grades_variance: float
    pisync_variance: float


def compare_protocols(p: SystemParams) -> ProtocolComparison:
    """Head-to-head at equal step size: contraction speed and steady variance.

    Convergence goes to the protocol with the smaller |lambda2|; variance to
    the smaller steady-state error variance.  Grades wins the variance race
    exactly when beacon_period < 1/(2*nominal_freq) (the denominators differ
    by 2*B*f0 vs 1), so for any realistic round length pisync has the lower
    floor while grades contracts faster.
    """
    gl = eigenvalues(p, GRADES)[1]
    pl = eigenvalues(p, PISYNC)[1]
    if math.isclose(abs(gl), abs(pl), rel_tol=1e-12, abs_tol=1e-15):
        convergence = "tie"
    else:
        convergence = GRADES if abs(gl) < abs(pl) else PISYNC
    gv = variance(p, GRADES)
    pv = variance(p, PISYNC)
    if math.isclose(gv, pv, rel_tol=1e-12, abs_tol=0.0):
        lower_variance = "tie"
    else:
        lower_variance = GRADES if gv < pv else PISYNC
    return ProtocolComparison(
        convergence_winner=convergence,
        variance_winner=lower_variance,
        grades_lambda2=gl,
        pisync_lambda2=pl,
        grades_variance=gv,
        pisync_variance=pv,
    )


@dataclass(frozen=True)
class McEstimate:
    """Steady-state sample statistics from the round-recursion oracle."""

    mean_error: float
    var_error: float
    se_mean_error: float
    mean_rate_multiplier: float
    n_samples: int
    noise_convention: str


def estimate_variance_mc(
    p: SystemParams,
    protocol: str,
    rounds: int = 1200,
    trials: int = 1000,
    seed: int = 0,
    noise_convention: str = "iid",
    z0: float | None = None,
) -> McEstimate:
    """Monte-Carlo steady-state error statistics from the scalar round recursion.

    Runs ``trials`` independent paths for ``rounds`` rounds, discarding the
    first half as burn-in.  ``noise_convention`` picks how the per-round delay
    difference d is generated:

    * "iid": d ~ Normal(0, delay_std**2) fresh each round — the assumption
      under which the closed-form variance is exact.
    * "difference": d = T_{h+1} - T_h from an explicit per-message noise
      sequence, as the flooding mechanism actually produces (E[d^2] =
      2*delay_std**2 plus a cross-correlation with z).

    The standard error of the mean is computed across trials, which are
    genuinely independent.
    """
    if noise_convention not in ("iid", "difference"):
        raise ValueError(f"unknown noise convention: {noise_convention!r}")
    if rounds < 2:
        raise ValueError("need at least 2 rounds")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    b, f0 = p.beacon_period, p.nominal_freq
    coef = _update_coefficient(p, protocol)
    w_std = p.max_deviation * math.sqrt(b / 3.0)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    z = np.full(trials, (f0 * 1.0 - 1.0) if z0 is None else z0, dtype=float)
    t_prev = rng.normal(0.0, p.delay_std, trials)
    burn_in = rounds // 2
    sum_e = np.zeros(trials)
    sum_e2 = np.zeros(trials)
    sum_z = np.zeros(trials)
    kept = 0
    for h in range(rounds):
        w = rng.normal(0.0, w_std, trials)
        if noise_convention == "iid":
            d = rng.normal(0.0, p.delay_std, trials)
        else:
            t_new = rng.normal(0.0, p.delay_std, trials)
            d = t_new - t_prev
            t_prev = t_new
        e = z * (b + w / f0) + w / f0 - d
        z = z - coef * e
        if h >= burn_in:
            sum_e += e
            sum_e2 += e * e
            sum_z += z
            kept += 1
    n = kept * trials
    trial_means = sum_e / kept
    mean_e = float(trial_means.mean())
    se = float(trial_means.std(ddof=1) / math.sqrt(trials)) if trials > 1 else float("nan")
    total_e = float(sum_e.sum())
    total_e2 = float(sum_e2.sum())
    var_e = (total_e2 - total_e * total_e / n) / (n - 1) if n > 1 else 0.0
    mean_rate = (float(sum_z.sum()) / n + 1.0) / f0
    return McEstimate(
        mean_error=mean_e,
        var_error=var_e,
        se_mean_error=se,
        mean_rate_multiplier=mean_rate,
        n_samples=n,
        noise_convention=noise_convention,
    )


def rate_error_path(p: SystemParams, protocol: str, rounds: int, z0: float) -> np.ndarray:
    """Noise-free z trajectory (length rounds+1): exact expected-value dynamics.

    With both noise sources off the recursion's constant terms cancel, so the
    path decays (or grows) geometrically at exactly the nonzero eigenvalue —
    handy for decay-rate and stability-boundary checks.
    """
    coef = _update_coefficient(p, protocol)
    b = p.beacon_period
    path = np.empty(rounds + 1)
    path[0] = z0
    z = z0
    for h in range(rounds):
        e = z * b
        z = z - coef * e
        path[h + 1] = z
    return path
