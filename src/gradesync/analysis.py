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
formula can be validated against an independent sample estimate.  Only c
differs between the protocols, so one oracle call runs a recursion per
protocol side by side on one noise stream.

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

    Every field must be finite; the noise levels may be 0, the others not.
    """

    beacon_period: float
    nominal_freq: float
    step_size: float
    max_deviation: float = 0.0
    delay_std: float = 0.0

    def __post_init__(self):
        noise = ("max_deviation", "delay_std")
        for name in ("beacon_period", "nominal_freq", "step_size") + noise:
            x = getattr(self, name)
            if not (0 <= x < math.inf if name in noise else 0 < x < math.inf):
                sign = ">=" if name in noise else ">"
                raise ValueError(f"{name} must be finite and {sign} 0, got {x}")

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


_BLOCK_ROUNDS = 16  # rounds of noise drawn per numpy call


def estimate_variance_mc(
    p: SystemParams,
    protocols: tuple[str, ...],
    rounds: int = 1200,
    trials: int = 1000,
    seed: int = 0,
    noise_convention: str = "iid",
    z0: float | None = None,
) -> tuple[McEstimate, ...]:
    """Monte-Carlo steady-state error statistics from the scalar round recursion.

    Runs ``trials`` independent paths for ``rounds`` rounds, discarding the
    first half as burn-in, and returns one estimate per name in ``protocols``.
    The protocols differ only in their gain c, so every recursion is fed the
    same noise: a one-protocol call returns exactly the estimate that the
    same protocol gets in a call with several.  ``noise_convention`` picks how
    the per-round delay difference d is generated:

    * "iid": d ~ Normal(0, delay_std**2) fresh each round — the assumption
      under which the closed-form variance is exact.
    * "difference": d = T_{h+1} - T_h from an explicit per-message noise
      sequence, as the flooding mechanism actually produces (E[d^2] =
      2*delay_std**2 plus a cross-correlation with z).

    The standard error of the mean is computed across trials, which are
    genuinely independent.
    """
    if isinstance(protocols, str):
        raise ValueError(f"protocols must be a tuple of protocol names, got {protocols!r}")
    if noise_convention not in ("iid", "difference"):
        raise ValueError(
            f"noise_convention must be 'iid' or 'difference', got {noise_convention!r}"
        )
    if rounds < 2:
        raise ValueError("need at least 2 rounds")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    coef = np.array([[_update_coefficient(p, proto)] for proto in protocols])
    if not len(coef):
        raise ValueError("protocols must name at least one protocol")
    b, f0 = p.beacon_period, p.nominal_freq
    w_std = p.max_deviation * math.sqrt(b / 3.0)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    z = np.full((len(coef), trials), (f0 * 1.0 - 1.0) if z0 is None else z0, dtype=float)
    t_prev = rng.normal(0.0, p.delay_std, trials)
    burn_in = rounds // 2
    sum_e, sum_e2, sum_z, e, step = (np.zeros_like(z) for _ in range(5))
    block = np.empty((_BLOCK_ROUNDS, 2, trials))
    for h0 in range(0, rounds, _BLOCK_ROUNDS):
        # Round h draws w then d, as Generator.normal(0.0, std, trials) would:
        # that computes 0.0 + std * g, so the += 0.0 keeps even its zeros' signs.
        noise = block[: min(_BLOCK_ROUNDS, rounds - h0)]
        rng.standard_normal(out=noise)
        noise[:, 0] *= w_std
        noise[:, 1] *= p.delay_std
        noise += 0.0
        w_f0 = noise[:, 0] / f0
        gain = b + w_f0
        d = noise[:, 1]
        if noise_convention == "difference":
            t_new = d.copy()
            d[0] -= t_prev
            d[1:] -= t_new[:-1]
            t_prev = t_new[-1]
        for r in range(len(noise)):
            np.multiply(z, gain[r], out=e)
            e += w_f0[r]
            e -= d[r]
            np.multiply(coef, e, out=step)
            z -= step
            if h0 + r >= burn_in:
                sum_e += e
                e *= e  # e is recomputed from z next round
                sum_e2 += e
                sum_z += z
    kept = rounds - burn_in
    return tuple(
        _mc_estimate(sum_e[j], sum_e2[j], sum_z[j], kept, f0, noise_convention)
        for j in range(len(coef))
    )


def _mc_estimate(sum_e, sum_e2, sum_z, kept: int, f0: float, noise_convention: str) -> McEstimate:
    """One protocol's statistics from its per-trial sums over ``kept`` rounds."""
    trials = len(sum_e)
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
