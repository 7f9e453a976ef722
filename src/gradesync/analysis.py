"""Closed-form convergence/variance results and a Monte-Carlo cross-check.

The pairwise round dynamics of both protocols reduce to a scalar recursion in
the normalized rate error z_h = rate_multiplier(h) * nominal_freq - 1.  With
per-round white frequency-deviation integral w (mean 0, variance
beacon_period * max_deviation**2 / 3) and per-round delay-noise difference d:

    e(h+1) = z_h * (B + w/f0) + w/f0 - d
    z_{h+1} = z_h - c * e(h+1),   c = step * error_scale * f0

with error_scale = 2*B*f0 for grades and 1 for pisync (``protocols.error_scale``;
c is the simulator's gain times f0), so the contraction factor in expectation
is 1 - 2*step*B**2*f0**2 resp. 1 - step*B*f0.  This module evaluates the
resulting steady-state error variances, and `estimate_variance_mc` replays the
same recursion stochastically so every formula can be validated against an
independent sample estimate.  Only c differs between the protocols, so one
oracle call runs a recursion per protocol on one noise stream, each a row of one
(protocols, trials) block, and reduces every row to its statistics at once.
A second thread draws each next block in the same order and ends with the call.

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
from .protocols import error_scale
from .sim import PATHS, check_budget, check_seed


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


def _update_coefficient(p: SystemParams, protocol: str) -> float:
    """c in z_{h+1} = z_h - c * e(h+1): the step times the error scale, per rate unit."""
    return p.step_size * error_scale(protocol, p.beacon_period, p.nominal_freq) * p.nominal_freq


def variance(p: SystemParams, protocol: str) -> float:
    """Steady-state variance of the per-round sync error, squared seconds.

    In the gain c = ``_update_coefficient(p, protocol)`` the z second moment is
    c*(w + f0**2*d) / (2*B*f0**2 - c*(B**2*f0**2 + w)), one formula for both
    protocols: at equal gain they have equal variance.  It is valid only while
    that denominator is positive, which is slightly stricter than the mean
    stability bound.
    """
    b, f0, c = p.beacon_period, p.nominal_freq, _update_coefficient(p, protocol)
    w_var = b * p.max_deviation**2 / 3.0  # per-round deviation-integral variance
    d_var = p.delay_std**2
    denom = 2.0 * b * f0 * f0 - c * (b * b * f0 * f0 + w_var)
    if denom <= 0:
        raise InvalidRegimeError(f"step size {p.step_size} is outside the variance-stable "
                                 f"region (denominator {denom})")
    z2 = c * (w_var + f0 * f0 * d_var) / denom
    f0sq = f0**2
    return z2 * (b**2 + w_var / f0sq) + w_var / f0sq + d_var


@dataclass(frozen=True)
class McEstimate:
    """Steady-state sample statistics from the round-recursion oracle."""

    mean_error: float
    var_error: float
    se_mean_error: float
    mean_rate_multiplier: float
    n_samples: int


_BLOCK_ROUNDS = 16  # rounds of noise drawn per numpy call


def estimate_variance_mc(
    p: SystemParams,
    protocols: tuple[str, ...],
    rounds: int = 1200,
    trials: int = 1000,
    seed: int = 0,
    noise_convention: str = "iid",
) -> tuple[McEstimate, ...]:
    """Monte-Carlo steady-state error statistics from the scalar round recursion.

    Runs ``trials`` independent paths from z = 0 (rate multiplier 1/f0) for
    ``rounds`` rounds, discarding the first half as burn-in, and returns one
    estimate per name in ``protocols``.  The protocols differ only in their
    gain c, so every recursion is fed the same noise: a one-protocol call
    returns exactly the estimate that the same protocol gets in a call with
    several.  ``noise_convention`` picks how the per-round delay difference d
    is generated:

    * "iid": d ~ Normal(0, delay_std**2) fresh each round — the assumption
      under which the closed-form variance is exact.
    * "difference": d = T_{h+1} - T_h from an explicit per-message noise
      sequence, as the flooding mechanism actually produces (E[d^2] =
      2*delay_std**2 plus a cross-correlation with z).

    The standard error of the mean is computed across trials, which are
    genuinely independent.  A second thread draws each next block of noise, in
    the same order, while a block runs; it is joined before the call ends.
    """
    if isinstance(protocols, str):
        raise ValueError(f"protocols must be a tuple of protocol names, got {protocols!r}")
    if noise_convention not in ("iid", "difference"):
        raise ValueError(
            f"parameter noise_convention must be 'iid' or 'difference', got {noise_convention!r}"
        )
    if rounds < 2:
        raise ValueError("need at least 2 rounds")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if not protocols:
        raise ValueError("protocols must name at least one protocol")
    check_budget(PATHS, "trials", trials, lambda k: len(protocols) * k, least=1,
                 other="protocols")
    coef = np.array([[_update_coefficient(p, proto)] for proto in protocols])
    b, f0 = p.beacon_period, p.nominal_freq
    w_std = p.max_deviation * math.sqrt(b / 3.0)
    from concurrent.futures import ThreadPoolExecutor  # here, not on every import of gradesync
    rng = np.random.default_rng(np.random.SeedSequence(check_seed(seed)))
    z = np.zeros((len(coef), trials))
    t_prev = rng.normal(0.0, p.delay_std, trials)
    burn_in = rounds // 2
    sum_e, sum_e2, sum_z, e, step = (np.zeros_like(z) for _ in range(5))
    blocks = np.empty((2, _BLOCK_ROUNDS, 2, trials))

    def draw(h0):  # the rounds from h0 on, into one block while the other runs
        out = blocks[h0 // _BLOCK_ROUNDS % 2, : min(_BLOCK_ROUNDS, rounds - h0)]
        return drawer.submit(rng.standard_normal, out=out)
    with ThreadPoolExecutor(1) as drawer:  # joined when the call returns or raises
        pending = draw(0)
        for h0 in range(0, rounds, _BLOCK_ROUNDS):
            noise = pending.result()  # a draw starts after the last ends: the stream's order
            if h0 + _BLOCK_ROUNDS < rounds:
                pending = draw(h0 + _BLOCK_ROUNDS)
            # Round h draws w then d, as Generator.normal(0.0, std, trials) would: that
            # computes 0.0 + std * g, so the += 0.0 keeps even its zeros' signs.
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
    n = kept * trials
    trial_means = sum_e / kept
    mean_e = trial_means.mean(axis=1)
    se = (trial_means.std(axis=1, ddof=1) / math.sqrt(trials) if trials > 1
          else np.full(len(coef), math.nan))
    total_e = sum_e.sum(axis=1)
    var_e = ((sum_e2.sum(axis=1) - total_e * total_e / n) / (n - 1) if n > 1
             else np.zeros(len(coef)))
    mean_rate = (sum_z.sum(axis=1) / n + 1.0) / f0
    rows = zip(mean_e.tolist(), var_e.tolist(), se.tolist(), mean_rate.tolist())
    return tuple(McEstimate(mean_error=m, var_error=v, se_mean_error=s, mean_rate_multiplier=r,
                            n_samples=n) for m, v, s, r in rows)
