"""Noise schedules for the diffusion and bridge corruption processes.

Index convention: tables have T+1 entries, t=0 is clean data and t=T is the
prior (diffusion) or the opposite endpoint (bridge).

Diffusion tables are variance preserving: a[t]^2 + sigma[t]^2 = 1, with
1 ~ a[0] > ... > a[T] ~ 0. The bridge tables are Brownian-bridge
coefficients alpha[t] = 1 - t/T, beta[t] = t/T,
sigma[t]^2 = s^2 (t/T)(1 - t/T).
"""

from dataclasses import dataclass

import numpy as np

PROFILES = ("linear", "cosine")
VARIANTS = ("diffusion", "bridge")

# Continuous-time analog of the DDPM beta range [1e-4, 2e-2] over 1000 steps.
_LINEAR_BETA_LO = 1e-4
_LINEAR_BETA_HI = 2e-2
_LINEAR_REF_STEPS = 1000

# Terminal signal level for the cosine profile (keeps a[T] strictly positive
# so reverse-step ratios a[t-1]/a[t] stay finite).
_COSINE_A_FINAL = 5e-3


@dataclass(frozen=True)
class DiffusionSchedule:
    """Signal/noise coefficient tables for the standard diffusion process."""

    T: int
    a: np.ndarray
    sigma: np.ndarray
    eta: float = 0.0

    def __post_init__(self):
        _check_eta(self.eta)


@dataclass(frozen=True)
class BridgeSchedule:
    """Coefficient tables for the Brownian-bridge corruption process."""

    T: int
    alpha: np.ndarray
    beta: np.ndarray
    sigma: np.ndarray
    eta: float = 0.0

    def __post_init__(self):
        _check_eta(self.eta)


def _check_eta(eta: float) -> None:
    # a negative eta would give the reverse step a negative noise std
    if not (np.isfinite(eta) and eta >= 0.0):
        raise ValueError(f"eta must be finite and nonnegative, got {eta}")


def build_diffusion_schedule(T: int, profile: str = "linear", eta: float = 0.0) -> DiffusionSchedule:
    """Build the (a, sigma) tables for the requested profile.

    "linear": per-step retention exp(-beta_t) with beta_t linearly spaced over
    [1e-4, 2e-2] rescaled from the 1000-step reference grid; a[t] is the square
    root of the cumulative retention product. The exponential form keeps the
    rates valid at small T where 1 - beta_t would go negative.

    "cosine": a[t] = cos(theta_t) on a linear angle grid from 0 to
    arccos(a_final), so sigma[t] = sin(theta_t) exactly.
    """
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    if profile == "linear":
        betas = np.linspace(_LINEAR_BETA_LO, _LINEAR_BETA_HI, T) * (_LINEAR_REF_STEPS / T)
        a_sq = np.concatenate([[1.0], np.cumprod(np.exp(-betas))])
        a = np.sqrt(a_sq)
    elif profile == "cosine":
        theta = np.linspace(0.0, np.arccos(_COSINE_A_FINAL), T + 1)
        a = np.cos(theta)
    else:
        raise ValueError(f"unsupported schedule profile {profile!r}")
    sigma = np.sqrt(1.0 - a * a)
    a.setflags(write=False)
    sigma.setflags(write=False)
    return DiffusionSchedule(T=T, a=a, sigma=sigma, eta=eta)


def build_bridge_schedule(T: int, scale: float = 1.0, eta: float = 0.0) -> BridgeSchedule:
    """Brownian-bridge coefficients with noise scale `scale`."""
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    if not (np.isfinite(scale) and scale > 0.0):  # sigma would be 0 or nan throughout
        raise ValueError(f"bridge scale must be finite and positive, got {scale}")
    tau = np.arange(T + 1) / T
    alpha = 1.0 - tau
    beta = tau
    sigma = scale * np.sqrt(tau * (1.0 - tau))
    for arr in (alpha, beta, sigma):
        arr.setflags(write=False)
    return BridgeSchedule(T=T, alpha=alpha, beta=beta, sigma=sigma, eta=eta)


def reverse_variance(sch: DiffusionSchedule, t: int, t_prev: int | None = None) -> float:
    """Std of the DDIM reverse step from t to t_prev (default t-1).

    omega^2 = eta^2 sigma_prev^2 (1 - (sigma_prev^2/sigma_t^2)(a_t^2/a_prev^2));
    zero when eta = 0 and at the final step to t_prev = 0.
    """
    if not 1 <= t <= sch.T:
        raise ValueError(f"t={t} out of range [1, {sch.T}]")
    if t_prev is None:
        t_prev = t - 1
    if not 0 <= t_prev < t:
        raise ValueError(f"t_prev={t_prev} must lie in [0, {t})")
    if sch.eta == 0.0 or t_prev == 0:
        return 0.0
    s_p, s_t = sch.sigma[t_prev], sch.sigma[t]
    a_p, a_t = sch.a[t_prev], sch.a[t]
    inner = 1.0 - (s_p * s_p) / (s_t * s_t) * (a_t * a_t) / (a_p * a_p)
    return float(sch.eta * s_p * np.sqrt(max(inner, 0.0)))


def bridge_reverse_std(sch: BridgeSchedule, t: int, t_prev: int | None = None) -> float:
    """Std of the bridge reverse step from t to t_prev (default t-1).

    delta^2 = eta (sigma_t^2 - sigma_prev^2 alpha_t^2 / alpha_prev^2) is the
    forward transition variance scaled by eta; the reverse-step std is
    delta * sigma_prev / sigma_t, matching the exact Brownian-bridge posterior
    at eta = 1.
    """
    if not 1 <= t <= sch.T:
        raise ValueError(f"t={t} out of range [1, {sch.T}]")
    if t_prev is None:
        t_prev = t - 1
    if not 0 <= t_prev < t:
        raise ValueError(f"t_prev={t_prev} must lie in [0, {t})")
    if sch.eta == 0.0 or sch.sigma[t] == 0.0 or sch.sigma[t_prev] == 0.0:
        return 0.0
    s_p, s_t = sch.sigma[t_prev], sch.sigma[t]
    ratio = sch.alpha[t] / sch.alpha[t_prev]
    delta_sq = sch.eta * (s_t * s_t - s_p * s_p * ratio * ratio)
    return float(np.sqrt(max(delta_sq, 0.0)) * s_p / s_t)
