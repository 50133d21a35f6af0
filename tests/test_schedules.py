from dataclasses import replace

import numpy as np
import pytest

from diffrouter.schedules import (BridgeSchedule, DiffusionSchedule,
                                  bridge_reverse_std, build_bridge_schedule,
                                  build_diffusion_schedule, reverse_variance)

TS = (10, 100, 1000)


@pytest.mark.parametrize("T", TS)
@pytest.mark.parametrize("profile", ["linear", "cosine"])
def test_diffusion_invariants(T, profile):
    sch = build_diffusion_schedule(T, profile=profile)
    assert len(sch.a) == T + 1 and len(sch.sigma) == T + 1
    assert sch.a[0] >= 1 - 1e-4 and sch.a[T] <= 1e-2
    assert sch.sigma[0] <= 1e-2 and sch.sigma[T] >= 1 - 1e-4
    assert np.all(np.diff(sch.a) < 0)
    assert np.all(np.diff(sch.sigma) > 0)
    assert np.max(np.abs(sch.a ** 2 + sch.sigma ** 2 - 1.0)) < 1e-9


def test_linear_midpoint_matches_scalar_cumulative_product():
    """Independent scalar-loop oracle for the linear profile's a[50]."""
    T = 100
    sch = build_diffusion_schedule(T, profile="linear")
    betas = np.linspace(1e-4, 2e-2, T) * (1000 / T)
    acc = 1.0
    for i in range(50):
        acc *= np.exp(-betas[i])
    assert abs(sch.a[50] - np.sqrt(acc)) < 1e-12


def test_reverse_variance_eta_zero_and_scaling():
    sch0 = build_diffusion_schedule(100, eta=0.0)
    sch1 = build_diffusion_schedule(100, eta=1.0)
    schh = build_diffusion_schedule(100, eta=0.5)
    for t in (1, 50, 100):
        assert reverse_variance(sch0, t) == 0.0
        assert abs(reverse_variance(schh, t) - 0.5 * reverse_variance(sch1, t)) < 1e-14


def test_reverse_variance_hand_formula_at_T():
    sch = build_diffusion_schedule(100, eta=1.0)
    T = sch.T
    expect = sch.sigma[T - 1] * np.sqrt(
        1.0 - (sch.sigma[T - 1] ** 2 / sch.sigma[T] ** 2)
        * (sch.a[T] ** 2 / sch.a[T - 1] ** 2))
    assert abs(reverse_variance(sch, T) - expect) < 1e-14


def test_reverse_variance_below_prev_sigma():
    for eta in (0.25, 0.5, 1.0):
        sch = build_diffusion_schedule(100, eta=eta)
        for t in range(2, sch.T + 1):
            assert reverse_variance(sch, t) < sch.sigma[t - 1]


def test_reverse_variance_t_range_error(sch100):
    with pytest.raises(ValueError):
        reverse_variance(sch100, 0)
    with pytest.raises(ValueError):
        reverse_variance(sch100, sch100.T + 1)


@pytest.mark.parametrize("T", TS)
def test_bridge_invariants(T):
    sch = build_bridge_schedule(T)
    assert abs(sch.alpha[0] - 1) < 1e-9 and abs(sch.alpha[T]) < 1e-9
    assert abs(sch.beta[0]) < 1e-9 and abs(sch.beta[T] - 1) < 1e-9
    assert abs(sch.sigma[0]) < 1e-9 and abs(sch.sigma[T]) < 1e-9
    assert np.all(sch.sigma >= 0)
    assert np.argmax(sch.sigma) == T // 2


def test_bridge_reverse_std_matches_posterior_oracle():
    """Exact Brownian-bridge posterior: conditioning W_{tau_t} pins W_{tau_p}
    to variance s^2 tau_p (tau_t - tau_p) / tau_t."""
    T = 50
    s = 1.3
    sch = build_bridge_schedule(T, scale=s, eta=1.0)
    for t in (2, 10, 25, 40, 49):
        tp = t - 1
        tau_t, tau_p = t / T, tp / T
        expect = np.sqrt(s * s * tau_p * (tau_t - tau_p) / tau_t)
        assert abs(bridge_reverse_std(sch, t, tp) - expect) < 1e-12


def test_bridge_reverse_std_eta_zero():
    sch = build_bridge_schedule(50, eta=0.0)
    for t in (2, 25, 49):
        assert bridge_reverse_std(sch, t, t - 1) == 0.0


def test_schedules_are_pure_values():
    a = build_diffusion_schedule(100, profile="cosine", eta=0.3)
    b = build_diffusion_schedule(100, profile="cosine", eta=0.3)
    assert np.array_equal(a.a, b.a) and np.array_equal(a.sigma, b.sigma)
    with pytest.raises((ValueError, RuntimeError)):
        a.a[0] = 0.5  # tables are read-only


def test_build_errors():
    with pytest.raises(ValueError):
        build_diffusion_schedule(0)
    with pytest.raises(ValueError):
        build_diffusion_schedule(100, profile="quadratic")
    with pytest.raises(ValueError):
        build_bridge_schedule(0)


@pytest.mark.parametrize("eta", [-1.0, np.inf, np.nan])
def test_schedules_refuse_bad_eta(eta):
    """A negative eta would give a negative reverse-step std; every way of
    making a schedule refuses it, and a non-finite one."""
    match = f"eta must be finite and nonnegative, got {eta}"
    with pytest.raises(ValueError, match=match):
        build_diffusion_schedule(10, eta=eta)
    with pytest.raises(ValueError, match=match):
        build_bridge_schedule(10, eta=eta)
    for sch in (build_diffusion_schedule(10), build_bridge_schedule(10)):
        with pytest.raises(ValueError, match=match):
            replace(sch, eta=eta)
