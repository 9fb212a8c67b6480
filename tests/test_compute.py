"""Latency pipeline, energy accounting, and propulsion power against
independent straight-line evaluations."""

import math

import numpy as np
import pytest

import oracles
from uav_iscc.env import (
    ScenarioConfig,
    dvfs_frequency,
    flight_power,
    mu_slot_outcome,
    transmitted_fraction,
)


@pytest.fixture
def cfg():
    return ScenarioConfig().validate()


def make_task(d=1e6, c=1000.0, j=200.0, beta=0.5, deadline=1.0):
    """One task's values in `TASK_FIELDS` order."""
    return (d, c, j, beta, deadline)


def test_dvfs_examples(cfg):
    tasks = np.array([make_task(d=5e5, c=1000.0, deadline=1.0),
                      make_task(d=1.5e6, c=1500.0, deadline=0.7),
                      make_task(d=5e5, c=1000.0, deadline=1e9)])
    assert dvfs_frequency(tasks, cfg) == pytest.approx([5e8, 1e9, 5e-1])
    assert dvfs_frequency(tasks[:0], cfg).shape == (0,)


def test_pure_local_latency(cfg):
    task = make_task()
    out = mu_slot_outcome(task, 0.0, 0.5, 1e9, 0.0, 0.0, 0.5, 200.0, cfg)
    assert out.t_offload == out.t_decompress == out.t_edge_compute == 0.0
    assert out.t_local == pytest.approx(1e6 * 1000.0 / 1e9)
    assert out.latency == pytest.approx(out.t_local)


def test_compression_latency_spot_value(cfg):
    # rho=1, eta=1, D=1e6, J=200, f=1e9 -> 0.2 s
    out = mu_slot_outcome(make_task(j=200.0), 1.0, 1.0, 1e9, 1e10, 1e7, 0.5, 200.0, cfg)
    assert out.t_compress == pytest.approx(0.2)


def test_offload_latency_spot_value(cfg):
    # rho=1, eta=1, beta=0.5 -> tau=0.5; D=1e6, R=5e6 -> 0.1 s
    out = mu_slot_outcome(make_task(beta=0.5), 1.0, 1.0, 1e9, 1e10, 5e6, 0.5, 200.0, cfg)
    assert transmitted_fraction(1.0, 1.0, 0.5) == pytest.approx(0.5)
    assert out.t_offload == pytest.approx(0.1)


def test_local_energy_spot_value(cfg):
    # rho=0, D=1e6, C=1000, f=1e9 -> 1 J at kappa=1e-27
    out = mu_slot_outcome(make_task(), 0.0, 0.0, 1e9, 0.0, 0.0, 0.5, 200.0, cfg)
    assert out.e_local == pytest.approx(1.0)
    assert out.e_compress == 0.0


def test_no_compression_no_dc_energy(cfg):
    out = mu_slot_outcome(make_task(), 1.0, 0.0, 1e9, 1e10, 1e7, 0.5, 200.0, cfg)
    assert out.e_compress == 0.0
    assert out.e_decompress == 0.0


def test_offload_energy_is_time_times_power(cfg):
    out = mu_slot_outcome(make_task(beta=0.5), 1.0, 1.0, 1e9, 1e10, 5e6, 0.5, 200.0, cfg)
    assert out.t_offload == pytest.approx(0.1)
    assert out.e_offload == pytest.approx(0.05)


def test_zero_rate_with_offload_gives_sentinel(cfg):
    out = mu_slot_outcome(make_task(), 0.5, 0.5, 1e9, 1e10, 0.0, 0.5, 200.0, cfg)
    assert math.isinf(out.t_offload)
    assert math.isinf(out.latency)
    assert out.e_offload == pytest.approx(cfg.mu_power_max * cfg.slot_seconds)


def test_effective_ratio_bounds(cfg):
    rng = np.random.default_rng(0)
    for _ in range(200):
        beta = rng.uniform(0.2, 0.8)
        eta = rng.uniform(0.0, 1.0)
        # with everything offloaded, tau is the effective ratio eta*beta + 1 - eta
        bh = transmitted_fraction(1.0, eta, beta)
        assert beta - 1e-12 <= bh <= 1.0 + 1e-12
        rho = rng.uniform(0.0, 1.0)
        assert transmitted_fraction(rho, eta, beta) == pytest.approx(rho * bh)


def oracle_outcome(task, rho, eta, f_mu, f_edge, rate, power, j_dec, cfg):
    """Independent desk evaluation of the latency/energy closed forms."""
    d, c, j, beta, _ = task
    t_loc = (1 - rho) * d * c / f_mu if (1 - rho) * d * c > 0 else 0.0
    t_dc = rho * eta * d * j / f_mu if rho * eta * d * j > 0 else 0.0
    tau = rho * (eta * beta + 1 - eta)
    t_off = tau * d / rate if tau * d > 0 else 0.0
    t_dd = rho * eta * d * j_dec / f_edge if rho * eta * d * j_dec > 0 else 0.0
    t_con = rho * d * c / f_edge if rho * d * c > 0 else 0.0
    e_dc = cfg.kappa_mu * rho * eta * d * j * f_mu ** 2
    e_loc = cfg.kappa_mu * (1 - rho) * d * c * f_mu ** 2
    e_off = t_off * power
    e_con = cfg.kappa_uav * f_edge ** 2 * rho * d * c
    e_dd = cfg.kappa_uav * f_edge ** 2 * rho * eta * d * j_dec
    return (t_loc, t_dc, t_off, t_dd, t_con, t_off + t_dd + t_con,
            t_dc + max(t_loc, t_off + t_dd + t_con),
            e_dc, e_loc, e_off, e_dc + e_loc + e_off, e_con, e_dd)


def test_pipeline_matches_oracle_on_random_tuples(cfg):
    rng = np.random.default_rng(1)
    for _ in range(1000):
        task = make_task(d=rng.uniform(0.5e6, 1.5e6), c=rng.uniform(500, 1500),
                         j=rng.uniform(100, 300), beta=rng.uniform(0.2, 0.8),
                         deadline=rng.uniform(0.7, 1.0))
        rho = rng.uniform(0.05, 1.0)
        eta = rng.uniform(0.0, 1.0)
        f_mu = rng.uniform(1e8, 1e9)
        f_edge = rng.uniform(1e8, 1e10)
        rate = rng.uniform(1e5, 1e9)
        j_dec = rng.uniform(100, 300)
        out = mu_slot_outcome(task, rho, eta, f_mu, f_edge, rate, cfg.mu_power_max, j_dec, cfg)
        got = (out.t_local, out.t_compress, out.t_offload, out.t_decompress,
               out.t_edge_compute, out.t_edge_total, out.latency,
               out.e_compress, out.e_local, out.e_offload, out.e_mu,
               out.e_edge_compute, out.e_decompress)
        want = oracle_outcome(task, rho, eta, f_mu, f_edge, rate, cfg.mu_power_max, j_dec, cfg)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, rel=1e-9)
        assert out.t_edge_total == out.t_offload + out.t_decompress + out.t_edge_compute


def test_hover_power(cfg):
    assert flight_power(0.0, cfg) == pytest.approx(138.10, abs=0.01)


def test_blade_profile_quadruples_at_tip_speed(cfg):
    # the blade term carries factor (1 + 3 v^2/U^2) = 4 at v = U_tip
    blade_only = ScenarioConfig(induced_power=1e-30, fuselage_drag=1e-30).validate()
    assert flight_power(blade_only.tip_speed, blade_only) == pytest.approx(
        4.0 * blade_only.blade_power, rel=1e-9)


def test_flight_power_closed_form_at_20(cfg):
    v = 20.0
    blade = 59.03 * (1.0 + 3.0 * v ** 2 / 120.0 ** 2)
    parasite = 0.5 * 0.6 * 1.225 * 0.05 * 0.503 * v ** 3
    inner = math.sqrt(1.0 + v ** 4 / (4.0 * 3.6 ** 2)) - v ** 2 / (2.0 * 3.6 ** 2)
    induced = 79.07 * math.sqrt(inner)
    assert flight_power(v, cfg) == pytest.approx(blade + parasite + induced, rel=1e-9)


def test_flight_power_standard_form_switch():
    cfg = ScenarioConfig(induced_power_form="standard").validate()
    v = 10.0
    inner = math.sqrt(1.0 + v ** 4 / (4.0 * 3.6 ** 4)) - v ** 2 / (2.0 * 3.6 ** 2)
    induced = 79.07 * math.sqrt(inner)
    blade = 59.03 * (1.0 + 3.0 * v ** 2 / 120.0 ** 2)
    parasite = 0.5 * 0.6 * 1.225 * 0.05 * 0.503 * v ** 3
    assert flight_power(v, cfg) == pytest.approx(blade + parasite + induced, rel=1e-9)
    assert flight_power(0.0, cfg) == pytest.approx(138.10, abs=0.01)


@pytest.mark.parametrize("form", ["paper", "standard"])
def test_batched_flight_power_matches_per_speed_oracle(form):
    # np.power in place of Python's pow for v^3; measured at most 2 ulps
    cfg = ScenarioConfig(induced_power_form=form).validate()
    speeds = np.concatenate([[0.0, cfg.uav_v_max],
                             np.random.default_rng(0).uniform(0.0, cfg.uav_v_max, 2000)])
    got = flight_power(speeds, cfg)
    want = np.array([oracles.flight_power(v, cfg) for v in speeds.tolist()])
    assert got.shape == speeds.shape
    assert np.all(np.abs(got - want) <= 4 * np.spacing(want))
    assert got[0] == want[0]
