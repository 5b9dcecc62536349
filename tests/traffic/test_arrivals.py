"""Arrival-process models: rate shapes, phase labels, determinism."""

import pytest

from repro.sim import Kernel
from repro.traffic import ArrivalModel, TrafficConfig

pytestmark = pytest.mark.traffic


def _config(**overrides):
    defaults = dict(enabled=True, users=10_000, per_user_rps=10.0)
    defaults.update(overrides)
    return TrafficConfig(**defaults)


# -- rate functions --------------------------------------------------------

def test_poisson_rate_is_flat():
    model = ArrivalModel(_config(arrival="poisson"))
    base = model.base
    assert base == pytest.approx(1e-4)
    for t in (0.0, 1e6, 5e6, 19e6):
        assert model.rate_at(t) == base
    assert model.peak == base
    assert model.phases() == ("steady",)


def test_flash_rate_multiplies_inside_the_window():
    cfg = _config(
        arrival="flash",
        flash_at_ns=2e6,
        flash_duration_ns=1e6,
        flash_multiplier=8.0,
    )
    model = ArrivalModel(cfg)
    assert model.rate_at(1.9e6) == pytest.approx(model.base)
    assert model.rate_at(2.0e6) == pytest.approx(model.base * 8.0)
    assert model.rate_at(2.999e6) == pytest.approx(model.base * 8.0)
    assert model.rate_at(3.0e6) == pytest.approx(model.base)
    assert model.phase_at(2.5e6) == "flash"
    assert model.phase_at(3.5e6) == "steady"
    assert model.phases() == ("steady", "flash")


# -- gap draws -------------------------------------------------------------

def test_gaps_are_deterministic_under_the_kernel_seed():
    cfg = _config(arrival="flash")
    gaps_a = _draw_gaps(cfg, seed=42, n=200)
    gaps_b = _draw_gaps(cfg, seed=42, n=200)
    assert gaps_a == gaps_b
    assert _draw_gaps(cfg, seed=43, n=200) != gaps_a


def _draw_gaps(cfg, seed, n):
    kernel = Kernel(seed=seed)
    model = ArrivalModel(cfg)
    gaps = []
    for _ in range(n):
        gaps.append(model.next_gap(kernel))
    return gaps


def test_poisson_gaps_average_near_the_rate():
    cfg = _config(arrival="poisson")
    gaps = _draw_gaps(cfg, seed=7, n=4000)
    assert all(g > 0 for g in gaps)
    mean = sum(gaps) / len(gaps)
    expected = 1.0 / ArrivalModel(cfg).base
    assert 0.9 * expected < mean < 1.1 * expected


def test_thinning_respects_the_flash_window():
    """Arrivals walked through a flash run land ~multiplier times more
    densely inside the window than outside it."""
    cfg = _config(
        arrival="flash",
        per_user_rps=100.0,
        flash_at_ns=5e6,
        flash_duration_ns=5e6,
        flash_multiplier=5.0,
    )
    kernel = Kernel(seed=3)
    model = ArrivalModel(cfg)
    t, inside, outside = 0.0, 0, 0
    while t < 15e6:
        # Static kernel: advance a virtual clock through the draws.
        gap = model.next_gap(kernel, t0_ns=-t)  # kernel.now==0 -> t rel
        t += gap
        if 5e6 <= t < 10e6:
            inside += 1
        elif t < 15e6:
            outside += 1
    per_ns_in = inside / 5e6
    per_ns_out = outside / 10e6
    assert 4.0 < per_ns_in / per_ns_out < 6.0
