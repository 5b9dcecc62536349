"""Arrival-process models: rate shapes, phase labels, determinism."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import Kernel
from repro.traffic import ArrivalModel, TrafficConfig

pytestmark = pytest.mark.traffic


def _config(**overrides):
    defaults = dict(users=10_000, per_user_rps=10.0)
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


# -- the thinning walk against its reference -------------------------------

def _reference_rate(cfg, t_ns):
    """The rate function the walk was written against."""
    base = cfg.base_rate_per_ns
    if cfg.arrival == "poisson":
        return base
    if cfg.flash_at_ns <= t_ns < cfg.flash_at_ns + cfg.flash_duration_ns:
        return base * cfg.flash_multiplier
    return base


def _reference_gap(cfg, rng, now_ns, t0_ns):
    """One gap by the original loop: ``expovariate`` at the peak, then
    an acceptance draw against ``rate_at`` unless the rate is the peak."""
    base = cfg.base_rate_per_ns
    peak = base * cfg.flash_multiplier if cfg.arrival == "flash" else base
    t = now_ns - t0_ns
    start = t
    while True:
        t += rng.expovariate(peak)
        rate = _reference_rate(cfg, t)
        if rate >= peak or rng.random() < rate / peak:
            return t - start


#: (arrival, flash_multiplier): Poisson, a real flash crowd, and a flash
#: "crowd" at the base rate.
ARRIVALS = [("poisson", 6.0), ("flash", 10.0), ("flash", 1.0)]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    arrival=st.sampled_from(ARRIVALS),
    flash_at_us=st.integers(min_value=0, max_value=60),
    flash_us=st.integers(min_value=1, max_value=60),
    t0_ns=st.sampled_from([0.0, 12_345.678, 1e6 / 3]),
    steps=st.integers(min_value=1, max_value=150),
)
def test_next_gap_matches_the_reference_walk(
    seed, arrival, flash_at_us, flash_us, t0_ns, steps
):
    """Gap for gap and draw for draw, including walks that straddle the
    flash window (about one arrival per microsecond at the base rate,
    against a window inside the first 120 us)."""
    kind, multiplier = arrival
    cfg = _config(
        arrival=kind,
        users=100_000,
        flash_multiplier=multiplier,
        flash_at_ns=flash_at_us * 1_000.0,
        flash_duration_ns=flash_us * 1_000.0,
    )
    model = ArrivalModel(cfg)
    kernel = Kernel(seed=seed)
    kernel.now = t0_ns
    reference = random.Random(seed)
    for _ in range(steps):
        gap = model.next_gap(kernel, t0_ns)
        assert gap == _reference_gap(cfg, reference, kernel.now, t0_ns)
        kernel.now += gap
    assert kernel.rng.getstate() == reference.getstate()


class ScriptedRandom:
    """An RNG stand-in that replays fixed ``random()`` values."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)

    def expovariate(self, lambd):
        return -math.log(1.0 - self.random()) / lambd


@pytest.mark.parametrize("edge", ["start", "end"])
def test_next_gap_on_the_window_edges(edge):
    """A candidate exactly on the window's start is inside (accepted with
    no draw); one exactly on its end is outside (it takes a draw)."""
    cfg = _config(arrival="flash", flash_multiplier=4.0)
    u = 0.3
    landing = -math.log(1.0 - u) / ArrivalModel(cfg).peak
    if edge == "start":
        cfg = _config(arrival="flash", flash_multiplier=4.0, flash_at_ns=landing)
    else:
        cfg = _config(
            arrival="flash", flash_multiplier=4.0, flash_at_ns=0.0,
            flash_duration_ns=landing,
        )
    script = [u, 0.9, 0.2, 0.05, 0.5]
    kernel = Kernel()
    kernel.rng = ScriptedRandom(script)
    reference = ScriptedRandom(script)
    gap = ArrivalModel(cfg).next_gap(kernel)
    assert gap == _reference_gap(cfg, reference, 0.0, 0.0)
    assert kernel.rng.values == reference.values
    assert (gap == landing) == (edge == "start")
