"""Snapshot/fork cost: the warm-boot speedup a sweep actually gets.

The acceptance bar of the snap subsystem: reaching a checkpoint's sim
time by *forking* (restore + reseed) must be at least 10x faster in
wall-clock than replaying the whole run from t=0.  The margin comes
from the asymmetry -- a fork pays object construction plus dict copies,
a replay pays every simulated event of the common prefix -- so the bar
holds with a wide cushion and stays honest on noisy CI hosts via
best-of-repeats.

Also smokes the absolute checkpoint/restore costs so a pathological
slowdown (accidental deep-copying, JSON in the hot path) fails loudly.
"""

import time

import pytest

from repro.config import FleetConfig
from repro.fleet import Rack
from repro.obs import MetricsRegistry
from repro.snap import FleetSoak, checkpoint_rack, fork_rack
from repro.snap.protocol import restore, tagged

pytestmark = pytest.mark.snap

FLEET = FleetConfig(machines=4, replication_factor=2, seed=40)
EPOCHS = 100         # prefix length the fork never replays
OPS_PER_EPOCH = 12
REPEATS = 3          # best-of-N: minimum-noise estimator


def _build():
    obs = MetricsRegistry()
    rack = Rack(FLEET, obs=obs)
    clients = [rack.client("client0")]
    return rack, clients, FleetSoak(rack, clients, ops_per_epoch=OPS_PER_EPOCH)


def _best(fn, repeats=REPEATS):
    return min(_timed(fn) for _ in range(repeats))


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_fork_reaches_checkpoint_time_10x_faster_than_replay():
    # The checkpoint: a long soak prefix, captured at its end.
    rack, clients, soak = _build()
    soak.run(EPOCHS)
    checkpoint = checkpoint_rack(rack, clients=clients)
    target_ns = rack.kernel.now

    def replay_from_zero():
        r, c, s = _build()
        s.run(EPOCHS)
        assert r.kernel.now == target_ns

    def fork_from_checkpoint():
        r, c = fork_rack(checkpoint, seed=1234)
        assert r.kernel.now == target_ns

    t_replay = _best(replay_from_zero)
    t_fork = _best(fork_from_checkpoint)
    speedup = t_replay / t_fork
    print(
        f"\nreplay-from-zero {t_replay * 1e3:.1f} ms, "
        f"fork {t_fork * 1e3:.1f} ms -> {speedup:.1f}x"
    )
    assert speedup >= 10.0, (
        f"fork must be >= 10x faster than replay from t=0, got {speedup:.1f}x "
        f"(replay {t_replay * 1e3:.1f} ms, fork {t_fork * 1e3:.1f} ms)"
    )


def test_forked_run_is_correct_not_just_fast():
    rack, clients, soak = _build()
    soak.run(EPOCHS)
    checkpoint = checkpoint_rack(rack, clients=clients)
    soak_tag = tagged(soak)

    forked, forked_clients = fork_rack(checkpoint, seed=77)
    forked_soak = FleetSoak(forked, forked_clients, ops_per_epoch=OPS_PER_EPOCH)
    restore(forked_soak, soak_tag)
    forked_soak.run(2)
    assert forked.kernel.now > checkpoint.meta["taken_at"]
    assert forked_soak.epoch == EPOCHS + 2


def test_checkpoint_and_restore_cost_smoke():
    rack, clients, soak = _build()
    soak.run(5)

    t_capture = _best(lambda: checkpoint_rack(rack, clients=clients))
    checkpoint = checkpoint_rack(rack, clients=clients)
    t_restore = _best(lambda: fork_rack(checkpoint, seed=3))
    print(
        f"\ncheckpoint {t_capture * 1e3:.2f} ms, restore+fork {t_restore * 1e3:.2f} ms"
    )
    # Generous ceilings: these run in well under 100 ms on any host this
    # suite supports; 2 s means something is catastrophically wrong.
    assert t_capture < 2.0
    assert t_restore < 2.0
