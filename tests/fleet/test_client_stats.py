"""FleetKvsClient accounting semantics: timeouts vs rejections vs retries.

The contract these tests pin down:

* ``timeouts`` counts attempts where the :class:`Timeout` branch won
  the race -- the server never answered.
* ``rejections`` counts attempts the server *answered* but failed or
  rejected (e.g. ``stale_epoch`` fencing).  Historically these were
  mislabeled as timeouts, and later split off under ``quorum_rejects``
  (now always 0).
* ``retries`` counts attempts that were actually followed by another
  attempt -- the final failed attempt of an exhausted request is not a
  retry, so an op that fails outright after ``max_retries + 1``
  attempts records exactly ``max_retries`` retries.
* An answered-but-failed get (fenced by the epoch guard) is retried and
  ultimately raises -- it must not surface as a successful ``None``
  read.  An answered delete of a missing key is served, not refused.

The racks are ``rack_quorum`` fleets (rf=3: w=2, r=2).  The fencing
lever: a server rejects any request from a *newer* epoch than its own
(it is the stale party).  Setting ``client.epoch`` ahead of the servers
produces answered ``stale_epoch`` rejections on demand.
"""

from dataclasses import replace

import pytest

from repro.config import preset
from repro.fleet import FleetKvsError, Rack
from repro.sim import Timeout

pytestmark = pytest.mark.fleet


def _fleet(**overrides):
    return replace(preset("rack_quorum").fleet, seed=0xFEED, **overrides)


def _fence_all(rack, epoch=1):
    for machine in rack.machines.values():
        machine.server.set_epoch(epoch)


def _down_all(rack):
    for machine in rack.machines.values():
        machine.server.down()


# -- rejections vs timeouts ------------------------------------------------

def test_put_rejections_count_as_rejections_not_timeouts():
    """Answered stale_epoch rejections land under ``rejections``."""
    rack = Rack(_fleet(max_retries=2))
    client = rack.client()
    client.epoch = 1  # ahead of every server: all attempts are fenced

    def workload():
        with pytest.raises(FleetKvsError):
            yield from client.put(b"k", b"v")

    rack.kernel.run_process(workload())
    assert client.stats["rejections"] == 3
    assert client.stats["quorum_rejects"] == 0
    assert client.stats["timeouts"] == 0
    assert client.stats["retries"] == 2
    assert client.stats["puts_acked"] == 0


def test_put_succeeds_after_rejection_without_timeout_counts():
    """Rejected attempts retry; once the servers catch up the put lands
    -- with the rejections on the books and zero timeouts."""
    rack = Rack(_fleet())
    client = rack.client()
    client.epoch = 1

    def fencer():
        # Let at least one attempt be answered-rejected, then bring the
        # servers up to the client's epoch so a retry can succeed.
        while client.stats["rejections"] == 0:
            yield Timeout(200.0)
        _fence_all(rack, 1)

    rack.kernel.spawn(fencer(), name="fencer")

    def workload():
        yield from client.put(b"k", b"v")

    rack.kernel.run_process(workload())
    assert client.stats["puts_acked"] == 1
    assert client.stats["rejections"] >= 1
    assert client.stats["timeouts"] == 0
    assert client.stats["retries"] == client.stats["rejections"]


def test_delete_rejections_count_as_rejections_not_timeouts():
    rack = Rack(_fleet(max_retries=1))
    client = rack.client()

    def seed():
        yield from client.put(b"k", b"v")

    rack.kernel.run_process(seed())
    client.epoch = 1

    def workload():
        with pytest.raises(FleetKvsError):
            yield from client.delete(b"k")

    rack.kernel.run_process(workload())
    assert client.stats["rejections"] == 2
    assert client.stats["timeouts"] == 0
    assert client.stats["deletes"] == 0


def test_delete_of_missing_key_is_not_a_rejection():
    """ok=False with no error (benign delete miss) is a served answer:
    it counts toward the write quorum, and delete returns the primary's
    "not found"."""
    rack = Rack(_fleet())
    client = rack.client()
    outcome = {}

    def workload():
        outcome["result"] = yield from client.delete(b"never-written")

    rack.kernel.run_process(workload())
    assert outcome["result"] is False
    assert client.stats["deletes"] == 1
    assert client.stats["rejections"] == 0
    assert client.stats["timeouts"] == 0
    assert client.stats["retries"] == 0


def test_real_timeouts_still_count_as_timeouts():
    rack = Rack(_fleet())
    client = rack.client()
    _down_all(rack)

    def workload():
        with pytest.raises(FleetKvsError):
            yield from client.put(b"k", b"v")

    rack.kernel.run_process(workload())
    assert client.stats["timeouts"] == client.max_retries + 1
    assert client.stats["rejections"] == 0


# -- retries: only attempts that are actually retried ----------------------

@pytest.mark.parametrize("op", ["put", "get", "delete"])
def test_exhausted_request_records_max_retries_not_one_more(op):
    """An op that fails all attempts retried exactly ``max_retries``
    times -- the final failed attempt is not a retry."""
    rack = Rack(_fleet(max_retries=2))
    client = rack.client()
    _down_all(rack)

    def workload():
        with pytest.raises(FleetKvsError):
            if op == "put":
                yield from client.put(b"k", b"v")
            elif op == "get":
                yield from client.get(b"k")
            else:
                yield from client.delete(b"k")

    rack.kernel.run_process(workload())
    assert client.stats["retries"] == 2
    assert client.stats["timeouts"] == 3


def test_quorum_exhausted_request_records_max_retries():
    """Writes and reads on one client share the retry-accounting
    contract at the preset's own retry budget."""
    cfg = preset("rack_quorum").fleet
    assert (cfg.write_quorum, cfg.read_quorum) == (2, 2)
    rack = Rack(cfg)
    client = rack.client()
    _down_all(rack)

    def workload():
        with pytest.raises(FleetKvsError):
            yield from client.put(b"k", b"v")
        with pytest.raises(FleetKvsError):
            yield from client.get(b"k")

    rack.kernel.run_process(workload())
    assert client.stats["retries"] == 2 * client.max_retries
    assert client.stats["timeouts"] == 2 * (client.max_retries + 1)
    assert client.stats["rejections"] == 0


# -- rejected reads ---------------------------------------------------------

def test_rejected_get_is_not_returned_as_a_missing_key():
    """An answered-but-failed get must not surface as value=None.

    A ``stale_epoch`` rejection must never read as "key missing" or
    count as a successful get: the fenced get retries and -- still
    fenced -- raises, with the rejections accounted and nothing counted
    under ``gets``.
    """
    rack = Rack(_fleet(max_retries=1))
    client = rack.client()
    reads = {}

    def seed():
        yield from client.put(b"k", b"real-value")

    rack.kernel.run_process(seed())
    client.epoch = 1  # fenced from here on

    def workload():
        try:
            reads["value"] = yield from client.get(b"k")
        except FleetKvsError:
            reads["raised"] = True

    rack.kernel.run_process(workload())
    assert "value" not in reads, "fenced get masqueraded as a miss"
    assert reads.get("raised")
    assert client.stats["rejections"] == 2
    assert client.stats["timeouts"] == 0
    assert client.stats["gets"] == 0


def test_get_of_missing_key_still_returns_none():
    """The benign miss still reads as None: a get for a key that was
    never written is served ok=True with value=None."""
    rack = Rack(_fleet())
    client = rack.client()
    reads = {}

    def workload():
        reads["value"] = yield from client.get(b"nope")

    rack.kernel.run_process(workload())
    assert reads["value"] is None
    assert client.stats["gets"] == 1
    assert client.stats["rejections"] == 0
    assert client.stats["retries"] == 0
