"""Typed errors for the fleet layer.

Every fleet-level failure mode surfaces as a :class:`FleetError`
subclass, so callers (soak harnesses, examples, supervisors) can catch
the whole family with one except clause while tests pin the specific
condition.  The hierarchy:

* :class:`FleetError` -- base class for all fleet-layer errors;
* ``RackError`` (:mod:`repro.fleet.rack`) -- a misused rack (unknown
  machine names, rejoin of a live board, overlapping partitions);
* ``FleetKvsError`` (:mod:`repro.fleet.kvs`) -- a KVS request exhausted
  its retries;
* ``KvsRequestAborted`` (:mod:`repro.fleet.kvs`) -- a request in
  service when its server went down; recorded (not raised) so the
  client-side timeout stays the externally visible failure.
* ``AntiEntropyError`` (:mod:`repro.fleet.antientropy`) -- a
  scheduler armed again while its background window still ticks;
* ``OracleError`` (:mod:`repro.fleet.oracles`) -- a finished run broke
  a serving invariant.
"""

from __future__ import annotations


class FleetError(RuntimeError):
    """Base class for all fleet-layer errors."""
