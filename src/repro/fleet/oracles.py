"""The serving oracles: the invariants a finished fleet run must keep.

Each oracle takes parts of a finished run and returns a list of
:class:`Violation` records, empty when its invariant holds, so a caller
can collect every violation and a fuzzer can tell one broken invariant
from another.  :func:`require` raises one :class:`OracleError` naming
them all.  An oracle only reads: checking never changes a run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from .audit import describe_violation
from .errors import FleetError


class OracleError(FleetError):
    """A finished run broke one or more serving invariants."""


@dataclass(frozen=True)
class Violation:
    """One broken invariant: the oracle that found it, and what it saw."""

    oracle: str
    message: str


def require(violations: Iterable[Violation]) -> None:
    """Raise :class:`OracleError` naming every violation, if there is any."""
    violations = list(violations)
    if violations:
        raise OracleError("; ".join(f"{v.oracle}: {v.message}" for v in violations))


def conservation(gateway: Mapping[str, int]) -> List[Violation]:
    """The gateway stats ``gateway`` account for every offered request
    exactly once."""
    accounted = (
        gateway["completed"]
        + gateway["rejected_throttled"]
        + gateway["rejected_shed"]
        + gateway["errors"]
    )
    if gateway["offered"] == accounted:
        return []
    return [Violation("conservation", f"offered {gateway['offered']} != accounted {accounted}")]


def no_errors(gateway: Mapping[str, int]) -> List[Violation]:
    """A healthy run serves no request with an error."""
    if not gateway["errors"]:
        return []
    return [Violation("no_errors", f"a healthy run served {gateway['errors']} errors")]


def linearizability(recorder, report) -> List[Violation]:
    """The history in ``recorder`` passes ``report``, its
    :func:`repro.fleet.audit.check_history` audit.  A history that
    several clients recorded must also have overlapped, or it passes
    vacuously; that is its own ``overlap`` violation."""
    violations = [
        Violation("linearizability", describe_violation(recorder, key))
        for key in report.violations
    ]
    clients = len(recorder.clients)
    if clients > 1 and recorder.max_concurrency() <= 1:
        violations.append(Violation("overlap", f"{clients} clients never overlapped"))
    return violations


def convergence(divergence: int) -> List[Violation]:
    """Every live placement target holds its key's winning copy: the
    rack's :func:`repro.fleet.antientropy.replica_divergence` is 0."""
    if divergence == 0:
        return []
    return [Violation("convergence", f"{divergence} (key, replica) pairs lag the winning copy")]


def _acked(writers: Sequence) -> Dict[bytes, bytes]:
    return {key: value for writer in writers for key, value in writer.acked.items()}


def read_acked(reader, writers: Sequence):
    """Read every key any of ``writers`` holds an ack for through the
    client ``reader``, in sorted key order; returns ``{key: value}``.
    Run it with ``yield from`` inside a process, so the reads join that
    process's schedule and any history ``reader`` records."""
    reads: Dict[bytes, Optional[bytes]] = {}
    for key in sorted(_acked(writers)):
        reads[key] = yield from reader.get(key)
    return reads


def durability(writers: Sequence, reads: Mapping[bytes, Optional[bytes]]) -> List[Violation]:
    """Every write acked to one of ``writers``, the clients that wrote,
    is readable in ``reads``.  With one writer an acked key must read
    its acked value; with several, another client's later write may
    win, so it must only read something other than ``None``."""
    exact = len(writers) == 1
    return [
        Violation("durability", f"acked write {key!r} = {value!r} reads {reads.get(key)!r}")
        for key, value in sorted(_acked(writers).items())
        if reads.get(key) is None or exact and reads.get(key) != value
    ]
