"""A per-key linearizability auditor for fleet KVS histories.

The partition-tolerance work makes a strong claim: with majority
quorums (``2w > rf``, ``w + r > rf``) and epoch fencing, the fleet KVS
stays *linearizable* through partitions, failovers, and heals.  This
module checks that claim against ground truth instead of trusting the
protocol: clients record every operation's invocation and response
into a :class:`HistoryRecorder`, and :func:`check_history` runs a
Wing & Gong-style search [WG93]_ per key -- does *some* total order of
the operations exist that (a) respects real-time precedence (op A
before op B whenever A responded before B was invoked) and (b) makes
every ``get`` return exactly what the latest linearized write left
behind?

Keys are independent registers (the KVS offers no cross-key
operations), so the history factors per key and each key's search is
small even when the full history is long.  Operations with *unknown*
outcome -- timed out, client abandoned, or still in flight at the end
of the run -- may have taken effect or not: unknown writes are
optional members of the linearization (tried both ways), unknown reads
constrain nothing and are ignored.

The search memoizes on (linearized-set, register value), which keeps
the common histories (few concurrent ops per key) linear-ish; a
pathological key (hundreds of mutually concurrent ops) can still be
exponential, which is why :class:`AuditError` carries the offending
key and the harness keeps per-key op counts modest.

.. [WG93] J. M. Wing and C. Gong, "Testing and verifying concurrent
   objects", JPDC 17(1-2), 1993.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from .errors import FleetError

__all__ = [
    "AuditError",
    "HistoryOp",
    "HistoryRecorder",
    "KeyReport",
    "assert_linearizable",
    "check_history",
    "describe_violation",
]

#: A timestamp as :attr:`HistoryOp.invoke_ts` and
#: :attr:`HistoryOp.respond_ts` read it: (simulated ns, global tick).
#: A record keeps only the int tick; its recorder keeps each tick's
#: time.  The tick breaks ties between events at the same simulated
#: instant, so precedence is a total order and the checker never
#: guesses about ties.
Stamp = Tuple[float, int]


class AuditError(FleetError):
    """A recorded history is not linearizable (or is malformed)."""


@dataclass(slots=True)
class HistoryOp:
    """One client operation: invocation, and (maybe) its response.

    ``respond_tick is None`` means the outcome is unknown -- the client
    timed out, abandoned the op, or the run ended first.  An unknown
    *write* may or may not have taken effect; an unknown *read*
    constrains nothing.
    """

    client: str
    op: str                     # "put" | "get" | "delete"
    key: bytes
    arg: Optional[bytes]        # put's value; None for get/delete
    invoke_tick: int
    respond_tick: Optional[int] = None
    result: object = None       # get: value-or-None; put/delete: True
    #: The recorder's time of each tick, shared by all its records.
    _times: array = field(kw_only=True, repr=False, compare=False)

    @property
    def invoke_ts(self) -> Stamp:
        return (self._times[self.invoke_tick], self.invoke_tick)

    @property
    def respond_ts(self) -> Optional[Stamp]:
        tick = self.respond_tick
        return None if tick is None else (self._times[tick], tick)

    @property
    def completed(self) -> bool:
        return self.respond_tick is not None

    def describe(self) -> str:
        outcome = f"-> {self.result!r}" if self.completed else "-> ?"
        return f"{self.client} {self.op}({self.key!r}) {outcome}"


class HistoryRecorder:
    """Collects the operation history one or more clients generate.

    Attach by setting ``client.history = recorder``; the client calls
    :meth:`invoke` and :meth:`respond` around each operation, and an
    operation that never responds (its retries ran out, or the run
    ended) stays unknown, as :meth:`abandon` marks one.  One recorder
    may serve many clients (they share one kernel, so one clock and one
    tick counter give a consistent global order).

    Each invocation and response takes the next tick, and the recorder
    keeps that tick's ``clock()`` reading in one ``array("d")`` indexed
    by tick, so a record holds two ints instead of two stamp tuples.
    Tick order is ``(time, tick)`` order only while the clock never runs
    backwards, so a stamp refuses a reading that is NaN or below the
    previous one with :class:`AuditError`.
    """

    def __init__(self, clock: Callable[[], float]):
        self._clock = clock
        # Index 0 stands before the first stamp: ticks start at 1.
        self._times = array("d", [-math.inf])
        self.ops: List[HistoryOp] = []

    def attach(self, client) -> None:
        """Point one :class:`repro.fleet.kvs.FleetKvsClient` at this
        recorder.  Attach as many clients as the scenario runs -- the
        shared clock and tick counter give their interleaved
        operations one consistent global order, which is exactly what
        the concurrent audit needs."""
        client.history = self

    def _stamp(self, client: str, op: str, key: bytes) -> int:
        now = self._clock()
        times = self._times
        if not now >= times[-1]:  # a NaN reading fails this too
            raise AuditError(
                f"{client} {op}({key!r}) stamped at {now!r} after a stamp "
                f"at {times[-1]!r}: the history clock must not decrease"
            )
        times.append(now)
        return len(times) - 1

    @property
    def clients(self) -> List[str]:
        """The distinct client names that recorded operations, sorted."""
        return sorted({op.client for op in self.ops})

    def max_concurrency(self) -> int:
        """The deepest per-key overlap of completed operations.

        A multi-client history is only a meaningful audit subject if
        operations actually overlapped in time; the linearizability
        oracle (:mod:`repro.fleet.oracles`) requires this above 1, so a
        passing audit cannot be an accidentally sequential schedule."""
        worst = 0
        for ops in self.by_key().values():
            events = []
            for op in ops:
                if not op.completed:
                    continue
                events.append((op.invoke_tick, 1))
                events.append((op.respond_tick, -1))
            events.sort()
            depth = 0
            for _tick, delta in events:
                depth += delta
                if depth > worst:
                    worst = depth
        return worst

    def invoke(
        self, client: str, op: str, key: bytes, arg: Optional[bytes]
    ) -> HistoryOp:
        key = bytes(key)
        record = HistoryOp(
            client, op, key, arg, self._stamp(client, op, key), _times=self._times
        )
        self.ops.append(record)
        return record

    def respond(self, record: HistoryOp, result: object) -> None:
        tick = self._stamp(record.client, record.op, record.key)
        record.result = result
        record.respond_tick = tick

    def abandon(self, record: HistoryOp) -> None:
        """Mark an op's outcome unknown (it may still have taken effect)."""
        record.respond_tick = None
        record.result = None

    def by_key(self) -> Dict[bytes, List[HistoryOp]]:
        out: Dict[bytes, List[HistoryOp]] = {}
        for record in self.ops:
            out.setdefault(record.key, []).append(record)
        return out

    def __len__(self) -> int:
        return len(self.ops)


@dataclass
class KeyReport:
    """The verdict for one key's sub-history."""

    key: bytes
    ops: int
    completed: int
    ok: bool
    detail: str = ""


@dataclass
class AuditReport:
    """The full audit: per-key verdicts plus the headline."""

    keys: List[KeyReport] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(k.ok for k in self.keys)

    @property
    def violations(self) -> List[KeyReport]:
        return [k for k in self.keys if not k.ok]

    def summary(self) -> Dict[str, object]:
        return {
            "keys": len(self.keys),
            "ops": sum(k.ops for k in self.keys),
            "completed": sum(k.completed for k in self.keys),
            "linearizable": self.ok,
            "violations": [k.key.decode("latin-1") for k in self.violations],
        }


def _linearizable_key(ops: List[HistoryOp]) -> bool:
    """Wing & Gong search over one key's register history.

    State = the register's current value (None = absent).  An op may be
    linearized next only if no other *unlinearized* op responded before
    this op was invoked (real-time precedence).  Completed ops must all
    linearize; unknown-outcome writes are optional (the search tries
    both including and excluding them -- excluding is simply never
    picking them).
    """
    # Unknown reads constrain nothing and need not linearize: drop them.
    ops = [
        o for o in ops if o.completed or o.op in ("put", "delete")
    ]
    n = len(ops)
    if n == 0:
        return True
    invoke = [o.invoke_tick for o in ops]
    respond = [o.respond_tick if o.completed else math.inf for o in ops]
    required = 0
    for i, o in enumerate(ops):
        if o.completed:
            required |= 1 << i
    all_done = (1 << n) - 1
    seen: set = set()

    def search(mask: int, state: Optional[bytes]) -> bool:
        if mask & required == required:
            return True
        token = (mask, state)
        if token in seen:
            return False
        seen.add(token)
        pending = [i for i in range(n) if not mask & (1 << i)]
        bound = min(respond[i] for i in pending)
        for i in pending:
            if invoke[i] > bound:
                continue  # some unlinearized op wholly preceded i
            op = ops[i]
            if op.op == "get":
                if op.result != state:
                    continue  # a read here would return the wrong value
                new_state = state
            elif op.op == "put":
                new_state = bytes(op.arg) if op.arg is not None else b""
            else:  # delete
                new_state = None
            if search(mask | (1 << i), new_state):
                return True
        # Unknown-outcome ops that are *minimal* may also be skipped
        # forever; that is modelled implicitly -- they are simply never
        # required, and the search terminates once every completed op
        # is linearized.  But a completed op blocked behind an unknown
        # one still needs the unknown one either linearized (tried
        # above) or ignored: ignoring is legal exactly because an
        # unlinearized unknown op has respond = inf and never gates the
        # precedence bound.
        return False

    return search(0, None)


def check_history(
    recorder: HistoryRecorder, max_ops_per_key: int = 400
) -> AuditReport:
    """Audit a recorded history; returns per-key verdicts.

    ``max_ops_per_key`` guards the exponential corner: a key whose
    sub-history exceeds it fails loudly (with ``detail="too large"``)
    rather than hanging the test suite.
    """
    report = AuditReport()
    by_key = recorder.by_key()
    for key in sorted(by_key):
        ops = by_key[key]
        completed = sum(1 for o in ops if o.completed)
        if len(ops) > max_ops_per_key:
            report.keys.append(
                KeyReport(
                    key, len(ops), completed, False,
                    f"too large: {len(ops)} ops > {max_ops_per_key}",
                )
            )
            continue
        ok = _linearizable_key(ops)
        detail = "" if ok else "no valid linearization"
        report.keys.append(KeyReport(key, len(ops), completed, ok, detail))
    return report


def describe_violation(recorder: HistoryRecorder, key: KeyReport) -> str:
    """Why ``key``, a failed verdict on ``recorder``'s history, failed:
    the key, the verdict's detail, and the key's first eight ops."""
    lines = "; ".join(o.describe() for o in recorder.by_key()[key.key][:8])
    return (
        f"history for key {key.key!r} is not linearizable "
        f"({key.detail}; {key.ops} ops): {lines}"
    )


def assert_linearizable(
    recorder: HistoryRecorder, max_ops_per_key: int = 400
) -> AuditReport:
    """:func:`check_history`, raising :class:`AuditError` on violation."""
    report = check_history(recorder, max_ops_per_key=max_ops_per_key)
    if not report.ok:
        raise AuditError(describe_violation(recorder, report.violations[0]))
    return report
