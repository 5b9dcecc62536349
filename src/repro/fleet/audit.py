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
from itertools import islice
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
#: The recorder keeps each tick's time; the tick breaks ties between
#: events at the same simulated instant, so precedence is a total order
#: and the checker never guesses about ties.
Stamp = Tuple[float, int]

#: The op kinds, by the code the recorder's kind column holds.
_KINDS = ("put", "get", "delete")
_PUT, _GET, _DELETE = range(3)
_KIND = {name: code for code, name in enumerate(_KINDS)}

#: Respond-column values that are not ticks: the outcome is unknown,
#: because the op is still open or because the client abandoned it.
_OPEN, _ABANDONED = 0, -1


class AuditError(FleetError):
    """A recorded history is not linearizable (or is malformed)."""


@dataclass(frozen=True, slots=True)
class HistoryOp:
    """One client operation: invocation, and (maybe) its response.

    A read-only view of one row of a :class:`HistoryRecorder`, built on
    demand by :meth:`HistoryRecorder.op`.  ``respond_tick is None``
    means the outcome is unknown -- the client timed out, abandoned the
    op, or the run ended first.  An unknown *write* may or may not have
    taken effect; an unknown *read* constrains nothing.
    """

    client: str
    op: str                     # "put" | "get" | "delete"
    key: bytes
    arg: Optional[bytes]        # put's value; None for get/delete
    invoke_tick: int
    respond_tick: Optional[int] = None
    result: object = None       # get: value-or-None; put/delete: True
    #: The recorder's time of each tick.
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
    :meth:`invoke`, which returns the op's index, and :meth:`respond`
    with that index.  An operation that never responds (its retries ran
    out, or the run ended) stays unknown, as :meth:`abandon` marks one.
    An op's outcome is set once: a second :meth:`respond` or
    :meth:`abandon` raises :class:`AuditError` and changes nothing.  One
    recorder may serve many clients (they share one kernel, so one clock
    and one tick counter give a consistent global order).

    The history is kept in columns, one entry per op and no object per
    op: ``array`` columns of invoke tick, respond tick (:data:`_OPEN` or
    :data:`_ABANDONED` while the outcome is unknown), client code and op
    kind, lists of key, arg and result, and a table of client names.
    Each invocation and response takes the next tick, and one
    ``array("d")`` indexed by tick keeps that tick's ``clock()``
    reading.  Tick order is ``(time, tick)`` order only while the clock
    never runs backwards, so a stamp refuses a reading that is NaN or
    below the previous one with :class:`AuditError`.  :meth:`op` and
    :attr:`ops` build :class:`HistoryOp` records for tests and
    diagnostics; the audit reads the columns.
    """

    def __init__(self, clock: Callable[[], float]):
        self._clock = clock
        # Index 0 stands before the first stamp: ticks start at 1, and
        # a respond tick of 0 is _OPEN.
        self._times = array("d", [-math.inf])
        self._invoke = array("q")
        self._respond = array("q")
        self._client = array("H")
        self._kind = array("B")
        self._keys: List[bytes] = []
        self._args: List[Optional[bytes]] = []
        self._results: List[object] = []
        self._client_names: List[str] = []
        self._client_codes: Dict[str, int] = {}

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
        return sorted(self._client_names)

    def max_concurrency(self) -> int:
        """The deepest per-key overlap of completed operations.

        A multi-client history is only a meaningful audit subject if
        operations actually overlapped in time; the linearizability
        oracle (:mod:`repro.fleet.oracles`) requires this above 1, so a
        passing audit cannot be an accidentally sequential schedule."""
        invoke, respond = self._invoke, self._respond
        worst = 0
        for rows in self._rows_by_key().values():
            done = [i for i in rows if respond[i] > 0]
            # Rows are in invoke order, and no two events share a tick.
            ends = sorted(respond[i] for i in done)
            depth = ended = 0
            for i in done:
                start = invoke[i]
                while ends[ended] < start:
                    ended += 1
                    depth -= 1
                depth += 1
                if depth > worst:
                    worst = depth
        return worst

    def invoke(
        self, client: str, op: str, key: bytes, arg: Optional[bytes]
    ) -> int:
        """Record the invocation of ``op`` and return its index."""
        key = bytes(key)
        kind = _KIND.get(op)
        if kind is None:
            raise AuditError(f"{client} {op}({key!r}): the audit knows no op {op!r}")
        tick = self._stamp(client, op, key)
        code = self._client_codes.get(client)
        if code is None:
            code = self._client_codes[client] = len(self._client_names)
            self._client_names.append(client)
        self._invoke.append(tick)
        self._respond.append(_OPEN)
        self._client.append(code)
        self._kind.append(kind)
        self._keys.append(key)
        self._args.append(arg)
        self._results.append(None)
        return len(self._keys) - 1

    def _settle(self, i: int, verb: str) -> Tuple[str, str, bytes]:
        """Op ``i``'s client, op and key, once its outcome is known to be
        unset; :class:`AuditError` if it is already set."""
        who = client, op, key = (
            self._client_names[self._client[i]], _KINDS[self._kind[i]], self._keys[i]
        )
        if self._respond[i] != _OPEN:
            settled = "responded" if self._respond[i] > 0 else "was abandoned"
            raise AuditError(
                f"{client} {op}({key!r}) cannot {verb}: it {settled} "
                "already, and an op's outcome is set only once"
            )
        return who

    def respond(self, i: int, result: object) -> None:
        """Record the response of op ``i`` with its ``result``."""
        self._respond[i] = self._stamp(*self._settle(i, "respond"))
        self._results[i] = result

    def abandon(self, i: int) -> None:
        """Mark op ``i``'s outcome unknown (it may still have taken effect)."""
        self._settle(i, "abandon")
        self._respond[i] = _ABANDONED

    def op(self, i: int) -> HistoryOp:
        """Op ``i`` as a read-only record."""
        tick = self._respond[i]
        return HistoryOp(
            self._client_names[self._client[i]],
            _KINDS[self._kind[i]],
            self._keys[i],
            self._args[i],
            self._invoke[i],
            tick if tick > 0 else None,
            self._results[i],
            _times=self._times,
        )

    @property
    def ops(self) -> List[HistoryOp]:
        """Every op as a read-only record, in invoke order."""
        return [self.op(i) for i in range(len(self))]

    def _rows_by_key(self) -> Dict[bytes, array]:
        """Each key's op indices, in invoke order."""
        out: Dict[bytes, array] = {}
        for i, key in enumerate(self._keys):
            rows = out.get(key)
            if rows is None:
                rows = out[key] = array("q")
            rows.append(i)
        return out

    def __len__(self) -> int:
        return len(self._keys)


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


def _linearizable_key(recorder: HistoryRecorder, rows: array) -> bool:
    """Wing & Gong search over one key's register history, the ops at
    ``rows`` of ``recorder``.

    State = the register's current value (None = absent).  An op may be
    linearized next only if no other *unlinearized* op responded before
    this op was invoked (real-time precedence).  Completed ops must all
    linearize; unknown-outcome writes are optional (the search tries
    both including and excluding them -- excluding is simply never
    picking them).
    """
    invoke: List[int] = []
    finish: List[float] = []
    ops = []  # (kind, arg, result)
    required = 0
    for i in rows:
        kind, tick = recorder._kind[i], recorder._respond[i]
        if tick > 0:
            required |= 1 << len(ops)
        elif kind == _GET:
            continue  # unknown reads constrain nothing and need not linearize
        else:
            tick = math.inf
        invoke.append(recorder._invoke[i])
        finish.append(tick)
        ops.append((kind, recorder._args[i], recorder._results[i]))
    n = len(ops)
    if n == 0:
        return True
    seen: set = set()

    def search(mask: int, state: Optional[bytes]) -> bool:
        if mask & required == required:
            return True
        token = (mask, state)
        if token in seen:
            return False
        seen.add(token)
        pending = [j for j in range(n) if not mask & (1 << j)]
        bound = min(finish[j] for j in pending)
        for j in pending:
            if invoke[j] > bound:
                continue  # some unlinearized op wholly preceded j
            kind, arg, result = ops[j]
            if kind == _GET:
                if result != state:
                    continue  # a read here would return the wrong value
                new_state = state
            elif kind == _PUT:
                new_state = bytes(arg) if arg is not None else b""
            else:  # delete
                new_state = None
            if search(mask | (1 << j), new_state):
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
    respond = recorder._respond
    by_key = recorder._rows_by_key()
    for key in sorted(by_key):
        rows = by_key[key]
        completed = sum(1 for i in rows if respond[i] > 0)
        if len(rows) > max_ops_per_key:
            report.keys.append(
                KeyReport(
                    key, len(rows), completed, False,
                    f"too large: {len(rows)} ops > {max_ops_per_key}",
                )
            )
            continue
        ok = _linearizable_key(recorder, rows)
        detail = "" if ok else "no valid linearization"
        report.keys.append(KeyReport(key, len(rows), completed, ok, detail))
    return report


def describe_violation(recorder: HistoryRecorder, key: KeyReport) -> str:
    """Why ``key``, a failed verdict on ``recorder``'s history, failed:
    the key, the verdict's detail, and the key's first eight ops."""
    rows = islice((i for i, k in enumerate(recorder._keys) if k == key.key), 8)
    lines = "; ".join(recorder.op(i).describe() for i in rows)
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
