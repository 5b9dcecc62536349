"""The sharded fleet KVS: shard servers on every board, one client.

Functionally this scales :class:`repro.apps.kvs.HashTableStore` -- the
single-board, FPGA-terminated KV-Direct store -- across the rack: each
machine runs a :class:`KvsShardServer` that terminates request frames
on its switch port and executes operations against its local store
after the pipeline's service time.  A :class:`FleetKvsClient` places
keys with the rack's consistent-hash ring and replicates every write
through the key's primary.

The replication protocol is primary-coordinated majority quorums, with
both quorums derived from the replication factor
(:attr:`repro.fleet.config.FleetConfig.write_quorum` /
:attr:`~repro.fleet.config.FleetConfig.read_quorum`):
``w = rf // 2 + 1`` and ``r = rf - w + 1``.

* **Writes**: the client sends one put/delete to the key's primary,
  which stamps a per-key ``(epoch, seq)`` version, applies locally,
  forwards ``replicate`` copies to the replicas, and every participant
  acks *directly to the client*; the write commits at ``w`` acks.
  Placement targets that missed a committed write get a *hinted
  handoff* queued on an acked replica, drained into them when the
  partition heals.
* **Reads** fan out to all placement targets, commit at ``r``
  responses, return the highest version, and *read-repair* every stale
  or silent target.

``w >= 2`` whenever ``rf >= 2``, so an acknowledged write survives any
single machine failure; ``w + r > rf``, so every read intersects every
committed write.

Quorum epochs fence stale participants: the rack bumps ``ring_epoch``
on every membership change and at each partition's controller side,
servers adopt it, and a server rejects a request from a *newer* epoch
than its own (``stale_epoch``) -- so a fenced-out minority server can
never acknowledge a write the majority won't see.  Writes (put, delete,
replicate) additionally require exact epoch equality, so a stale
*client* cannot write either.

Failover is timeout-driven on the client: a request that times out
re-resolves placement against the (possibly shrunk) ring and retries,
so after :meth:`repro.fleet.rack.Rack.kill` the old first replica --
which by ring construction is the new primary -- picks up the shard
without any data movement.

All request/response latencies land in ``obs`` histograms labelled by
op and serving machine; :mod:`repro.fleet.rollup` merges them into
rack-level percentiles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..apps.kvs import HashTableStore
from ..net.ethernet import EthernetLink, Frame
from ..sim import Awaitable, Kernel
from .config import REQUEST_TIMEOUT_NS, SERVICE_NS
from .errors import FleetError

#: Modeled wire overhead of a KVS request/response header (op, txid,
#: epoch, version, lengths, checksum) -- the KV-Direct UDP-style framing.
REQUEST_HEADER_BYTES = 24

#: The null per-key version: "never written".
NO_VERSION: Tuple[int, int] = (0, 0)

#: Ops that must carry exactly the server's epoch (the strict guard).
_WRITE_OPS = ("put", "delete", "replicate")


class FleetKvsError(FleetError):
    """A fleet KVS request exhausted its retries (no live replica set)."""


class KvsRequestAborted(FleetKvsError):
    """A request was in service when its server died.

    These are *recorded*, not raised: :meth:`KvsShardServer.down`
    appends one per aborted request to :attr:`KvsShardServer.aborted`
    so tests and post-mortems can see exactly which transactions were
    dropped on the floor (the client sees only its timeout).
    """

    def __init__(self, machine: str, op: str, txid: int, reply_to: str):
        super().__init__(
            f"server {machine!r} died with {op} tx{txid} "
            f"(from {reply_to!r}) in service"
        )
        self.machine = machine
        self.op = op
        self.txid = txid
        self.reply_to = reply_to


@dataclass(init=False, slots=True, unsafe_hash=True)
class KvsRequest:
    """One operation in flight from the client to a shard server.

    ``epoch`` is the sender's quorum epoch (0 until it learns one);
    ``replicas`` rides on the client's put/delete to the primary, and
    ``version``/``hint_for``/``tombstone`` on the server-to-server and
    repair ops (``replicate``, ``hint``, ``repair``).  None of them
    contributes to ``wire_bytes``, which is computed once, here.
    Nothing mutates a request after construction.
    """

    op: str            # "put" | "get" | "delete" | "replicate" | "hint" | "repair"
    key: bytes
    value: bytes
    txid: int
    reply_to: str      # the client's switch address ("client0#kvs")
    epoch: int = 0
    version: Tuple[int, int] = NO_VERSION
    replicas: Tuple[str, ...] = ()
    hint_for: str = ""
    tombstone: bool = False
    wire_bytes: int = field(init=False, repr=False, compare=False)

    def __init__(self, op: str, key: bytes, value: bytes, txid: int, reply_to: str,
                 epoch: int = 0, version: Tuple[int, int] = NO_VERSION,
                 replicas: Tuple[str, ...] = (), hint_for: str = "",
                 tombstone: bool = False):
        self.op = op
        self.key = key
        self.value = value
        self.txid = txid
        self.reply_to = reply_to
        self.epoch = epoch
        self.version = version
        self.replicas = replicas
        self.hint_for = hint_for
        self.tombstone = tombstone
        self.wire_bytes = REQUEST_HEADER_BYTES + len(key) + len(value)


@dataclass(init=False, slots=True, unsafe_hash=True)
class KvsResponse:
    """A shard server's answer, carrying the serving machine's name.

    ``epoch`` is the server's quorum epoch (clients adopt the max they
    see); ``version`` is the per-key ``(epoch, seq)`` stamp of the
    value read or written.  ``error`` names why the server failed the
    request (``"stale_epoch"``, ``"store_error"``, ``"unknown_op"``);
    an answer without one was served, even when ``ok`` is False (a
    delete of a missing key).  Slotted and never mutated, like
    :class:`KvsRequest`.
    """

    txid: int
    ok: bool
    value: Optional[bytes]
    machine: str
    epoch: int = 0
    version: Tuple[int, int] = NO_VERSION
    error: str = ""
    wire_bytes: int = field(init=False, repr=False, compare=False)

    def __init__(self, txid: int, ok: bool, value: Optional[bytes], machine: str,
                 epoch: int = 0, version: Tuple[int, int] = NO_VERSION, error: str = ""):
        self.txid = txid
        self.ok = ok
        self.value = value
        self.machine = machine
        self.epoch = epoch
        self.version = version
        self.error = error
        self.wire_bytes = REQUEST_HEADER_BYTES + (len(value) if value else 0)


class KvsShardServer:
    """One machine's shard: terminates ``<name>#kvs`` on its port.

    A dead server (:meth:`down`) models a NIC gone dark: frames still
    burn wire time but are black-holed, which is what drives the
    client's timeout-based failover.  Requests already *in service*
    when the server dies are failed with a typed
    :class:`KvsRequestAborted` (recorded in :attr:`aborted`), never
    silently dropped.
    """

    def __init__(
        self,
        kernel: Kernel,
        name: str,
        link: EthernetLink,
        store: HashTableStore,
        obs=None,
    ):
        from ..obs import NULL_REGISTRY

        self.kernel = kernel
        self.name = name
        self.link = link
        self.store = store
        self.obs = obs if obs is not None else NULL_REGISTRY
        self.address = f"{name}#kvs"
        self.alive = True
        #: This server's quorum epoch (monotone; rack fencing raises it).
        self.epoch = 0
        #: Per-key (epoch, seq) version stamps; absent = never written.
        self.versions: Dict[bytes, Tuple[int, int]] = {}
        #: Hinted handoffs queued here for unreachable placement targets:
        #: target machine -> [(key, value, version, tombstone), ...].
        self.hints: Dict[str, List[Tuple[bytes, bytes, Tuple[int, int], bool]]] = {}
        self.aborted: List[KvsRequestAborted] = []
        self._service_seq = 0
        self._in_service: Dict[int, KvsRequest] = {}
        self._obs_stale_epoch = self.obs.family(
            "counter", "fleet_stale_epoch_rejects_total", ("machine",)
        )
        self._obs_ops = self.obs.family(
            "counter", "fleet_kvs_ops_total", ("machine", "op")
        )
        self.stats = {
            "served": 0,
            "dropped_dead": 0,
            "errors": 0,
            "aborted_in_flight": 0,
            "replicated": 0,
            "hints_queued": 0,
            "repairs_applied": 0,
            "stale_epoch_rejects": 0,
        }
        link.attach(self.address, self._on_frame)

    def down(self) -> None:
        """Die, failing every request currently in service with a typed
        :class:`KvsRequestAborted` instead of silently dropping it."""
        self.alive = False
        for seq in sorted(self._in_service):
            request = self._in_service[seq]
            self.aborted.append(
                KvsRequestAborted(
                    self.name, request.op, request.txid, request.reply_to
                )
            )
            self.stats["aborted_in_flight"] += 1
        self._in_service.clear()

    def up(self) -> None:
        """Bring a dead server back (the rejoin path): frames terminate
        again.  The store contents are whatever the caller arranged."""
        self.alive = True

    # -- quorum state --------------------------------------------------------

    def set_epoch(self, epoch: int) -> None:
        """Adopt a (never-lower) quorum epoch -- the rack's fencing call."""
        self.epoch = max(self.epoch, epoch)

    def apply_hint(
        self,
        key: bytes,
        value: bytes,
        version: Tuple[int, int],
        tombstone: bool,
    ) -> bool:
        """Apply a versioned write iff it is newer than our copy."""
        if tuple(version) <= self.versions.get(bytes(key), NO_VERSION):
            return False
        self.versions[bytes(key)] = tuple(version)
        if tombstone:
            self.store.delete(key)
        else:
            self.store.put(key, value)
        return True

    def take_hints(self) -> Dict[str, List[Tuple[bytes, bytes, Tuple[int, int], bool]]]:
        """Drain and return every queued hinted handoff."""
        hints, self.hints = self.hints, {}
        return hints

    # -- checkpoint/restore (repro.snap) ---------------------------------
    #
    # Requests in service live as pending kernel callbacks, so a server
    # is only snapshot-safe at quiescence; liveness, the quorum state
    # (epoch, versions, hints), and the served counters are the explicit
    # state (the store snapshots separately).

    SNAP_VERSION = 2

    def snapshot_state(self) -> dict:
        if self._in_service:
            from ..snap.protocol import SnapshotError

            raise SnapshotError(
                f"server {self.name!r} has {len(self._in_service)} "
                "requests in service; snapshot only at quiescence"
            )
        return {
            "alive": self.alive,
            "stats": dict(self.stats),
            "epoch": self.epoch,
            "versions": [
                [key, list(version)]
                for key, version in sorted(self.versions.items())
            ],
            "hints": [
                [target, [[k, v, list(ver), tomb] for k, v, ver, tomb in entries]]
                for target, entries in sorted(self.hints.items())
            ],
        }

    def restore_state(self, state: dict) -> None:
        self.alive = state["alive"]
        self.stats.update(state["stats"])
        self.epoch = state["epoch"]
        self.versions = {
            bytes(key): tuple(version) for key, version in state["versions"]
        }
        self.hints = {
            target: [
                (bytes(k), bytes(v), tuple(ver), bool(tomb))
                for k, v, ver, tomb in entries
            ]
            for target, entries in state["hints"]
        }

    # -- request path --------------------------------------------------------

    def _on_frame(self, frame: Frame) -> None:
        if not self.alive:
            self.stats["dropped_dead"] += 1
            return
        request: KvsRequest = frame.payload
        seq = self._service_seq
        self._service_seq += 1
        self._in_service[seq] = request
        self.kernel.call_after(SERVICE_NS, self._complete, seq)

    def _stale_epoch(self, request: KvsRequest) -> bool:
        """Should this request be fenced off by the epoch guard?

        A request from a *newer* epoch than ours is always rejected: we
        are the stale party (fenced out of a membership change we have
        not seen) and must not acknowledge anything the current quorum
        would miss.  Writes additionally require exact equality, so a
        stale *client* cannot write either.
        """
        if request.op in _WRITE_OPS:
            return request.epoch != self.epoch
        return request.epoch > self.epoch

    def _respond(self, request: KvsRequest, response: KvsResponse) -> None:
        self.link.send(Frame(self.address, request.reply_to, response, response.wire_bytes))

    def _stamp(self, key: bytes) -> Tuple[int, int]:
        """Mint the next (epoch, seq) version for a key we coordinate."""
        prev = self.versions.get(bytes(key), NO_VERSION)
        version = (self.epoch, prev[1] + 1)
        self.versions[bytes(key)] = version
        return version

    def _complete(self, seq: int) -> None:
        request = self._in_service.pop(seq, None)
        if request is None:  # aborted: the server died while it was in service
            return
        if self._stale_epoch(request):
            self.stats["stale_epoch_rejects"] += 1
            if self.obs:
                self._obs_stale_epoch.labels(self.name).inc()
            if request.op not in ("hint", "repair"):
                self._respond(
                    request,
                    KvsResponse(
                        request.txid, False, None, self.name,
                        epoch=self.epoch, error="stale_epoch",
                    ),
                )
            return
        ok, value, version, error = True, None, NO_VERSION, ""
        try:
            if request.op == "put":
                version = self._stamp(request.key)
                self.store.put(request.key, request.value)
                for replica in request.replicas:
                    self._replicate(request, replica, version)
            elif request.op == "get":
                value = self.store.get(request.key)
                version = self.versions.get(bytes(request.key), NO_VERSION)
            elif request.op == "delete":
                version = self._stamp(request.key)
                ok = self.store.delete(request.key)
                for replica in request.replicas:
                    self._replicate(request, replica, version)
            elif request.op == "replicate":
                version = tuple(request.version)
                if self.apply_hint(
                    request.key, request.value, version, request.tombstone
                ):
                    self.stats["replicated"] += 1
            elif request.op == "hint":
                # Fire-and-forget: queue a handoff for an unreachable
                # placement target; the rack drains us on heal.
                self.hints.setdefault(request.hint_for, []).append(
                    (
                        bytes(request.key),
                        bytes(request.value),
                        tuple(request.version),
                        request.tombstone,
                    )
                )
                self.stats["hints_queued"] += 1
                self.stats["served"] += 1
                return
            elif request.op == "repair":
                # Fire-and-forget read repair: apply iff newer.
                if self.apply_hint(
                    request.key, request.value,
                    tuple(request.version), request.tombstone,
                ):
                    self.stats["repairs_applied"] += 1
                self.stats["served"] += 1
                return
            else:
                ok, error = False, "unknown_op"
        except Exception:
            ok, error = False, "store_error"
            self.stats["errors"] += 1
        self.stats["served"] += 1
        if self.obs:
            self._obs_ops.labels(self.name, request.op).inc()
        self._respond(
            request,
            KvsResponse(
                request.txid, ok, value, self.name,
                epoch=self.epoch, version=tuple(version), error=error,
            ),
        )

    def _replicate(
        self, request: KvsRequest, replica: str, version: Tuple[int, int]
    ) -> None:
        """Forward a coordinated write to one replica.

        The copy carries the primary's version stamp and the *client's*
        reply address, so the replica acks straight back to the client
        (one network hop, no primary-side bookkeeping) under the same
        transaction id.
        """
        copy = KvsRequest(
            "replicate",
            request.key,
            request.value,
            request.txid,
            request.reply_to,
            epoch=request.epoch,
            version=version,
            tombstone=(request.op == "delete"),
        )
        self.link.send(Frame(self.address, f"{replica}#kvs", copy, copy.wire_bytes))


class _QuorumWait(Awaitable):
    """Collects the fan-in of one quorum operation; the op yields it.

    Registered (possibly under several txids) in the client's waiter
    map, so multiple responses reach it without the demux popping the
    entry.  Responses are classified by ``error``: an answer without one
    counts toward the quorum even when ``ok`` is False (a delete of a
    missing key).  The fan-in decides with the list of counted responses
    once ``need`` arrived, or with ``None`` once success is impossible
    (every expected response in and still short, or -- ``fail_fast`` --
    the first rejection, used by writes where any participant's
    ``stale_epoch`` means the attempt must re-resolve and retry).

    The op yields the wait itself and resumes with ``(0, decision)`` or
    ``(1, None)``.  The kernel schedule is exactly that of ``AnyOf([event,
    Timeout(timeout_ns)])``: a deadline event at subscription, and an
    event at ``now`` once the fan-in decides.  Whichever fires first
    wins: the deadline stays queued after a decision (a no-op when it
    fires), and a later decision schedules nothing.
    """

    __slots__ = ("need", "expected", "timeout_ns", "fail_fast",
                 "oks", "rejects", "decided", "_resume")

    def __init__(self, need: int, expected: int, timeout_ns: float,
                 fail_fast: bool = False):
        self.need = need
        self.expected = expected
        self.timeout_ns = float(timeout_ns)
        self.fail_fast = fail_fast
        self.oks: List[KvsResponse] = []
        self.rejects: List[KvsResponse] = []
        self.decided = False
        self._resume = None

    def _subscribe(self, kernel: Kernel, callback) -> None:
        self._resume = callback
        kernel.call_at(kernel.now + self.timeout_ns, self._wake, (1, None))

    def _wake(self, outcome) -> None:
        resume, self._resume = self._resume, None
        if resume is not None:
            resume(outcome)

    def on_response(self, kernel: Kernel, response: KvsResponse) -> None:
        # Keep recording after the decision: a write that committed at
        # ``need`` acks still wants to know which stragglers arrive
        # before the attempt deadline (they do NOT need a hint).
        (self.rejects if response.error else self.oks).append(response)
        if self.decided:
            return
        if not response.error and len(self.oks) >= self.need:
            result = list(self.oks)
        elif (response.error and self.fail_fast) or (
            len(self.oks) + len(self.rejects) >= self.expected
        ):
            result = None  # still short of ``need``: it cannot commit
        else:
            return
        self.decided = True
        if self._resume is not None:
            kernel.call_at(kernel.now, self._wake, (0, result))


class FleetKvsClient:
    """The coordinator: placement, quorum fan-in, failover retry.

    Methods are simulation processes (``yield from client.put(...)``
    inside a spawned process).  ``acked`` records every acknowledged
    write -- the durability ledger the failover tests audit.  Set
    :attr:`history` to a :class:`repro.fleet.audit.HistoryRecorder` to
    capture the invocation/response history the linearizability auditor
    checks.

    ``stats`` semantics: ``timeouts`` counts attempts the
    :class:`Timeout` won, ``rejections`` attempts a server answered but
    refused (``stale_epoch`` and other response errors), and
    ``retries`` only attempts that another attempt followed.
    ``quorum_rejects`` is kept for readers of older stats and is always
    0; refusals count under ``rejections``.
    """

    def __init__(
        self,
        kernel: Kernel,
        rack,
        link: EthernetLink,
        address: str = "client0",
        obs=None,
    ):
        from ..obs import NULL_REGISTRY

        self.kernel = kernel
        self.rack = rack
        self.link = link
        self.obs = obs if obs is not None else NULL_REGISTRY
        self.address = f"{address}#kvs"
        self._txid = 0
        self._waiters: Dict[int, _QuorumWait] = {}
        self.timeout_ns = REQUEST_TIMEOUT_NS
        self.max_retries = rack.fleet.max_retries
        #: Majority quorums, derived from the replication factor.
        self.write_quorum = rack.fleet.write_quorum
        self.read_quorum = rack.fleet.read_quorum
        self.hinted_handoff = rack.fleet.hinted_handoff
        #: The client's view of the quorum epoch (max seen in responses).
        self.epoch = 0
        #: Optional repro.fleet.audit.HistoryRecorder (linearizability).
        self.history = None
        #: Acknowledged writes: key -> value (the durability ledger).
        self.acked: Dict[bytes, bytes] = {}
        family = self.obs.family
        self._obs_latency = family(
            "histogram", "fleet_request_latency_ns", ("op", "machine"), base=1.25
        )
        self._obs_hints_sent = family("counter", "fleet_hints_sent_total")
        self._obs_read_repairs = family("counter", "fleet_read_repairs_total")
        self.stats = {
            "puts_acked": 0,
            "gets": 0,
            "deletes": 0,
            "retries": 0,
            "timeouts": 0,
            "rejections": 0,
            "late_responses": 0,
            "hints_sent": 0,
            "read_repairs": 0,
            "quorum_rejects": 0,
        }
        link.attach(self.address, self._on_frame)

    # -- response demux ------------------------------------------------------

    def _on_frame(self, frame: Frame) -> None:
        response: KvsResponse = frame.payload
        self.epoch = max(self.epoch, response.epoch)
        waiter = self._waiters.get(response.txid)
        if waiter is None:
            # A straggler from an operation already decided or retried.
            self.stats["late_responses"] += 1
            return
        # Many responses share a txid (or a wait spans several); the op
        # retires its txids when it's done.
        waiter.on_response(self.kernel, response)

    def _request(
        self,
        machine: str,
        op: str,
        key: bytes,
        value: bytes,
        wait: _QuorumWait,
        replicas: Tuple[str, ...] = (),
    ) -> int:
        self._txid += 1
        txid = self._txid
        request = KvsRequest(
            op, key, value, txid, self.address,
            epoch=self.epoch, replicas=replicas,
        )
        self._waiters[txid] = wait
        self.link.send(Frame(self.address, f"{machine}#kvs", request, request.wire_bytes))
        return txid

    def _send_oneway(
        self,
        machine: str,
        op: str,
        key: bytes,
        value: bytes,
        version: Tuple[int, int],
        hint_for: str = "",
        tombstone: bool = False,
    ) -> None:
        """Fire-and-forget (txid 0, no waiter): hints and read repair."""
        request = KvsRequest(
            op, key, value, 0, self.address,
            epoch=self.epoch, version=version,
            hint_for=hint_for, tombstone=tombstone,
        )
        self.link.send(Frame(self.address, f"{machine}#kvs", request, request.wire_bytes))

    def _observe(self, op: str, machine: str, elapsed_ns: float) -> None:
        if self.obs:
            self._obs_latency.labels(op, machine).observe(elapsed_ns)

    def _attempt_failed(self, answered: bool, attempt: int) -> None:
        """Account one failed attempt.

        An *answered* attempt that a server failed or rejected counts
        under ``rejections``; only a real :class:`Timeout` win counts
        under ``timeouts``.  ``retries`` increments only when another
        attempt will actually run -- the final failed attempt of an
        exhausted request is not a retry.
        """
        if answered:
            self.stats["rejections"] += 1
        else:
            self.stats["timeouts"] += 1
        if attempt < self.max_retries:
            self.stats["retries"] += 1

    # -- history hooks (linearizability audit) -------------------------------

    def _hist_invoke(self, op: str, key: bytes, arg: Optional[bytes]) -> Optional[int]:
        if self.history is None:
            return None
        return self.history.invoke(self.address, op, key, arg)

    def _hist_respond(self, op_id: Optional[int], result) -> None:
        if op_id is not None:  # 0 is a valid op index
            self.history.respond(op_id, result)

    # -- operations (simulation processes) -----------------------------------

    def put(self, key: bytes, value: bytes):
        """Replicated write, acked at the write quorum.  Returns the
        placement targets it was sent to."""
        self.rack.maybe_heal()
        op_id = self._hist_invoke("put", key, bytes(value))
        targets, _ = yield from self._write(key, value, "put")
        self._hist_respond(op_id, True)
        return targets

    def get(self, key: bytes):
        """Version-winning quorum read; None for a missing key."""
        self.rack.maybe_heal()
        op_id = self._hist_invoke("get", key, None)
        value = yield from self._read(key)
        self._hist_respond(op_id, value)
        return value

    def delete(self, key: bytes):
        """Replicated delete (same commit rule as put).  Returns the
        primary's answer: False when the key was not there."""
        self.rack.maybe_heal()
        op_id = self._hist_invoke("delete", key, None)
        _, found = yield from self._write(key, b"", "delete")
        self._hist_respond(op_id, True)
        return found

    def _write(self, key: bytes, value: bytes, op: str):
        """Primary-coordinated write, committed at ``write_quorum`` acks.

        One request goes to the primary, which stamps the version and
        fans ``replicate`` copies to the other placement targets; all
        of them ack directly to us under one txid.  Any ``stale_epoch``
        rejection fails the attempt fast (we adopt the newer epoch from
        the rejection and retry against re-resolved placement).

        Returns ``(targets, found)``: ``found`` is False only when the
        primary answered that a deleted key was missing.
        """
        start = self.kernel.now
        for attempt in range(self.max_retries + 1):
            targets = self.rack.ring.place(key)
            primary, replicas = targets[0], tuple(targets[1:])
            need = min(self.write_quorum, len(targets))
            wait = _QuorumWait(need, len(targets), self.timeout_ns, fail_fast=True)
            sent_at = self.kernel.now
            txid = self._request(primary, op, key, value, wait, replicas=replicas)
            index, result = yield wait
            if index == 0 and result is not None:
                version = max(tuple(r.version) for r in result)
                if self.hinted_handoff and len(wait.oks) < len(targets):
                    # Committed short of the full replica set.  Do NOT
                    # hint yet: the stragglers may just be slow.  Hold
                    # the txid open until the attempt deadline (the
                    # wait keeps absorbing late acks) and hint whoever
                    # is still silent then.
                    self.kernel.call_at(
                        sent_at + self.timeout_ns,
                        lambda _: self._settle_hints(
                            txid, wait, key, value, op, targets, version
                        ),
                    )
                else:
                    self._retire([txid])
                if op == "put":
                    self.stats["puts_acked"] += 1
                    self.acked[bytes(key)] = bytes(value)
                else:
                    self.stats["deletes"] += 1
                    self.acked.pop(bytes(key), None)
                self._observe(op, primary, self.kernel.now - start)
                return targets, all(r.ok for r in result)
            self._retire([txid])
            self._attempt_failed(index == 0, attempt)
        raise FleetKvsError(
            f"{op} {key!r} unacked after {self.max_retries + 1} attempts"
        )
    def _settle_hints(
        self,
        txid: int,
        wait: _QuorumWait,
        key: bytes,
        value: bytes,
        op: str,
        targets,
        version: Tuple[int, int],
    ) -> None:
        """Attempt-deadline callback: queue a hinted handoff for every
        placement target still silent about a committed write.

        The wait stayed registered past its commit, so replicas whose
        acks were merely in flight have landed in ``wait.oks`` by now
        -- only genuinely unreachable targets get a hint, carried by
        the first acker.  A target that is reachable again by now (the
        window expired between commit and deadline) gets the write
        pushed directly instead, apply-iff-newer."""
        self._retire([txid])
        acked = {r.machine for r in wait.oks}
        missing = [m for m in targets if m not in acked]
        if not missing or not wait.oks:
            return
        self.rack.maybe_heal()
        carrier = wait.oks[0].machine
        tombstone = op == "delete"
        hinted = 0
        for target in missing:
            if self._target_reachable(target):
                self._send_oneway(
                    target, "repair", key, value, version, tombstone=tombstone
                )
            else:
                self._send_oneway(
                    carrier, "hint", key, value, version,
                    hint_for=target, tombstone=tombstone,
                )
                self.stats["hints_sent"] += 1
                hinted += 1
        if hinted and self.obs:
            self._obs_hints_sent.labels().inc(hinted)

    def _target_reachable(self, target: str) -> bool:
        """Can a frame from this client reach ``target`` right now?
        (The client rides the controller side of any active split.)"""
        machine = self.rack.machines.get(target)
        if machine is None or not machine.alive:
            return False
        if self.rack.active_partition is None:
            return True
        return target in self.rack._controller_side()

    def _read(self, key: bytes):
        """Version-winning read, committed at ``read_quorum`` responses.

        Every placement target is asked; the highest ``(epoch, seq)``
        version wins, and every target that answered stale -- or not at
        all -- is read-repaired with the winning version.
        """
        start = self.kernel.now
        for attempt in range(self.max_retries + 1):
            targets = self.rack.ring.place(key)
            need = min(self.read_quorum, len(targets))
            wait = _QuorumWait(need, len(targets), self.timeout_ns)
            txids = [self._request(m, "get", key, b"", wait) for m in targets]
            index, result = yield wait
            self._retire(txids)
            if index == 0 and result is not None:
                best = max(result, key=lambda r: tuple(r.version))
                best_version = tuple(best.version)
                if best_version > NO_VERSION:
                    self._read_repair(key, targets, result, best)
                self.stats["gets"] += 1
                self._observe("get", best.machine, self.kernel.now - start)
                return best.value
            self._attempt_failed(index == 0, attempt)
        raise FleetKvsError(
            f"get {key!r} unanswered after {self.max_retries + 1} attempts"
        )

    def _read_repair(
        self, key: bytes, targets, oks: List[KvsResponse], best: KvsResponse
    ) -> None:
        """Push the winning version to every stale or silent target."""
        best_version = tuple(best.version)
        fresh = {r.machine for r in oks if tuple(r.version) == best_version}
        stale = [m for m in targets if m not in fresh]
        for target in stale:
            self._send_oneway(
                target, "repair", key, best.value or b"", best_version,
                tombstone=(best.value is None),
            )
        if stale:
            self.stats["read_repairs"] += len(stale)
            if self.obs:
                self._obs_read_repairs.labels().inc(len(stale))

    # -- checkpoint/restore (repro.snap) ---------------------------------
    #
    # An operation in flight lives in its process coroutine plus the
    # _waiters map, so a client is only snapshot-safe between ops (all
    # waiters drained).  txid continuity matters: a restored client must
    # not reissue transaction ids a server may still answer.

    SNAP_VERSION = 4

    def snapshot_state(self) -> dict:
        if self._waiters:
            from ..snap.protocol import SnapshotError

            raise SnapshotError(
                f"client {self.address!r} has {len(self._waiters)} "
                "requests in flight; snapshot only between operations"
            )
        return {
            "txid": self._txid,
            "epoch": self.epoch,
            "acked": [[key, value] for key, value in sorted(self.acked.items())],
            "stats": dict(self.stats),
        }

    def restore_state(self, state: dict) -> None:
        self._txid = state["txid"]
        self.epoch = state["epoch"]
        self.acked = {bytes(k): bytes(v) for k, v in state["acked"]}
        self.stats.update(state["stats"])

    # -- plumbing ------------------------------------------------------------

    def _retire(self, txids) -> None:
        """Forget a quorum op's transactions once the op is decided."""
        for txid in txids:
            self._waiters.pop(txid, None)
