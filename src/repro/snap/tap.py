"""Record-replay at inter-machine boundaries.

A :class:`MessageTap` sits on one board's switch boundary and records
everything that crosses it: inbound frame deliveries (with their exact
delivery times), outbound frame sends, and out-of-band control events
(the supervisor black-holing the board's NIC, the rack fencing its
quorum epoch).  Because a board's
behaviour is a pure function of its inbound messages and their times --
boards make no RNG draws on the serving path -- the trace is sufficient
to re-execute that one board *in isolation*, bit-identically, with
:func:`replay_board`: no switch, no peers, no client, just the recorded
frames injected at their recorded times into a fresh board.

That makes a rack-scale failure debuggable at single-machine scale:
record an 8-board soak once, then replay the one interesting board
under a debugger as often as needed.

Payloads are encoded structurally (KVS requests/responses, reliable
segments, raw bytes) so traces survive a JSONL round-trip; an
unrecognized payload type is a :class:`SnapshotError` at record time,
not a divergence at replay time.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, List, Optional

from ..apps.kvs import HashTableStore
from ..fleet.config import LINK_GBPS, LINK_PROPAGATION_NS, SERVICE_NS
from ..fleet.kvs import KvsRequest, KvsResponse, KvsShardServer
from ..net.ethernet import EthernetLink, Frame
from ..net.reliable import Segment
from ..sim import Kernel
from .protocol import SnapshotError, from_jsonable, to_jsonable

#: Trace document version (bump when the record shape changes).
TRACE_VERSION = 2


# -- payload codecs ---------------------------------------------------------

def encode_payload(payload: Any) -> Dict[str, Any]:
    if isinstance(payload, KvsRequest):
        return {
            "kind": "kvs_request",
            "op": payload.op,
            "key": payload.key,
            "value": payload.value,
            "txid": payload.txid,
            "reply_to": payload.reply_to,
            "epoch": payload.epoch,
            "version": list(payload.version),
            "replicas": list(payload.replicas),
            "hint_for": payload.hint_for,
            "tombstone": payload.tombstone,
        }
    if isinstance(payload, KvsResponse):
        return {
            "kind": "kvs_response",
            "txid": payload.txid,
            "ok": payload.ok,
            "value": payload.value,
            "machine": payload.machine,
            "epoch": payload.epoch,
            "version": list(payload.version),
            "error": payload.error,
        }
    if isinstance(payload, Segment):
        return {
            "kind": "segment",
            "seg_kind": payload.kind,
            "seq": payload.seq,
            "data": payload.data,
        }
    if isinstance(payload, (bytes, bytearray)):
        return {"kind": "bytes", "data": bytes(payload)}
    raise SnapshotError(
        f"cannot record payload of type {type(payload).__name__}; "
        "teach repro.snap.tap its codec first"
    )


def decode_payload(doc: Dict[str, Any]) -> Any:
    kind = doc.get("kind")
    if kind == "kvs_request":
        return KvsRequest(
            doc["op"], doc["key"], doc["value"], doc["txid"], doc["reply_to"],
            epoch=doc["epoch"],
            version=tuple(doc["version"]),
            replicas=tuple(doc["replicas"]),
            hint_for=doc["hint_for"],
            tombstone=doc["tombstone"],
        )
    if kind == "kvs_response":
        return KvsResponse(
            doc["txid"], doc["ok"], doc["value"], doc["machine"],
            epoch=doc["epoch"],
            version=tuple(doc["version"]),
            error=doc["error"],
        )
    if kind == "segment":
        return Segment(doc["seg_kind"], doc["seq"], doc["data"])
    if kind == "bytes":
        return doc["data"]
    raise SnapshotError(f"unknown payload kind {kind!r} in trace")


def _frame_record(direction: str, t: float, frame: Frame) -> Dict[str, Any]:
    return {
        "t": t,
        "dir": direction,
        "src": frame.src,
        "dst": frame.dst,
        "size": frame.size_bytes,
        "seq": frame.seq,
        "payload": encode_payload(frame.payload),
    }


def _frame_of(record: Dict[str, Any]) -> Frame:
    return Frame(
        src=record["src"],
        dst=record["dst"],
        payload=decode_payload(record["payload"]),
        size_bytes=record["size"],
        seq=record["seq"],
    )


# -- recording --------------------------------------------------------------

class MessageTap:
    """Records one board's boundary traffic without perturbing it.

    Inbound endpoint handlers and the link's ``send`` are wrapped;
    records are appended in execution order, so ties at equal sim time
    replay in their original order.
    """

    def __init__(self, name: str, kernel: Kernel, link: EthernetLink,
                 max_records: int = 1_000_000):
        self.name = name
        self.kernel = kernel
        self.link = link
        self.max_records = max_records
        self.records: List[Dict[str, Any]] = []
        self._wrapped = False

    def attach(self) -> None:
        """Wrap the board's endpoint handlers and outbound send path."""
        if self._wrapped:
            return
        self._wrapped = True
        for address, handler in list(self.link._endpoints.items()):
            self.link._endpoints[address] = self._wrap_inbound(handler)
        original_send = self.link.send

        def send(frame: Frame) -> None:
            # The board's link carries both directions: the switch
            # delivers *to* the board through link.send too, so only
            # frames sourced on this board are outbound.
            if frame.src.split("#")[0] == self.name:
                self._record(_frame_record("out", self.kernel.now, frame))
            original_send(frame)

        self.link.send = send  # type: ignore[method-assign]

    def _wrap_inbound(self, handler: Callable[[Frame], None]):
        def wrapped(frame: Frame) -> None:
            self._record(_frame_record("in", self.kernel.now, frame))
            handler(frame)

        return wrapped

    def _record(self, record: Dict[str, Any]) -> None:
        if len(self.records) >= self.max_records:
            raise SnapshotError(
                f"tap {self.name!r} exceeded {self.max_records} records"
            )
        self.records.append(record)

    def control(self, kind: str, **detail: Any) -> None:
        """Record an out-of-band event: liveness ('down' / 'up') or a
        quorum-epoch fence ('epoch', with ``epoch=``)."""
        self._record({"t": self.kernel.now, "dir": "ctl", "kind": kind, **detail})

    # -- trace (de)serialization ------------------------------------------

    def to_jsonl(self) -> str:
        return trace_to_jsonl(self.name, self.records)


def trace_to_jsonl(name: str, records: List[Dict[str, Any]]) -> str:
    lines = [json.dumps({"trace": name, "version": TRACE_VERSION}, sort_keys=True)]
    lines.extend(
        json.dumps(to_jsonable(record), sort_keys=True) for record in records
    )
    return "\n".join(lines) + "\n"


def trace_from_jsonl(text: str):
    """Returns ``(name, records)`` from :func:`trace_to_jsonl` output."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise SnapshotError("empty trace document")
    header = json.loads(lines[0])
    if header.get("version") != TRACE_VERSION:
        raise SnapshotError(
            f"trace version {header.get('version')!r} != {TRACE_VERSION}"
        )
    records = [from_jsonable(json.loads(line)) for line in lines[1:]]
    return header.get("trace", ""), records


def attach_taps(rack, max_records: int = 1_000_000) -> Dict[str, MessageTap]:
    """Put a :class:`MessageTap` on every board of a rack.

    Registers the taps in ``rack.taps`` so :meth:`Rack.sync_health` and
    :meth:`Rack.rejoin` mirror liveness changes into the traces.
    """
    taps: Dict[str, MessageTap] = {}
    for name, machine in rack.machines.items():
        tap = MessageTap(name, rack.kernel, machine.link, max_records)
        tap.attach()
        taps[name] = tap
        rack.taps[name] = tap
    return taps


# -- replay -----------------------------------------------------------------

def replay_board(
    records: List[Dict[str, Any]],
    fleet,
    name: str,
    obs=None,
    kernel: Optional[Kernel] = None,
):
    """Re-execute one board in isolation from its recorded trace.

    Builds a fresh kernel, link (uplinked to a sink -- the rest of the
    rack does not exist here), store, and shard server exactly as the
    rack would, then injects every recorded inbound frame at its
    recorded delivery time and applies recorded control events
    (liveness changes and epoch fences).  The
    board runs the same code against the same inputs at the same times,
    so its outbound frames, store contents, and metrics reproduce the
    rack run bit-for-bit.

    Returns ``(board, outbound)`` where ``board`` is a dict of the
    rebuilt parts and ``outbound`` the replayed outbound records (same
    shape as the trace's ``dir == "out"`` records, for comparison).
    """
    kernel = kernel if kernel is not None else Kernel(seed=fleet.seed)
    link = EthernetLink(
        kernel,
        rate_gbps=LINK_GBPS,
        propagation_ns=LINK_PROPAGATION_NS,
        name=f"link-{name}",
    )
    link.set_uplink(lambda frame: None)  # black hole: no switch, no peers
    store = HashTableStore(n_slots=fleet.kvs_slots)
    server = KvsShardServer(kernel, name, link, store, SERVICE_NS, obs=obs)

    outbound: List[Dict[str, Any]] = []
    original_send = link.send

    def send(frame: Frame) -> None:
        if frame.src.split("#")[0] == name:
            outbound.append(_frame_record("out", kernel.now, frame))
        original_send(frame)

    link.send = send  # type: ignore[method-assign]

    def deliver(record: Dict[str, Any]) -> None:
        frame = _frame_of(record)
        handler = link._endpoints.get(frame.dst)
        if handler is None:
            return  # an address this board never served (defensive)
        handler(frame)

    def control(record: Dict[str, Any]) -> None:
        if record["kind"] == "down":
            server.down()
        elif record["kind"] == "up":
            server.up()
        elif record["kind"] == "epoch":
            server.set_epoch(record["epoch"])

    # Schedule the whole trace up front, in record order: records were
    # appended in execution order, so equal-time ties replay in their
    # original order through the kernel's sequence tie-break.
    for record in records:
        if record["dir"] == "in":
            kernel.call_at(record["t"], lambda _, r=record: deliver(r))
        elif record["dir"] == "ctl":
            kernel.call_at(record["t"], lambda _, r=record: control(r))
    kernel.run()
    board = {"kernel": kernel, "link": link, "store": store, "server": server}
    return board, outbound
