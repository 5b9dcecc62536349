"""The serving front-end: admission control, batching, a cache tier.

The gateway stands between the arrival process and the rack, doing
what a production front-end does:

* **Admission control** -- a token bucket (sustained rate + burst)
  followed by queue-depth shedding.  Both rejections are *typed*
  (:class:`AdmissionRejected` with a reason, recorded per request and
  counted per reason) -- the load that is turned away at the door is a
  first-class output of the scenario, not a silent drop.
* **Batching** -- admitted requests queue for a fixed pool of backend
  workers that drain them in batches (up to ``batch_max``, with a
  short fill window), amortizing the per-dispatch overhead toward the
  shard servers and AFUs exactly the way the FPGA-side pipelines
  amortize per-request setup.
* **Cache tier** -- a small LRU in front of the backends serves repeat
  reads (KVS gets, recsys embedding results) at cache-hit latency,
  write-through on puts.
* **Fault tolerance** (both knobs off by default, bit-identical when
  off) -- a bounded *retry budget* for backend failures (tokens accrue
  per admitted request, so retries can never exceed a fixed fraction
  of traffic), and a per-backend-shard *circuit breaker*
  (:class:`repro.health.CircuitBreaker`) that trips on error bursts
  and sheds that shard's traffic to typed rejections instead of
  letting the queue collapse behind a dead primary.

Every served request lands its end-to-end latency (submit to
completion) in the ``traffic_request_latency_ns{class,phase}``
histogram; the engine's SLO report reads percentiles straight off
those buckets.  Conservation is exact whatever faults fire:
``offered == completed + rejected_throttled + rejected_shed + errors``
(breaker rejections fold into ``rejected_shed`` and are additionally
counted as ``shed_breaker``).
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Callable, Dict, List, Optional

from ..fleet.kvs import FleetKvsError
from ..health import CircuitBreaker
from ..sim import Awaitable, Kernel, Timeout
from .classes import Request
from .config import GatewayConfig


class AdmissionRejected(Exception):
    """A request was turned away at the gateway.

    These are *recorded*, not raised: the gateway appends one per
    rejection to :attr:`Gateway.rejections` (bounded) and counts them
    per reason, so a scenario can audit exactly what was shed.
    ``reason`` is ``"throttled"`` (token bucket empty), ``"shed"``
    (queue at depth), or ``"breaker"`` (backend shard's circuit open).
    """

    def __init__(self, reason: str, kind: str, at_ns: float):
        super().__init__(f"{kind} rejected at t={at_ns:g} ns: {reason}")
        self.reason = reason
        self.kind = kind
        self.at_ns = at_ns


#: Recorded rejections kept for post-mortems (counters are unbounded).
MAX_RECORDED_REJECTIONS = 256

#: The end-to-end latency histogram every served request lands in.
LATENCY_METRIC = "traffic_request_latency_ns"

#: Retry-budget tokens never accumulate past this (a long quiet spell
#: must not bank an unbounded retry storm).
RETRY_TOKEN_CAP = 256.0

#: Service time of a cache hit (ns).
CACHE_HIT_NS = 1_500.0


class TokenBucket:
    """Sustained-rate admission with burst headroom (lazily refilled)."""

    def __init__(self, rate_per_ns: float, burst: int):
        self.rate_per_ns = rate_per_ns
        self.burst = float(burst)
        self.tokens = float(burst)
        self._last_ns = 0.0

    def take(self, now_ns: float) -> bool:
        elapsed = now_ns - self._last_ns
        if elapsed > 0:
            self.tokens = min(self.burst, self.tokens + elapsed * self.rate_per_ns)
            self._last_ns = now_ns
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


class LruCache:
    """A bounded LRU map: the gateway's cache tier."""

    def __init__(self, slots: int):
        self.slots = slots
        self._entries: "OrderedDict[bytes, bytes]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: bytes) -> Optional[bytes]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def fill(self, key: bytes, value: bytes) -> None:
        if self.slots == 0:
            return
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        if len(self._entries) > self.slots:
            self._entries.popitem(last=False)
            self.evictions += 1

    def invalidate(self, key: bytes) -> None:
        self._entries.pop(key, None)


class _IdleWorkers(Awaitable):
    """Where idle backend workers wait: a FIFO of resume callbacks.

    A worker that finds the queue empty yields this and stays parked
    until a dispatch event (:meth:`Gateway._dispatch`) or a batch-window
    timer resumes it, inline, with the batch it is to run.
    """

    __slots__ = ("waiting",)

    def __init__(self):
        self.waiting: List[Callable] = []

    def _subscribe(self, kernel: Kernel, callback: Callable) -> None:
        self.waiting.append(callback)


class Gateway:
    """Admission control + batching + cache in front of the rack."""

    def __init__(
        self,
        kernel: Kernel,
        config: GatewayConfig,
        clients: List,
        obs=None,
    ):
        from ..obs import NULL_REGISTRY

        self.kernel = kernel
        self.config = config
        self.clients = clients
        self.obs = obs if obs is not None else NULL_REGISTRY
        self.bucket = TokenBucket(config.admit_rps / 1e9, config.admit_burst)
        self.cache = LruCache(config.cache_slots)
        self.rejections: List[AdmissionRejected] = []
        self._queue: "deque[Request]" = deque()
        self._idle = _IdleWorkers()
        # Timeouts are immutable, so each fixed delay is built once and
        # yielded again and again.
        self._window = Timeout(config.batch_window_ns)
        self._overhead = Timeout(config.batch_overhead_ns)
        #: Accelerator service timeouts, by service time.
        self._service: Dict[float, Timeout] = {}
        #: Retry-budget tokens (accrue per admitted request, spent 1/retry).
        self.retry_tokens = 0.0
        #: Per-backend-shard circuit breakers (keyed by machine name),
        #: built only when the knob is on -- the default path carries
        #: no breaker objects at all.
        self.breakers: Dict[str, CircuitBreaker] = {}
        if config.breaker_enabled and clients:
            rack = clients[0].rack
            self.breakers = {
                name: CircuitBreaker(
                    f"shard.{name}",
                    clock=lambda: self.kernel.now,
                    failure_threshold=config.breaker_failures,
                    reset_ns=config.breaker_reset_ns,
                    half_open_probes=config.breaker_probes,
                    obs=self.obs,
                )
                for name in rack.fleet.machine_names()
            }
        family = self.obs.family
        self._obs_offered = family("counter", "traffic_offered_total", ("class",))
        self._obs_rejections = family(
            "counter", "traffic_rejections_total", ("reason", "class")
        )
        self._obs_queue_depth = family("gauge", "traffic_queue_depth")
        self._obs_retries = family("counter", "traffic_retries_total", ("class",))
        self._obs_errors = family(
            "counter", "traffic_errors_total", ("class", "reason")
        )
        self._obs_latency = family(
            "histogram", LATENCY_METRIC, ("class", "phase"), base=1.25
        )
        self.stats = {
            "offered": 0,
            "admitted": 0,
            "cache_hits": 0,
            "rejected_throttled": 0,
            "rejected_shed": 0,
            "shed_breaker": 0,
            "completed": 0,
            "errors": 0,
            "retries": 0,
            # Always 0 (the gateway does not hedge).  The two keys stay
            # only because benchmarks/ledger/workloads.py reads them.
            "hedges": 0,
            "hedge_wins": 0,
            "batches": 0,
            "batched_requests": 0,
            "max_queue_depth": 0,
        }

    # -- ingress -------------------------------------------------------------

    def submit(self, request: Request) -> bool:
        """Offer one request; returns True iff it entered the system
        (cache hit or admitted to the backend queue)."""
        stats = self.stats
        config = self.config
        kernel = self.kernel
        cls = request.cls
        stats["offered"] += 1
        if self.obs:
            self._obs_offered.labels(cls.kind).inc()
        if cls.cacheable and config.cache_slots:
            if self.cache.lookup(request.key) is not None:
                stats["cache_hits"] += 1
                request.outcome = "cache_hit"
                kernel.call_after(CACHE_HIT_NS, self._complete, request)
                return True
        queue = self._queue
        if config.admission:
            if not self.bucket.take(kernel.now):
                self._reject(request, "throttled")
                return False
            if len(queue) >= config.max_queue_depth:
                self._reject(request, "shed")
                return False
        stats["admitted"] += 1
        if config.retry_budget > 0:
            self.retry_tokens = min(
                RETRY_TOKEN_CAP, self.retry_tokens + config.retry_budget
            )
        queue.append(request)
        depth = len(queue)
        if depth > stats["max_queue_depth"]:
            stats["max_queue_depth"] = depth
        idle = self._idle
        if idle.waiting:
            woken, idle.waiting = idle.waiting, []
            kernel.call_at(kernel.now, self._dispatch, woken)
        return True

    def _reject(self, request: Request, reason: str) -> None:
        request.outcome = f"rejected:{reason}"
        if reason == "breaker":
            # Typed load-shedding past admission: folds into the shed
            # bucket (conservation keeps its four terms) and is
            # additionally counted on its own.
            self.stats["rejected_shed"] += 1
            self.stats["shed_breaker"] += 1
        else:
            self.stats[f"rejected_{reason}"] += 1
        if len(self.rejections) < MAX_RECORDED_REJECTIONS:
            self.rejections.append(
                AdmissionRejected(reason, request.cls.kind, self.kernel.now)
            )
        if self.obs:
            self._obs_rejections.labels(reason, request.cls.kind).inc()

    # -- backend workers -----------------------------------------------------
    #
    # Idle workers wait in a FIFO.  A submit that finds any schedules one
    # dispatch event at ``now``, which walks the FIFO in order and does
    # exactly what each worker would have done had it been woken on its
    # own: take a batch and resume inline, join one shared batch-window
    # timer, or stay idle.  The timer hands out batches to its group in
    # the same order.  This is exact, not approximate: k separately
    # woken workers would have resumed in a contiguous run of k events
    # at ``now`` (consecutive sequence numbers, so nothing can
    # interleave), and the window timers they arm form a contiguous run
    # at ``now + batch_window_ns`` in the same way.  Collapsing each run
    # into one event leaves the order of every other event unchanged.

    def worker(self, index: int):
        """One backend worker process: drain the queue in batches.

        Spawned by the engine (``workers`` of them); parks in the idle
        FIFO while the queue is empty, so a finished scenario leaves the
        workers idle and the kernel's queue drained.  Accelerator
        requests run right here (a service timeout, then the cache fill
        and completion); KVS requests go through :meth:`_execute`.
        """
        config = self.config
        queue = self._queue
        idle = self._idle
        batch_max = config.batch_max
        windowed = config.batch_window_ns > 0
        window = self._window
        overhead = self._overhead if config.batch_overhead_ns > 0 else None
        service = self._service
        cache_slots = config.cache_slots
        # Service-only gateways (no KVS classes in the mix) need no clients.
        client = self.clients[index % len(self.clients)] if self.clients else None
        while True:
            if not queue:
                batch = yield idle
            else:
                if len(queue) < batch_max and windowed:
                    # Short batch: wait briefly for it to fill under load.
                    yield window
                    if not queue:
                        continue
                batch = self._take_batch()
            if overhead is not None:
                yield overhead
            for request in batch:
                cls = request.cls
                if cls.kind == "kvs_put" or cls.kind == "kvs_get":
                    yield from self._execute(request, client)
                    continue
                timeout = service.get(cls.service_ns)
                if timeout is None:
                    timeout = service[cls.service_ns] = Timeout(cls.service_ns)
                yield timeout
                if cls.cacheable and cache_slots:
                    self.cache.fill(request.key, b"\x01")
                self._complete(request)

    def _take_batch(self) -> List[Request]:
        """Pop the next batch (up to ``batch_max``) off a non-empty queue."""
        queue = self._queue
        batch = [queue.popleft() for _ in range(min(self.config.batch_max, len(queue)))]
        self.stats["batches"] += 1
        self.stats["batched_requests"] += len(batch)
        if self.obs:
            self._obs_queue_depth.labels().set(len(queue))
        return batch

    def _dispatch(self, woken: List[Callable]) -> None:
        """The dispatch event: hand the queue to the woken workers in
        FIFO order."""
        queue = self._queue
        config = self.config
        group = None
        for resume in woken:
            if not queue:
                self._idle.waiting.append(resume)
            elif len(queue) < config.batch_max and config.batch_window_ns > 0:
                # Short batch: the worker would wait for it to fill.
                if group is None:
                    group = []
                    self.kernel.call_after(
                        config.batch_window_ns, self._window_closed, group
                    )
                group.append(resume)
            else:
                resume(self._take_batch())

    def _window_closed(self, group: List[Callable]) -> None:
        """The shared batch-window timer: each worker in the group, in
        order, takes what has queued up or goes back to idle."""
        for resume in group:
            if self._queue:
                resume(self._take_batch())
            else:
                self._idle.waiting.append(resume)

    def _breaker_for(self, request: Request):
        """The breaker guarding this request's backend shard, if any.

        Shards are keyed by the key's *current* primary, so after a
        failover the survivor starts with a clean breaker while the
        corpse's stays open.
        """
        if not self.breakers:
            return None
        client = self.clients[0]
        primary = client.rack.ring.primary(request.key)
        return self.breakers.get(primary)

    def _execute(self, request: Request, client):
        """Run one KVS request: breaker, retry budget, write-through cache."""
        kind = request.cls.kind
        config = self.config
        attempts = 0
        while True:
            breaker = self._breaker_for(request)
            if breaker is not None and not breaker.allow():
                self._reject(request, "breaker")
                return
            try:
                if kind == "kvs_put":
                    yield from client.put(request.key, request.value)
                    if config.cache_slots:
                        # Write-through: readers see the new value from cache.
                        self.cache.fill(request.key, request.value)
                else:
                    value = yield from client.get(request.key)
                    if config.cache_slots and value is not None:
                        self.cache.fill(request.key, value)
            except FleetKvsError:
                if breaker is not None:
                    breaker.record_failure()
                if (
                    config.retry_budget > 0
                    and attempts < config.retry_limit
                    and self.retry_tokens >= 1.0
                ):
                    self.retry_tokens -= 1.0
                    attempts += 1
                    self.stats["retries"] += 1
                    if self.obs:
                        self._obs_retries.labels(kind).inc()
                    continue
                self._fail(request, "backend")
                return
            if breaker is not None:
                breaker.record_success()
            self._complete(request)
            return

    def _fail(self, request: Request, reason: str) -> None:
        self.stats["errors"] += 1
        request.outcome = "error"
        if self.obs:
            self._obs_errors.labels(request.cls.kind, reason).inc()

    def _complete(self, request: Request) -> None:
        if not request.outcome:
            request.outcome = "served"
        self.stats["completed"] += 1
        if self.obs:
            self._obs_latency.labels(request.cls.kind, request.phase).observe(
                self.kernel.now - request.submitted_ns
            )

    # -- checkpoint/restore (repro.snap) -------------------------------------
    #
    # A gateway is snapshot-safe only with an empty backend queue
    # (queued Request objects hold live generator state downstream);
    # the explicit state is the counters, the token buckets (admission
    # and retry budget), the cache contents, the recorded rejections,
    # and every shard breaker.  Workers are spawned fresh by the
    # harness after a restore, exactly as at construction.

    SNAP_VERSION = 2

    def snapshot_state(self) -> dict:
        if self._queue:
            from ..snap.protocol import SnapshotError

            raise SnapshotError(
                f"gateway has {len(self._queue)} queued requests; "
                "snapshot only at quiescence"
            )
        from ..snap.protocol import tagged

        return {
            "stats": dict(self.stats),
            "retry_tokens": self.retry_tokens,
            "bucket": {
                "tokens": self.bucket.tokens,
                "last_ns": self.bucket._last_ns,
            },
            "cache": {
                "entries": [[k, v] for k, v in self.cache._entries.items()],
                "hits": self.cache.hits,
                "misses": self.cache.misses,
                "evictions": self.cache.evictions,
            },
            "rejections": [
                [r.reason, r.kind, r.at_ns] for r in self.rejections
            ],
            "breakers": {
                name: tagged(breaker)
                for name, breaker in sorted(self.breakers.items())
            },
        }

    def restore_state(self, state: dict) -> None:
        from ..snap.protocol import SnapshotError, restore

        unknown = sorted(set(state["stats"]) - set(self.stats))
        if unknown:
            raise SnapshotError(f"checkpoint carries unknown gateway stats {unknown}")
        self.stats.update(state["stats"])
        self.retry_tokens = state["retry_tokens"]
        self.bucket.tokens = state["bucket"]["tokens"]
        self.bucket._last_ns = state["bucket"]["last_ns"]
        self.cache._entries = OrderedDict(
            (bytes(k), bytes(v)) for k, v in state["cache"]["entries"]
        )
        self.cache.hits = state["cache"]["hits"]
        self.cache.misses = state["cache"]["misses"]
        self.cache.evictions = state["cache"]["evictions"]
        self.rejections = [
            AdmissionRejected(reason, kind, at_ns)
            for reason, kind, at_ns in state["rejections"]
        ]
        for name, tagged_state in state["breakers"].items():
            breaker = self.breakers.get(name)
            if breaker is None:
                raise SnapshotError(
                    f"checkpoint names breaker for unknown shard {name!r} "
                    "(was breaker_enabled on when the snapshot was taken?)"
                )
            restore(breaker, tagged_state)
