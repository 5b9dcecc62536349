"""Discrete-event simulation kernel.

The kernel advances a virtual clock measured in nanoseconds and runs
coroutine *processes* (plain Python generators).  A process yields
awaitable objects -- :class:`Timeout`, :class:`Event`, another
:class:`Process`, or a channel get or put from
:mod:`repro.sim.resources` -- and is resumed when the awaited thing
fires.  The design follows the classic event-wheel structure used by
hardware simulators: a single ordered event queue, deterministic
tie-breaking by insertion order, and no real concurrency.

Hot-path notes
--------------
Per-event dispatch cost decides the twin's wall-clock throughput, so
the inner machinery is deliberately lean (see ``BENCH_perf.json`` and
``benchmarks/perfkit.py`` for the tracked numbers):

* queue entries are plain tuples ``(when, seq, callback, value)``
  (plus a trailing ``scheduled_at`` stamp only when a metrics registry
  is attached) -- tuple comparison keeps ``heapq`` ordering in C;
* :meth:`Kernel.run` splits into a fast dispatch loop (no ``until``,
  no observation) and instrumented/bounded variants, so the common
  case pays no per-event branches for features it does not use;
* a process yielding a :class:`Timeout` is scheduled directly on the
  queue -- no dynamic ``_subscribe`` dispatch -- and every awaitable
  resumes a process through its bound ``_resume``, with no closure;
* awaitable/process objects use ``__slots__``;
* finished processes are reaped in amortized batches so long-running
  simulations do not accumulate dead bookkeeping
  (:meth:`Kernel._process_finished`).

Example
-------
>>> k = Kernel()
>>> log = []
>>> def proc(name, delay):
...     yield Timeout(delay)
...     log.append((k.now, name))
>>> _ = k.spawn(proc("a", 10))
>>> _ = k.spawn(proc("b", 5))
>>> k.run()
>>> log
[(5.0, 'b'), (10.0, 'a')]
"""

from __future__ import annotations

import random
from heapq import heappop, heappush
from itertools import repeat as _repeat
from typing import TYPE_CHECKING, Any, Callable, Generator, Iterable, Optional

if TYPE_CHECKING:
    from ..obs import MetricsRegistry

#: Events dispatched per bounds check in the fast run loop.
_DISPATCH_CHUNK = 4096

#: Dead processes tolerated before the kernel compacts its process list.
_REAP_THRESHOLD = 64


class SimulationError(Exception):
    """Base class for errors raised by the simulation kernel."""


class Awaitable:
    """Base class for things a process may ``yield``.

    Subclasses implement :meth:`_subscribe`, registering a callback to
    run (with the produced value) when the awaitable fires.  If the
    awaitable has already fired, the callback must be scheduled
    immediately (at the current simulation time).

    :meth:`_unsubscribe` undoes a specific subscription where the
    subclass can (an :class:`Event` removes the callback from its
    list); the default is a no-op for awaitables whose pending firing
    cannot be cancelled (a :class:`Timeout` already sits in the event
    queue -- its stale firing is dropped by the subscriber instead).
    """

    __slots__ = ()

    def _subscribe(self, kernel: "Kernel", callback: Callable[[Any], None]) -> None:
        raise NotImplementedError

    def _unsubscribe(self, kernel: "Kernel", callback: Callable[[Any], None]) -> None:
        return None


class Timeout(Awaitable):
    """Fires after a fixed delay, yielding ``value``.

    Timeouts are immutable and carry no subscription state, so one
    instance may be yielded any number of times by any number of
    processes -- which is what lets :meth:`Kernel.timeout` pool them.
    """

    __slots__ = ("delay", "value")

    def __init__(self, delay: float, value: Any = None):
        # Written so that NaN fails too: a NaN time would break the heap.
        if not delay >= 0:
            raise ValueError(f"negative timeout delay: {delay}")
        self.delay = float(delay)
        self.value = value

    def _subscribe(self, kernel: "Kernel", callback: Callable[[Any], None]) -> None:
        kernel.call_at(kernel.now + self.delay, callback, self.value)

    def __repr__(self) -> str:
        return f"Timeout({self.delay!r})"


class Event(Awaitable):
    """A one-shot broadcast event.

    Any number of processes can wait for the same event; all of them
    resume when :meth:`succeed` is called.  Waiting on an event that
    already succeeded resumes immediately with the stored value.
    """

    __slots__ = ("name", "_fired", "_value", "_callbacks")

    def __init__(self, name: str = ""):
        self.name = name
        self._fired = False
        self._value: Any = None
        self._callbacks: list[Callable[[Any], None]] = []

    @property
    def fired(self) -> bool:
        return self._fired

    @property
    def value(self) -> Any:
        if not self._fired:
            raise SimulationError(f"event {self.name!r} has not fired")
        return self._value

    def succeed(self, kernel: "Kernel", value: Any = None) -> None:
        if self._fired:
            raise SimulationError(f"event {self.name!r} fired twice")
        self._fired = True
        self._value = value
        callbacks, self._callbacks = self._callbacks, []
        for cb in callbacks:
            kernel.call_at(kernel.now, cb, value)

    def _subscribe(self, kernel: "Kernel", callback: Callable[[Any], None]) -> None:
        if self._fired:
            kernel.call_at(kernel.now, callback, self._value)
        else:
            self._callbacks.append(callback)

    def _unsubscribe(self, kernel: "Kernel", callback: Callable[[Any], None]) -> None:
        """Drop one pending subscription (no-op if already fired)."""
        try:
            self._callbacks.remove(callback)
        except ValueError:
            pass

    def __repr__(self) -> str:
        state = "fired" if self._fired else "pending"
        return f"Event({self.name!r}, {state})"


class AllOf(Awaitable):
    """Fires once every child awaitable has fired; yields a list of values."""

    __slots__ = ("children",)

    def __init__(self, children: Iterable[Awaitable]):
        self.children = list(children)

    def _subscribe(self, kernel: "Kernel", callback: Callable[[Any], None]) -> None:
        results: list[Any] = [None] * len(self.children)
        remaining = [len(self.children)]
        if not self.children:
            kernel.call_at(kernel.now, callback, [])
            return

        def make_child_cb(index: int) -> Callable[[Any], None]:
            def child_cb(value: Any) -> None:
                results[index] = value
                remaining[0] -= 1
                if remaining[0] == 0:
                    callback(list(results))

            return child_cb

        for i, child in enumerate(self.children):
            child._subscribe(kernel, make_child_cb(i))


class AnyOf(Awaitable):
    """Fires when the first child fires; yields ``(index, value)``.

    When the winner fires, the losers' subscriptions are withdrawn
    (where the child supports it -- see :meth:`Awaitable._unsubscribe`),
    so repeatedly racing a long-lived :class:`Event` against timeouts
    does not grow the event's callback list without bound.
    """

    __slots__ = ("children",)

    def __init__(self, children: Iterable[Awaitable]):
        self.children = list(children)
        if not self.children:
            raise ValueError("AnyOf requires at least one child")

    def _subscribe(self, kernel: "Kernel", callback: Callable[[Any], None]) -> None:
        done = [False]
        subs: list[tuple[Awaitable, Callable[[Any], None]]] = []

        def make_child_cb(index: int) -> Callable[[Any], None]:
            def child_cb(value: Any) -> None:
                if done[0]:
                    return
                done[0] = True
                for j, (child, cb) in enumerate(subs):
                    if j != index:
                        child._unsubscribe(kernel, cb)
                callback((index, value))

            return child_cb

        for i, child in enumerate(self.children):
            subs.append((child, make_child_cb(i)))
        for child, cb in subs:
            child._subscribe(kernel, cb)


ProcessGenerator = Generator[Awaitable, Any, Any]


class Process(Awaitable):
    """A running coroutine inside the kernel.

    A process is itself awaitable: yielding a process waits for it to
    finish and produces its return value.

    A process waits on one awaitable at a time, and that awaitable fires
    once, so the process subscribes its bound :meth:`_resume` and is
    resumed with the produced value itself.
    """

    __slots__ = ("kernel", "generator", "name", "done", "_alive")

    def __init__(self, kernel: "Kernel", generator: ProcessGenerator, name: str = ""):
        self.kernel = kernel
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self.done = Event(name=f"{self.name}.done")
        self._alive = True

    @property
    def alive(self) -> bool:
        return self._alive

    @property
    def result(self) -> Any:
        return self.done.value

    def _start(self) -> None:
        self.kernel.call_at(self.kernel.now, self._resume, None)

    def _resume(self, value: Any) -> None:
        try:
            target = self.generator.send(value)
        except StopIteration as stop:
            self._alive = False
            kernel = self.kernel
            kernel._process_finished()
            self.done.succeed(kernel, stop.value)
            return
        if type(target) is Timeout:
            # Fast path: no dynamic _subscribe dispatch.
            kernel = self.kernel
            kernel.call_at(kernel.now + target.delay, self._resume, target.value)
        elif isinstance(target, Awaitable):
            target._subscribe(self.kernel, self._resume)
        else:
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}, not an Awaitable"
            )

    def _subscribe(self, kernel: "Kernel", callback: Callable[[Any], None]) -> None:
        self.done._subscribe(kernel, callback)

    def _unsubscribe(self, kernel: "Kernel", callback: Callable[[Any], None]) -> None:
        self.done._unsubscribe(kernel, callback)

    def __repr__(self) -> str:
        state = "alive" if self._alive else "done"
        return f"Process({self.name!r}, {state})"


class Kernel:
    """The event loop: an ordered queue of timestamped callbacks.

    Passing a :class:`repro.obs.MetricsRegistry` as ``obs`` turns on
    kernel self-observation: events dispatched, processes spawned,
    queue depth after each dispatch, and the wake latency (schedule to
    dispatch delay) histogram.  The registry's clock is bound to this
    kernel's ``now`` unless one was already installed.  Without ``obs``
    the kernel runs its fast dispatch loop, so schedules and results
    are bit-identical with and without instrumentation.

    The kernel also owns the simulation's single stochastic source:
    :attr:`rng`, a ``random.Random`` seeded with ``seed``.  Every
    component that needs randomness scheduled against simulated time
    (fault injection, loss processes, jitter) must draw from this RNG
    rather than creating its own, so that one seed pins the entire
    event trace.
    """

    def __init__(self, obs: Optional["MetricsRegistry"] = None, seed: int = 0):
        from ..obs import NULL_REGISTRY  # late import: obs builds on nothing here

        self.now: float = 0.0
        self.seed = seed
        #: The simulation-wide RNG: all stochastic draws route through here.
        self.rng = random.Random(seed)
        # (when, seq, callback, value) -- with a trailing scheduled_at
        # stamp when observed (the wake-latency histogram needs it).
        self._queue: list[tuple] = []
        self._seq = 0
        self._processes: list[Process] = []
        self._dead = 0
        self._timeout_pool: dict[float, Timeout] = {}
        self.obs = obs if obs is not None else NULL_REGISTRY
        self._observed = obs is not None
        if self._observed:
            self.obs.use_clock(lambda: self.now, override=False)
        self._obs_events = self.obs.counter(
            "sim_events_total", help="kernel callbacks dispatched"
        )
        self._obs_processes = self.obs.counter(
            "sim_processes_total", help="processes spawned"
        )
        self._obs_queue_depth = self.obs.gauge(
            "sim_queue_depth", help="pending events after each dispatch"
        )
        self._obs_wake_ns = self.obs.histogram(
            "sim_wake_latency_ns", help="schedule-to-dispatch delay"
        )

    def call_at(self, when: float, callback: Callable[[Any], None], value: Any = None) -> None:
        """Schedule ``callback(value)`` at absolute time ``when`` (ns)."""
        if not when >= self.now:  # NaN fails too
            raise SimulationError(f"cannot schedule in the past: {when} < {self.now}")
        seq = self._seq
        self._seq = seq + 1
        if self._observed:
            heappush(self._queue, (when, seq, callback, value, self.now))
        else:
            heappush(self._queue, (when, seq, callback, value))

    def call_after(self, delay: float, callback: Callable[[Any], None], value: Any = None) -> None:
        """Schedule ``callback(value)`` after ``delay`` ns."""
        self.call_at(self.now + delay, callback, value)

    def spawn(self, generator: ProcessGenerator, name: str = "") -> Process:
        """Create and start a process from a generator."""
        process = Process(self, generator, name=name)
        self._processes.append(process)
        if self._observed:
            self._obs_processes.inc()
        process._start()
        return process

    def event(self, name: str = "") -> Event:
        return Event(name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """A pooled :class:`Timeout`.

        Timeouts are immutable, so processes that sleep for the same
        recurring delay (protocol agents, pollers) can share one
        instance instead of allocating per step.  Only plain
        (``value is None``) timeouts are pooled; the pool is bounded
        and simply resets when full.
        """
        if value is not None:
            return Timeout(delay, value)
        pool = self._timeout_pool
        cached = pool.get(delay)
        if cached is None:
            if len(pool) >= 512:
                pool.clear()
            cached = pool[delay] = Timeout(delay)
        return cached

    def _process_finished(self) -> None:
        """Amortized reaping: compact the process list once enough died.

        Keeps :attr:`_processes` at O(live) instead of O(ever spawned);
        a 100k-spawn soak holds a bounded live set (pinned by
        ``tests/sim/test_kernel_sched_bugs.py``).
        """
        self._dead += 1
        if self._dead >= _REAP_THRESHOLD and self._dead * 2 >= len(self._processes):
            self._processes = [p for p in self._processes if p._alive]
            self._dead = 0

    def run(self, until: Optional[float] = None, max_events: int = 50_000_000) -> float:
        """Run until the queue drains or ``until`` (ns) is reached.

        Returns the final simulation time.  ``max_events`` bounds
        runaway simulations (livelocked protocols) with a clear error
        instead of a hang: exactly ``max_events`` callbacks may
        dispatch, and attempting one more raises.
        """
        if self._observed or until is not None:
            return self._run_slow(until, max_events)
        # Fast path: no clock ceiling, no instrumentation.  Dispatch in
        # chunks so the per-event loop carries no bounds checks; queue
        # exhaustion surfaces as heappop's IndexError.  An IndexError
        # raised *inside* a callback has a deeper traceback and is
        # re-raised untouched.
        queue = self._queue
        pop = heappop
        executed = 0
        while queue:
            budget = max_events - executed
            if budget <= 0:
                raise SimulationError(f"exceeded {max_events} events; livelock?")
            chunk = _DISPATCH_CHUNK if budget > _DISPATCH_CHUNK else budget
            try:
                for _ in _repeat(None, chunk):
                    when, _seq, callback, value = pop(queue)
                    self.now = when
                    callback(value)
            except IndexError as exc:
                if exc.__traceback__.tb_next is not None:
                    raise  # a callback's own IndexError, not queue drain
                break
            executed += chunk
        return self.now

    def _run_slow(self, until: Optional[float], max_events: int) -> float:
        """Instrumented / clock-bounded dispatch loop."""
        queue = self._queue
        observed = self._observed
        executed = 0
        while queue:
            entry = queue[0]
            when = entry[0]
            if until is not None and when > until:
                self.now = until
                return self.now
            if executed >= max_events:
                raise SimulationError(f"exceeded {max_events} events; livelock?")
            heappop(queue)
            self.now = when
            entry[2](entry[3])
            executed += 1
            if observed:
                self._obs_events.inc()
                self._obs_wake_ns.observe(when - entry[4])
                self._obs_queue_depth.set(len(queue))
        if until is not None and until > self.now:
            self.now = until
        return self.now

    def run_process(self, generator: ProcessGenerator, name: str = "") -> Any:
        """Spawn a process, run to completion, and return its result."""
        process = self.spawn(generator, name=name)
        self.run()
        if process.alive:
            raise SimulationError(f"process {process.name!r} never finished (deadlock?)")
        return process.result

    # -- checkpoint/restore (repro.snap) ------------------------------------
    #
    # The kernel is quiescent when its event queue is empty: every
    # process has either finished or parked its progress in explicit
    # component state.  Only then is the kernel's own state -- the
    # clock, the tie-breaking sequence counter, and the RNG stream
    # position -- a complete description of "where the simulation is".

    SNAP_VERSION = 1

    @property
    def pending_events(self) -> int:
        """Events still queued (0 = quiescent, snapshot-safe)."""
        return len(self._queue)

    def snapshot_state(self) -> dict:
        version, internal, gauss_next = self.rng.getstate()
        return {
            "now": self.now,
            "seq": self._seq,
            "seed": self.seed,
            "rng": [version, list(internal), gauss_next],
        }

    def restore_state(self, state: dict) -> None:
        if self._queue:
            raise SimulationError(
                f"cannot restore onto a kernel with {len(self._queue)} "
                "pending events"
            )
        self.now = float(state["now"])
        self._seq = int(state["seq"])
        self.seed = state["seed"]
        version, internal, gauss_next = state["rng"]
        self.rng.setstate((version, tuple(internal), gauss_next))

    def reseed(self, seed: int) -> None:
        """Branch point: replace the RNG stream (checkpoint forking).

        Everything deterministic stays pinned by the restored state;
        every *stochastic* draw after this point follows the new seed --
        which is what lets one warm checkpoint fan out into a sweep.
        """
        self.seed = seed
        self.rng = random.Random(seed)
