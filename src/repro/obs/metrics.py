"""Simulated-time-aware metrics: counters, gauges, log-bucketed histograms.

The registry is the platform-wide measurement substrate the paper's
tooling implies (§4.1, §6): every layer of the software twin -- the
event kernel, the ECI link and protocol agents, the BMC telemetry
service, the network stacks, and the application pipelines -- reports
into one :class:`MetricsRegistry`, stamped with *simulated* time
(``Kernel.now``, or a board clock) rather than wall time.

Zero-overhead contract
----------------------
Every instrumented component defaults to :data:`NULL_REGISTRY`, a
null-object registry whose instruments are shared no-op singletons and
which is *falsy*.  Hot paths gate their bookkeeping with
``if self.obs: ...`` so that, with no registry attached, the only cost
is a single truthiness check -- benchmark outputs are bit-identical
with and without the hooks (covered by ``tests/obs``).  A real
:class:`MetricsRegistry` defines no ``__bool__``: it is truthy like any
object, so the check on an observed hot path costs no Python call.

The one exception is :class:`repro.traffic.Gateway`: its registry
families are its only count of offered, rejected, retried, failed and
completed requests, so it always holds a real registry (a private one
when given none) and updates it without a check.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Tuple

LabelsKey = Tuple[Tuple[str, str], ...]

#: Values at or below zero land in the histogram bucket with this bound.
ZERO_BUCKET = 0.0

#: Every update must be finite: a NaN or an infinity would poison a
#: total, a sum or a minimum for the rest of the run.
_INF = math.inf

#: Histograms tabulate their bucket bounds ``base ** k`` (integer ``k``)
#: from 2**-64 to 2**64 ...
_TABLE_LOG_SPAN = 64 * math.log(2.0)
#: ... unless the base is finer than this: such a table would be long,
#: and near 1 the logarithm's own error nears the 1e-9 it is rounded to.
_TABLE_MIN_BASE = 1.01
#: A value at most this far (relative) above a table bound takes the
#: logarithm: rounding it to 9 digits may put the value in that bound's
#: own bucket.  Beyond the margin the rounding cannot change the bucket.
_TABLE_MARGIN = 1e-6

#: base -> (bounds, bounds scaled by 1 + margin), shared by every
#: histogram with that base.  The tables are immutable and depend on
#: the base alone.
_BUCKET_TABLES: Dict[float, Tuple[Tuple[float, ...], Tuple[float, ...]]] = {}


def _bucket_table(base: float) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
    """The shared bucket-bound table of one histogram base."""
    table = _BUCKET_TABLES.get(base)
    if table is None:
        # A span of -1 builds an empty table: every value takes the formula.
        span = int(_TABLE_LOG_SPAN / math.log(base)) if base >= _TABLE_MIN_BASE else -1
        bounds = tuple(base ** k for k in range(-span, span + 1))
        margins = tuple(bound * (1.0 + _TABLE_MARGIN) for bound in bounds)
        table = _BUCKET_TABLES[base] = (bounds, margins)
    return table


class ObsError(ValueError):
    """An observability-API misuse (kind conflict, negative increment, ...)."""


def labels_key(labels: Optional[Mapping[str, Any]]) -> LabelsKey:
    """Canonical, hashable form of a label set (sorted string pairs)."""
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


@dataclass(frozen=True)
class ObsEvent:
    """One timestamped update, recorded when the registry logs events."""

    t: float
    kind: str          # 'counter' | 'gauge' | 'histogram'
    name: str
    labels: LabelsKey
    value: float

    def to_dict(self) -> dict:
        return {
            "t": self.t,
            "kind": self.kind,
            "name": self.name,
            "labels": dict(self.labels),
            "value": self.value,
        }


class Instrument:
    """Common identity plumbing for one (name, labels) series."""

    kind = "instrument"

    def __init__(self, registry: "MetricsRegistry", name: str,
                 key: LabelsKey, help: str = ""):
        self._registry = registry
        self.name = name
        self.labels_key = key
        self.help = help

    @property
    def labels(self) -> dict:
        return dict(self.labels_key)

    def _emit(self, value: float) -> None:
        registry = self._registry
        if registry.record_events:
            registry._record(self.kind, self.name, self.labels_key, value)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, {self.labels})"


class Counter(Instrument):
    """A monotonically increasing total."""

    kind = "counter"

    def __init__(self, registry, name, key, help=""):
        super().__init__(registry, name, key, help)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if not 0 <= amount < _INF:
            raise ObsError(
                f"counter {self.name!r} can only increase by a finite amount, got {amount}"
            )
        self.value += amount
        self._emit(self.value)


class Gauge(Instrument):
    """A value that can move in either direction."""

    kind = "gauge"

    def __init__(self, registry, name, key, help=""):
        super().__init__(registry, name, key, help)
        self.value = 0.0

    def set(self, value: float) -> None:
        value = float(value)
        if not -_INF < value < _INF:
            raise ObsError(f"gauge {self.name!r} takes finite values, got {value}")
        self.value = value
        self._emit(value)

    def inc(self, amount: float = 1.0) -> None:
        self.set(self.value + amount)

    def dec(self, amount: float = 1.0) -> None:
        self.set(self.value - amount)


class Histogram(Instrument):
    """Log-bucketed distribution: bucket *i* holds values in
    ``(base**(i-1), base**i]``; non-positive values share the
    :data:`ZERO_BUCKET`.  Exact powers of the base land on their own
    boundary (``observe(8)`` with base 2 goes to the ``le=8`` bucket).

    A value's bucket is, by definition,
    ``base ** ceil(round(log(value, base), 9))``.  :meth:`bucket_bound`
    finds it by bisecting a table of ``base ** k`` instead, and falls
    back to the formula outside the table and just above a bound.
    """

    kind = "histogram"

    def __init__(self, registry, name, key, help="", base: float = 2.0):
        super().__init__(registry, name, key, help)
        if base <= 1.0:
            raise ObsError(f"histogram base must be > 1, got {base}")
        self.base = float(base)
        self._bounds, self._margins = _bucket_table(self.base)
        self._buckets: Dict[float, int] = {}
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def bucket_bound(self, value: float) -> float:
        """Upper bound of the bucket ``value`` falls into."""
        if value <= 0:
            return ZERO_BUCKET
        bounds = self._bounds
        i = bisect_left(bounds, value)
        # bounds[i - 1] < value <= bounds[i]: that is bucket i unless the
        # value sits within the margin above bounds[i - 1].
        if 0 < i < len(bounds) and value > self._margins[i - 1]:
            return bounds[i]
        # Round before ceil so that exact powers of the base are not
        # pushed up a bucket by floating-point log error.
        exponent = math.ceil(round(math.log(value, self.base), 9))
        return self.base ** exponent

    def observe(self, value: float) -> None:
        value = float(value)
        if not -_INF < value < _INF:
            raise ObsError(f"histogram {self.name!r} takes finite values, got {value}")
        bound = self.bucket_bound(value)
        buckets = self._buckets
        buckets[bound] = buckets.get(bound, 0) + 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        self._emit(value)

    def buckets(self) -> List[Tuple[float, int]]:
        """(upper_bound, count) pairs, sorted by bound."""
        return sorted(self._buckets.items())

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


class Family:
    """A prebound handle on one metric family: a kind, a name and the
    names of its labels.

    ``labels(*values)`` resolves one series through a per-handle memo,
    so a hot call site pays a dict hit instead of building and sorting a
    label key on every update.  Resolution is lazy: binding registers
    nothing, and a series enters the registry when a call site first
    updates it, exactly as with ``registry.counter(name, labels)``.
    :meth:`MetricsRegistry.restore_state` clears every memo, so a handle
    bound before a restore counts into the restored series.
    """

    __slots__ = ("name", "label_names", "_factory", "_memo")

    def __init__(self, factory: Callable[..., Instrument], name: str,
                 label_names: Tuple[str, ...]):
        self.name = name
        self.label_names = label_names
        self._factory = factory
        self._memo: Dict[tuple, Instrument] = {}

    def labels(self, *values) -> Instrument:
        """The series for these label values, in ``label_names`` order."""
        instrument = self._memo.get(values)
        if instrument is None:
            instrument = self._memo[values] = self._factory(
                self.name, dict(zip(self.label_names, values))
            )
        return instrument

    def __repr__(self) -> str:
        return f"Family({self.name!r}, {self.label_names})"


class MetricsRegistry:
    """Instrument factory and event log for one system.

    ``clock`` supplies event timestamps; a :class:`repro.sim.Kernel`
    built with ``Kernel(obs=registry)`` installs its own ``now`` unless
    a clock was already set.  ``record_events`` turns on the append-only
    :attr:`events` log used by the JSON-lines exporter and the golden
    trace tests.
    """

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        record_events: bool = False,
        max_events: int = 1_000_000,
    ):
        self._clock = clock
        self.record_events = record_events
        self.max_events = max_events
        self.dropped_events = 0
        self.events: List[ObsEvent] = []
        self._instruments: Dict[Tuple[str, LabelsKey], Instrument] = {}
        #: Histogram name -> base: every series of one histogram metric
        #: shares one bucket layout (merges and rollups add buckets).
        self._histogram_bases: Dict[str, float] = {}
        self._families: Dict[tuple, Family] = {}

    # -- time ------------------------------------------------------------

    @property
    def now(self) -> float:
        return self._clock() if self._clock is not None else 0.0

    def use_clock(self, clock: Callable[[], float], override: bool = True) -> None:
        """Install a time source; ``override=False`` keeps an existing one."""
        if override or self._clock is None:
            self._clock = clock

    # -- instrument factories --------------------------------------------

    def _get(self, cls, name: str, labels, help: str, **kwargs) -> Instrument:
        key = labels_key(labels)
        existing = self._instruments.get((name, key))
        if existing is not None:
            if not isinstance(existing, cls):
                raise ObsError(
                    f"metric {name!r}{dict(key)} already registered as "
                    f"{existing.kind}, requested {cls.kind}"
                )
            return existing
        instrument = cls(self, name, key, help=help, **kwargs)
        self._instruments[(name, key)] = instrument
        return instrument

    def counter(self, name: str, labels: Optional[Mapping] = None,
                help: str = "") -> Counter:
        return self._get(Counter, name, labels, help)

    def gauge(self, name: str, labels: Optional[Mapping] = None,
              help: str = "") -> Gauge:
        return self._get(Gauge, name, labels, help)

    def histogram(self, name: str, labels: Optional[Mapping] = None,
                  help: str = "", base: float = 2.0) -> Histogram:
        known = self._histogram_bases.get(name)
        if known is not None and known != base:
            raise ObsError(
                f"histogram {name!r} already registered with base {known:g}, "
                f"requested base {base:g}"
            )
        histogram = self._get(Histogram, name, labels, help, base=base)
        self._histogram_bases[name] = histogram.base
        return histogram

    def family(self, kind: str, name: str, label_names: Tuple[str, ...] = (),
               help: str = "", base: float = 2.0) -> Family:
        """A :class:`Family` handle for hot call sites (one per family:
        binding the same family twice returns the same handle)."""
        key = (kind, name, tuple(label_names), help, base)
        handle = self._families.get(key)
        if handle is None:
            if kind == "histogram":
                factory = partial(self.histogram, help=help, base=base)
            elif kind in ("counter", "gauge"):
                factory = partial(getattr(self, kind), help=help)
            else:
                raise ObsError(f"unknown instrument kind {kind!r}")
            handle = self._families[key] = Family(factory, name, key[2])
        return handle

    # -- introspection ----------------------------------------------------

    def metrics(self) -> Iterator[Instrument]:
        """All instruments in deterministic (name, labels) order."""
        for key in sorted(self._instruments):
            yield self._instruments[key]

    def total(self, name: str, where: Optional[Mapping[str, Any]] = None) -> float:
        """The sum over metric ``name``'s series whose labels include
        ``where``: counter values, histogram counts.  It reads the
        instruments, not a :class:`Family` memo, so it is right after
        :meth:`restore_state` too."""
        wanted = labels_key(where)
        return sum(
            m.count if m.kind == "histogram" else m.value
            for (metric, key), m in self._instruments.items()
            if metric == name and all(pair in key for pair in wanted)
        )

    def snapshot(self) -> List[dict]:
        """Plain-data view of every instrument (exporter input)."""
        out = []
        for m in self.metrics():
            entry = {"kind": m.kind, "name": m.name, "labels": m.labels}
            if isinstance(m, Histogram):
                entry.update(
                    count=m.count,
                    sum=m.sum,
                    min=m.min,
                    max=m.max,
                    base=m.base,
                    buckets=[[bound, count] for bound, count in m.buckets()],
                )
            else:
                entry["value"] = m.value
            out.append(entry)
        return out

    # -- event log --------------------------------------------------------

    def _record(self, kind: str, name: str, key: LabelsKey, value: float) -> None:
        if not self.record_events:
            return
        if len(self.events) >= self.max_events:
            self.dropped_events += 1
            return
        self.events.append(ObsEvent(self.now, kind, name, key, value))

    # -- checkpoint/restore (repro.snap) ---------------------------------
    #
    # The registry's state is every instrument's accumulated series plus
    # the (optional) event log.  Restores are silent and wholesale: the
    # instrument table and event list are replaced, so any updates a
    # component emitted while being *re-constructed* (before restore)
    # are discarded rather than double-counted.

    SNAP_VERSION = 1

    def snapshot_state(self) -> dict:
        instruments = []
        for m in self.metrics():
            entry: dict = {
                "kind": m.kind,
                "name": m.name,
                "labels": [list(pair) for pair in m.labels_key],
                "help": m.help,
            }
            if isinstance(m, Histogram):
                entry.update(
                    base=m.base,
                    count=m.count,
                    sum=m.sum,
                    min=m.min,
                    max=m.max,
                    buckets=[[bound, count] for bound, count in m.buckets()],
                )
            else:
                entry["value"] = m.value
            instruments.append(entry)
        return {
            "instruments": instruments,
            "record_events": self.record_events,
            "max_events": self.max_events,
            "dropped_events": self.dropped_events,
            "events": [
                [e.t, e.kind, e.name, [list(pair) for pair in e.labels], e.value]
                for e in self.events
            ],
        }

    def restore_state(self, state: dict) -> None:
        self._instruments = {}
        self._histogram_bases = {}
        # Handles re-resolve against the restored instruments.
        for handle in self._families.values():
            handle._memo.clear()
        factories = {
            "counter": self.counter,
            "gauge": self.gauge,
            "histogram": self.histogram,
        }
        for entry in state["instruments"]:
            labels = dict(tuple(pair) for pair in entry["labels"])
            kind = entry["kind"]
            if kind == "histogram":
                metric = self.histogram(
                    entry["name"], labels, help=entry["help"], base=entry["base"]
                )
                metric.count = entry["count"]
                metric.sum = entry["sum"]
                metric.min = entry["min"]
                metric.max = entry["max"]
                metric._buckets = {
                    float(bound): count for bound, count in entry["buckets"]
                }
            elif kind in factories:
                metric = factories[kind](entry["name"], labels, help=entry["help"])
                metric.value = entry["value"]
            else:
                raise ObsError(f"unknown instrument kind {kind!r} in snapshot")
        self.record_events = state["record_events"]
        self.max_events = state["max_events"]
        self.dropped_events = state["dropped_events"]
        self.events = [
            ObsEvent(t, kind, name, tuple(tuple(pair) for pair in labels), value)
            for t, kind, name, labels, value in state["events"]
        ]

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry({len(self._instruments)} instruments, "
            f"{len(self.events)} events)"
        )


# -- null objects ----------------------------------------------------------

class _NullInstrument:
    """Shared no-op counter/gauge/histogram.  Falsy, stateless."""

    __slots__ = ()
    name = "null"
    help = ""
    labels_key: LabelsKey = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def __bool__(self) -> bool:
        return False


NULL_INSTRUMENT = _NullInstrument()


class _NullFamily:
    """Shared no-op family handle: every series is :data:`NULL_INSTRUMENT`."""

    __slots__ = ()

    def labels(self, *values) -> _NullInstrument:
        return NULL_INSTRUMENT

    def __bool__(self) -> bool:
        return False


NULL_FAMILY = _NullFamily()


class NullRegistry:
    """Falsy registry handing out shared no-op instruments.

    The default ``obs`` of every instrumented component; attaching
    nothing must cost nothing and change nothing.
    """

    __slots__ = ()
    record_events = False
    events: tuple = ()

    @property
    def now(self) -> float:
        return 0.0

    def use_clock(self, clock, override: bool = True) -> None:
        pass

    def counter(self, name, labels=None, help="") -> _NullInstrument:
        return NULL_INSTRUMENT

    def gauge(self, name, labels=None, help="") -> _NullInstrument:
        return NULL_INSTRUMENT

    def histogram(self, name, labels=None, help="", base: float = 2.0) -> _NullInstrument:
        return NULL_INSTRUMENT

    def family(self, kind, name, label_names=(), help="", base: float = 2.0) -> _NullFamily:
        return NULL_FAMILY

    def metrics(self):
        return iter(())

    def snapshot(self) -> list:
        return []

    def __bool__(self) -> bool:
        return False

    def __repr__(self) -> str:
        return "NullRegistry()"


NULL_REGISTRY = NullRegistry()
