"""The channel: the simulation's FIFO queue between processes.

It follows the kernel's awaitable protocol: ``channel.get()`` and
``channel.put(item)`` return :class:`~repro.sim.kernel.Awaitable`
objects that a process yields.  Parked gets and puts complete in FIFO
order.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Optional

from .kernel import Awaitable, Kernel, SimulationError


class _PendingOp(Awaitable):
    """A get or put parked on a channel until it can complete."""

    __slots__ = ("owner", "item", "_callback", "_kernel", "_completed", "_value", "_kind")

    def __init__(self, owner: "Channel", item: Any = None):
        self.owner = owner
        self.item = item
        self._callback: Optional[Callable[[Any], None]] = None
        self._kernel: Optional[Kernel] = None
        self._completed = False
        self._value: Any = None

    def _subscribe(self, kernel: Kernel, callback: Callable[[Any], None]) -> None:
        self._kernel = kernel
        if self._completed:
            kernel.call_at(kernel.now, callback, self._value)
        else:
            self._callback = callback
            self.owner._on_subscribe(kernel, self)

    def _complete(self, kernel: Kernel, value: Any = None) -> None:
        if self._completed:
            raise SimulationError("operation completed twice")
        self._completed = True
        self._value = value
        if self._callback is not None:
            kernel.call_at(kernel.now, self._callback, value)


class Channel:
    """A FIFO channel with optional bounded capacity.

    ``capacity=None`` means unbounded (puts never block); otherwise a
    put blocks while the channel holds ``capacity`` items.  This is the
    workhorse for modelling hardware queues and virtual circuits.
    """

    def __init__(self, capacity: Optional[int] = None, name: str = ""):
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self.capacity = capacity
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[_PendingOp] = deque()
        self._putters: Deque[_PendingOp] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def full(self) -> bool:
        return self.capacity is not None and len(self._items) >= self.capacity

    def get(self) -> _PendingOp:
        """Awaitable that yields the next item (blocking while empty)."""
        op = _PendingOp(self)
        op._kind = "get"
        return op

    def put(self, item: Any) -> _PendingOp:
        """Awaitable that completes once ``item`` is enqueued."""
        op = _PendingOp(self, item=item)
        op._kind = "put"
        return op

    def try_put_now(self, kernel: Kernel, item: Any) -> bool:
        """Non-blocking put used by callback-style producers."""
        if self.full:
            return False
        self._items.append(item)
        self._drain(kernel)
        return True

    def _on_subscribe(self, kernel: Kernel, op: _PendingOp) -> None:
        if op._kind == "get":
            self._getters.append(op)
        else:
            self._putters.append(op)
        self._drain(kernel)

    def _drain(self, kernel: Kernel) -> None:
        progressed = True
        while progressed:
            progressed = False
            # Move parked puts into the buffer while there is room.
            while self._putters and not self.full:
                put_op = self._putters.popleft()
                self._items.append(put_op.item)
                put_op._complete(kernel)
                progressed = True
            # Hand buffered items to parked gets.
            while self._getters and self._items:
                get_op = self._getters.popleft()
                get_op._complete(kernel, self._items.popleft())
                progressed = True

