"""Process-wide switches with an inert default, and the copy rule they share.

Every process-wide setting — the default metrics registry, the default fault
plan, the fast-path switch and route sink, the experiment overlays — is one
:class:`Slot`.  A hot path reads ``slot.value`` with one attribute load;
:meth:`Slot.set` swaps the value and returns the previous one (``None``
restores the default), and :meth:`Slot.use` scopes a value to a ``with``
block.

Sinks and plans installed in a slot are process-local apparatus, never model
state: :class:`CopyByReference` makes ``copy.copy`` / ``copy.deepcopy`` of an
object that references one share it, so a copy-on-write model checkout keeps
recording into the same registry and injecting from the same plan.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Generic, Iterator, TypeVar

__all__ = ["CopyByReference", "Slot"]

T = TypeVar("T")


class Slot(Generic[T]):
    """One process-wide value with an inert default."""

    __slots__ = ("default", "value", "_lock")

    def __init__(self, default: T) -> None:
        self.default = default
        self.value = default
        self._lock = threading.Lock()

    def set(self, value: T | None) -> T:
        """Install ``value`` (``None``: the default); return the previous value."""
        with self._lock:
            previous = self.value
            self.value = self.default if value is None else value
        return previous

    @contextmanager
    def use(self, value: T | None) -> Iterator[None]:
        """Scoped :meth:`set`: the previous value is restored on exit."""
        previous = self.set(value)
        try:
            yield
        finally:
            self.set(previous)


class CopyByReference:
    """Mixin: shallow and deep copies return the object itself."""

    __slots__ = ()

    def __copy__(self):
        return self

    def __deepcopy__(self, memo: dict):
        return self
