"""Size caps for desk-scale use.

All enumerations are exact and in-memory, so each one is guarded by a cap.
The caps form one frozen ``Limits`` value held in a context variable: each
check reads ``limits()`` when it runs, and ``with use_limits(max_gamma=...)``
changes caps for the current thread or task only.  The CLI sets them from
``--max-elements`` / ``--max-gamma`` and the ``RELSYM_MAX_ELEMENTS``
environment variable.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, fields, replace
from typing import Iterator


@dataclass(frozen=True)
class Limits:
    """Every size cap; each must be a positive integer."""

    # Largest number of exponent vectors enumerate_gamma will materialize.
    max_gamma: int = 10_000_000
    # Largest permutation group order PermutationGroup will close over.
    max_group_order: int = 1_000_000
    # Largest symmetric group degree for which a character row or table is built.
    max_character_table_m: int = 12

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ValueError(f"Limits.{f.name} must be a positive integer, got {value!r}")


_LIMITS: ContextVar[Limits] = ContextVar("relsym_limits", default=Limits())


def limits() -> Limits:
    """The caps in force in the current context."""
    return _LIMITS.get()


@contextmanager
def use_limits(**caps: int) -> Iterator[None]:
    """Replace the named caps for the duration of the ``with`` block."""
    token = _LIMITS.set(replace(_LIMITS.get(), **caps))
    try:
        yield
    finally:
        _LIMITS.reset(token)


# Environment variable mirroring --max-elements.
MAX_ELEMENTS_ENV = "RELSYM_MAX_ELEMENTS"
