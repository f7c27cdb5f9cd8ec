"""Size caps for desk-scale use.

All enumerations are exact and in-memory, so each one is guarded by a cap.
The caps form one frozen ``Limits`` value in a context variable; ``check_cap``
reads ``limits()`` when it runs, and ``with use_limits(max_gamma=...)``
changes caps for the current thread or task only.  The CLI sets them from
``--max-elements`` / ``--max-gamma`` and the ``RELSYM_MAX_ELEMENTS``
environment variable.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field, fields, replace
from typing import Iterator

from .errors import ResourceLimitError

# Environment variable mirroring --max-elements.
MAX_ELEMENTS_ENV = "RELSYM_MAX_ELEMENTS"


@dataclass(frozen=True)
class Limits:
    """Every size cap; each must be a positive integer.  A field's ``flag``
    metadata says what raises it on the command line (None: nothing)."""

    # Largest number of exponent vectors enumerate_gamma will materialize.
    max_gamma: int = field(default=10_000_000, metadata={"flag": "--max-gamma"})
    # Largest permutation group order PermutationGroup will close over.
    max_group_order: int = field(
        default=1_000_000, metadata={"flag": f"--max-elements or {MAX_ELEMENTS_ENV}"}
    )
    # Largest symmetric group degree for which a character row or table is built.
    max_character_table_m: int = field(default=12, metadata={"flag": None})

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ValueError(f"Limits.{f.name} must be a positive integer, got {value!r}")


_LIMITS: ContextVar[Limits] = ContextVar("relsym_limits", default=Limits())


def limits() -> Limits:
    """The caps in force in the current context."""
    return _LIMITS.get()


def check_cap(cap: str, requested: int, what: str) -> None:
    """Raise ``ResourceLimitError`` if ``requested`` exceeds the ``Limits``
    field named ``cap`` in force; ``what`` is the message up to the number,
    e.g. ``"the group order is at least"``."""
    limit = getattr(limits(), cap)
    if requested > limit:
        flag = next(f for f in fields(Limits) if f.name == cap).metadata["flag"]
        raise_it = f"raise it with {flag}" if flag else "no command-line flag raises it"
        raise ResourceLimitError(
            f"{what} {requested}, exceeding the cap of {limit} (Limits.{cap}; {raise_it})",
            cap, requested, limit, flag,
        )


@contextmanager
def use_limits(**caps: int) -> Iterator[None]:
    """Replace the named caps for the duration of the ``with`` block."""
    token = _LIMITS.set(replace(_LIMITS.get(), **caps))
    try:
        yield
    finally:
        _LIMITS.reset(token)
