"""Size caps for desk-scale use, and the package's frozen record type.

All enumerations are exact and in-memory, so each one is guarded by a cap.
The caps form one frozen ``Limits`` value in a context variable; ``check_cap``
reads ``limits()`` when it runs, and ``with use_limits(max_gamma=...)``
changes caps for the current thread or task only.  The CLI sets them from
``--max-elements`` / ``--max-gamma`` and the ``RELSYM_MAX_ELEMENTS``
environment variable.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager
from contextvars import ContextVar

from .errors import ResourceLimitError

# Environment variable mirroring --max-elements.
MAX_ELEMENTS_ENV = "RELSYM_MAX_ELEMENTS"

# how a record sets its fields: its own __setattr__ refuses every assignment
_setattr = object.__setattr__


class Record:
    """Base of the package's frozen value types.

    A subclass names its fields, in constructor order, as ``__slots__`` and
    the defaults of trailing fields in ``_defaults``; ``_validate`` checks a
    new instance.  Instances compare and hash by class and field values,
    repr as ``Name(field=value, ...)``, refuse assignment and pickle and
    copy through the constructor.  ``_asdict`` and ``_replace`` return the
    fields as a dict and a copy with some of them changed.
    """

    __slots__ = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs) -> None:
        names = self.__slots__
        if kwargs or len(args) != len(names):
            args = self._bind(args, kwargs)
        for name, value in zip(names, args):
            _setattr(self, name, value)
        self._validate()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        names = cls.__slots__
        values = dict(zip(names, args))
        if len(args) > len(names) or not values.keys().isdisjoint(kwargs):
            raise TypeError(f"{cls.__name__}() got too many values for its fields {names}")
        values = {**cls._defaults, **values, **kwargs}
        if values.keys() != set(names):
            raise TypeError(f"{cls.__name__}() takes the fields {names}, got {tuple(values)}")
        return [values[name] for name in names]

    def _validate(self) -> None:
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def _asdict(self) -> dict:
        return dict(zip(self.__slots__, self._values()))

    def _replace(self, **changes):
        return type(self)(**{**self._asdict(), **changes})

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


class Limits(Record):
    """Every size cap; each must be a positive integer.  ``flags`` says
    what raises each cap on the command line (None: nothing)."""

    _defaults = {
        # Largest number of exponent vectors enumerate_gamma will materialize.
        "max_gamma": 10_000_000,
        # Largest permutation group order PermutationGroup will close over.
        "max_group_order": 1_000_000,
        # Largest symmetric group degree for which a character row or table is built.
        "max_character_table_m": 12,
    }
    __slots__ = tuple(_defaults)
    flags = {
        "max_gamma": "--max-gamma",
        "max_group_order": f"--max-elements or {MAX_ELEMENTS_ENV}",
        "max_character_table_m": None,
    }

    def _validate(self) -> None:
        for name, value in zip(self.__slots__, self._values()):
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ValueError(f"Limits.{name} must be a positive integer, got {value!r}")


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
        flag = Limits.flags[cap]
        raise_it = f"raise it with {flag}" if flag else "no command-line flag raises it"
        raise ResourceLimitError(
            f"{what} {requested}, exceeding the cap of {limit} (Limits.{cap}; {raise_it})",
            cap, requested, limit, flag,
        )


@contextmanager
def use_limits(**caps: int) -> Iterator[None]:
    """Replace the named caps for the duration of the ``with`` block."""
    token = _LIMITS.set(_LIMITS.get()._replace(**caps))
    try:
        yield
    finally:
        _LIMITS.reset(token)
