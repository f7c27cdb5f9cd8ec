"""Exception types shared across the package.

Plain ``ValueError`` is used for malformed input; the classes here cover the
two remaining failure modes the CLI distinguishes by exit code.
"""


class ResourceLimitError(Exception):
    """A request would exceed a size cap: ``cap`` names the ``Limits`` field,
    ``requested`` the size asked for, ``limit`` the cap in force and ``flag``
    what raises it on the command line, or None (defaults are for pickle)."""

    def __init__(
        self, message: str, cap: str = "", requested: int = 0, limit: int = 0, flag: str | None = None
    ):
        super().__init__(message)
        self.cap, self.requested, self.limit, self.flag = cap, requested, limit, flag


class ConsistencyError(Exception):
    """Two exact computations that must agree did not.

    This always signals a bug, never bad input.
    """
