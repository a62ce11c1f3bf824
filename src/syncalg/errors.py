"""Exception types shared across the library."""

from __future__ import annotations


class SyncAlgebraError(Exception):
    """Base class for every error this library raises on purpose."""


class ValidationError(SyncAlgebraError):
    """A value violates a structural precondition or invariant."""


class ParseError(SyncAlgebraError):
    """A declaration text is malformed.

    Carries the 1-based line number of the offending line so tools can
    point at the source.
    """

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class InterchangeError(SyncAlgebraError):
    """An interchange document violates the schema.

    ``key`` names the offending member, or is None when the document as a
    whole is unusable (for example, not JSON at all).
    """

    def __init__(self, key: str | None, message: str):
        super().__init__(message if key is None else f"key {key!r}: {message}")
        self.key = key


class GuardError(SyncAlgebraError):
    """A brute-force enumeration or a listing would exceed its configured ceiling."""
