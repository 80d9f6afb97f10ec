"""Exception hierarchy shared by all geokb modules."""

from __future__ import annotations


class GeoKbError(Exception):
    """Base class for every error raised by this package."""


class ConstructionError(GeoKbError):
    """Malformed construction text or an invalid construction value."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class RuleError(GeoKbError):
    """Malformed rule text or a rule violating the rule invariants."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class PatternError(GeoKbError):
    """Invalid regular expression passed to the simple text search."""


class FilterError(GeoKbError):
    """Unknown key, malformed clause or bad value in a filter string."""


class EntryError(GeoKbError):
    """An entry with a field of the wrong type or an illegal level, kind,
    language or identifier, or an entry document with an unknown member."""


class NotFoundError(GeoKbError):
    """Lookup of an identifier that is not in the repository."""


class IdentifierCollisionError(GeoKbError):
    """Insert with an identifier that is already taken."""


class StorageError(GeoKbError):
    """Corrupt, unreadable or unwritable entry files."""


class SearchBudgetExceeded(GeoKbError):
    """Embedding search gave up after its backtracking-step budget ran out."""


class ProtocolError(GeoKbError):
    """Bytes that do not decode to a valid request or response."""


class TransportError(GeoKbError):
    """Network failure while talking to a server."""
