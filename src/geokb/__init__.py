"""geokb: a geometric knowledge repository and structural search engine.

Constructions are sets of typed objects (points, lines, circles) plus
predicate facts.  Search closes a query under inference rules, fingerprints
the closed construction, filters stored entries by fingerprint
dominance and confirms candidates with an exact embedding search.  A small
JSON-over-TCP protocol exposes text queries, geometric queries, filters and
duplicate-guarded inserts.
"""

from .client import client_query, save_codes
from .errors import (
    ConstructionError,
    EntryError,
    FilterError,
    GeoKbError,
    IdentifierCollisionError,
    NotFoundError,
    PatternError,
    ProtocolError,
    RuleError,
    SearchBudgetExceeded,
    StorageError,
    TransportError,
)
from .fingerprint import (
    Gtd,
    construction_gtd,
    gtd,
    gtd_subsumes,
    parse_gtd,
    serialize_gtd,
)
from .matching import DEFAULT_BUDGET, Embedding, find_embeddings, is_subconstruction
from .model import (
    Construction,
    EMPTY_CONSTRUCTION,
    KINDS,
    ObjectDecl,
    PREDICATES,
    fact,
    fact_text,
    normalize_fact,
    parse_construction,
    serialize_construction,
)
from .protocol import (
    EntryInfo,
    ErrorResponse,
    InsertResult,
    QueryRequest,
    QueryResult,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
)
from .repository import (
    DuplicateReport,
    EMPTY_FILTERS,
    FilterSet,
    ProblemEntry,
    Repository,
    parse_filters,
)
from .rules import FactSet, Rule, RuleSet, closure, default_rules, entails, load_rules
from .server import GeoServer, serve

__version__ = "0.1.0"

__all__ = [
    "Construction",
    "ConstructionError",
    "DEFAULT_BUDGET",
    "DuplicateReport",
    "EMPTY_CONSTRUCTION",
    "EMPTY_FILTERS",
    "Embedding",
    "EntryError",
    "EntryInfo",
    "ErrorResponse",
    "FactSet",
    "FilterError",
    "FilterSet",
    "GeoKbError",
    "GeoServer",
    "Gtd",
    "IdentifierCollisionError",
    "InsertResult",
    "KINDS",
    "NotFoundError",
    "ObjectDecl",
    "PREDICATES",
    "PatternError",
    "ProblemEntry",
    "ProtocolError",
    "QueryRequest",
    "QueryResult",
    "Repository",
    "Rule",
    "RuleError",
    "RuleSet",
    "SearchBudgetExceeded",
    "StorageError",
    "TransportError",
    "client_query",
    "closure",
    "construction_gtd",
    "decode_request",
    "decode_response",
    "default_rules",
    "encode_request",
    "encode_response",
    "entails",
    "fact",
    "fact_text",
    "find_embeddings",
    "gtd",
    "gtd_subsumes",
    "is_subconstruction",
    "load_rules",
    "normalize_fact",
    "parse_construction",
    "parse_filters",
    "parse_gtd",
    "save_codes",
    "serialize_construction",
    "serialize_gtd",
    "serve",
]
