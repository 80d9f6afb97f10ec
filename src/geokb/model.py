"""Geometric constructions: typed objects plus predicate facts.

A construction is written in a line-oriented UTF-8 text format:

    # blank lines and lines starting with '#' are ignored
    point A
    point B
    line a
    line_through(a, A, B)

Declaration lines are ``point <name>``, ``line <name>`` or ``circle <name>``
with names matching ``[A-Za-z][A-Za-z0-9_]*``; they may appear anywhere in
the file.  Fact lines apply a predicate to declared names, one statement
per line, with optional spaces after commas.  Lines end with ``\\n``.

Facts are normalized on parse so that logically equivalent statements
compare equal: ``parallel(b, a)`` is stored as ``parallel(a, b)``.  Distinct
names are assumed to denote distinct objects, so degenerate statements such
as ``parallel(a, a)`` or ``collinear(A, A, B)`` are rejected outright.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import permutations, product
from typing import Callable, NamedTuple

from .errors import ConstructionError

KINDS = ("point", "line", "circle")

#: predicate name -> argument kinds (arity is the tuple length)
PREDICATES: dict[str, tuple[str, ...]] = {
    "incident": ("point", "line"),
    "on_circle": ("point", "circle"),
    "center": ("point", "circle"),
    "line_through": ("line", "point", "point"),
    "circle_centered": ("circle", "point", "point"),
    "parallel": ("line", "line"),
    "perpendicular": ("line", "line"),
    "collinear": ("point", "point", "point"),
    "concurrent": ("line", "line", "line"),
    "midpoint": ("point", "point", "point"),
    "equidistant": ("point", "point", "point", "point"),
}

#: predicates degenerate under any repeated argument
DISTINCT_ARG_PREDICATES = frozenset(
    {"parallel", "perpendicular", "collinear", "concurrent", "midpoint"}
)

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")
_FACT_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\s*\(\s*(.*?)\s*\)\s*\Z")
_NOT_CANONICAL = "arguments not in canonical order"
#: facts as ``(predicate, args)`` pairs, the shape a closure returns
FactSet = frozenset[tuple[str, tuple[str, ...]]]


@dataclass(frozen=True, order=True)
class ObjectDecl:
    """A named geometric object of one of the three kinds."""

    name: str
    kind: str


class Fact(NamedTuple):
    """One predicate applied to object names, e.g. ``parallel(a, b)``; it
    equals its ``(predicate, args)`` pair and hashes the same."""

    predicate: str
    args: tuple[str, ...]

    @property
    def text(self) -> str:
        return fact_text(self.predicate, self.args)

    def __str__(self) -> str:
        return self.text


def fact_text(predicate: str, args: tuple[str, ...]) -> str:
    """The text form of a fact, ``predicate(a, b, ...)``."""
    return f"{predicate}({', '.join(args)})"


def fact(predicate: str, *args: str) -> Fact:
    """Build a fact already in canonical argument order."""
    return normalize_fact(Fact(predicate, tuple(args)))


#: predicate -> (fixed, size): its argument-permutation group keeps the first
#: ``fixed`` positions and permutes the rest as interchangeable blocks of
#: ``size`` positions, each permutable inside; wider blocks come in pairs
#: (equidistant's two distances) and unlisted predicates are asymmetric
SYMMETRY: dict[str, tuple[int, int]] = {
    "parallel": (0, 1), "perpendicular": (0, 1), "collinear": (0, 1), "concurrent": (0, 1),
    "line_through": (1, 1), "midpoint": (1, 1), "equidistant": (0, 2),
}


def _block_sorter(arity: int, fixed: int, size: int) -> Callable[[tuple[str, ...]], tuple[str, ...]]:
    """The least order in a block group's orbit, for the shapes
    :data:`SYMMETRY` lists: sort within each block, then sort the blocks as
    units.  Two interchangeable slots after none or one fixed slot take one
    comparison instead of a sort."""
    if size == 1 and (fixed, arity) == (0, 2):
        return lambda a: a if a[0] <= a[1] else (a[1], a[0])
    if size == 1 and (fixed, arity) == (1, 3):
        return lambda a: a if a[1] <= a[2] else (a[0], a[2], a[1])
    if size == 1 and fixed == 0:
        return lambda a: tuple(sorted(a))
    first, second = slice(fixed, fixed + size), slice(fixed + size, arity)

    def sort_pair(a: tuple[str, ...]) -> tuple[str, ...]:
        x, y = tuple(sorted(a[first])), tuple(sorted(a[second]))
        return a[:fixed] + (x + y if x <= y else y + x)

    return sort_pair


#: predicate -> function putting its arguments in canonical order
CANONICAL_ARGS = {p: _block_sorter(len(PREDICATES[p]), *block) for p, block in SYMMETRY.items()}


def argument_variants(predicate: str, args: tuple[str, ...]) -> tuple[tuple[str, ...], ...]:
    """Every argument order that states the same thing as ``args``.

    This is the orbit of the predicate's symmetry group; the canonical
    order produced by :func:`normalize_fact` is its lexicographic minimum.
    """
    fixed, size = SYMMETRY.get(predicate, (len(args), 1))
    blocks = [args[i : i + size] for i in range(fixed, len(args), size)]
    return tuple(sorted({
        args[:fixed] + sum(inner, ())
        for order in permutations(blocks)
        for inner in product(*(permutations(block) for block in order))
    }))


def normalize_fact(f: Fact) -> Fact:
    """The least argument order in the fact's symmetry orbit.  Idempotent.

    ``line_through(a, B, A)`` becomes ``line_through(a, A, B)``: the
    trailing point pair is sorted, as :data:`SYMMETRY` says.
    """
    canonical = CANONICAL_ARGS.get(f.predicate)
    return f if canonical is None else Fact(f.predicate, canonical(f.args))


@dataclass(frozen=True)
class Construction:
    """A set of declared objects plus a set of canonical facts over them."""

    objects: frozenset[ObjectDecl]
    facts: frozenset[Fact]

    @cached_property
    def kinds(self) -> dict[str, str]:
        """Object name -> kind (later duplicates of an invalid value win)."""
        return {o.name: o.kind for o in sorted(self.objects)}

    def names_of_kind(self, kind: str) -> list[str]:
        return sorted(o.name for o in self.objects if o.kind == kind)


EMPTY_CONSTRUCTION = Construction(frozenset(), frozenset())


@dataclass(frozen=True)
class Violation:
    """One broken invariant, naming the object or fact at fault."""

    subject: str
    problem: str

    def __str__(self) -> str:
        return f"{self.subject}: {self.problem}"


def _fact_problems(
    predicate: str, args: tuple[str, ...], kinds: dict[str, str]
) -> tuple[list[str], tuple[str, ...]]:
    """What is wrong with one fact over objects of the given ``kinds``, most
    basic first (empty if nothing is), and its arguments in canonical order.
    An unknown predicate or a wrong argument count is reported alone, and a
    fact with an undeclared or ill-typed argument is checked no further."""
    spec = PREDICATES.get(predicate)
    if spec is None:
        return ["unknown predicate"], args
    if len(args) != len(spec):
        return [f"expects {len(spec)} arguments, got {len(args)}"], args
    problems = []
    for i, (arg, kind) in enumerate(zip(args, spec)):
        declared = kinds.get(arg)
        if declared is None:
            problems.append(f"undeclared object {arg!r}")
        elif declared != kind:
            problems.append(f"argument {i + 1} must be a {kind}, got {declared} {arg!r}")
    if problems:
        return problems, args
    if predicate in DISTINCT_ARG_PREDICATES and len(set(args)) != len(args):
        problems.append("repeated argument")
    if predicate == "equidistant" and (args[0] == args[1] or args[2] == args[3]):
        problems.append("repeated point within a distance pair")
    canonical = CANONICAL_ARGS.get(predicate)
    ordered = args if canonical is None else canonical(args)
    if ordered != args:
        problems.append(_NOT_CANONICAL)
    return problems, ordered


def _parse_fact(line: str, kinds: dict[str, str], lineno: int) -> Fact:
    m = _FACT_RE.match(line)
    if m is None:
        raise ConstructionError(f"expected 'predicate(name, ...)', got {line!r}", line=lineno)
    predicate, argtext = m.group(1), m.group(2)
    args = tuple(t.strip() for t in argtext.split(",")) if argtext.strip() else ()
    for arg in args:
        if not _NAME_RE.match(arg):
            raise ConstructionError(f"bad object name {arg!r}", line=lineno)
    problems, ordered = _fact_problems(predicate, args, kinds)
    # parsing puts any argument order right; that problem comes last, so it
    # is the first only when it is the only one
    if problems and problems[0] != _NOT_CANONICAL:
        raise ConstructionError(f"{fact_text(predicate, args)}: {problems[0]}", line=lineno)
    return Fact(predicate, ordered)


def parse_construction(text: str) -> Construction:
    """Parse construction-format text.

    Declarations are collected in a first pass, so the order of lines never
    affects the result.  Raises :class:`ConstructionError` with the line
    number for syntax errors, unknown predicates, arity or kind mismatches,
    undeclared objects, duplicate declarations and degenerate facts.
    """
    decls: dict[str, ObjectDecl] = {}
    fact_lines: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        keyword = line.split(None, 1)[0]
        if keyword in KINDS:
            name = line[len(keyword):].strip()
            if not _NAME_RE.match(name):
                raise ConstructionError(f"bad object name {name!r}", line=lineno)
            if name in decls:
                raise ConstructionError(f"duplicate declaration of {name!r}", line=lineno)
            decls[name] = ObjectDecl(name, keyword)
        else:
            fact_lines.append((lineno, line))
    kinds = {name: decl.kind for name, decl in decls.items()}
    facts = {_parse_fact(line, kinds, lineno) for lineno, line in fact_lines}
    return Construction(frozenset(decls.values()), frozenset(facts))


def serialize_construction(construction: Construction) -> str:
    """Deterministic text form: objects by kind then name, facts by text.

    ``parse_construction(serialize_construction(c)) == c`` for any valid
    construction; the empty construction serializes to the empty string.
    """
    lines = [
        f"{o.kind} {o.name}"
        for o in sorted(construction.objects, key=lambda o: (o.kind, o.name))
    ]
    lines.extend(sorted(fact_text(*f) for f in construction.facts))
    return "".join(line + "\n" for line in lines)


def validate(construction: Construction) -> list[Violation]:
    """Check every construction invariant; an empty list means valid.

    Violations are values rather than exceptions so that callers can report
    all problems at once.
    """
    out: list[Violation] = []
    kinds: dict[str, str] = {}
    for decl in sorted(construction.objects):
        if not _NAME_RE.match(decl.name):
            out.append(Violation(decl.name, "invalid object name"))
        if decl.kind not in KINDS:
            out.append(Violation(decl.name, f"unknown kind {decl.kind!r}"))
        if decl.name in kinds:
            out.append(Violation(decl.name, "duplicate object name"))
        kinds[decl.name] = decl.kind
    for f in sorted(map(Fact._make, construction.facts)):  # also takes a closure's plain pairs
        for problem in _fact_problems(f.predicate, f.args, kinds)[0]:
            out.append(Violation(f.text, problem))
    return out
