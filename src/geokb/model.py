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

A fact is a ``(predicate, args)`` pair from parse to answer; only a side
prepared for matching keeps its facts grouped by predicate (see
:class:`~geokb.matching.MatchSide`).  Parsing is
the one check of a construction, and it normalizes facts so that logically
equivalent statements compare equal: ``parallel(b, a)`` is stored as
``parallel(a, b)``.  Distinct names are assumed to denote distinct
objects, so degenerate statements such as ``parallel(a, a)`` or
``collinear(A, A, B)`` are rejected outright.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import permutations, product
from typing import Callable

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
_ATOM_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\s*\(\s*(.*?)\s*\)\s*\Z")
#: one fact: a predicate and its argument names
FactPair = tuple[str, tuple[str, ...]]
#: facts as ``(predicate, args)`` pairs, the shape a closure returns
FactSet = frozenset[FactPair]


@dataclass(frozen=True, order=True)
class ObjectDecl:
    """A named geometric object of one of the three kinds."""

    name: str
    kind: str


def fact_text(predicate: str, args: tuple[str, ...]) -> str:
    """The text form of a fact, ``predicate(a, b, ...)``."""
    return f"{predicate}({', '.join(args)})"


def fact(predicate: str, *args: str) -> FactPair:
    """Build a fact already in canonical argument order."""
    return normalize_fact((predicate, args))


def split_atom(text: str) -> tuple[str, tuple[str, ...]] | None:
    """``name(a, b, ...)`` as its name and stripped argument texts, or None:
    the syntax of a fact and of a rule atom, whose parsers check the rest."""
    m = _ATOM_RE.match(text)
    if m is None:
        return None
    name, argtext = m.groups()
    return name, tuple(t.strip() for t in argtext.split(",")) if argtext else ()


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


def normalize_fact(f: FactPair) -> FactPair:
    """The least argument order in the fact's symmetry orbit.  Idempotent.

    ``line_through(a, B, A)`` becomes ``line_through(a, A, B)``: the
    trailing point pair is sorted, as :data:`SYMMETRY` says.
    """
    predicate, args = f
    canonical = CANONICAL_ARGS.get(predicate)
    return f if canonical is None else (predicate, canonical(args))


@dataclass(frozen=True)
class Construction:
    """A set of declared objects plus a set of canonical facts over them."""

    objects: frozenset[ObjectDecl]
    facts: FactSet

    @cached_property
    def kinds(self) -> dict[str, str]:
        """Object name -> kind (later duplicates of an invalid value win)."""
        return {o.name: o.kind for o in sorted(self.objects)}


EMPTY_CONSTRUCTION = Construction(frozenset(), frozenset())


def _parse_fact(line: str, kinds: dict[str, str], lineno: int) -> FactPair:
    """One fact line over objects of the given ``kinds`` as its canonical
    pair; a :class:`ConstructionError` names the first problem found."""
    atom = split_atom(line)
    if atom is None:
        raise ConstructionError(f"expected 'predicate(name, ...)', got {line!r}", line=lineno)
    predicate, args = atom
    for arg in args:
        if not _NAME_RE.match(arg):
            raise ConstructionError(f"bad object name {arg!r}", line=lineno)
    spec = PREDICATES.get(predicate)
    problem = None
    if spec is None:
        problem = "unknown predicate"
    elif len(args) != len(spec):
        problem = f"expects {len(spec)} arguments, got {len(args)}"
    else:
        for i, (arg, kind) in enumerate(zip(args, spec)):
            declared = kinds.get(arg)
            if declared != kind:
                problem = (f"undeclared object {arg!r}" if declared is None
                           else f"argument {i + 1} must be a {kind}, got {declared} {arg!r}")
                break
        else:
            if predicate in DISTINCT_ARG_PREDICATES and len(set(args)) != len(args):
                problem = "repeated argument"
            elif predicate == "equidistant" and (args[0] == args[1] or args[2] == args[3]):
                problem = "repeated point within a distance pair"
    if problem is not None:
        raise ConstructionError(f"{fact_text(predicate, args)}: {problem}", line=lineno)
    canonical = CANONICAL_ARGS.get(predicate)
    return predicate, args if canonical is None else canonical(args)


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
