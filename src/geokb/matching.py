"""Exact structural matching of one construction inside another.

Both sides are closed first, so matching compares semantic descriptions
and is invariant to logically equivalent inputs.  :func:`prepare` turns a
closed side into a :class:`MatchSide` once: closed facts as the
``(predicate, args)`` pairs :func:`~geokb.rules.closure` returns, and one
map from each kind to its objects in name order, each with its
per-predicate fact degrees.  A closure and a stored entry's closure read
back from its file both arrive as pairs, the one form of a fact.

A query side builds its plan once, on first use, and keeps it for every
target: the object order, most-constrained (highest degree) first; per
step the facts whose last argument gets mapped there, each with a getter
over the steps of its arguments; and the distinct needs (kind and needed
degrees), since look-alike objects share one.  Per target only two things
remain.  First the need filter, :func:`candidate_lists`: one pass over the
target's objects of each needed kind, keeping those of enough degree.  Then
backtracking over them, checking each scheduled fact by canonical
membership in the target's closed facts.  The search keeps the target
names it assigns in a list indexed by step, so a check reads its arguments
by position.  Relation nodes need no mapping: a fact is determined by its
arguments.

One plan and one filter serve two searches, which try the same
assignments in the same order and count the same steps:

- :func:`embed_closed` finds embeddings with witnesses, for confirmed
  geometric queries.  It reads the mapping back by query name only when it
  has found an embedding, and an :class:`Embedding` keeps as its witness
  the canonical pairs its checks computed, so confirming a match builds no
  fact object.
- :func:`embeds_closed` only answers whether one exists, for the duplicate
  gate, whose report names entries alone.  It keeps no fact keys and builds
  no embedding.  Its callers may share the filtered names of each need
  between searches into one target.

The witness search keeps its own loop, and the gate does not use it:
deriving the witness from the plan after a yes/no hit made confirmed
queries slower than recording it on the way, and nine in ten of the gate's
backward checks find an embedding, so building witnesses there made inserts
slower than the second loop does.

Worst-case cost is exponential, so each search carries a step budget,
counted once per tried assignment of a target object, and raises
:class:`~geokb.errors.SearchBudgetExceeded` when it runs out; callers that
cannot wait treat that as "no match" with a warning.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import attrgetter, itemgetter
from typing import Iterable, Mapping

from .errors import SearchBudgetExceeded
from .model import CANONICAL_ARGS, Construction, FactSet
from .rules import RuleSet, closure

DEFAULT_BUDGET = 1_000_000


@dataclass(frozen=True, slots=True)
class Embedding:
    """An injective, kind-preserving map taking the query into a target.

    ``mapping`` pairs query object names with target object names, sorted
    by query name.  ``facts`` is the witness: the target's closed facts
    covered by the mapped query facts (the part of the target to
    highlight), kept as the canonical ``(predicate, args)`` pairs the search
    checked, in the shape of :attr:`MatchSide.facts`.
    """

    mapping: tuple[tuple[str, str], ...]
    facts: FactSet

    def as_dict(self) -> dict[str, str]:
        return dict(self.mapping)


@dataclass(frozen=True, eq=False)
class MatchSide:
    """One closed construction made ready for matching (see :func:`prepare`).
    A stored entry keeps its side for life; a query side builds its
    :attr:`plan` once, on first use, and reuses it for every target."""

    facts: FactSet
    #: kind -> its objects sorted by name, each as (name, predicate -> closed
    #: facts naming the object); an isolated object has empty degrees
    by_kind: Mapping[str, tuple[tuple[str, Mapping[str, int]], ...]]

    @cached_property
    def plan(self) -> tuple[tuple[str, ...], tuple[tuple, ...], tuple[tuple, ...], tuple[int, ...]]:
        """The side as a query: object order (highest degree first, then by
        name); per step the facts to check as (predicate, getter of their
        arguments' positions, canonicaliser); the distinct needs (kind,
        needed degrees), since look-alike objects share one filter; and per
        step the index of its need."""
        ranked = sorted(
            (-sum(degrees.values()), name, kind, tuple(sorted(degrees.items())))
            for kind, named in self.by_kind.items() for name, degrees in named
        )
        order = tuple(name for _, name, _, _ in ranked)
        position = {name: i for i, name in enumerate(order)}
        schedule: list[list] = [[] for _ in order]
        for predicate, args in self.facts:
            # every predicate takes two or more arguments, so the getter gives a tuple
            schedule[max(position[a] for a in args)].append(
                (predicate, itemgetter(*(position[a] for a in args)), CANONICAL_ARGS.get(predicate))
            )
        needs: dict[tuple, int] = {}  # (kind, needed degrees) -> its index
        need_of = tuple(needs.setdefault((kind, needed), len(needs)) for _, _, kind, needed in ranked)
        return order, tuple(map(tuple, schedule)), tuple(needs), need_of


def prepare(kinds: Mapping[str, str], closed: Iterable[tuple[str, tuple[str, ...]]]) -> MatchSide:
    """The matching record of a construction's kinds and closed facts, the
    facts given as ``(predicate, args)`` pairs."""
    facts = frozenset((sys.intern(predicate), args) for predicate, args in closed)
    degrees: dict[str, dict[str, int]] = {name: {} for name in kinds}
    for predicate, args in facts:
        # a fact counts once per object it names: only a repeat needs the set
        for name in args if len(args) == 2 and args[0] != args[1] else set(args):
            counts = degrees[name]
            counts[predicate] = counts.get(predicate, 0) + 1
    by_kind: dict[str, list] = {}
    for name in sorted(kinds):
        by_kind.setdefault(sys.intern(kinds[name]), []).append((name, degrees[name]))
    return MatchSide(facts, {kind: tuple(named) for kind, named in by_kind.items()})


def candidate_lists(
    query: MatchSide, target: MatchSide, fitting: dict[tuple, list[str]] | None = None
) -> list[list[str]] | None:
    """Per step of the query's plan, the target names it may take: those of
    its need's kind whose degree reaches the need's for every predicate it
    names, in sorted order; None when some need fits no name.  ``fitting``
    maps each need already filtered over this target to its names; it is
    filled in as needs are met, so searches that share it for one target
    filter each need once."""
    _, _, needs, need_of = query.plan
    if fitting is None:
        fitting = {}
    options: list[list[str]] = []
    for need in needs:
        names = fitting.get(need)
        if names is None:
            kind, needed = need
            names = fitting[need] = []
            for tname, degree in target.by_kind.get(kind, ()):
                for predicate, n in needed:
                    if degree.get(predicate, 0) < n:
                        break
                else:
                    names.append(tname)
        if not names:
            return None
        options.append(names)
    return [options[k] for k in need_of]


def _budget_exceeded(budget: int) -> SearchBudgetExceeded:
    return SearchBudgetExceeded(f"embedding search exceeded its budget of {budget} steps")


def embeds_closed(
    query: MatchSide,
    target: MatchSide,
    fitting: dict[tuple, list[str]] | None = None,
    *,
    budget: int = DEFAULT_BUDGET,
) -> bool:
    """Whether the query embeds into the target: the search of
    :func:`embed_closed` with limit 1, in the same order and under the same
    budget, but keeping no witness.  ``fitting`` holds the candidate lists
    shared by searches into this target; see :func:`candidate_lists`."""
    candidates = candidate_lists(query, target, fitting)
    if candidates is None:
        return False
    order, schedule, _, _ = query.plan
    target_facts = target.facts
    depth = len(order)
    assigned = [""] * depth  # per step, its target name; read up to the current step only
    used: set[str] = set()  # the names of the steps before the current one
    steps = budget

    def extend(i: int) -> bool:
        nonlocal steps
        if i == depth:
            return True
        checks = schedule[i]
        for tname in candidates[i]:
            if tname in used:
                continue
            if steps <= 0:
                raise _budget_exceeded(budget)
            steps -= 1
            assigned[i] = tname
            for predicate, get_args, canonical in checks:
                mapped = get_args(assigned)
                if (predicate, mapped if canonical is None else canonical(mapped)) not in target_facts:
                    break
            else:
                used.add(tname)
                if extend(i + 1):
                    return True
                used.discard(tname)
        return False

    try:
        return extend(0)
    finally:
        del extend  # as in embed_closed: no reference cycle outlives the call


def embed_closed(
    query: MatchSide, target: MatchSide, limit: int, *, budget: int = DEFAULT_BUDGET
) -> list[Embedding]:
    """Embeddings between prepared sides; see :func:`find_embeddings`."""
    if limit < 1:
        raise ValueError(f"limit must be positive, got {limit!r}")

    candidates = candidate_lists(query, target)
    if candidates is None:
        return []
    order, schedule, _, _ = query.plan
    target_facts = target.facts

    found: list[Embedding] = []
    assigned = [""] * len(order)  # per step, its target name; read up to the current step only
    used: set[str] = set()  # the names of the steps before the current one
    matched: list = [()] * len(order)  # per step, the facts it checked
    steps = budget

    def extend(i: int) -> bool:
        nonlocal steps
        if i == len(order):
            witness = frozenset(chain.from_iterable(matched))
            found.append(Embedding(tuple(sorted(zip(order, assigned))), witness))
            return len(found) == limit
        checks = schedule[i]
        for tname in candidates[i]:
            if tname in used:
                continue
            if steps <= 0:
                raise _budget_exceeded(budget)
            steps -= 1
            assigned[i] = tname
            keys = []
            for predicate, get_args, canonical in checks:
                mapped = get_args(assigned)
                key = (predicate, mapped if canonical is None else canonical(mapped))
                if key not in target_facts:
                    break
                keys.append(key)
            else:
                matched[i] = keys
                used.add(tname)
                if extend(i + 1):
                    return True
                used.discard(tname)
        return False

    try:
        extend(0)
    finally:
        # extend refers to itself through its closure; unbinding it breaks that
        # cycle, so the call's state is freed at once, not by the cyclic collector
        del extend
    found.sort(key=attrgetter("mapping"))
    return found


def find_embeddings(
    query: Construction,
    target: Construction,
    ruleset: RuleSet,
    limit: int,
    *,
    budget: int = DEFAULT_BUDGET,
) -> list[Embedding]:
    """Up to ``limit`` distinct embeddings of the closed query into the
    closed target, in lexicographic mapping order; empty iff none exist."""
    return embed_closed(
        prepare(query.kinds, closure(query, ruleset)),
        prepare(target.kinds, closure(target, ruleset)),
        limit,
        budget=budget,
    )


def is_subconstruction(
    query: Construction,
    target: Construction,
    ruleset: RuleSet,
    *,
    budget: int = DEFAULT_BUDGET,
) -> Embedding | None:
    """First embedding of the query into the target, or ``None``."""
    found = find_embeddings(query, target, ruleset, 1, budget=budget)
    return found[0] if found else None
