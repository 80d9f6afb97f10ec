"""Exact structural matching of one construction inside another.

Both sides are closed first, so matching compares semantic descriptions
and is invariant to logically equivalent inputs.  :func:`prepare` turns a
closed side into a :class:`MatchSide` once: per predicate, in
:data:`~geokb.model.PREDICATES` order, the argument tuples of its closed
facts as one frozenset; and per kind, in :data:`~geokb.model.KINDS`
order, two parallel tuples: its object names in name order and their
degree vectors (per predicate, the closed facts naming the object).  A
closure and a stored entry's closure read back from its file both arrive
as ``(predicate, args)`` pairs, the one form of a fact outside a side.
Sides are equal when their facts and per-kind tuples are.  Sides passed
through one hash-cons table by :func:`share` are one object per distinct
side, and hold one object per distinct name, argument tuple, fact set,
degree vector, per-kind tuple and per-kind pair.

A query side builds its plan once, on first use, and keeps it for every
target: the object order, most-constrained (highest degree) first; per
step the facts whose last argument gets mapped there, each with its
predicate's index and a getter over the steps of its arguments; the
distinct needs (a kind's index and the ``(position, count)`` pairs of the
nonzero entries of a degree vector), since look-alike objects share one;
and the kinds and predicates the query uses.  Per target only two things
remain, both in :func:`embed_closed`.  First the need filter: one pass
over the target's objects of each needed kind, read by its index, keeping
those whose vector reaches every needed count at its position.  Then
backtracking over them, checking each scheduled fact by canonical
membership in the target's fact set of its predicate.  The search keeps
the target names it assigns in a list indexed by step, so a check reads
its arguments by position.  Relation nodes need no mapping: a fact is
determined by its arguments.

One loop, :func:`embed_closed`, serves confirmed geometric queries,
:func:`find_embeddings` and the duplicate gate, in either direction.  It
stops at its limit and returns each embedding as the search found it: the
target names its plan steps took, in step order, with no witness built.
An :class:`Embedding` reads its mapping and witness from those names only
when asked, since the gate's report and a query's answer name entries
alone.  Callers may share the filtered names of each need between searches
into one target.  A search reads of its target only the :func:`view` its
query has of it: the names of the query's kinds and the fact sets of the
query's predicates.  So its outcome depends only on its query, that view,
its limit and its budget, and a caller that meets one view in several
targets may settle it once and reuse the outcome.  Checking given target
names is linear where finding them is the exponential part, so
:func:`holds` tells whether names an embedding took elsewhere embed the
query in a target too; it reads only the view as well, and a caller that
carries the last embedding it found checks a new view with it before it
searches.

Worst-case cost is exponential, so each search carries a step budget,
counted once per tried assignment of a target object, and raises
:class:`~geokb.errors.SearchBudgetExceeded` when it runs out; callers that
cannot wait treat that as "no match" with a warning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress
from operator import attrgetter, itemgetter
from typing import Callable, Iterable, Mapping

from .errors import SearchBudgetExceeded
from .model import CANONICAL_ARGS, KINDS, PREDICATES, Construction, FactSet
from .rules import RuleSet, closure

DEFAULT_BUDGET = 1_000_000


#: the argument tuples of a side's closed facts, one frozenset per
#: predicate in :data:`~geokb.model.PREDICATES` order
Facts = tuple[frozenset[tuple[str, ...]], ...]

#: predicate index -> its name
_PREDICATE_NAMES = tuple(PREDICATES)
#: predicate -> its index in :attr:`MatchSide.facts` and in a degree vector
_POSITION = {predicate: i for i, predicate in enumerate(PREDICATES)}
#: predicate index -> the function putting its arguments in canonical order, or None
_CANONICAL = tuple(CANONICAL_ARGS.get(predicate) for predicate in PREDICATES)
#: the fact set of a predicate a side has no facts of
_NO_ARGS: frozenset[tuple[str, ...]] = frozenset()
#: kind -> its index in :attr:`MatchSide.by_kind`
_KIND_INDEX = {kind: i for i, kind in enumerate(KINDS)}


@dataclass(frozen=True)
class MatchSide:
    """One closed construction made ready for matching (see :func:`prepare`).
    A stored entry keeps its side for life; a query side builds its
    :attr:`plan` once, on first use, and reuses it for every target.  Its
    equality and hash are the dataclass's own, over its facts and
    ``by_kind``, so a hash-cons table keys a side by the two objects it
    holds (see :func:`share`)."""

    #: per predicate, in :data:`~geokb.model.PREDICATES` order, the argument
    #: tuples of its closed facts, in canonical order
    facts: Facts
    #: per kind, in :data:`~geokb.model.KINDS` order: its object names
    #: sorted and each name's degree vector, two parallel tuples.  A degree
    #: vector holds, per predicate in :data:`~geokb.model.PREDICATES` order,
    #: the closed facts naming the object; an isolated object's vector is
    #: all zeros
    by_kind: tuple[tuple[tuple[str, ...], tuple[tuple[int, ...], ...]], ...]

    @cached_property
    def plan(self) -> tuple[tuple[str, ...], tuple[tuple, ...], tuple[tuple, ...], tuple[int, ...], tuple, Callable]:
        """The side as a query: object order (highest degree first, then by
        name); per step the facts to check as (predicate index, getter of
        their arguments' positions, canonicaliser); the distinct needs (a
        kind's index in ``by_kind``, the ``(position, count)`` pairs of its
        degree vector's nonzero counts), since look-alike objects share one
        filter; per step the index of its need; the indices of the kinds it
        has objects of; and a getter of a target's fact sets of the
        predicates it has facts of, by their indices.  Those kinds and fact
        sets are all of a target that a search reads (see :func:`view`)."""
        ranked = sorted(
            (-sum(degrees), name, k, tuple(compress(enumerate(degrees), degrees)))
            for k, (names, vectors) in enumerate(self.by_kind) for name, degrees in zip(names, vectors)
        )
        order = tuple(name for _, name, _, _ in ranked)
        position = {name: i for i, name in enumerate(order)}
        schedule: list[list] = [[] for _ in order]
        for i, group in enumerate(self.facts):
            for args in group:
                # every predicate takes two or more arguments, so the getter gives a tuple
                schedule[max(position[a] for a in args)].append(
                    (i, itemgetter(*(position[a] for a in args)), _CANONICAL[i])
                )
        needs: dict[tuple, int] = {}  # (kind index, needed counts) -> its index
        need_of = tuple(needs.setdefault((k, needed), len(needs)) for _, _, k, needed in ranked)
        kinds = tuple(k for k, (names, _) in enumerate(self.by_kind) if names)
        predicates = [i for i, group in enumerate(self.facts) if group]
        facts_of = itemgetter(*predicates) if predicates else _no_facts
        return order, tuple(map(tuple, schedule)), tuple(needs), need_of, kinds, facts_of


def _no_facts(facts: Facts) -> tuple:
    return ()


def view(query: MatchSide, target: MatchSide) -> tuple:
    """All that a search of the query reads of the target: its names of
    each kind the query has objects of, then its fact sets of the
    predicates the query has facts of (one set, or a tuple of them, as the
    plan's getter gives them).  The need filter reads a degree vector only
    at the query's predicates, where those fact sets settle it, and the
    checks read only those sets.  So targets with equal views give a search
    of the query equal candidate lists, equal steps and an equal result,
    the target names it assigns.  Of a shared side, the view holds the
    hash-cons table's objects, so equal views compare by identity."""
    _, _, _, _, kinds, facts_of = query.plan
    by_kind = target.by_kind
    return (*[by_kind[k][0] for k in kinds], facts_of(target.facts))


def holds(query: MatchSide, target: MatchSide, targets: tuple[str, ...]) -> bool:
    """Whether the target names ``targets``, one per step of the query's
    plan as an embedding of it gives them, embed the query in the target:
    each is an object of its step's kind in the target, and each scheduled
    fact's image, in canonical order, is in the target's fact set of its
    predicate.  Names taken from an embedding are distinct, so the map is
    injective.  It reads only the query's :func:`view` of the target, so
    targets with equal views give equal outcomes."""
    _, schedule, needs, need_of, _, _ = query.plan
    by_kind, target_facts = target.by_kind, target.facts
    for tname, need, checks in zip(targets, need_of, schedule):
        if tname not in by_kind[needs[need][0]][0]:
            return False
        for p, get_args, canonical in checks:
            mapped = get_args(targets)
            if (mapped if canonical is None else canonical(mapped)) not in target_facts[p]:
                return False
    return True


def prepare(kinds: Mapping[str, str], closed: Iterable[tuple[str, tuple[str, ...]]]) -> MatchSide:
    """The matching record of a construction's kinds and closed facts, the
    facts given as ``(predicate, args)`` pairs."""
    groups: dict[int, set[tuple[str, ...]]] = {}  # predicate index -> its argument tuples
    for predicate, args in closed:
        i = _POSITION[predicate]
        group = groups.get(i)
        if group is None:
            groups[i] = {args}
        else:
            group.add(args)
    facts = [_NO_ARGS] * len(_POSITION)
    counts = {name: [0] * len(_POSITION) for name in kinds}
    for i, group in groups.items():
        facts[i] = frozenset(group)
        for args in group:
            # a fact counts once per object it names, even one it repeats
            for name in set(args):
                counts[name][i] += 1
    by_kind: list[tuple[list[str], list[tuple[int, ...]]]] = [([], []) for _ in KINDS]
    for name, kind in sorted(kinds.items()):
        names, vectors = by_kind[_KIND_INDEX[kind]]
        names.append(name)
        vectors.append(tuple(counts[name]))
    return MatchSide(tuple(facts), tuple([(tuple(names), tuple(vectors)) for names, vectors in by_kind]))


def _kept(table: dict, value):
    """The table's object equal to the value; a value it lacks is added, a
    tuple or frozenset once rebuilt from its members' objects, kept first."""
    found = table.get(value)
    if found is None:
        if isinstance(value, (tuple, frozenset)):
            value = type(value)([_kept(table, member) for member in value])
        found = table[value] = value
    return found


def share(side: MatchSide, table: dict) -> MatchSide:
    """The table's side equal to this one; a side it lacks is rebuilt from
    its facts and per-kind pairs as :func:`_kept` returns them, and added.
    So sides shared through one table are one object per distinct side,
    with one :attr:`MatchSide.plan`, and hold one object per distinct value.
    ``by_kind`` itself stays out: distinct sides nearly always differ in it."""
    found = table.get(side)
    if found is None:
        found = MatchSide(_kept(table, side.facts), tuple([_kept(table, pair) for pair in side.by_kind]))
        table[found] = found
    return found


@dataclass(frozen=True, eq=False, slots=True)
class Embedding:
    """An injective, kind-preserving map taking the query into a target,
    kept as the search found it: the query side and, per step of its plan,
    the target name that step took.

    ``mapping`` pairs query object names with target object names, sorted
    by query name.  ``facts`` is the witness: the target's closed facts
    covered by the mapped query facts (the part of the target to
    highlight), as the canonical ``(predicate, args)`` pairs the search
    checked.  Both are derived on each read.  Two embeddings are equal when their mappings and witnesses
    are.
    """

    query: MatchSide = field(repr=False)
    targets: tuple[str, ...]

    @property
    def mapping(self) -> tuple[tuple[str, str], ...]:
        return tuple(sorted(zip(self.query.plan[0], self.targets)))

    @property
    def facts(self) -> FactSet:
        targets = self.targets
        return frozenset(
            (_PREDICATE_NAMES[i], mapped if canonical is None else canonical(mapped))
            for checks in self.query.plan[1]
            for i, get_args, canonical in checks
            for mapped in (get_args(targets),)
        )

    def as_dict(self) -> dict[str, str]:
        return dict(self.mapping)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Embedding):
            return NotImplemented
        return self.mapping == other.mapping and self.facts == other.facts

    def __hash__(self) -> int:
        return hash(self.mapping)


def _budget_exceeded(budget: int) -> SearchBudgetExceeded:
    return SearchBudgetExceeded(f"embedding search exceeded its budget of {budget} steps")


def embed_closed(
    query: MatchSide,
    target: MatchSide,
    limit: int,
    fitting: dict[tuple, list[str]] | None = None,
    *,
    budget: int = DEFAULT_BUDGET,
) -> list[tuple[str, ...]]:
    """Up to ``limit`` embeddings of the query into the target, in search
    order, each as the target names the query's plan steps take (wrap one
    in an :class:`Embedding` to read it); empty iff none exist.  A step
    may take the target names of its need's kind whose degree vector
    reaches each needed count at its position, in sorted order.
    ``fitting`` maps each need already filtered over this target to those
    names and is filled in as needs are met, so searches into one target
    that share it filter each need once; it must not be shared between
    targets."""
    if limit < 1:
        raise ValueError(f"limit must be positive, got {limit!r}")

    order, schedule, needs, need_of, _, _ = query.plan
    if fitting is None:
        fitting = {}
    options: list[list[str]] = []
    for need in needs:
        names = fitting.get(need)
        if names is None:
            k, needed = need
            names = fitting[need] = []
            for tname, degrees in zip(*target.by_kind[k]):
                for i, n in needed:
                    if degrees[i] < n:
                        break
                else:
                    names.append(tname)
        if not names:
            return []
        options.append(names)
    candidates = [options[k] for k in need_of]
    target_facts = target.facts
    depth = len(order)
    found: list[tuple[str, ...]] = []
    assigned = [""] * depth  # per step, its target name; read up to the current step only
    used: set[str] = set()  # the names of the steps before the current one
    steps = budget

    def extend(i: int) -> bool:
        nonlocal steps
        if i == depth:
            found.append(tuple(assigned))
            return len(found) == limit
        checks = schedule[i]
        for tname in candidates[i]:
            if tname in used:
                continue
            if steps <= 0:
                raise _budget_exceeded(budget)
            steps -= 1
            assigned[i] = tname
            for p, get_args, canonical in checks:
                mapped = get_args(assigned)
                if (mapped if canonical is None else canonical(mapped)) not in target_facts[p]:
                    break
            else:
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
    closed target, the first the search finds, in lexicographic mapping
    order; empty iff none exist."""
    side = prepare(query.kinds, closure(query, ruleset))
    found = embed_closed(side, prepare(target.kinds, closure(target, ruleset)), limit, budget=budget)
    return sorted([Embedding(side, targets) for targets in found], key=attrgetter("mapping"))


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
