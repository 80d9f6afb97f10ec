"""Forward-chaining closure of a construction's fact set under Horn rules.

Rule format, one rule per line (blank lines and ``#`` lines are ignored):

    R1: incident(?p, ?l) :- line_through(?l, ?p, ?q).
    R4: parallel(?a, ?c) :- parallel(?a, ?b), parallel(?b, ?c), ?a != ?c.

An atom has the syntax of a fact (:func:`~geokb.model.split_atom` splits
both).  Variables are ``?`` followed by an identifier; every template
argument must be a variable.  Each head variable must occur in the body,
so the closure never invents objects, and with a finite predicate
vocabulary the fact universe is finite and the fixpoint computation
terminates.  Trailing ``?x != ?y`` constraints require the two variables
to be bound to distinct names (distinct names denote distinct objects).

Body atoms match stored facts modulo each predicate's argument symmetry,
which is what makes canonical storage of symmetric predicates sound: the
rule file needs no symmetry variants of its rules.

:func:`closure` is indexed semi-naive evaluation.  The symmetry variants of
each fact of a body predicate go once into an index keyed by (predicate,
position, value).  A round joins each rule once per body atom: that atom
takes the delta (the facts new in the previous round), and each other atom
probes the index on an argument already bound, reading only facts older
than the delta if it stands left of the delta atom.  So each derivation is
found once.  The index lives for one call.

A rule of R4's shape, over a binary predicate whose two arguments are
interchangeable, is not joined: it says that the predicate's facts between
distinct names are every pair of a class of names (an equivalence relation
without its diagonal).  Such a predicate is kept as classes instead, the
``eqrel`` relation of the Soufflé Datalog engine (Nappa, Zhao, Subotić and
Scholz, PACT 2019).  A new fact between two classes merges them and adds
their cross pairs as new facts, so the work grows with the output, not
with the triples of a class.  Other rules probe such a predicate through
the class of the bound name, not through the index.  The closure still
holds every pair.
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property, lru_cache
from importlib import resources
from operator import itemgetter

from .errors import ConstructionError, RuleError
from .model import (
    CANONICAL_ARGS, PREDICATES, SYMMETRY, Construction, FactPair, FactSet, argument_variants, normalize_fact,
    split_atom,
)

try:  # the interpreter's own SHA-256; importing hashlib loads OpenSSL, 3-4 MB resident
    from _sha256 import sha256
except ImportError:  # renamed _sha2 in CPython 3.12
    from hashlib import sha256

_VAR_RE = re.compile(r"\?([A-Za-z][A-Za-z0-9_]*)\Z")
_SIDE_RE = re.compile(r"(\?[A-Za-z][A-Za-z0-9_]*)\s*!=\s*(\?[A-Za-z][A-Za-z0-9_]*)\Z")


@dataclass(frozen=True)
class Atom:
    """A fact template: predicate plus variable names (without the '?')."""

    predicate: str
    args: tuple[str, ...]

    @property
    def text(self) -> str:
        return f"{self.predicate}({', '.join('?' + a for a in self.args)})"


@dataclass(frozen=True)
class Rule:
    name: str
    head: Atom
    body: tuple[Atom, ...]
    distinct: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class RuleSet:
    rules: tuple[Rule, ...]

    def __len__(self) -> int:
        return len(self.rules)

    @cached_property
    def digest(self) -> str:
        """SHA-256 of the rules' heads, body atoms and distinctness pairs.
        Rule names and rule order change no closure, so they are left out."""
        rendered = sorted(
            " ".join([r.head.text, ":-", *(a.text for a in r.body), *(f"?{x} != ?{y}" for x, y in r.distinct)])
            for r in self.rules
        )
        return sha256("\n".join(rendered).encode("utf-8")).hexdigest()

    @cached_property
    def transitive(self) -> frozenset[str]:
        """The predicates that one of the rules makes transitive (see
        :func:`_transitive_predicate`); :func:`closure` keeps them as classes."""
        return frozenset(filter(None, map(_transitive_predicate, self.rules)))

    @cached_property
    def _plans(self) -> tuple[tuple, ...]:
        """Per rule and body atom: the atom's predicate and :func:`_plan`'s
        result.  Transitivity rules have none: the classes stand for them."""
        return tuple(
            (a.predicate, *_plan(r, i, self.transitive))
            for r in self.rules if _transitive_predicate(r) is None
            for i, a in enumerate(r.body)
        )


def _split_top_level(text: str, lineno: int) -> list[str]:
    """Split on commas that are not inside parentheses."""
    parts: list[str] = []
    nesting = 0
    current: list[str] = []
    for ch in text:
        if ch == "(":
            nesting += 1
        elif ch == ")":
            nesting -= 1
            if nesting < 0:
                raise RuleError("unbalanced parentheses", line=lineno)
        if ch == "," and nesting == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    if nesting != 0:
        raise RuleError("unbalanced parentheses", line=lineno)
    parts.append("".join(current))
    return [p.strip() for p in parts]


def _parse_atom(text: str, lineno: int, var_kinds: dict[str, str]) -> Atom:
    atom = split_atom(text)
    if atom is None:
        raise RuleError(f"expected 'predicate(?x, ...)', got {text!r}", line=lineno)
    predicate, raw_args = atom
    spec = PREDICATES.get(predicate)
    if spec is None:
        raise RuleError(f"unknown predicate {predicate!r}", line=lineno)
    if len(raw_args) != len(spec):
        raise RuleError(
            f"{predicate} expects {len(spec)} arguments, got {len(raw_args)}", line=lineno
        )
    names = []
    for raw, kind in zip(raw_args, spec):
        vm = _VAR_RE.match(raw)
        if vm is None:
            raise RuleError(f"arguments must be variables, got {raw!r}", line=lineno)
        var = vm.group(1)
        known = var_kinds.get(var)
        if known is not None and known != kind:
            raise RuleError(
                f"variable ?{var} used both as {known} and as {kind}", line=lineno
            )
        var_kinds[var] = kind
        names.append(var)
    return Atom(predicate, tuple(names))


def load_rules(text: str) -> RuleSet:
    """Parse rule-format text into a :class:`RuleSet`.

    Raises :class:`RuleError` for syntax errors, unknown predicates, arity
    mismatches, inconsistent variable kinds, heads with variables missing
    from the body, unbound side-condition variables and duplicate names.
    """
    rules: list[Rule] = []
    seen_names: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not line.endswith("."):
            raise RuleError("rule must end with '.'", line=lineno)
        line = line[:-1].strip()
        colon = line.find(":")
        if colon <= 0 or line[colon : colon + 2] == ":-":
            raise RuleError("expected '<name>: <head> :- <body>.'", line=lineno)
        name, rest = line[:colon].strip(), line[colon + 1 :]
        if name in seen_names:
            raise RuleError(f"duplicate rule name {name!r}", line=lineno)
        head_text, sep, body_text = rest.partition(":-")
        if not sep:
            raise RuleError("missing ':-' between head and body", line=lineno)
        if not body_text.strip():
            raise RuleError("rule body must contain at least one atom", line=lineno)
        var_kinds: dict[str, str] = {}
        head = _parse_atom(head_text.strip(), lineno, var_kinds)
        body: list[Atom] = []
        distinct: list[tuple[str, str]] = []
        for part in _split_top_level(body_text.strip(), lineno):
            sm = _SIDE_RE.match(part)
            if sm is not None:
                distinct.append((sm.group(1)[1:], sm.group(2)[1:]))
            else:
                body.append(_parse_atom(part, lineno, var_kinds))
        if not body:
            raise RuleError("rule body must contain at least one atom", line=lineno)
        body_vars = {v for atom in body for v in atom.args}
        for v in head.args:
            if v not in body_vars:
                raise RuleError(f"head variable ?{v} does not occur in the body", line=lineno)
        for x, y in distinct:
            for v in (x, y):
                if v not in body_vars:
                    raise RuleError(
                        f"side-condition variable ?{v} does not occur in the body", line=lineno
                    )
        seen_names.add(name)
        rules.append(Rule(name, head, tuple(body), tuple(distinct)))
    return RuleSet(tuple(rules))


@lru_cache(maxsize=1)
def default_rules() -> RuleSet:
    """The rule set shipped with the package (``geokb/data/default.rules``)."""
    text = resources.files("geokb").joinpath("data/default.rules").read_text("utf-8")
    return load_rules(text)


def _transitive_predicate(rule: Rule) -> str | None:
    """``p`` if ``rule`` is ``p(?a, ?c) :- p(?a, ?b), p(?b, ?c), ?a != ?c``
    for a binary ``p`` with interchangeable arguments, up to the order of
    the body atoms and of the arguments in each atom and condition."""
    p = rule.head.predicate
    if SYMMETRY.get(p) != (0, 1) or len(PREDICATES[p]) != 2 or any(atom.predicate != p for atom in rule.body):
        return None
    a, c = rule.head.args
    middle = {var for atom in rule.body for var in atom.args} - {a, c}
    if a == c or len(middle) != 1 or len(rule.body) != 2:
        return None
    b = middle.pop()
    if {frozenset(atom.args) for atom in rule.body} != {frozenset((a, b)), frozenset((b, c))}:
        return None
    return p if set(map(frozenset, rule.distinct)) == {frozenset((a, c))} else None


def _plan(rule: Rule, delta_pos: int, transitive: frozenset[str]) -> tuple:
    """Join steps for ``rule``, body atom ``delta_pos`` first: (predicate,
    probe position and slot or None to scan, (position, slot) pairs to
    assign, pairs to check, older facts only, probe by class).  Also the
    slot count and the head: (predicate, slot getter, canonicaliser, slot
    pairs that differ)."""
    slots: dict[str, int] = {}
    steps = []
    for i in [delta_pos] + [i for i in range(len(rule.body)) if i != delta_pos]:
        args = rule.body[i].args
        bound = set(slots)
        probe = next((pos for pos, var in enumerate(args) if var in bound), None)
        for var in args:
            slots.setdefault(var, len(slots))
        first = [var not in bound and args.index(var) == pos for pos, var in enumerate(args)]
        steps.append((
            rule.body[i].predicate,
            probe,
            None if probe is None else slots[args[probe]],
            tuple((pos, slots[var]) for pos, var in enumerate(args) if first[pos]),
            tuple((pos, slots[var]) for pos, var in enumerate(args) if not first[pos] and pos != probe),
            i < delta_pos,
            probe is not None and rule.body[i].predicate in transitive,
        ))
    head, getter = rule.head, itemgetter(*(slots[v] for v in rule.head.args))
    distinct = tuple((slots[x], slots[y]) for x, y in rule.distinct)
    return tuple(steps), len(slots), (head.predicate, getter, CANONICAL_ARGS.get(head.predicate), distinct)


def _join_classes(members: dict[str, list[str]], x: str, y: str) -> list[tuple[str, str]]:
    """Merge the classes of ``x`` and ``y`` (``members`` maps a name to the
    list its whole class shares; an absent name is a class of its own) and
    return the pairs of names this puts in one class, each sorted."""
    big, small = members.setdefault(x, [x]), members.setdefault(y, [y])
    if big is small:
        return []
    if len(big) < len(small):
        big, small = small, big
    pairs = [(m, n) if m < n else (n, m) for m in small for n in big]
    big.extend(small)
    for m in small:
        members[m] = big
    return pairs


def closure(construction: Construction, ruleset: RuleSet) -> FactSet:
    """Least fact set containing the construction's facts and closed under
    the rules, by indexed semi-naive evaluation with a class per group of
    names of a transitive predicate (see the module docstring).
    The result does not depend on rule order or fact iteration order, and
    every returned fact is a canonical ``(predicate, args)`` pair.
    """
    plans = ruleset._plans
    body_predicates = {plan[0] for plan in plans}
    classes: dict[str, dict[str, list[str]]] = {predicate: {} for predicate in ruleset.transitive}
    index: dict[tuple, list[tuple[int, tuple[str, ...]]]] = defaultdict(list)
    known: set[tuple[str, tuple[str, ...]]] = set()
    fresh = {(predicate, CANONICAL_ARGS[predicate](args) if predicate in CANONICAL_ARGS else args)
             for predicate, args in construction.facts}
    current = 0

    def related(predicate, pos, name):
        """Index entries for the facts of class predicate ``predicate`` with
        ``name`` at ``pos``: the rest of its class, and ``name`` itself if
        another rule derived that fact.  Born in round 0, the whole class is
        read even where only older facts are asked for; a derivation found
        twice is found in ``known`` the second time."""
        others = [m for m in classes[predicate].get(name, ()) if m != name]
        if (predicate, (name, name)) in known:
            others.append(name)
        return [(0, (name, m)) for m in others] if pos == 0 else [(0, (m, name)) for m in others]

    def join(steps, k, candidates, binding, head):
        _, _, _, assign, check, older, _ = steps[k]
        nxt = steps[k + 1] if k + 1 < len(steps) else None
        for born, args in candidates:
            if older and born == current:
                break  # index lists are in round order: the rest is the delta
            for pos, slot in assign:
                binding[slot] = args[pos]
            if check and any(args[pos] != binding[slot] for pos, slot in check):
                continue
            if nxt is not None:
                if nxt[6]:
                    following = related(nxt[0], nxt[1], binding[nxt[2]])
                else:
                    key = (nxt[0],) if nxt[1] is None else (nxt[0], nxt[1], binding[nxt[2]])
                    following = index.get(key, ())
                if following:
                    join(steps, k + 1, following, binding, head)
                continue
            predicate, head_args, canonical, distinct = head
            if distinct and any(binding[x] == binding[y] for x, y in distinct):
                continue
            derived = head_args(binding)
            derived = (predicate, derived if canonical is None else canonical(derived))
            if derived not in known:
                fresh.add(derived)

    while fresh:
        current += 1
        if classes:  # a fact between two names of a class predicate stands for the pairs it joins
            pending, fresh = fresh, set()
            for fact in pending:
                predicate, args = fact
                if predicate in classes and args[0] != args[1]:
                    fresh.update((predicate, pair) for pair in _join_classes(classes[predicate], *args))
                else:
                    fresh.add(fact)
        known |= fresh
        delta: dict[str, list[tuple[int, tuple[str, ...]]]] = defaultdict(list)
        for predicate, args in fresh:
            if predicate in body_predicates:
                # a pair of a class has its two orders; argument_variants costs more
                by_class = predicate in classes and args[0] != args[1]
                for variant in (args, args[::-1]) if by_class else argument_variants(predicate, args):
                    entry = (current, variant)
                    delta[predicate].append(entry)
                    index[(predicate,)].append(entry)
                    if predicate not in classes:  # a class is probed by name instead
                        for pos, name in enumerate(variant):
                            index[(predicate, pos, name)].append(entry)
        fresh = set()
        for predicate, steps, slots, head in plans:
            if predicate in delta:
                join(steps, 0, delta[predicate], [""] * slots, head)
    del join  # it refers to itself; unbound, the index is freed without the cyclic collector
    return frozenset(known)


def entails(construction: Construction, ruleset: RuleSet, f: FactPair) -> bool:
    """True iff the canonical form of the ``(predicate, args)`` pair ``f`` is in the closure."""
    for arg in f[1]:
        if arg not in construction.kinds:
            raise ConstructionError(f"fact references undeclared object {arg!r}")
    return normalize_fact(f) in closure(construction, ruleset)
