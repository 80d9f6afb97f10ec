"""Independent brute-force oracles the fast implementations are checked against."""

from __future__ import annotations

import json
import re
from collections import Counter
from itertools import combinations, permutations, product

from geokb.matching import MatchSide
from geokb.model import Construction, FactPair, FactSet, KINDS, PREDICATES, normalize_fact
from geokb.protocol import QueryResponse, response_to_document
from geokb.repository import ProblemEntry, Repository
from geokb.rules import RuleSet, closure


def orbit(f: FactPair) -> set[FactPair]:
    """All facts stating the same thing, enumerated straight from the
    symmetry definitions (kept separate from the implementation)."""
    p, a = f
    if p in ("parallel", "perpendicular"):
        return {(p, a), (p, (a[1], a[0]))}
    if p in ("collinear", "concurrent"):
        return {(p, perm) for perm in permutations(a)}
    if p in ("line_through", "midpoint"):
        return {(p, a), (p, (a[0], a[2], a[1]))}
    if p == "equidistant":
        out = set()
        for first in ((a[0], a[1]), (a[1], a[0])):
            for second in ((a[2], a[3]), (a[3], a[2])):
                out.add((p, first + second))
                out.add((p, second + first))
        return out
    return {(p, a)}


def names_of_kind(construction: Construction, kind: str) -> list[str]:
    return sorted(o.name for o in construction.objects if o.kind == kind)


def brute_canonical(f: FactPair) -> FactPair:
    """Lexicographic minimum over the symmetry orbit."""
    return min(orbit(f), key=lambda g: g[1])


def naive_closure(construction: Construction, ruleset: RuleSet) -> FactSet:
    """Apply every rule to every kind-respecting variable assignment until
    nothing changes.  No deltas, no join order, no variant matching: body
    atoms are instantiated and checked by canonical membership."""
    names_by_kind = {kind: names_of_kind(construction, kind) for kind in KINDS}
    facts = {normalize_fact(f) for f in construction.facts}

    rule_variables = []
    for rule in ruleset.rules:
        var_kinds: dict[str, str] = {}
        for atom in (rule.head, *rule.body):
            for var, kind in zip(atom.args, PREDICATES[atom.predicate]):
                var_kinds[var] = kind
        rule_variables.append(sorted(var_kinds.items()))

    changed = True
    while changed:
        changed = False
        for rule, variables in zip(ruleset.rules, rule_variables):
            names = [v for v, _ in variables]
            domains = [names_by_kind[kind] for _, kind in variables]
            for combo in product(*domains):
                substitution = dict(zip(names, combo))
                if any(substitution[x] == substitution[y] for x, y in rule.distinct):
                    continue
                instantiated = (
                    normalize_fact((atom.predicate, tuple(substitution[v] for v in atom.args)))
                    for atom in rule.body
                )
                if all(f in facts for f in instantiated):
                    head = normalize_fact(
                        (rule.head.predicate, tuple(substitution[v] for v in rule.head.args))
                    )
                    if head not in facts:
                        facts.add(head)
                        changed = True
    return frozenset(facts)


def pairwise_gtd(construction: Construction, closed: FactSet) -> dict[str, int]:
    """GTD counts straight from the definition: objects by kind, facts by
    predicate and every unordered pair of distinct closed ``(predicate,
    args)`` facts once per kind of the objects they share."""
    kind_of = {o.name: o.kind for o in construction.objects}
    counts = Counter(f"kind:{o.kind}" for o in construction.objects)
    counts.update(f"rel:{predicate}" for predicate, _ in closed)
    for (pf, af), (pg, ag) in combinations(sorted(closed), 2):
        p1, p2 = sorted((pf, pg))
        for kind in {kind_of[name] for name in set(af) & set(ag)}:
            counts[f"path:{p1}-{kind}-{p2}"] += 1
    return dict(counts)


def ranked_text_hits(query: str, entries) -> list[tuple[str, int]]:
    """Extended text search by its definition: lowercased runs of letters
    and digits; each query token, as often as the query repeats it, scores
    4 per occurrence in the name, 3 in a keyword, 2 in the short
    description and 1 in the description; positive scores only, best
    first, ties by identifier."""

    def words(text: str) -> list[str]:
        return re.findall(r"[^\W_]+", text.lower())

    hits = []
    for entry in entries:
        fields = [
            (4, words(entry.name)),
            (3, [word for keyword in entry.keywords for word in words(keyword)]),
            (2, words(entry.short_description)),
            (1, words(entry.description)),
        ]
        score = sum(weight * field.count(token) for token in words(query) for weight, field in fields)
        if score:
            hits.append((entry.identifier, score))
    return sorted(hits, key=lambda hit: (-hit[1], hit[0]))


def brute_force_mappings(
    query: Construction,
    target: Construction,
    ruleset: RuleSet,
    first_only: bool = False,
) -> list[dict[str, str]]:
    """Exhaustive enumeration of injective kind-preserving object maps that
    carry every closed query fact into the closed target fact set."""
    closed_q = closure(query, ruleset)
    closed_t = closure(target, ruleset)
    per_kind: list[tuple[list[str], list[tuple[str, ...]]]] = []
    for kind in KINDS:
        q_names = names_of_kind(query, kind)
        t_names = names_of_kind(target, kind)
        if len(t_names) < len(q_names):
            return []
        per_kind.append((q_names, list(permutations(t_names, len(q_names)))))
    found = []
    for choice in product(*(options for _, options in per_kind)):
        mapping: dict[str, str] = {}
        for (q_names, _), chosen in zip(per_kind, choice):
            mapping.update(zip(q_names, chosen))
        ok = all(
            normalize_fact((predicate, tuple(mapping[a] for a in args))) in closed_t
            for predicate, args in closed_q
        )
        if ok:
            found.append(mapping)
            if first_only:
                return found
    return found


def brute_force_embeds(query: Construction, target: Construction, ruleset: RuleSet) -> bool:
    return bool(brute_force_mappings(query, target, ruleset, first_only=True))


def is_embedding(query: Construction, target: Construction, mapping: dict[str, str], ruleset: RuleSet) -> bool:
    """Whether ``mapping`` (query name -> target name) embeds the query in
    the target by definition: it maps each query object, injectively, to a
    target object of the same kind, and each fact of the query's naive
    closure to a fact of the target's naive closure in some argument order
    that the fact's symmetries allow."""
    if set(mapping) != set(query.kinds) or len(set(mapping.values())) != len(mapping):
        return False
    if any(target.kinds.get(image) != query.kinds[name] for name, image in mapping.items()):
        return False
    closed = naive_closure(target, ruleset)
    return all(
        orbit((predicate, tuple(mapping[a] for a in args))) & closed
        for predicate, args in naive_closure(query, ruleset)
    )


def fact_pairs(side: MatchSide) -> FactSet:
    """A matching side's closed facts as ``(predicate, args)`` pairs, the
    shape a closure returns, read from its fact set of each predicate."""
    return frozenset((predicate, args) for predicate, group in zip(PREDICATES, side.facts) for args in group)


def stored_entries(repo: Repository) -> dict[str, ProblemEntry]:
    """Identifier -> entry of every record in a slot of the published index,
    in string order of identifiers (``GEO10000`` before ``GEO1001``), read
    from the records themselves and not through the search or text code the
    tests check."""
    return dict(sorted((record.entry.identifier, record.entry) for record in repo._records[: len(repo)]))


def standard_encoding(response: QueryResponse) -> bytes:
    """A response line as the standard library writes it, with lone
    surrogates as JSON escapes; shares no code with the hit members."""
    text = json.dumps(response_to_document(response), ensure_ascii=False)
    return text.encode("utf-8", "backslashreplace") + b"\n"
