"""Constructions and their inferential closure
===============================================

A geometric figure is written as typed objects plus predicate facts.
Closing the fact set under the inference rules turns the few facts an
author states into the figure's full semantic description, which is what
every later stage (fingerprinting, matching, search) works on.
"""

from geokb import (
    closure,
    default_rules,
    entails,
    fact_text,
    normalize_fact,
    parse_construction,
    serialize_construction,
)

# A triangle with one median: the author states 14 lines worth of geometry.
SOURCE = """\
point A
point B
point C
point M
line a
line b
line c
line m
line_through(a, B, C)
line_through(b, A, C)
line_through(c, A, B)
midpoint(M, B, C)
line_through(m, A, M)
"""

construction = parse_construction(SOURCE)
print(f"parsed {len(construction.objects)} objects, {len(construction.facts)} facts")

# A fact is a (predicate, args) pair, and fact_text gives its text form.
# Facts are canonical: argument order of symmetric predicates is normalized.
print("\nnormalization collapses equivalent statements:")
for raw in (("parallel", ("b", "a")), ("equidistant", ("M", "B", "A", "M"))):
    print(f"  {fact_text(*raw)}  ->  {fact_text(*normalize_fact(raw))}")

# The closure adds everything the rules can infer: incidences from
# line_through, collinearity of points sharing a line, midpoint
# consequences, and so on.
rules = default_rules()
closed = closure(construction, rules)
inferred = sorted(fact_text(*f) for f in closed - construction.facts)
print(f"\nclosure holds {len(closed)} facts; the {len(inferred)} inferred ones:")
for line in inferred:
    print(f"  {line}")

# entails() is the convenience wrapper over closure membership.
print("\nentailment checks:")
for f in (("collinear", ("M", "C", "B")), ("parallel", ("a", "m"))):
    print(f"  {fact_text(*f)}?  {entails(construction, rules, f)}")

# Serialization is deterministic (objects by kind then name, facts by
# text), so a construction round-trips to identical bytes.
text = serialize_construction(construction)
assert parse_construction(text) == construction
print("\ncanonical serialized form:")
print(text)
