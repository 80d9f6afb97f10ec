"""Fingerprints and the candidate filter
=======================================

Matching a query construction against every stored entry by subgraph
isomorphism would be slow, so candidates are screened first: each closed
construction gets a count fingerprint (its "global trail distribution"),
and an entry survives only if its counts dominate the query's.  The filter
never loses a true match; this demo also shows the price, a false
candidate only the exact matcher can reject.
"""

from geokb import (
    closure,
    construction_gtd,
    default_rules,
    gtd_subsumes,
    is_subconstruction,
    parse_construction,
    serialize_gtd,
)

rules = default_rules()

TRIANGLE = parse_construction("""\
point A
point B
point C
line a
line b
line c
line_through(a, B, C)
line_through(b, A, C)
line_through(c, A, B)
""")

# The fingerprint counts the declared objects and the closed facts.
closed = closure(TRIANGLE, rules)
print(f"triangle: {len(TRIANGLE.objects)} objects, {len(closed)} closed facts")


def family(fingerprint, *prefixes):
    """The counts of a fingerprint's keys in the given key families."""
    return {key: n for key, n in fingerprint.items() if key.startswith(prefixes)}


# The fingerprint has three key families: object kinds, predicate counts,
# and counts of fact pairs sharing an object of each kind.
triangle = construction_gtd(TRIANGLE, rules)
print(f"\nfingerprint: {serialize_gtd(triangle)}")
for prefix in ("kind:", "rel:", "path:"):
    print(f"  {prefix:<6} {family(triangle, prefix)}")


def compare(fingerprint):
    """Whether a figure passes parts of the triangle query, then all of it."""
    head, paths = family(triangle, "kind:", "rel:"), family(triangle, "path:")
    print(f"  passes on kind:/rel: keys alone? {gtd_subsumes(fingerprint, head)}")
    print(f"  passes on path: keys? {gtd_subsumes(fingerprint, paths)}")
    print(f"  passes the filter? {gtd_subsumes(fingerprint, triangle)}")


# A strip of two parallels with a transversal has enough points, lines and
# incidences to pass on the kind: and rel: keys alone, but its path: pair
# counts give it away: its three line_through facts share only two points.
# Checking the strip against parts of the triangle's fingerprint shows
# which keys reject it.
STRIP = parse_construction("""\
point A
point B
point C
point D
line a
line b
line t
parallel(a, b)
line_through(a, A, B)
line_through(b, C, D)
line_through(t, A, C)
""")

print("\nparallel strip vs triangle query:")
compare(construction_gtd(STRIP, rules))

# Three concurrent lines survive even the path: keys: every pair of
# line_through facts shares a point, just as in a triangle.  Only the exact
# matcher notices that all three pairs share the SAME point.
CONCURRENT = parse_construction("""\
point P
point X
point Y
point Z
line a
line b
line c
line_through(a, P, X)
line_through(b, P, Y)
line_through(c, P, Z)
""")

print("\nthree concurrent lines vs triangle query:")
compare(construction_gtd(CONCURRENT, rules))
embedding = is_subconstruction(TRIANGLE, CONCURRENT, rules)
print(f"  exact matcher finds a triangle? {embedding is not None}")

# And the matcher's positive side: the triangle inside a richer figure,
# with the witness mapping (the part of the target to highlight).
CIRCUMCIRCLE = parse_construction("""\
point A
point B
point C
point O
line a
line b
line c
circle k
line_through(a, B, C)
line_through(b, A, C)
line_through(c, A, B)
circle_centered(k, O, A)
on_circle(B, k)
on_circle(C, k)
""")

embedding = is_subconstruction(TRIANGLE, CIRCUMCIRCLE, rules)
print("\ntriangle inside the circumcircle figure:")
print(f"  mapping: {embedding.as_dict()}")
print(f"  covers {len(embedding.facts)} target facts")
