"""Brute-force references for the coverage and the sheaf condition.

The covers of p are the sieves joining to p, independently of the
closed form in ``tsettopos.sites``.  A matching family over a sieve is
one section per member, compatible under restriction; these enumerate
it from the definition, independently of the naturality backtracker in
``tsettopos.sheaves``.
"""

import itertools

from tsettopos import all_sieves


def matching_families(P, members):
    """Every compatible choice of one section per member of the sieve,
    aligned with sorted(members), in lexicographic order."""
    H = P.algebra
    members = sorted(members)
    return [
        choice
        for choice in itertools.product(*(range(P.n(q)) for q in members))
        if all(P.restrict(q, r, choice[i]) == choice[j]
               for i, q in enumerate(members)
               for j, r in enumerate(members) if H.le(r, q))
    ]


def amalgamations(P, p, members, choice):
    """Sections at p whose restrictions to the members reproduce choice."""
    return [x for x in range(P.n(p))
            if all(P.restrict(p, q, x) == c
                   for q, c in zip(sorted(members), choice))]


def join_covers(H, p):
    """The territory coverage read straight off the join condition: every
    sieve at p whose join is p."""
    return frozenset(S for S in all_sieves(H, p) if H.sigma(S) == p)
