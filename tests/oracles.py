"""Brute-force references for the censuses, the coverage and the sheaf
condition.

The poset census sweeps every upper-triangular relation and keys each
by its least encoding over all n! relabellings, independently of the
grown posets and linear-extension keys in ``tsettopos.pools``.  The
covers of p are the sieves joining to p, independently of the closed
form in ``tsettopos.sites``.  A matching family over a sieve is one
section per member, compatible under restriction; these enumerate it
from the definition, independently of the naturality backtracker in
``tsettopos.sheaves``.  Atoms and identity tables are searched one
candidate value at a time, each tested against every earlier entry,
independently of the identity intervals in ``tsettopos.tset``.
"""

import itertools

from tsettopos import PosetSpec, TSet, all_sieves
from tsettopos.pools import _table_key


def poset_sweep(n, bounded=False):
    """All partial orders on n points, one spec per isomorphism class,
    sorted by their least relabelled relation, with elements x0..x{n-1}.

    Every order admits a monotone labelling, so the upper-triangular
    relations reach every class.  With ``bounded`` only orders with a
    least and a greatest element are kept; a monotone labelling puts
    them at 0 and n-1.
    """
    if n <= 0:
        return []
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keys = set()
    for bits in range(1 << len(pairs)):
        le = [[i == j for j in range(n)] for i in range(n)]
        for b, (i, j) in enumerate(pairs):
            if bits >> b & 1:
                le[i][j] = True
        if any(le[i][j] and le[j][k] and not le[i][k]
               for i, j in pairs for k in range(j + 1, n)):
            continue
        if bounded and not (all(le[0]) and all(r[n - 1] for r in le)):
            continue
        keys.add(min(tuple(le[i][j] for i in o for j in o)
                     for o in itertools.permutations(range(n))))
    out = []
    for key in sorted(keys):
        le = [[key[i * n + j] for j in range(n)] for i in range(n)]
        covers = [
            (f"x{i}", f"x{j}")
            for i in range(n) for j in range(n)
            if i != j and le[i][j]
            and not any(k not in (i, j) and le[i][k] and le[k][j]
                        for k in range(n))
        ]
        out.append(PosetSpec(tuple(f"x{i}" for i in range(n)), tuple(covers)))
    return out


def chain_product_spec(*lengths):
    """The product of chains with the given numbers of elements."""
    points = list(itertools.product(*(range(n) for n in lengths)))

    def name(x):
        return ".".join(map(str, x))

    covers = tuple(
        (name(x), name(x[:i] + (x[i] + 1,) + x[i + 1:]))
        for x in points for i, n in enumerate(lengths) if x[i] + 1 < n)
    return PosetSpec(tuple(map(name, points)), covers)


def order_isomorphism(H, K):
    """A bijection of elements with H.le(a, b) == K.le(f[a], f[b]) for
    all a, b, found by backtracking, or None."""
    n = H.size
    if K.size != n:
        return None
    image = []

    def extend():
        a = len(image)
        if a == n:
            return list(image)
        for x in range(n):
            if x not in image and all(
                    H.le(a, b) == K.le(x, y) and H.le(b, a) == K.le(y, x)
                    for b, y in enumerate(image)):
                image.append(x)
                found = extend()
                if found is not None:
                    return found
                image.pop()
        return None
    return extend()


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


def atoms_by_candidates(t):
    """Every atom of t in lexicographic order: each value of each
    position is tested against both atom inequalities, one earlier
    position at a time."""
    H = t.algebra
    out, partial = [], []

    def admissible(i, v):
        return H.le(v, t.ee(i)) and all(
            H.le(H.meet(v, t.ident(i, j)), w)
            and H.le(H.meet(w, t.ident(j, i)), v)
            and H.le(H.meet(v, w), t.ident(i, j))
            for j, w in enumerate(partial))

    def rec(i):
        if i == t.size:
            out.append(tuple(partial))
            return
        for v in H.elements():
            if admissible(i, v):
                partial.append(v)
                rec(i + 1)
                partial.pop()

    rec(0)
    return out


def tset_pool_by_candidates(H, max_size, *, require_separated=True,
                            require_postulate=True, include_empty=False):
    """``tset_pool`` with each cell drawn from the down-set of its cap and
    tested against every transitivity instance it completes, and the
    postulate decided by ``atoms_by_candidates``."""
    out = []
    for n in range(0 if include_empty else 1, max_size + 1):
        found, seen = [], set()
        for diag in itertools.combinations_with_replacement(H.elements(), n):
            cells = list(itertools.combinations(range(n), 2))
            table = [[diag[i] if i == j else None for j in range(n)]
                     for i in range(n)]

            def closed(x, y):
                for z in range(n):
                    for a, b, c in ((x, y, z), (x, z, y), (z, x, y)):
                        tab, tbc, tac = table[a][b], table[b][c], table[a][c]
                        if None not in (tab, tbc, tac) and \
                                not H.le(H.meet(tab, tbc), tac):
                            return False
                return True

            def rec(k):
                if k == len(cells):
                    found.append(tuple(tuple(r) for r in table))
                    return
                x, y = cells[k]
                for v in H.down(H.meet(diag[x], diag[y])):
                    if require_separated and v == diag[x] == diag[y]:
                        continue
                    table[x][y] = table[y][x] = v
                    if closed(x, y):
                        rec(k + 1)
                table[x][y] = table[y][x] = None

            rec(0)
        for tab in sorted(found):
            key = _table_key(tab)
            if key in seen:
                continue
            seen.add(key)
            t = TSet(H, tuple(f"a{i}" for i in range(n)), tab)
            if require_postulate and not set(
                    atoms_by_candidates(t)) <= set(t.id_table):
                continue
            out.append(t)
    return out
