"""Deterministic pools of small instances.

Everything here is exhaustive enumeration up to isomorphism with a
canonical output order, so that two runs over the same bounds produce
identical pools.  Two searches give the canonical keys.  Orders use
``_order_key``, over linear extensions.  Identity tables and presheaves
use ``_least_relabelling``, over the relabellings within blocks: one
block per level of a presheaf, one per run of equal invariant of a
table (McKay, *Practical Graph Isomorphism*, 1981).
"""

from __future__ import annotations

import itertools

from .heyting import HeytingAlgebra, PosetSpec, build_algebra
from .sheaves import Presheaf, is_sheaf, make_presheaf, validate_presheaf
from .sites import Topology
from .tset import TSet, identity_interval


def _least_relabelling(blocks, encode):
    """The least ``encode(order)`` over the orders that list the blocks
    one after another, each permuted only within itself."""
    return min(
        encode([x for blk in choice for x in blk])
        for choice in itertools.product(*map(itertools.permutations, blocks))
    )


def _order_key(le, order=()) -> tuple[bool, ...]:
    """The least row-major encoding of the order ``le`` over the linear
    extensions of ``order`` that list greater elements first; these are
    mapped onto each other by isomorphisms, so the key is canonical."""
    n = len(le)
    if len(order) == n:
        return tuple(le[i][j] for i in order for j in order)
    return min(_order_key(le, order + (x,)) for x in range(n)
               if x not in order and all(
                   y in order for y in range(n) if y != x and le[x][y]))


def _grown(points: int, limit: int, below=(), downs=(0,)):
    """Every poset on up to ``points`` points with at most ``limit``
    down-sets, as (below, downs): the masks under each point, and of the
    down-sets.  Each new point is maximal over a down-set of the earlier
    ones, and adds down-sets, so a branch stops past ``limit``.  The
    recursion starts from the empty poset, whose one down-set is 0."""
    yield below, downs
    for d in downs if len(below) < points else ():
        more = downs + tuple(u | 1 << len(below) for u in downs if u & d == d)
        if len(more) <= limit:
            yield from _grown(points, limit, below + (d,), more)


def _specs(n: int, keys) -> list[PosetSpec]:
    """One spec per order key on n points, in key order, with elements
    x0..x{n-1} and the covers read off the key."""
    orders = [[k[i * n:(i + 1) * n] for i in range(n)] for k in sorted(keys)]
    return [PosetSpec(tuple(f"x{i}" for i in range(n)), tuple(
        (f"x{i}", f"x{j}") for i in range(n) for j in range(n)
        if i != j and le[i][j] and not any(
            le[i][k] and le[k][j] for k in range(n) if k not in (i, j))))
        for le in orders]


def all_poset_specs(n: int) -> list[PosetSpec]:
    """All partial orders on n points, one spec per isomorphism class,
    sorted by ``_order_key``."""
    return _specs(n, {
        _order_key([[i == j or bool(below[j] >> i & 1) for j in range(n)]
                    for i in range(n)])
        for below, _ in _grown(n, 1 << n) if len(below) == n}) if n > 0 else []


def algebra_pool(max_size: int) -> list[tuple[str, HeytingAlgebra]]:
    """Every complete Heyting algebra with 2..max_size elements, one per
    isomorphism class, labelled A<size>.<index>: the down-set lattices,
    ordered by inclusion, of the posets with 2..max_size down-sets
    (Birkhoff 1937)."""
    keys: dict[int, set] = {}
    for _, downs in _grown(max_size, max_size):
        le = [[u & v == u for v in downs] for u in downs]
        keys.setdefault(len(downs), set()).add(_order_key(le))
    return [(f"A{n}.{i}", build_algebra(spec)) for n in range(2, max_size + 1)
            for i, spec in enumerate(_specs(n, keys.get(n, ())))]


def _table_key(table) -> tuple:
    """Canonical form of a symmetric identity table: equal exactly for
    tables that differ by a relabelling of the carrier.

    Each element's invariant is its existence degree plus its sorted
    Id-row.  The key is the sorted invariant list together with the
    least permuted table over the relabellings that list the elements
    in invariant order, i.e. that permute only within blocks of equal
    invariant.  An isomorphism carries blocks onto blocks, so
    isomorphic tables get equal keys; equal keys exhibit a relabelling.
    """
    n = len(table)
    inv = [(table[x][x], tuple(sorted(table[x]))) for x in range(n)]
    order = sorted(range(n), key=inv.__getitem__)
    blocks = [
        tuple(grp) for _, grp in itertools.groupby(order, key=inv.__getitem__)
    ]
    best = _least_relabelling(
        blocks, lambda o: tuple(table[i][j] for i in o for j in o))
    return tuple(inv[x] for x in order), best


def tset_pool(H: HeytingAlgebra, max_size: int, *,
              require_separated: bool = True,
              require_postulate: bool = True,
              include_empty: bool = False) -> list[TSet]:
    """All T-sets over H with carrier size up to max_size, one per
    isomorphism class, by backtracking over identity tables.

    Cells fill in lexicographic order.  Cell (x, y) is drawn from the
    identity interval of the pairs (Id(z, x), Id(z, y)) for z < x, so
    each transitivity instance is checked once, when its last cell is
    filled.

    The postulate is decided during the fill.  Every atom a of the
    leading m-block extends to an atom of the whole table, by
    a_j = join over i < m of a_i & Id(i, j), and every row is an atom.
    So the postulate holds exactly when, at each level m, every atom of
    the m-block is the m-prefix of a row.  Once the (m-1)-block passes,
    its atoms are the (m-1)-prefixes r of rows, and the m-block's are
    the r + (v,) with v in the identity interval below Ee(m-1) of the
    pairs (Id(m-1, j), r_j).  These targets of level m are computed
    once on reaching cell (m-1, m), when columns 0..m-2 and row m-1's
    first m-1 cells are known; the later cells of row m-1 leave them
    unchanged.  Level m is checked on reaching cell (m, m+1), when
    columns 0..m-1 are known, as one subset test of its targets against
    the rows' m-prefixes, and the leaf stands for cell (n-1, n).  The
    rows have at most n distinct prefixes, so a level with more than n
    targets fails as soon as they are computed.  The empty carrier
    fails: its empty atom has no witness.

    Existence degrees are generated in nondecreasing index order, which
    costs no classes; duplicates across the remaining relabellings are
    removed by the invariant-refined canonical key of ``_table_key``.
    Each class is represented by its least table in sorted order.
    """
    out: list[TSet] = []
    lo = 0 if include_empty and not require_postulate else 1
    for n in range(lo, max_size + 1):
        found: list[tuple[tuple[int, ...], ...]] = []
        seen: set[tuple] = set()
        for diag in itertools.combinations_with_replacement(range(H.size), n):
            if n == 0:
                found.append(())
                continue
            cells = list(itertools.combinations(range(n), 2))
            table: list[list[int | None]] = [
                [diag[i] if i == j else None for j in range(n)]
                for i in range(n)
            ]
            # targets[m]: the atoms of the m-block, set at cell (m-1, m)
            targets: list[set] = [set()] * (n + 1)

            def rec(k: int):
                # the leaf stands for cell (n-1, n)
                x, y = cells[k] if k < len(cells) else (n - 1, n)
                if require_postulate and y == x + 1:
                    prefixes = {tuple(r[:x]) for r in table}
                    if not targets[x] <= prefixes:
                        return
                    targets[y] = {r + (v,) for r in prefixes
                                  for v in identity_interval(
                                      H, diag[x], zip(table[x], r))}
                    if len(targets[y]) > n:
                        return
                if k == len(cells):
                    if not require_postulate or targets[n] <= set(
                            map(tuple, table)):
                        found.append(tuple(tuple(r) for r in table))
                    return
                for v in identity_interval(
                        H, H.meet(diag[x], diag[y]),
                        [(table[z][x], table[z][y]) for z in range(x)]):
                    if require_separated and v == diag[x] and v == diag[y]:
                        continue
                    table[x][y] = table[y][x] = v
                    rec(k + 1)

            rec(0)
            del rec  # rec refers to itself; break the cycle
        for tab in sorted(found):
            key = _table_key(tab)
            if key in seen:
                continue
            seen.add(key)
            out.append(TSet(H, tuple(f"a{i}" for i in range(n)), tab))
    return out


def sheaf_pool(H: HeytingAlgebra, J: Topology, max_total: int, *,
               require_sheaf: bool = True) -> list[Presheaf]:
    """All presheaves over H with total section count up to max_total,
    one per isomorphism class, optionally filtered to sheaves for J.

    Tables are chosen for the Hasse cover pairs and composed by
    make_presheaf; choices whose paths disagree fail validate_presheaf.
    The cover tables determine the presheaf, so their least relabelling
    is the canonical key."""
    levels = list(H.elements())
    cover_pairs = [(p, q) for q, p in H.covers()]
    out: list[Presheaf] = []
    seen: set[tuple] = set()
    for shape in itertools.product(range(max_total + 1), repeat=len(levels)):
        if sum(shape) > max_total:
            continue
        if any(shape[p] and not shape[q] for p, q in cover_pairs):
            continue
        choice_sets = [
            list(itertools.product(range(shape[q]), repeat=shape[p]))
            for p, q in cover_pairs
        ]
        # sections numbered level after level; a relabelling permutes
        # each level's block
        start = list(itertools.accumulate(shape, initial=0))
        blocks = [range(start[p], start[p + 1]) for p in levels]
        for combo in itertools.product(*choice_sets):
            tables = dict(zip(cover_pairs, combo))
            sections = tuple(
                tuple(f"x{i}" for i in range(shape[p])) for p in levels
            )
            P = make_presheaf(H, sections, tables)
            if not validate_presheaf(P).ok:
                continue
            if require_sheaf and not is_sheaf(P, J).ok:
                continue

            def relabelled(order):
                at = {x: k for k, x in enumerate(order)}
                return tuple(
                    tuple(at[start[q] + tables[(p, q)][x - start[p]]]
                          for x in order[start[p]:start[p + 1]])
                    for p, q in cover_pairs
                )
            key = (shape, _least_relabelling(blocks, relabelled))
            if key in seen:
                continue
            seen.add(key)
            out.append(P)
    return out
