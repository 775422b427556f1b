"""T-sets: carriers with a T-valued identity measure over a Heyting algebra.

A T-set is (A, Id) with Id symmetric and transitive; Id(x, x) is the
degree to which x exists.  Atoms are maps A -> T satisfying the two
atom inequalities; an atom is real when it is the Id-row of a carrier
element.  Everything here is finite and enumerated directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import PostulateRequired, SizeGuard
from .heyting import HeytingAlgebra

DEFAULT_GUARD = 10 ** 6


@dataclass(frozen=True)
class TSet:
    algebra: HeytingAlgebra
    elements: tuple[str, ...]
    id_table: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.elements)

    def name(self, x: int) -> str:
        return self.elements[x]

    def index(self, name: str) -> int:
        return self.elements.index(name)

    def ident(self, x: int, y: int) -> int:
        return self.id_table[x][y]

    def ee(self, x: int) -> int:
        return self.id_table[x][x]

    def row(self, x: int) -> tuple[int, ...]:
        return self.id_table[x]

    def __repr__(self):
        return f"TSet({list(self.elements)} over {list(self.algebra.names)})"


def make_tset(H: HeytingAlgebra, elements, id_table) -> TSet:
    return TSet(H, tuple(elements), tuple(tuple(r) for r in id_table))


def principal_tset(H: HeytingAlgebra, s: int) -> TSet:
    """Carrier = elements below s, identity = meet.  The subterminal
    determined by s."""
    members = [q for q in H.elements() if H.le(q, s)]
    names = tuple(H.name(q) for q in members)
    table = tuple(
        tuple(H.meet(q, r) for r in members) for q in members
    )
    return TSet(H, names, table)


def set_like_tset(H: HeytingAlgebra, n: int) -> TSet:
    """n fully-existing pairwise-disjoint elements plus the zero element
    that witnesses their localisation at bottom."""
    names = tuple(f"u{i}" for i in range(n)) + ("z",)
    bot, top = H.bottom, H.top
    table = []
    for i in range(n + 1):
        row = []
        for j in range(n + 1):
            if i == j:
                row.append(top if i < n else bot)
            else:
                row.append(bot)
        table.append(tuple(row))
    return TSet(H, names, tuple(table))


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[tuple[str, tuple], ...]


def validate_tset(t: TSet) -> ValidationReport:
    """Check symmetry, transitivity and the derived existence bound.
    Violations carry element-name witnesses."""
    H = t.algebra
    n = t.size
    bad: list[tuple[str, tuple]] = []
    if len(t.id_table) != n or any(len(r) != n for r in t.id_table):
        return ValidationReport(False, (("shape", (n,)),))
    for x in range(n):
        for y in range(n):
            if not (0 <= t.id_table[x][y] < H.size):
                return ValidationReport(False, (("range", (t.name(x), t.name(y))),))
    for x in range(n):
        for y in range(x + 1, n):
            if t.ident(x, y) != t.ident(y, x):
                bad.append(("symmetry", (t.name(x), t.name(y))))
    for x in range(n):
        for y in range(n):
            ixy = t.ident(x, y)
            for z in range(n):
                if not H.le(H.meet(ixy, t.ident(y, z)), t.ident(x, z)):
                    bad.append(("transitivity", (t.name(x), t.name(y), t.name(z))))
    for x in range(n):
        for y in range(n):
            if not H.le(t.ident(x, y), H.meet(t.ee(x), t.ee(y))):
                bad.append(("existence-bound", (t.name(x), t.name(y))))
    return ValidationReport(not bad, tuple(bad))


def identity_interval(H: HeytingAlgebra, cap: int,
                      pairs: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    """The v <= cap with a & b <= v, v & a <= b and v & b <= a for every
    pair (a, b), ascending.  By the adjunction v & a <= b iff
    v <= a -> b, these are the interval from the join of the a & b to
    cap & the meet of the (a -> b) & (b -> a)."""
    meet, join, imp = H.meet_table, H.join_table, H.imp_table
    lo, hi = H.bottom, cap
    for a, b in pairs:
        lo = join[lo][meet[a][b]]
        hi = meet[hi][meet[imp[a][b]][imp[b][a]]]
    above = H.le_table[lo]
    return tuple(v for v in H.down(hi) if above[v])


def atoms(t: TSet, guard: int = DEFAULT_GUARD) -> list[tuple[int, ...]]:
    """All atom maps, enumerated by backtracking in lexicographic order.

    Position i ranges over the identity interval below Ee i of the pairs
    (Id(i, j), a_j) for j < i: since Id is symmetric, these are the
    values that meet both atom inequalities against every earlier
    position.  The candidate space is |T| ** |A|; a SizeGuard fires if
    that exceeds the guard even though the search itself prunes hard.
    """
    H = t.algebra
    n = t.size
    if H.size ** n > guard:
        raise SizeGuard("atom enumeration", H.size ** n, guard)
    out: list[tuple[int, ...]] = []
    partial: list[int] = []

    def rec(i: int):
        if i == n:
            out.append(tuple(partial))
            return
        for v in identity_interval(H, t.ee(i), zip(t.row(i), partial)):
            partial.append(v)
            rec(i + 1)
            partial.pop()

    rec(0)
    del rec  # rec refers to itself; break the cycle
    return out


@dataclass(frozen=True)
class PostulateReport:
    ok: bool
    unreal: tuple[tuple[int, ...], ...]
    # every atom in enumeration order, with its least real witness or None
    witnesses: tuple[tuple[tuple[int, ...], int | None], ...]

    @property
    def atom_count(self) -> int:
        return len(self.witnesses)


def satisfies_postulate(t: TSet, guard: int = DEFAULT_GUARD) -> PostulateReport:
    """Every atom must be the Id-row of some carrier element.

    The empty T-set fails: its sole atom (the empty map) has no witness.
    """
    first: dict[tuple[int, ...], int] = {}
    for x in range(t.size):
        first.setdefault(t.row(x), x)
    witnesses = tuple((a, first.get(a)) for a in atoms(t, guard))
    unreal = tuple(a for a, x in witnesses if x is None)
    return PostulateReport(not unreal, unreal, witnesses)


def localise_element(t: TSet, x: int, p: int) -> int:
    """Lowest-index carrier element whose row is Id(x, .) meet p."""
    target = tuple(t.algebra.meet(v, p) for v in t.row(x))
    for w in range(t.size):
        if t.row(w) == target:
            return w
    raise PostulateRequired(
        f"localising {t.name(x)!r} to {t.algebra.name(p)!r} has no carrier witness"
    )


def localisation_table(t: TSet) -> tuple[tuple[int | None, ...], ...]:
    """loc[x][p] = canonical witness of x localised to p, or None."""
    H = t.algebra
    rows = {}
    for w in range(t.size):
        rows.setdefault(t.row(w), w)
    table = []
    for x in range(t.size):
        row = t.row(x)
        table.append(tuple(
            rows.get(tuple(H.meet(v, p) for v in row)) for p in H.elements()
        ))
    return tuple(table)


def compatible(t: TSet, x: int, y: int) -> bool:
    """x and y agree when each is cut down to the other's existence."""
    H = t.algebra
    ex, ey = t.ee(x), t.ee(y)
    return all(
        H.meet(t.ident(x, z), ey) == H.meet(t.ident(y, z), ex)
        for z in range(t.size)
    )


@dataclass(frozen=True)
class CompletionResult:
    tset: TSet
    embed: tuple[int, ...]    # carrier element -> index of its row-atom


def singleton_completion(t: TSet, guard: int = DEFAULT_GUARD) -> CompletionResult:
    """Carrier of all atoms with Id(a, b) = sigma of pointwise meets.

    Works for any quasi-T-set; the result is separated, satisfies the
    postulate, and a second application is isomorphic to the first.
    """
    H = t.algebra
    all_atoms = sorted(atoms(t, guard))
    names = tuple(f"a{i}" for i in range(len(all_atoms)))
    table = []
    for a in all_atoms:
        table.append(tuple(
            H.sigma([H.meet(a[x], b[x]) for x in range(t.size)])
            for b in all_atoms
        ))
    completed = TSet(H, names, tuple(table))
    embed = tuple(all_atoms.index(t.row(x)) for x in range(t.size))
    return CompletionResult(completed, embed)


def indiscernible_classes(t: TSet) -> tuple[tuple[int, ...], ...]:
    """Partition by total indiscernibility: Id(x, y) = Ee x = Ee y."""
    classes: list[list[int]] = []
    for x in range(t.size):
        for cls in classes:
            r = cls[0]
            if t.ident(x, r) == t.ee(x) == t.ee(r):
                cls.append(x)
                break
        else:
            classes.append([x])
    return tuple(tuple(c) for c in classes)


@dataclass(frozen=True)
class QuotientResult:
    tset: TSet
    classes: tuple[tuple[int, ...], ...]
    projection: tuple[int, ...]   # old index -> new index


def separated_quotient(t: TSet) -> QuotientResult:
    """Collapse indiscernible elements onto their lowest-index representative."""
    classes = indiscernible_classes(t)
    reps = [c[0] for c in classes]
    proj = [0] * t.size
    for k, cls in enumerate(classes):
        for x in cls:
            proj[x] = k
    table = tuple(tuple(t.ident(a, b) for b in reps) for a in reps)
    q = TSet(t.algebra, tuple(t.name(r) for r in reps), table)
    return QuotientResult(q, classes, tuple(proj))


# ---------------------------------------------------------------- relations

@dataclass(frozen=True)
class TRelation:
    source: TSet
    target: TSet
    mapping: tuple[int, ...]

    def apply(self, x: int) -> int:
        return self.mapping[x]

    def compose(self, other: "TRelation") -> "TRelation":
        # self after other
        if other.target != self.source:
            raise ValueError("composition endpoints do not match")
        return TRelation(other.source, self.target,
                         tuple(self.mapping[v] for v in other.mapping))

    def __repr__(self):
        pairs = ", ".join(
            f"{self.source.name(x)}->{self.target.name(v)}"
            for x, v in enumerate(self.mapping)
        )
        return f"TRelation({pairs})"


def identity_relation(t: TSet) -> TRelation:
    return TRelation(t, t, tuple(range(t.size)))


def validate_relation(r: TRelation) -> ValidationReport:
    """Existence preservation and commutation with localisation, plus the
    derived facts (Id inequality, compatibility preservation) checked
    rather than assumed.

    On valid T-sets the other two follow from existence and the Id
    inequality (see ``hom_set``); all four are checked because relation
    files may name invalid T-sets, and ``hom_set`` is tested against this.

    The localisation square is enforced wherever the source witness
    exists: when w realises x at p, the image of w must realise the
    image of x at the same degree, i.e. Id(r(x), r(w)) = Ee(x) & p.
    Unwitnessed localisations impose no condition, so the check is
    total on arbitrary carriers.
    """
    A, B = r.source, r.target
    if A.algebra != B.algebra:
        return ValidationReport(False, (("algebra", ()),))
    H = A.algebra
    if len(r.mapping) != A.size or any(not 0 <= v < B.size for v in r.mapping):
        return ValidationReport(False, (("shape", ()),))
    bad: list[tuple[str, tuple]] = []
    loc_a = localisation_table(A)
    for x in range(A.size):
        if B.ee(r.mapping[x]) != A.ee(x):
            bad.append(("existence", (A.name(x),)))
    for x in range(A.size):
        for p in H.elements():
            w = loc_a[x][p]
            if w is None:
                continue
            if B.ident(r.mapping[x], r.mapping[w]) != H.meet(A.ee(x), p):
                bad.append(("localisation", (A.name(x), H.name(p))))
    for x in range(A.size):
        for y in range(A.size):
            if not H.le(A.ident(x, y), B.ident(r.mapping[x], r.mapping[y])):
                bad.append(("id-monotone", (A.name(x), A.name(y))))
            if compatible(A, x, y) and not compatible(B, r.mapping[x], r.mapping[y]):
                bad.append(("compatibility", (A.name(x), A.name(y))))
    return ValidationReport(not bad, tuple(bad))


def hom_set(A: TSet, B: TSet, guard: int = DEFAULT_GUARD,
            images: list[list[int]] | None = None) -> list[TRelation]:
    """All relations A -> B, lexicographic by mapping tuple.

    A and B must be valid T-sets, as every caller's are.  A relation is
    then a carrier map that preserves existence and never lowers
    identity, Id(x, y) <= Id(rx, ry): images are filtered by existence
    (and to images[x], an increasing list, when given), each is pruned
    by that inequality against every earlier position, and every leaf
    is a relation.  The other two conditions of ``validate_relation``
    follow:

    - localisation: if w witnesses x at p then Id(x, w) = Ee x & p, so
      monotonicity gives Id(rx, rw) >= Ee x & p and B's existence
      bound gives <=;
    - compatibility: on a valid T-set x and y are compatible iff
      Id(x, y) = Ee x & Ee y, and monotonicity carries that over.
    """
    if A.algebra != B.algebra:
        return []
    le = A.algebra.le_table
    cands = [
        [y for y in (range(B.size) if images is None else images[x])
         if B.ee(y) == A.ee(x)]
        for x in range(A.size)
    ]
    total = 1
    for c in cands:
        if not c:
            return []
        total *= len(c)
        if total > guard:
            raise SizeGuard("hom enumeration", total, guard)

    out: list[TRelation] = []
    mapping: list[int] = []

    def rec(i: int):
        if i == A.size:
            out.append(TRelation(A, B, tuple(mapping)))
            return
        row = A.row(i)
        for v in cands[i]:
            image_row = B.row(v)
            if all(le[row[j]][image_row[w]] for j, w in enumerate(mapping)):
                mapping.append(v)
                rec(i + 1)
                mapping.pop()

    rec(0)
    del rec  # rec refers to itself; break the cycle
    return out

