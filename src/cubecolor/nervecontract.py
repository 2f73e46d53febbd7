"""The certification pipeline on concrete colorings.

Given a coloring of the n^d grid, this module

1. perturbs the cubic partition into a *simple* one by shifting layers
   (every point of the cube lies in at most d+1 closed cells),
2. groups the shifted cells into monochromatic connected parts,
3. builds the nerve of the covering by parts, and in the same pass
   materializes every intersection of parts as an exact rectilinear
   chain, with the boundary of a k-fold intersection decomposing into
   the (k+1)-fold ones; the intersections, and every part's skeleton
   volumes, are read off the partition's cell cliques (the sets of cells
   with a common point) in one walk,
4. contracts: by descending induction every intersection chain is filled
   so that the family F satisfies
       boundary(F(s)) = C(s) - sum over cofaces of F   (mod cube bdry),
5. assembles per-part cycles X_i = C_i - sum_j F(i,j), checks that each
   is a relative cycle, that they sum to the fundamental class of the
   cube, tabulates the filling-volume sums S(i0, k), and verifies the
   volume bookkeeping against the exact constants.

All identities are checked exactly, on integer corners over the
partition's denominator; failures are listed in the report, naming the
offending simplex or part; an overlapping intersection still raises.
Coefficients are mod 2 throughout the pipeline.

Offsets are deterministic rationals: layers along axis l are translated
diagonally by multiples of delta / p_l for distinct primes p_l > n.
Genericity is verified constructively (tiling, disjointness, point
multiplicity), never assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property
from fractions import Fraction

from .bounds import _rat, g_constant
from .chains import (
    MOD2,
    BoxCell,
    FillError,
    RectChain,
    contacts,
    fill,
    fundamental_chain,
    is_relative_cycle,
    vanishes,
)
from .gridcolor import GridColoring, _label

ZERO = Fraction(0)


class PartitionError(ValueError):
    """Shifted partition failed its constructive verification."""


class IdentityError(AssertionError):
    """An exact chain identity failed; names the offending object."""


class MultiplicityError(IdentityError):
    """Two parts of one color share a point.  Parts of one color that touch
    are the same part, so no valid input gets there, and a simplex holds at
    most as many parts as there are colors."""

    def __init__(self, simplex, first: int, second: int, color: int):
        self.simplex = simplex
        super().__init__(
            f"nerve: parts {simplex} share a point, and parts {first} and {second} "
            f"both have color {color}"
        )


def _first_primes_above(n: int, count: int) -> list[int]:
    primes: list[int] = []
    cand = n + 1
    while len(primes) < count:
        if cand > 1 and all(cand % p for p in range(2, int(math.isqrt(cand)) + 1)):
            primes.append(cand)
        cand += 1
    return primes


@dataclass(frozen=True)
class PartitionCell:
    box: BoxCell
    lattice: tuple[int, ...]  # provenance: original grid cell (clamped)


@dataclass
class ShiftedPartition:
    """A simple tiling of the cube by axis-aligned boxes with corners
    over `den`; provenance maps every box to a grid cell."""

    d: int
    n: int
    delta: Fraction
    cells: list[PartitionCell]
    den: int

    @cached_property
    def later(self) -> list[dict[int, BoxCell]]:
        """The contact index: for each cell i, the cells j > i that touch
        it, each mapped to the pair's closed intersection (chains.contacts).
        Computed once per partition; read, never changed, by `verify`,
        `max_multiplicity`, `mono_parts` and the nerve's clique walk."""
        later: list[dict[int, BoxCell]] = [{} for _ in self.cells]
        for i, j, x in contacts([pc.box for pc in self.cells]):
            later[i][j] = x
        return later

    def max_multiplicity(self) -> int:
        """Largest number of closed cells sharing a point: the size of the
        largest clique of the contact graph, as closed boxes that meet
        pairwise share a point (Helly's theorem for boxes).  A branch stops
        once its size plus its candidates cannot beat the largest clique
        found so far."""
        later = self.later
        best = 0

        def walk(size: int, common: set[int]):
            nonlocal best
            best = max(best, size)
            order = sorted(common)
            for at, j in enumerate(order):
                if size + len(order) - at <= best:
                    return
                walk(size + 1, common & later[j].keys())

        for ahead in later:
            walk(1, set(ahead))
        return best

    def verify(self):
        den = self.den
        total = Fraction(sum(pc.box.volume() for pc in self.cells), den**self.d)
        if total != 1:
            raise PartitionError(f"partition: cells tile volume {total}, expected 1")
        for i, ahead in enumerate(self.later):
            for j, x in ahead.items():
                if x.k == self.d:
                    raise PartitionError(
                        f"partition: cells overlap: {self.cells[i].box} and {self.cells[j].box}"
                    )
        cap = (Fraction(1, self.n) + 2 * self.delta) * den
        for pc in self.cells:
            for a, (lo, hi) in enumerate(pc.box):
                length = hi - lo
                if length > cap:
                    raise PartitionError(f"partition: cell {pc.box} too long on axis {a + 1}")
                if length * self.n != den and lo != 0 and hi != den:
                    raise PartitionError(
                        f"partition: interior cell {pc.box} has non-standard length "
                        f"on axis {a + 1}"
                    )
        mult = self.max_multiplicity()
        if mult > self.d + 1:
            raise PartitionError(
                f"partition: point multiplicity {mult} exceeds d+1 = {self.d + 1}; "
                "the offsets are not generic, pick another delta"
            )


def build_shifted_partition(d: int, n: int, delta) -> ShiftedPartition:
    """Recursively shifted tiling: the pattern in each layer along the
    highest axis is the (d-1)-dimensional construction, and layer j is
    translated diagonally by j * delta/p on all lower axes, with a
    distinct prime p per level.  Cells overflowing the cube are clipped
    and the vacated margins become new sliver cells whose provenance is
    the nearest original grid cell.  Every corner is i/n plus multiples
    of delta/p, so all lie over one denominator."""
    delta = Fraction(delta)
    if d < 1 or n < 1:
        raise PartitionError("partition: need d >= 1 and n >= 1")
    if not ZERO < delta < Fraction(1, 4 * n):
        raise PartitionError(
            f"partition: delta must lie strictly between 0 and 1/(4n), got {delta}"
        )
    primes = _first_primes_above(n, d)
    den = math.lcm(n, delta.denominator, *(delta.denominator * p for p in primes[1:]))
    # 1-based layering axis -> per-layer shift delta / p, over den
    lattice_offsets = {lvl: int(delta / primes[lvl - 1] * den) for lvl in range(2, d + 1)}

    step = den // n
    cells: list[PartitionCell] = []

    def rec(level: int, shift: int, extents: list, lattice: list):
        # extents / lattice are filled from axis d down to this level
        if level == 0:
            box = BoxCell(list(reversed(extents)))
            cells.append(PartitionCell(box, tuple(reversed(lattice))))
            return
        s = shift if level < d else 0
        i = (-s * n - den) // den + 1  # the first layer with hi > 0
        while True:
            lo = i * step + s
            hi = lo + step
            clip_lo, clip_hi = max(0, lo), min(den, hi)
            if clip_lo >= den:
                break
            if clip_hi > clip_lo:
                extents.append((clip_lo, clip_hi))
                lattice.append(min(max(i, 0), n - 1))
                rec(
                    level - 1,
                    shift + i * lattice_offsets.get(level, 0),
                    extents,
                    lattice,
                )
                extents.pop()
                lattice.pop()
            i += 1

    rec(d, 0, [], [])
    part = ShiftedPartition(d, n, delta, cells=cells, den=den)
    part.verify()
    return part


@dataclass
class Part:
    """One monochromatic connected component of the shifted partition."""

    id: int
    color: int
    cell_ids: tuple[int, ...]
    boxes: tuple[BoxCell, ...]
    volume: Fraction
    den: int

    def chain(self) -> RectChain:
        d = self.boxes[0].d
        return RectChain.make(d, d, MOD2, [(b, 1) for b in self.boxes], self.den)


def mono_parts(p: ShiftedPartition, g: GridColoring) -> list[Part]:
    """Group the partition cells into monochromatic parts, connected
    through closed box intersection: the flood fill that labels the grid's
    components (`gridcolor._label`), run on the partition's contacts.
    Part ids are assigned by the smallest member cell index, so the output
    is deterministic."""
    if p.d != g.d or p.n != g.n:
        raise ValueError(f"partition is ({p.d},{p.n}), coloring is ({g.d},{g.n})")
    colors = [g.color_at(pc.lattice) for pc in p.cells]
    table: list[list[int]] = [[] for _ in p.cells]
    for i, ahead in enumerate(p.later):
        table[i] += ahead
        for j in ahead:
            table[j].append(i)
    parts = []
    for pid, comp in enumerate(_label(table, colors)[1]):
        members = tuple(sorted(comp))
        boxes = tuple(p.cells[i].box for i in members)
        parts.append(
            Part(
                id=pid,
                color=colors[members[0]],
                cell_ids=members,
                boxes=boxes,
                volume=Fraction(sum(b.volume() for b in boxes), p.den**p.d),
                den=p.den,
            )
        )
    return parts


@dataclass
class Nerve:
    """Simplices of the covering nerve, keyed by dimension; simplices are
    sorted index tuples, and these maps are read with them directly.
    `faces` maps every simplex to its intersection chain: a vertex (i,) to
    the chain of part i, k+1 parts to the pieces of dimension d - k of
    their common intersection, each once.  `cofaces` maps a simplex to the
    simplices one vertex larger that contain it; a maximal simplex has no
    entry.  `skeleton` maps (part, k), k = 1..d, to the volume of the
    part's codimension-k skeleton (see `_strata`)."""

    simplices: dict[int, list[tuple[int, ...]]]
    faces: dict[tuple[int, ...], RectChain] = field(repr=False)
    cofaces: dict[tuple[int, ...], list[tuple[int, ...]]] = field(repr=False)
    skeleton: dict[tuple[int, int], Fraction] = field(repr=False)

    @property
    def max_dim(self) -> int:
        return max(self.simplices)


def _face(simplex: tuple[int, ...], pieces: list[BoxCell], den: int) -> RectChain:
    """The chain of dimension d - k carried by the distinct intersection
    pieces of k+1 parts, over `den`.  Each piece has dimension d - k, as
    `_strata` records a piece only for a clique of k+1 cells whose box is
    fixed on k axes; a piece of another dimension is a ChainError.

    Distinct cell pairs never overlap on positive measure in a simple
    partition; if they did, mod-2 addition would silently change the
    area, so that raises.  The test is exact: the mod-2 chain measures
    the set covered an odd number of times, which equals the pieces'
    total volume only when no two of them overlap on positive measure.
    """
    d = pieces[0].d
    target = d - (len(simplex) - 1)
    chain = RectChain.make(d, target, MOD2, [(b, 1) for b in pieces], den)
    if chain.volume() != Fraction(sum(b.volume() for b in pieces), den**target):
        raise IdentityError(
            f"nerve: intersection pieces of {simplex} overlap with positive measure"
        )
    return chain


def _strata(partition: ShiftedPartition, owner: dict[int, int]):
    """One walk over the cell cliques that hold two or more parts: the
    nerve's pieces and every part's skeleton volumes.

    `owner` maps each cell to its part.  Returns `pieces`, which maps each
    sorted tuple of distinct parts to the boxes of the cliques with one
    cell in each, and `volumes`, which maps (part, k), 1 <= k <= d, to the
    lattice volume over den^(d-k) of the part's codimension-k skeleton.
    Level 1 of a part's skeleton is its relative boundary, the union of
    its pair faces F(i, j); level k+1 is the union of the
    (d-k-1)-dimensional meets of level-k pieces fixed on different axes.
    A clique grows one cell at a time, in increasing cell order, and its
    box (the cells' common intersection) with it, from the pair boxes of
    `contacts`.  Only the box's free axes are intersected: the next cell
    touches every cell of the clique, so by Helly's theorem for boxes it
    meets their common box, and its interval on each fixed axis holds the
    box's coordinate there.  A clique of k+1 cells must meet in a box fixed
    on exactly k axes, as in a simple partition; else an IdentityError
    names them.

    The rule.  On each fixed axis of a clique's box B, a cell lies on the
    + side (its low end is B's coordinate there), on the - side (its high
    end is) or on both.  B is in part p's level-k skeleton exactly when
    the set of orthants that p's cells cover changes under a flip of each
    of the k axes; then vol(B) is added to (p, k).  The cells at a point x
    form a clique whose box holds x, and near x each is such a sign cone
    on every axis.  As the cells tile the cube, on each axis all of them
    lie on both sides, or some lie on each side alone: if none lay on the
    - side alone, the cells covering it would lie on both, and overlap
    any on the + side alone.
    So near x they are cones on the box's fixed axes times its free axes.
    Three facts make the rule local:

    1. A generic point x of B, off the boxes of larger cliques, meets only
       the clique's cells: one more would make a larger clique, whose box
       has fewer free axes.  So the cells' cones tile the 2^k orthants at
       x, and near x part p is the union of its cells' cones.
    2. The boxes of distinct (k+1)-cliques meet in measure zero: their
       cells form a larger clique, whose box holds the meet.
    3. Each skeleton level is local: whether it covers x depends only on
       the part near x.  Where just j+1 cells meet at x, the part is a
       cone on j axes there, whose skeleton stops at level j; so level k
       lies in the boxes of (k+1)-cliques up to measure zero, and by 2 its
       volume is the sum of theirs in it.

    On the cone model, a union of closed orthants of R^k with indicator
    f, the level-j pieces are faces F fixed at 0 on a set A of j axes,
    with signs off A.  Claim: F is in level j iff the restriction h of f
    to the 2^j orthants at F depends on every axis of A (h is full).  At
    j = 1 F is a wall iff f differs on its two sides.  At j > 1, F is in
    level j iff it is the meet of level-(j-1) faces fixed on A - {a} and
    A - {b}, a != b: by induction, iff some restrictions of h to x_a = s
    and to x_b = t are full; then h depends on every axis of A - {a} and
    of A - {b}, so of A.  Conversely let h be full, and a an axis.  Among
    the proper faces of {+,-}^A on which a is free and h is full (an edge
    across which h changes is one), take a largest, G.  If G fixed two
    axes or more, freeing one, b, would give a larger proper face, not
    full: so h is the same on G and on G flipped in b, again a largest
    such face, and flipping axis after axis, h would ignore G's fixed
    axes.  So G is a facet x_b = s with b != a; from b, the same gives a
    second axis.  At F = {0}, j = k: B is in level k iff p's orthant set
    depends on every axis.  At k = d the boxes are points, counted once.

    The skeleton is relative to the cube boundary, and no clique box lies
    in it: a fixed coordinate of B is one cell's high end and another's
    low end, and every cell has positive length on every axis.  With two
    parts the orthant sets are complements, so one test serves both; a
    subtree whose cells and candidates are all one part is skipped, as
    one part covers every orthant and makes no nerve piece.
    """
    d = partition.d
    boxes = [pc.box for pc in partition.cells]
    later = partition.later
    # bit o of low[t]: orthant o is on the - side of the clique's t-th fixed axis
    low = [sum(1 << o for o in range(1 << d) if not o >> t & 1) for t in range(d)]
    pieces: dict[tuple[int, ...], dict[BoxCell, None]] = {}
    volumes = dict.fromkeys([(p, k) for p in set(owner.values()) for k in range(1, d + 1)], 0)

    @cache
    def full(s: int, k: int) -> bool:  # the orthant set s depends on each of the k axes
        return all((s ^ s >> (1 << t)) & low[t] for t in range(k))

    def walk(clique, owners, cones, fixed, free, box, common):
        # fixed: (axis, coordinate) of the box's fixed axes, in the order
        # they were fixed, and free its other axes; bit t of an orthant is
        # its side of fixed[t] (1 for +), and cones[c] has bit o set when
        # clique[c] covers orthant o
        k = len(clique)
        half = 1 << len(fixed)
        mixed = owners.count(owners[0]) < k
        for j in common:
            bj = boxes[j]
            if k == 1:
                x = later[clique[0]][j]
            else:
                x = list(box)
                for b in free:
                    (alo, ahi), (blo, bhi) = box[b], bj[b]
                    x[b] = (alo if alo > blo else blo, ahi if ahi < bhi else bhi)
            new = [a for a in free if x[a][0] == x[a][1]]
            if len(new) != 1:
                raise IdentityError(
                    f"nerve: cells {clique + (j,)} meet in {BoxCell._from_valid(x)}, "
                    f"fixed on {len(fixed) + len(new)} axes, not {k}: "
                    "the partition is not simple"
                )
            (a,) = new
            at = x[a][0]
            still = [b for b in free if b != a]
            grown = []
            for i, ci in zip(clique, cones):
                lo, hi = boxes[i][a]
                grown.append(ci << half if lo == at else ci if hi == at else ci | ci << half)
            cone, t = 1, 1  # cell j's orthants, one fixed axis at a time
            for b, c in fixed + [(a, at)]:
                lo, hi = bj[b]
                cone = cone << t if lo == c else cone if hi == c else cone | cone << t
                t <<= 1
            o = owner[j]
            grown_mixed = mixed or o != owners[0]
            if grown_mixed:
                covered = {o: cone}
                for p, ci in zip(owners, grown):  # the cells before j
                    covered[p] = covered.get(p, 0) | ci
                if len(covered) == k + 1:
                    pieces.setdefault(tuple(sorted(covered)), {})[BoxCell._from_valid(x)] = None
                vol = 1
                for b in still:
                    lo, hi = x[b]
                    vol *= hi - lo
                if len(covered) == 2:  # complements: one test serves both
                    p, q = covered
                    if full(covered[p], k):
                        volumes[p, k] += vol
                        volumes[q, k] += vol
                else:
                    for p, s in covered.items():
                        if full(s, k):
                            volumes[p, k] += vol
            rest = common & later[j].keys()
            if rest and (grown_mixed or any(owner[c] != o for c in rest)):
                walk(
                    clique + (j,), owners + (o,), [*grown, cone], fixed + [(a, at)], still, x, rest
                )

    for i, ahead in enumerate(later):
        if any(owner[j] != owner[i] for j in ahead):
            walk((i,), (owner[i],), [1], [], list(range(d)), boxes[i], set(ahead))
    return pieces, volumes


def nerve(partition: ShiftedPartition, parts: list[Part]) -> Nerve:
    """All nonempty closed intersections of parts, with their chains, and
    the parts' skeleton volumes, from one clique walk (`_strata`).

    The parts must cover the partition's cells, each once.  The pieces of
    a simplex are the distinct boxes of the cell cliques with one cell in
    each of its parts.  Simplices are created in order of size, then index
    tuple.  A simplex with two parts of one color is a hard
    MultiplicityError: parts of one color that touch are one part.
    """
    if sorted(c for p in parts for c in p.cell_ids) != list(range(len(partition.cells))):
        raise ValueError("the parts' cell_ids must cover the partition's cells, each once")
    owner = {c: p.id for p in parts for c in p.cell_ids}
    color = {p.id: p.color for p in parts}
    pieces, volumes = _strata(partition, owner)
    levels: dict[int, list[tuple[int, ...]]] = {0: [(p.id,) for p in parts]}
    faces = {(p.id,): p.chain() for p in parts}
    cofaces: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for t in sorted(pieces, key=lambda t: (len(t), t)):
        first: dict[int, int] = {}  # color -> the first part of t with it
        for v in t:
            if (u := first.setdefault(color[v], v)) != v:
                raise MultiplicityError(t, u, v, color[v])
        levels.setdefault(len(t) - 1, []).append(t)
        faces[t] = _face(t, list(pieces[t]), partition.den)
        for v in t:
            cofaces.setdefault(tuple(u for u in t if u != v), []).append(t)
    den, d = partition.den, partition.d
    skeleton = {(p, k): Fraction(v, den ** (d - k)) for (p, k), v in volumes.items()}
    return Nerve(simplices=levels, faces=faces, cofaces=cofaces, skeleton=skeleton)


def _cycle(nrv: Nerve, fillings: dict[tuple[int, ...], RectChain], s) -> RectChain:
    """Z(s) = C(s) + the sum of F over the cofaces of s, in one mod-2 sum:
    the chain that contraction fills at s, and the cycle X_i at a vertex."""
    c = nrv.faces[s]
    return RectChain.sum(c.d, c.k, MOD2, [c, *(fillings[t] for t in nrv.cofaces.get(s, []))])


def contraction(nrv: Nerve) -> dict[tuple[int, ...], RectChain]:
    """The filling F(s) of every nerve simplex s of dimension >= 1, with
    boundary(F(s)) = C(s) minus the sum of F over the cofaces of s, built
    by descending induction from the deepest intersections.  The argument
    handed to the filling operator is checked to be a relative cycle; when
    it is not, eq2 fails at s and an IdentityError names s."""
    fillings: dict[tuple[int, ...], RectChain] = {}
    for k in range(nrv.max_dim, 0, -1):
        for s in nrv.simplices.get(k, []):
            try:
                fillings[s] = fill(_cycle(nrv, fillings, s))
            except FillError as exc:
                raise IdentityError(f"contraction: simplex {s}: {exc}") from exc
    return fillings


@dataclass
class AuditReport:
    """Everything the end-to-end audit measures, recomputed from chains."""

    d: int
    n: int
    m: int
    alpha: Fraction
    part_volumes: list[Fraction]
    S_table: dict[tuple[int, int], Fraction]  # (part, k) -> sum of filling volumes
    s_bound_rows: list[dict]
    s_bound_ok: bool
    eq2_ok: bool
    eq3_ok: bool
    dXi_zero: bool
    sum_is_Q: bool
    X_volumes: list[Fraction]
    max_X_volume: Fraction
    all_X_below_one: bool
    g_checks: list[dict]
    g_ok: bool
    failures: list[str]

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "n": self.n,
            "m": self.m,
            "alpha": _rat(self.alpha),
            "part_volumes": [_rat(v) for v in self.part_volumes],
            "S_table": [
                {"part": i0, "k": k, "value": _rat(v)}
                for (i0, k), v in sorted(self.S_table.items())
            ],
            "s_bound_rows": [
                {**row, "value": _rat(row["value"]), "bound": _rat(row["bound"])}
                for row in self.s_bound_rows
            ],
            "max_X_volume": _rat(self.max_X_volume),
            "X_volumes": [_rat(v) for v in self.X_volumes],
            "all_X_below_one": self.all_X_below_one,
            "identities": {
                "eq2": self.eq2_ok,
                "eq3": self.eq3_ok,
                "dXi_zero": self.dXi_zero,
                "sum_is_Q": self.sum_is_Q,
                "s_recursion": self.s_bound_ok,
            },
            "g_checks": [
                {**row, "skeleton": _rat(row["skeleton"]), "bound": _rat(row["bound"])}
                for row in self.g_checks
            ],
            "g_ok": self.g_ok,
            "failures": self.failures,
        }


def assemble_and_audit(
    parts: list[Part],
    nrv: Nerve,
    fillings: dict[tuple[int, ...], RectChain],
    n: int,
    m: int,
) -> AuditReport:
    """Assemble the per-part cycles and audit every exact identity and
    volume bound; every failure is listed in the report.  The skeleton
    rows read the volumes the nerve's clique walk left in `nrv.skeleton`.
    """
    d = parts[0].boxes[0].d
    failures: list[str] = []

    # intersection boundary relation, level by level; mod 2 a relation
    # holds when its two sides sum to zero off the cube boundary
    eq2_ok = True
    for k in range(0, nrv.max_dim + 1):
        for s in nrv.simplices.get(k, []):
            rhs = [nrv.faces[t] for t in nrv.cofaces.get(s, [])]
            if not vanishes(MOD2, walls=[nrv.faces[s]], chains=rhs):
                eq2_ok = False
                failures.append(f"boundary decomposition fails at simplex {s}")

    # contraction relation
    eq3_ok = True
    for s, f_chain in fillings.items():
        rhs = [nrv.faces[s], *(fillings[t] for t in nrv.cofaces.get(s, []))]
        if not vanishes(MOD2, walls=[f_chain], chains=rhs):
            eq3_ok = False
            failures.append(f"contraction relation fails at simplex {s}")

    # per-part cycles
    X_chains = [_cycle(nrv, fillings, (p.id,)) for p in parts]

    dXi_zero = True
    for p, x in zip(parts, X_chains):
        if not is_relative_cycle(x):
            dXi_zero = False
            failures.append(f"X_{p.id} is not a relative cycle")

    sum_is_Q = vanishes(MOD2, chains=[*X_chains, fundamental_chain(d, MOD2)])
    if not sum_is_Q:
        failures.append("the X_i do not sum to the fundamental class of the cube")

    X_volumes = [x.volume() for x in X_chains]
    max_X = max(X_volumes) if X_volumes else ZERO
    all_below = all(v < 1 for v in X_volumes)
    if all_below and sum_is_Q:
        # impossible: the fundamental class is not a boundary
        failures.append("every X_i has volume < 1 yet they sum to the cube")

    # filling-volume table: S(i0, k) sums over ordered index tuples, so an
    # unordered simplex containing i0 is counted k! times
    alpha = max(p.volume for p in parts) * Fraction(n) ** m
    S_table = {(p.id, k): ZERO for p in parts for k in range(1, m + 2)}
    for s, f_chain in fillings.items():
        k = len(s) - 1
        if k <= m + 1:
            term = f_chain.volume() * math.factorial(k)
            for i0 in s:
                S_table[(i0, k)] += term

    s_rows = []
    s_ok = True
    s_slack = {
        k: math.factorial(k + 1) * g_constant(d, k) * alpha * Fraction(n) ** (k - m)
        for k in range(1, m + 1)
    }
    for p in parts:
        for k in range(1, m + 1):
            value = S_table[(p.id, k)]
            bnd = s_slack[k] + S_table[(p.id, k + 1)]
            ok = value <= bnd
            s_rows.append({"part": p.id, "k": k, "value": value, "bound": bnd, "ok": ok})
            if not ok:
                s_ok = False
                failures.append(f"filling-volume recursion bound fails for part {p.id}, k={k}")

    g_rows = []
    g_ok = True
    g_scale = {k: g_constant(d, k) * Fraction(n) ** k for k in range(1, d + 1)}
    for p in parts:
        for k in range(1, d + 1):
            skel = nrv.skeleton[p.id, k]
            bnd = g_scale[k] * p.volume
            ok = skel <= bnd
            g_rows.append({"part": p.id, "k": k, "skeleton": skel, "bound": bnd, "ok": ok})
            if not ok:
                g_ok = False
                failures.append(f"skeleton-volume bound fails for part {p.id}, k={k}")

    return AuditReport(
        d=d,
        n=n,
        m=m,
        alpha=alpha,
        part_volumes=[p.volume for p in parts],
        S_table=S_table,
        s_bound_rows=s_rows,
        s_bound_ok=s_ok,
        eq2_ok=eq2_ok,
        eq3_ok=eq3_ok,
        dXi_zero=dXi_zero,
        sum_is_Q=sum_is_Q,
        X_volumes=X_volumes,
        max_X_volume=max_X,
        all_X_below_one=all_below,
        g_checks=g_rows,
        g_ok=g_ok,
        failures=failures,
    )


def certify_coloring(g: GridColoring, delta=None) -> AuditReport:
    """Run the whole pipeline on one coloring and audit it.  The audit's
    constants are defined for at most d+1 colors (m <= d)."""
    if g.num_colors > g.d + 1:
        raise ValueError(
            f"certify supports at most d+1 = {g.d + 1} colors, got {g.num_colors}"
        )
    if delta is None:
        delta = Fraction(1, 16 * g.n)
    partition = build_shifted_partition(g.d, g.n, delta)
    parts = mono_parts(partition, g)
    m = g.num_colors - 1
    nrv = nerve(partition, parts)
    fillings = contraction(nrv)
    return assemble_and_audit(parts, nrv, fillings, n=g.n, m=m)
