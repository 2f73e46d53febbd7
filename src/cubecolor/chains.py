"""Exact rectilinear chain algebra in the unit cube.

A chain is a formal sum of axis-aligned cells of one dimension k inside
Q = [0,1]^d, with coefficients mod 2 (default) or in Z.  A cell's corners
are plain ints, numerators over the denominator `den` of the chain that
holds it, so all identities checked on these chains (boundary relations,
volume inequalities) are exact, zero tolerance.  `Fraction` enters where
corners are read (`lattice_cells`, `random_relative_cycle`) and leaves
where numbers go out (`RectChain.volume`, `dumps_chain`).

Conventions used throughout:

* A cell is the tuple of its (lo, hi) extents, one per axis, so it
  equals a plain tuple with the same extents.  An axis with lo == hi is
  fixed at a point, the others span a closed interval; k is the number
  of interval axes.
* The boundary operator uses the alternating cubical sign rule: for the
  p-th interval axis (0-based, in increasing axis order) the top face
  enters with sign (-1)^p and the bottom face with -(-1)^p.  Mod 2 the
  signs are irrelevant.
* "Relative" always means modulo the boundary of the cube: cells whose
  support lies inside a facet {x_a = 0} or {x_a = 1} are discarded.
* Chains are kept canonical: within one affine plane no two stored
  cells overlap on a set of positive k-volume.  On each row (one
  elementary segment per free axis after the first) the cells are the
  maximal first-axis runs of equal coefficient, and these are joined
  once along each later free axis, in axis order, where they touch with
  equal coefficients.  A sweep along the last free axis computes them,
  merging only the cells that cross each slab.  The cells do not depend
  on how a chain was grouped or summed, and equality of chains is
  decided by checking that the difference cancels to the empty chain.
* A chain's value is its cells and their coefficients; the order of its
  terms carries no meaning.  `RectChain.cells()` is the sorted view used
  for output.
* Chains over different denominators combine over their lcm.  Rescaling
  the lattice maps cells in an order-preserving way, so it never changes
  a canonical form, a comparison or a choice made by `fill`.

The filling operator `fill` inverts the boundary on relative cycles of
dimension k < d without increasing volume.  It sweeps along the first
available axis, in one pass over the cycle per level.  The cut height t
is the midpoint of a slab where the cross-section volume is minimal; a
midpoint between two lattice points doubles the cycle's denominator
first.  Each cell fixed on the axis is coned to the facet on its side of
t, each cell whose interval straddles t gives its piece of the
cross-section, and every other cell spans the axis and cones to nothing.
The cross-section is filled recursively inside the slice cube and
extruded back across the axis.

Zero tests need no canonical form.  A sum of cells is zero modulo the
cube boundary exactly when, for every set of free axes and every point,
the signed corners of its cells off the cube boundary cancel there (a
corner with j upper ends counts (-1)^j); `vanishes` decides it this way
and gives the proof.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

MOD2 = "mod2"
INTEGER = "int"
_RINGS = (MOD2, INTEGER)


class ChainError(ValueError):
    """Malformed chain or invalid chain operation."""


class SectionError(ChainError):
    """Cut height collides with a breakpoint of the chain."""


class FillError(ChainError):
    """Filling was asked for something that is not a relative cycle."""


class BoxCell(tuple):
    """One axis-aligned cell: per axis either a fixed value or an interval.

    A cell is the tuple of its (lo, hi) int pairs, lo == hi meaning
    "fixed", numerators over the `den` of the chain or partition holding
    the cell.  So it is immutable and hashable, keys coefficient maps, and
    equals, hashes and orders as the plain tuple of the same extents.
    """

    __slots__ = ()

    def __new__(cls, extents):
        ext = []
        for e in extents:
            lo, hi = e if isinstance(e, tuple) else (e, e)
            if type(lo) is not int or type(hi) is not int or not 0 <= lo <= hi:
                raise ChainError(f"cell extent is not a pair of ints 0 <= lo <= hi: {e!r}")
            ext.append((lo, hi))
        return tuple.__new__(cls, ext)

    @classmethod
    def _from_valid(cls, extents: Iterable) -> "BoxCell":
        """A cell from (lo, hi) int pairs already known to satisfy
        0 <= lo <= hi <= den, such as pieces cut from existing cells."""
        return tuple.__new__(cls, extents)

    @property
    def extents(self) -> tuple:
        """The (lo, hi) pairs as a plain tuple."""
        return tuple(self)

    @property
    def d(self) -> int:
        return len(self)

    @property
    def k(self) -> int:
        return sum(1 for lo, hi in self if lo < hi)

    def volume(self) -> int:
        """The k-volume in lattice units: the true volume times den^k."""
        v = 1
        for lo, hi in self:
            if lo < hi:
                v *= hi - lo
        return v

    def in_cube_boundary(self, den: int) -> bool:
        """True when the whole cell lies inside a facet of the cube."""
        for lo, hi in self:
            if lo == hi and (lo == 0 or lo == den):
                return True
        return False

    def replace(self, axis: int, lo: int, hi: int) -> "BoxCell":
        """This cell with the extent (lo, hi) on `axis`, 0 <= lo <= hi <= den."""
        return BoxCell._from_valid(self[:axis] + ((lo, hi),) + self[axis + 1 :])

    def scaled(self, factor: int) -> "BoxCell":
        """The same cell over a denominator `factor` times larger."""
        return BoxCell._from_valid((lo * factor, hi * factor) for lo, hi in self)

    def intersect(self, other: "BoxCell") -> "BoxCell | None":
        """Closed intersection, or None when empty.  May drop dimension."""
        ext = []
        for (alo, ahi), (blo, bhi) in zip(self, other):
            lo, hi = max(alo, blo), min(ahi, bhi)
            if lo > hi:
                return None
            ext.append((lo, hi))
        return BoxCell._from_valid(ext)

    def __repr__(self):
        parts = []
        for lo, hi in self:
            parts.append(f"{lo}" if lo == hi else f"[{lo},{hi}]")
        return "Cell(" + " x ".join(parts) + ")"


def lattice_cells(specs) -> tuple[int, list[BoxCell]]:
    """Cells from rational corners: per axis a value or a (lo, hi) pair in
    [0, 1], as anything `Fraction` accepts (`"1/3"`, `Fraction(1, 3)`, `0`).
    Returns the corners' least common denominator and the cells over it."""
    boxes = [
        [tuple(map(Fraction, e)) if isinstance(e, tuple) else (Fraction(e),) * 2 for e in spec]
        for spec in specs
    ]
    if not all(0 <= lo <= hi <= 1 for box in boxes for lo, hi in box):
        raise ChainError("cell extents must satisfy 0 <= lo <= hi <= 1")
    den = math.lcm(*(v.denominator for box in boxes for pair in box for v in pair))
    return den, [BoxCell([(int(lo * den), int(hi * den)) for lo, hi in box]) for box in boxes]


def contacts(boxes: Sequence[BoxCell]) -> list[tuple[int, int, BoxCell]]:
    """Every pair i < j of closed boxes that meet, with their closed
    intersection, as (i, j, box) sorted by (i, j), over their common den.

    A sort-and-sweep by lower endpoint on the first axis keeps the earlier
    boxes whose interval there is still open.  Of those, only the ones
    whose interval on the second axis meets box j's are tested on every
    axis and intersected, stopping at the first empty axis.  Closed boxes
    meet exactly when their intervals meet on every axis, so both filters
    drop only pairs that are apart and the result is the all-pairs one.
    """
    if not boxes:
        return []
    second = 1 if len(boxes[0]) > 1 else 0
    lo1, hi1 = [b[0][0] for b in boxes], [b[0][1] for b in boxes]
    lo2, hi2 = [b[second][0] for b in boxes], [b[second][1] for b in boxes]
    active: list[int] = []
    out = []
    for j in sorted(range(len(boxes)), key=lo1.__getitem__):
        active = [i for i in active if hi1[i] >= lo1[j]]
        lj, hj = lo2[j], hi2[j]
        for i in [i for i in active if lo2[i] <= hj and hi2[i] >= lj]:
            ext = []
            for (alo, ahi), (blo, bhi) in zip(boxes[i], boxes[j]):
                lo = alo if alo > blo else blo
                hi = ahi if ahi < bhi else bhi
                if lo > hi:
                    break
                ext.append((lo, hi))
            else:
                out.append((min(i, j), max(i, j), BoxCell._from_valid(ext)))
        active.append(j)
    return sorted(out, key=lambda t: t[:2])


def _reduce_coef(coef: int, ring: str) -> int:
    if ring == MOD2:
        return coef % 2
    return coef


def _merge_plane(ring: str, key: tuple, members: list[tuple[BoxCell, int]]):
    """Yield the canonical cells of one plane's members, summed and reduced.

    `_canonical_terms` sends no point's plane here.  `_sweep` cuts the last
    free axis on the members' breakpoints.  In each slab it merges only the
    members that cross it, on the axes before (recursively; on the first
    axis by a step sweep), then extends each box of the slab below that
    goes on with the same coefficient and closes the others: the join
    along the last axis.  The row grid of the module docstring gives the
    same cells.  Its passes before the last group by the extent on the
    last axis, so they run slab by slab, on rows also cut on the
    breakpoints of members that miss the slab; and extra cuts change
    nothing.  Cutting a row's segment on axis j in two splits each of its
    runs into two copies with equal coefficient.  The passes before j group
    by the extent on j, so they treat each copy as the uncut row; pass j
    joins the copies back, as it joins the maximal runs of equal
    coefficient on each line; later passes see the same boxes.  One round
    of joins suffices: each row's runs are maximal; pass j leaves boxes
    maximal along j within each group of equal other extents; a later pass
    i keeps every axis-j extent and makes one box per axis-i segment with
    all its other extents, so two of its boxes that could join along j had
    pieces that pass j would have joined.
    """
    free = [a for a, v in enumerate(key) if v is None]
    spans = [(tuple([c[a] for a in free]), cf) for c, cf in members]
    for ext, cf in _sweep(ring, spans, len(free) - 1):
        full = [(v, v) for v in key]
        for a, e in zip(free, ext):
            full[a] = e
        yield BoxCell._from_valid(full), cf


def _sweep(ring: str, spans: list, axis: int) -> list:
    """The merged (extents on axes 0..axis, coef) boxes of `spans`,
    (extents on the free axes, reduced coef) pairs; a lone span stays."""
    if len(spans) == 1:
        ext, cf = spans[0]
        return [(ext[: axis + 1], cf)]
    out = []
    if not axis:
        steps = {}
        for ext, cf in spans:
            lo, hi = ext[0]
            steps[lo] = steps.get(lo, 0) + cf
            steps[hi] = steps.get(hi, 0) - cf
        total, run = 0, None
        for t in sorted(steps):
            total += steps[t]
            cf = _reduce_coef(total, ring)
            if run and run[1] != cf:
                out.append((((run[0], t),), run[1]))
                run = None
            if cf and not run:
                run = (t, cf)
        return out
    starts, ends, runs, active = {}, {}, {}, {}
    for i, (ext, _) in enumerate(spans):
        lo, hi = ext[axis]
        starts.setdefault(lo, []).append(i)
        ends.setdefault(hi, []).append(i)
    for t in sorted(starts.keys() | ends.keys()):
        for i in ends.get(t, ()):
            del active[i]
        for i in starts.get(t, ()):
            active[i] = spans[i]
        opened = {}  # (start, coef) of the runs through the slab from t, by other extents
        for rest, cf in _sweep(ring, list(active.values()), axis - 1) if active else ():
            run = runs.get(rest)
            if run and run[1] == cf:
                del runs[rest]
            else:
                run = (t, cf)
            opened[rest] = run
        out += [((*rest, (lo, t)), cf) for rest, (lo, cf) in runs.items()]
        runs = opened
    return out


def _canonical_terms(ring: str, raw: Iterable, d: int, k: int) -> dict[BoxCell, int]:
    """Resolve coplanar overlaps and merge adjacent equal-coefficient cells.

    One pass checks that every cell is a k-cell in dimension d (zero
    coefficients included), reduces its coefficient and groups the nonzero
    ones by affine plane.  On each plane the coefficients of identical
    cells are summed.  A plane left with one nonzero cell passes through,
    as a lone box split on any grid merges back to itself; otherwise
    `_merge_plane` runs over its distinct live cells.
    """
    groups: dict[tuple, list[tuple[BoxCell, int]]] = {}
    for c, coef in raw:
        key = tuple([None if lo < hi else lo for lo, hi in c])
        if len(key) != d:
            raise ChainError(f"cell dimension {len(key)} does not match d={d}")
        if key.count(None) != k:
            raise ChainError(f"cell {c} has dimension {key.count(None)}, expected {k}")
        coef = _reduce_coef(coef, ring)
        if coef:
            groups.setdefault(key, []).append((c, coef))
    out: dict[BoxCell, int] = {}
    for key, members in groups.items():
        if len(members) > 1:
            summed: dict[BoxCell, int] = {}
            for c, cf in members:
                summed[c] = summed.get(c, 0) + cf
            members = [(c, cf) for c, n in summed.items() if (cf := _reduce_coef(n, ring))]
            if len(members) > 1:
                out.update(_merge_plane(ring, key, members))
                continue
        out.update(members)  # at most one
    return out


@dataclass
class RectChain:
    """Formal sum of k-dimensional cells in [0,1]^d over `den`, kept canonical."""

    d: int
    k: int
    ring: str
    terms: dict[BoxCell, int]
    den: int

    @staticmethod
    def make(d: int, k: int, ring: str, raw: Iterable, den: int) -> "RectChain":
        if ring not in _RINGS:
            raise ChainError(f"unknown coefficient ring {ring!r}")
        return RectChain(d, k, ring, _canonical_terms(ring, raw, d, k), den)

    @staticmethod
    def sum(d: int, k: int, ring: str, chains: Iterable["RectChain"]) -> "RectChain":
        """The sum of k-chains in one canonicalization, over the lcm of
        their denominators."""
        chains = list(chains)
        den = math.lcm(*(c.den for c in chains))
        raw = [term for c in chains for term in c.rescale(den).terms.items()]
        return RectChain.make(d, k, ring, raw, den)

    @staticmethod
    def zero(d: int, k: int, ring: str = MOD2) -> "RectChain":
        return RectChain(d, k, ring, {}, 1)

    def rescale(self, den: int) -> "RectChain":
        """The same chain over `den`, a multiple of self.den.  Scaling keeps
        the order of the coordinates, so the terms stay canonical."""
        if den == self.den:
            return self
        factor, rest = divmod(den, self.den)
        if rest:
            raise ChainError(f"cannot rescale a chain over {self.den} to {den}")
        terms = {c.scaled(factor): cf for c, cf in self.terms.items()}
        return RectChain(self.d, self.k, self.ring, terms, den)

    def is_zero(self) -> bool:
        return not self.terms

    def cells(self) -> Iterator[tuple[BoxCell, int]]:
        return iter(sorted(self.terms.items()))

    def volume(self) -> Fraction:
        return Fraction(sum(abs(cf) * c.volume() for c, cf in self.terms.items()), self.den**self.k)

    def _check_compatible(self, other: "RectChain"):
        if self.d != other.d or self.ring != other.ring:
            raise ChainError("chains live in different complexes")
        if self.terms and other.terms and self.k != other.k:
            raise ChainError(f"cannot combine a {self.k}-chain with a {other.k}-chain")

    def __add__(self, other: "RectChain") -> "RectChain":
        self._check_compatible(other)
        k = self.k if self.terms else other.k
        return RectChain.sum(self.d, k, self.ring, (self, other))

    def __neg__(self) -> "RectChain":
        if self.ring == MOD2:
            return self
        terms = {c: -cf for c, cf in self.terms.items()}
        return RectChain(self.d, self.k, self.ring, terms, self.den)

    def __sub__(self, other: "RectChain") -> "RectChain":
        return self + (-other)

    def __eq__(self, other) -> bool:
        """Semantic equality: the difference cancels pointwise."""
        if not isinstance(other, RectChain):
            return NotImplemented
        if self.d != other.d or self.ring != other.ring:
            return False
        if self.terms and other.terms and self.k != other.k:
            return False
        return (self - other).is_zero()

    def __len__(self) -> int:
        return len(self.terms)

    def __repr__(self):
        if self.is_zero():
            return f"RectChain(d={self.d}, k={self.k}, 0)"
        return f"RectChain(d={self.d}, k={self.k}, {len(self.terms)} cells, vol={self.volume()})"


def fundamental_chain(d: int, ring: str = MOD2) -> RectChain:
    """The d-chain covering the cube once."""
    return RectChain.make(d, d, ring, [(BoxCell([(0, 1)] * d), 1)], 1)


def modulo_boundary(c: RectChain) -> RectChain:
    """Discard cells supported inside the boundary of the cube.  Whether a
    cell lies there depends only on its plane, so whole planes go and a
    canonical chain stays canonical."""
    kept = {b: cf for b, cf in c.terms.items() if not b.in_cube_boundary(c.den)}
    return RectChain(c.d, c.k, c.ring, kept, c.den)


def boundary(c: RectChain, relative: bool = False) -> RectChain:
    """Cubical boundary; with `relative` the faces inside the cube boundary
    are discarded, i.e. the class is taken modulo the cube boundary.

    For 0-chains only the relative boundary is defined here (it vanishes);
    asking for the absolute one raises, since 0-cells carry only the
    augmentation.
    """
    if c.k == 0:
        if not relative:
            raise ChainError("0-chains have no absolute boundary here (augmentation only)")
        return RectChain.zero(c.d, 0, c.ring)
    raw = []
    for b, coef in c.terms.items():
        if relative and b.in_cube_boundary(c.den):
            continue  # with all its faces; other cells lose only faces fixed at 0 or 1
        sign = coef
        for axis, (lo, hi) in enumerate(b):
            if lo == hi:
                continue
            head, tail = b[:axis], b[axis + 1 :]
            if not (relative and hi == c.den):
                raw.append((BoxCell._from_valid(head + ((hi, hi),) + tail), sign))
            if not (relative and lo == 0):
                raw.append((BoxCell._from_valid(head + ((lo, lo),) + tail), -sign))
            sign = -sign
    return RectChain.make(c.d, c.k - 1, c.ring, raw, c.den)


def vanishes(
    ring: str, walls: Iterable[RectChain] = (), chains: Iterable[RectChain] = ()
) -> bool:
    """True when the relative boundaries of `walls` plus `chains` sum to
    zero modulo the cube boundary, decided without building a chain.

    Cells inside the cube boundary are dropped.  Every other cell adds its
    corners over the lcm of the denominators, keyed by its free axes and
    the corner point: a corner with j upper ends counts coef * (-1)^j.  A
    wall cell adds the corners of its faces instead, except the faces in
    the cube boundary.  Its two faces across its p-th free axis a lie on
    one plane and together hold all of its corners; with the signs
    `boundary` gives them, a corner with j upper ends counts
    -coef * (-1)^(p+j) there on either face.  That is -(-1)^p times the
    cell's own count at the corner, and p depends only on the free axes.
    So the walls' own corner counts are summed first, per set of free
    axes, and each sum goes once to the plane of each free axis a, times
    -(-1)^p, keeping the points strictly inside (0, 1) on a: the faces
    through the others lie in the cube boundary.  The sum vanishes
    exactly when every count cancels, mod 2 or over Z.

    One pass reads each cell's extents once, unscaled when its chain is
    over the lcm.  Mod 2 only odd coefficients count, and a cell's corners,
    all distinct, are XORed as one set into the set of its free axes, as
    is each projection of a wall set; over Z each corner adds coef times
    its sign, from one table per chain.

    Proof: a sum of k-cells is zero modulo the cube boundary when on each
    k-plane off that boundary its coefficients cancel almost everywhere,
    hence everywhere on half-open boxes.  On each free axis [lo, hi) is
    H(x - lo) - H(x - hi), H the step function (1 where x >= 0), so a box
    is the signed sum of the orthant indicators prod H(x_a - v_a) at its
    corners v.  Those at distinct points are linearly independent over Z
    and over GF(2): evaluate a combination at a point v componentwise
    minimal among those with a nonzero count; the orthant at w holds v
    only when w <= v, so the value is the count at v, not zero.
    """
    walls, chains = list(walls), list(chains)
    den = math.lcm(*(c.den for c in walls), *(c.den for c in chains))
    mod2 = ring == MOD2
    # free axes as a bit mask -> corner counts: of the walls' own cells, and of the sum
    own: dict[int, set | dict] = {}
    planes: dict[int, set | dict] = {}
    for c, into in [(c, own) for c in walls] + [(c, planes) for c in chains]:
        f, top = den // c.den, c.den
        signs = [1]  # (-1)^(upper ends) of each corner of a cell, in product order
        for _ in range(0 if mod2 else c.k):
            signs = [s for t in signs for s in (t, -t)]
        for b, coef in c.terms.items():
            if mod2 and not coef % 2:
                continue
            ends, mask = [], 0
            for a, e in enumerate(b):
                lo, hi = e
                if lo < hi:
                    ends.append(e if f == 1 else (lo * f, hi * f))
                    mask |= 1 << a
                elif 0 < lo < top:
                    ends.append((lo * f,))
                else:
                    break  # the cell lies in the cube boundary
            else:
                if mod2:  # corners of one box are distinct: toggle each
                    corners = set(itertools.product(*ends))
                    if mask in into:
                        into[mask] ^= corners
                    else:
                        into[mask] = corners
                else:
                    counts = into.setdefault(mask, {})
                    for v, s in zip(itertools.product(*ends), signs, strict=True):
                        counts[v] = counts.get(v, 0) + coef * s
    for mask, counts in own.items():
        sign = -1  # -(-1)^p across the p-th free axis
        for a in range(mask.bit_length()):
            if mask >> a & 1:
                face = mask ^ (1 << a)
                if mod2:
                    kept = {v for v in counts if 0 < v[a] < den}
                    if face in planes:
                        planes[face] ^= kept
                    else:
                        planes[face] = kept
                else:
                    tally = planes.setdefault(face, {})
                    for v, n in counts.items():
                        if 0 < v[a] < den:
                            tally[v] = tally.get(v, 0) + sign * n
                sign = -sign
    if mod2:
        return not any(planes.values())
    return not any(n for counts in planes.values() for n in counts.values())


def is_relative_cycle(z: RectChain) -> bool:
    """True when the boundary of z is supported inside the cube boundary."""
    return vanishes(z.ring, walls=[z])


def _axis_breakpoints(z: RectChain, axis: int) -> list[int]:
    pts = {0, z.den}
    for b in z.terms:
        lo, hi = b[axis]
        pts.add(lo)
        pts.add(hi)
    return sorted(pts)


def sweep_slabs(z: RectChain, axis: int) -> list[tuple[int, int, int]]:
    """Decompose [0,1] into slabs on which the cross-section is constant.

    Returns (lo, hi, section_volume) per slab, lo and hi as numerators
    over z.den and the section volume over z.den^(k-1).
    The section at height t inside a slab consists of the cells with an
    interval on `axis` containing the slab, each contributing its
    (k-1)-volume.  Integrating section volume over t recovers exactly the
    volume of the part of z parallel to the axis.  Each such cell adds its
    section weight at its low end and takes it off at its high end, so
    one running sum over the breakpoints gives every slab.
    """
    steps: dict[int, int] = {}
    for b, cf in z.terms.items():
        lo, hi = b[axis]
        if lo < hi:
            w = abs(cf) * (b.volume() // (hi - lo))
            steps[lo] = steps.get(lo, 0) + w
            steps[hi] = steps.get(hi, 0) - w
    pts = _axis_breakpoints(z, axis)
    slabs, sec = [], 0
    for lo, hi in zip(pts, pts[1:]):
        sec += steps.get(lo, 0)
        slabs.append((lo, hi, sec))
    return slabs


def _cone_sign(b: BoxCell, axis: int) -> int:
    # (-1)^q, q the number of interval axes before `axis`: the position the
    # axis takes among the interval axes of the cone, or has in a section
    sign = 1
    for lo, hi in b[:axis]:
        if lo < hi:
            sign = -sign
    return sign


def _pick_slab(z: RectChain, axis: int) -> int:
    """Midpoint of the min-section slab (leftmost on ties), over 2 * z.den."""
    best = None
    for lo, hi, sec in sweep_slabs(z, axis):
        if best is None or sec < best[0]:
            best = (sec, lo, hi)
    _, lo, hi = best
    return lo + hi


def _fill_rec(z: RectChain, axes: tuple[int, ...]) -> RectChain:
    """One sweep level along axes[0] in one pass over z: a cell fixed on the
    axis at c cones onto (0, c) below the cut t and onto (c, 1), negated,
    above it; a cell straddling t gives its piece of the section, which is
    filled in the slice cube and extruded; other cones are degenerate."""
    if z.is_zero():
        return RectChain.zero(z.d, z.k + 1, z.ring)
    axis = axes[0]
    t = _pick_slab(z, axis)  # over 2 * z.den: when odd, refine the lattice
    z, t = (z.rescale(2 * z.den), t) if t % 2 else (z, t // 2)
    den = z.den
    section, raw = [], []
    for b, coef in z.terms.items():
        lo, hi = b[axis]
        if t == lo or t == hi:
            raise SectionError(f"cut height {Fraction(t, den)} hits a breakpoint of the chain")
        if lo == hi:
            sign = coef * _cone_sign(b, axis)
            if lo < t:
                raw.append((b.replace(axis, 0, lo), sign))
            else:
                raw.append((b.replace(axis, lo, den), -sign))
        elif lo < t < hi:
            section.append((b.replace(axis, t, t), coef * _cone_sign(b, axis)))
    z_t = RectChain.make(z.d, max(z.k - 1, 0), z.ring, section, den)
    if not z_t.is_zero():
        w = _fill_rec(z_t, axes[1:])
        den = math.lcm(den, w.den)
        if den != z.den:
            raw = [(b.scaled(den // z.den), cf) for b, cf in raw]
        f = den // w.den
        raw += [
            (b.scaled(f).replace(axis, 0, den), -cf * _cone_sign(b, axis))
            for b, cf in w.terms.items()
        ]
    return RectChain.make(z.d, z.k + 1, z.ring, raw, den)


def fill(z: RectChain) -> RectChain:
    """Economical filling of a relative cycle.

    Returns a (k+1)-chain H with boundary(H) = z modulo the cube boundary
    and ||H|| <= ||z||, both exact.  Requires k < d and that z is a
    relative cycle; in the integer ring fill(-z) == -fill(z) because every
    choice made during the sweep depends only on |coefficients|.
    """
    if z.k >= z.d:
        raise FillError(f"cannot fill a {z.k}-cycle in dimension {z.d}")
    z = modulo_boundary(z)
    if not is_relative_cycle(z):
        raise FillError("input is not a relative cycle")
    return _fill_rec(z, tuple(range(z.d)))


def random_relative_cycle(
    seed: int, d: int, k: int, size: int = 2, ring: str = MOD2
) -> RectChain:
    """Deterministic test-data generator: the relative boundary of `size`
    random (k+1)-dimensional boxes, a relative cycle by d(d(c)) = 0."""
    if not 0 <= k < d:
        raise ChainError(f"need 0 <= k < d, got k={k}, d={d}")
    if size < 1:
        raise ChainError(f"need size >= 1, got {size}")
    rng = random.Random(seed)
    specs, coefs = [], []
    for _ in range(size):
        axes = sorted(rng.sample(range(d), k + 1))
        ext = []
        for a in range(d):
            den = rng.choice([4, 5, 6, 8, 10, 12])
            if a in axes:
                i, j = sorted(rng.sample(range(den + 1), 2))
                ext.append((Fraction(i, den), Fraction(j, den)))
            else:
                ext.append(Fraction(rng.randint(1, den - 1), den))
        specs.append(ext)
        coefs.append(1 if ring == MOD2 else rng.choice([1, 1, 2, -1, -2]))
    den, cells = lattice_cells(specs)
    c = RectChain.make(d, k + 1, ring, zip(cells, coefs), den)
    if c.is_zero():  # random boxes collided and cancelled; perturb the seed
        return random_relative_cycle(seed + 10_000_019, d, k, size, ring)
    return boundary(c, relative=True)


def dumps_chain(c: RectChain) -> str:
    """Text dump, one cell per line: "coef | F p/q | I p/q p/q | ..."."""
    lines = [f"# d={c.d} k={c.k} ring={c.ring}"]
    for b, coef in c.cells():
        specs = []
        for lo, hi in b:
            lo, hi = Fraction(lo, c.den), Fraction(hi, c.den)
            specs.append(f"F {lo}" if lo == hi else f"I {lo} {hi}")
        lines.append(f"{coef} | " + " | ".join(specs))
    return "\n".join(lines) + "\n"
