"""Shifted partitions, parts, nerve, intersection chains, contraction,
and the end-to-end audit."""

import dataclasses
import json
import re
from fractions import Fraction as F
from itertools import combinations, product
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubecolor.bounds import g_constant
from cubecolor.chains import (
    MOD2,
    BoxCell,
    RectChain,
    boundary,
    contacts,
    fill,
    is_relative_cycle,
    lattice_cells,
    modulo_boundary,
)
from cubecolor.gridcolor import parse_coloring
from cubecolor.nervecontract import (
    IdentityError,
    MultiplicityError,
    Nerve,
    Part,
    PartitionCell,
    PartitionError,
    ShiftedPartition,
    _face,
    assemble_and_audit,
    build_shifted_partition,
    certify_coloring,
    contraction,
    mono_parts,
    nerve,
)
from cubecolor.search import random_coloring

from oracles import pair_face_walls, skeleton_from_walls, skeleton_volumes, union_normalize


DATA = Path(__file__).parent / "data"
DELTA = {2: F(1, 16), 3: F(1, 48), 4: F(1, 64)}


def interval_axes(box):
    """The axes on which a cell spans an interval, in increasing order."""
    return tuple(a for a, (lo, hi) in enumerate(box.extents) if lo < hi)


def fractions_of(box, den):
    """The box's extents as Fraction pairs."""
    return [(F(lo, den), F(hi, den)) for lo, hi in box.extents]


# ----------------------------------------------------------- partitions


def test_partition_d1_is_unshifted():
    p = build_shifted_partition(1, 3, F(1, 16))
    assert len(p.cells) == 3
    assert [fractions_of(pc.box, p.den)[0] for pc in p.cells] == [
        (F(0), F(1, 3)),
        (F(1, 3), F(2, 3)),
        (F(2, 3), F(1)),
    ]
    assert [pc.lattice for pc in p.cells] == [(0,), (1,), (2,)]


def test_partition_d2_n2_sliver_and_multiplicity():
    p = build_shifted_partition(2, 2, F(1, 16))
    assert len(p.cells) == 5  # 4 descendants of the grid cells plus 1 sliver
    assert p.max_multiplicity() == full_walk_multiplicity(p) == 3  # simple: d + 1
    assert p.den == 80  # level 2 shifts by delta/5
    widths = sorted(F(hi - lo, p.den) for (lo, hi), _ in (pc.box.extents for pc in p.cells))
    assert widths[0] == F(1, 80)  # the sliver, delta / first-prime-above-2
    total = sum(pc.box.volume() for pc in p.cells)
    assert total == p.den**2


def test_partition_d3_n3_tiles_exactly():
    p = build_shifted_partition(3, 3, DELTA[3])
    assert p.den == 48 * 7 * 11  # levels 2 and 3 shift by delta/7 and delta/11
    assert sum(pc.box.volume() for pc in p.cells) == p.den**3
    assert p.max_multiplicity() == full_walk_multiplicity(p) <= 4


def test_partition_provenance_clamped():
    p = build_shifted_partition(2, 2, F(1, 16))
    sliver = min(p.cells, key=lambda pc: pc.box.volume())
    assert sliver.lattice == (0, 1)  # nearest original cell


def contains_point(box: BoxCell, point) -> bool:
    return all(lo <= x <= hi for (lo, hi), x in zip(box.extents, point))


def scan_multiplicity(p):
    """Oracle: count the cells containing each vertex of the arrangement
    (every combination of cell endpoints, one value per axis)."""
    axes = [sorted({v for pc in p.cells for v in pc.box.extents[a]}) for a in range(p.d)]
    return max(sum(1 for pc in p.cells if contains_point(pc.box, pt)) for pt in product(*axes))


def cliques(p, key):
    """The cliques of the partition's contact graph whose cells have
    strictly increasing `key[i]`, each once as a tuple of cell ids, in
    lexicographic order: the sets of such cells with a common point."""
    later = [set() for _ in p.cells]
    for i, j, _ in contacts([pc.box for pc in p.cells]):
        if key[i] > key[j]:
            i, j = j, i
        if key[i] < key[j]:
            later[i].add(j)

    def walk(clique, common):
        yield clique
        for j in sorted(common):
            yield from walk(clique + (j,), common & later[j])

    for i in range(len(p.cells)):
        yield from walk((i,), later[i])


def full_walk_multiplicity(p):
    """Oracle: the size of the largest of all the cliques, every one walked."""
    return max(map(len, cliques(p, range(len(p.cells)))), default=0)


def partition_of(boxes, d) -> ShiftedPartition:
    """A partition of boxes given by rational corners."""
    den, cells = lattice_cells(boxes)
    return ShiftedPartition(
        d=d,
        n=1,
        delta=F(0),
        cells=[PartitionCell(b, (0,) * d) for b in cells],
        den=den,
    )


@pytest.mark.parametrize("d,n", [(d, n) for d in (1, 2, 3) for n in (1, 2, 3, 4)])
def test_multiplicity_sweep_matches_vertex_scan(d, n):
    p = build_shifted_partition(d, n, F(1, 16 * n))  # certify's default delta
    assert p.max_multiplicity() == scan_multiplicity(p) == full_walk_multiplicity(p)


@pytest.mark.parametrize("d,n", [(2, 8), (3, 4), (4, 3), (5, 2), (5, 3)])
def test_pruned_multiplicity_matches_the_full_clique_walk(d, n):
    p = build_shifted_partition(d, n, F(1, 16 * n))
    assert p.max_multiplicity() == full_walk_multiplicity(p) == d + 1


def _coordinate():
    # small denominators, so corners coincide and boxes touch at faces
    # and corners often; lo == hi gives a zero-width extent
    return st.integers(1, 4).flatmap(lambda q: st.integers(0, q).map(lambda k: F(k, q)))


@st.composite
def box_families(draw):
    d = draw(st.integers(1, 3))
    extent = st.tuples(_coordinate(), _coordinate()).map(lambda e: tuple(sorted(e)))
    boxes = draw(st.lists(st.lists(extent, min_size=d, max_size=d), min_size=1, max_size=9))
    return partition_of(boxes, d)


@settings(max_examples=150, deadline=None)
@given(box_families())
def test_multiplicity_sweep_matches_vertex_scan_on_box_families(p):
    assert p.max_multiplicity() == scan_multiplicity(p) == full_walk_multiplicity(p)


def test_multiplicity_counts_boxes_touching_at_a_corner_and_a_face():
    half = F(1, 2)
    corner = [((0, half), (0, half)), ((half, 1), (half, 1))]
    face = [((0, half), (0, 1)), ((half, 1), (0, 1)), ((half, half), (half, half))]
    for boxes, want in [(corner, 2), (face, 3)]:
        p = partition_of(boxes, 2)
        assert p.max_multiplicity() == full_walk_multiplicity(p) == want


@pytest.mark.parametrize("d", [2, 3])
def test_unshifted_grid_fails_genericity(d):
    # all offsets zero: the 2^d cells of the n=2 grid meet at the centre
    cells = [
        PartitionCell(BoxCell([(c, c + 1) for c in coords]), coords)
        for coords in product((0, 1), repeat=d)
    ]
    p = ShiftedPartition(
        d=d,
        n=2,
        delta=F(1, 32),
        cells=cells,
        den=2,
    )
    assert p.max_multiplicity() == full_walk_multiplicity(p) == 2**d
    with pytest.raises(PartitionError, match=rf"multiplicity {2**d} exceeds d\+1 = {d + 1}"):
        p.verify()


def test_verify_overlap_needs_positive_measure():
    half, quarter = F(1, 2), F(1, 4)
    # the volumes sum to 1, so only the overlap test can reject these cells
    with pytest.raises(PartitionError, match="cells overlap"):
        partition_of([[(0, half)], [(quarter, 3 * quarter)]], 1).verify()
    # cells meeting in a point do not overlap
    partition_of([[(0, half)], [(half, 1)]], 1).verify()
    # the 2x2 grid meets along faces and, diagonally, at the centre
    # corner: verify gets past the overlap test and stops at multiplicity
    grid = [
        [(a * half, (a + 1) * half), (b * half, (b + 1) * half)]
        for a in (0, 1)
        for b in (0, 1)
    ]
    with pytest.raises(PartitionError, match="point multiplicity 4"):
        partition_of(grid, 2).verify()


def test_partition_rejects_large_delta():
    with pytest.raises(PartitionError):
        build_shifted_partition(2, 2, F(1, 8))  # not < 1/(4n)
    with pytest.raises(PartitionError):
        build_shifted_partition(2, 2, 0)


# ---------------------------------------------------------------- parts


def test_single_color_single_part():
    p = build_shifted_partition(2, 2, F(1, 16))
    g = parse_coloring("2 2 1\n0 0 0 0")
    parts = mono_parts(p, g)
    assert len(parts) == 1
    assert parts[0].volume == 1
    assert len(parts[0].cell_ids) == len(p.cells)


def test_checkerboard_shift_breaks_one_diagonal():
    # the shift separates the color-0 diagonal but keeps color 1 connected
    p = build_shifted_partition(2, 2, F(1, 16))
    g = parse_coloring("2 2 2\n0 1 1 0")
    parts = mono_parts(p, g)
    assert len(parts) == 3
    by_color = {}
    for pt in parts:
        by_color.setdefault(pt.color, []).append(pt)
    assert len(by_color[0]) == 2
    assert len(by_color[1]) == 1
    assert sorted(pt.volume for pt in by_color[0]) == [F(39, 160), F(1, 4)]
    assert by_color[1][0].volume == F(81, 160)


def test_part_volumes_sum_to_one():
    p = build_shifted_partition(2, 3, DELTA[3])
    g = random_coloring(2, 3, 2, 5)
    parts = mono_parts(p, g)
    assert sum(pt.volume for pt in parts) == 1


def oracle_mono_parts(p, g):
    """mono_parts as it was before it read the partition's contact list:
    every pair of same-color cells is tested for closed contact.  Returns
    (cell_ids, color, volume) per part, by smallest member."""
    colors = [g.color_at(pc.lattice) for pc in p.cells]
    parent = list(range(len(p.cells)))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for i, j in combinations(range(len(p.cells)), 2):
        a, b = p.cells[i].box, p.cells[j].box
        touch = all(
            max(alo, blo) <= min(ahi, bhi)
            for (alo, ahi), (blo, bhi) in zip(a.extents, b.extents)
        )
        if colors[i] == colors[j] and touch:
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)
    groups = {}
    for i in range(len(p.cells)):
        groups.setdefault(find(i), []).append(i)
    return [
        (tuple(members), colors[root], F(sum(p.cells[i].box.volume() for i in members), p.den**p.d))
        for root, members in sorted(groups.items())
    ]


@pytest.mark.parametrize(
    "d,n,colors",
    [(2, n, c) for n in (3, 4, 5) for c in (2, 3)]
    + [(3, n, c) for n in (3, 4) for c in (2, 3, 4)]
    + [(d, n, c) for d, n in ((1, 5), (4, 3), (5, 2)) for c in range(1, d + 2)],
)
def test_mono_parts_match_all_pairs_oracle(d, n, colors):
    p = build_shifted_partition(d, n, F(1, 16 * n))
    for seed in range(2):
        g = random_coloring(d, n, colors, seed)
        parts = mono_parts(p, g)
        assert [pt.id for pt in parts] == list(range(len(parts)))
        got = [(pt.cell_ids, pt.color, pt.volume) for pt in parts]
        assert got == oracle_mono_parts(p, g)


def test_mismatched_shapes_rejected():
    p = build_shifted_partition(2, 2, F(1, 16))
    g = parse_coloring("2 3 2\n0 0 0 0 0 0 0 0 0")
    with pytest.raises(ValueError):
        mono_parts(p, g)


# ---------------------------------------------------------------- nerve


def test_nerve_single_part():
    p = build_shifted_partition(2, 2, F(1, 16))
    parts = mono_parts(p, parse_coloring("2 2 1\n0 0 0 0"))
    nrv = nerve(p, parts)
    assert nrv.max_dim == 0
    assert nrv.simplices[0] == [(0,)]


def test_nerve_two_parts_one_edge():
    p = build_shifted_partition(2, 2, F(1, 16))
    parts = mono_parts(p, parse_coloring("2 2 2\n0 1 0 1"))
    nrv = nerve(p, parts)
    assert nrv.simplices[1] == [(0, 1)]
    assert (0, 1) in nrv.faces


@pytest.mark.parametrize("seed", range(6))
def test_nerve_dimension_two_colors(seed):
    p = build_shifted_partition(2, 4, F(1, 64))
    parts = mono_parts(p, random_coloring(2, 4, 2, seed))
    nrv = nerve(p, parts)
    assert nrv.max_dim <= 1


def test_nerve_multiplicity_violation_reported():
    # parts (0, 1, 2) share a point; with part 2 recolored to part 0's
    # color, the first simplex that holds both is the edge (0, 2)
    p = build_shifted_partition(2, 2, F(1, 16))
    parts = mono_parts(p, parse_coloring("2 2 4\n0 1 2 3"))
    assert nerve(p, parts).simplices[2] == [(0, 1, 2), (1, 2, 3)]
    parts[2] = dataclasses.replace(parts[2], color=parts[0].color)
    with pytest.raises(MultiplicityError) as err:
        nerve(p, parts)
    assert err.value.simplex == (0, 2)
    assert str(err.value) == (
        f"nerve: parts (0, 2) share a point, and parts 0 and 2 both have color {parts[0].color}"
    )


def nerve_by_region_products(parts):
    """Oracle: the nerve as it was built before it read the partition's
    cell cliques.  Its own contact sweep over the parts' boxes gives the
    later parts touching each part; a simplex is extended by every later
    part touching all its members, and its region (the distinct pieces of
    its intersection) is intersected with every box of that part."""
    common = {(pt.id,): set() for pt in parts}
    owner = [pt.id for pt in parts for _ in pt.boxes]
    for a, b, _ in contacts([box for pt in parts for box in pt.boxes]):
        if owner[a] != owner[b]:
            common[(owner[a],)].add(owner[b])
    levels = {0: [(pt.id,) for pt in parts]}
    regions = {(pt.id,): list(pt.boxes) for pt in parts}
    faces = {(pt.id,): pt.chain() for pt in parts}
    cofaces = {}
    k = 0
    while levels.get(k):
        nxt = []
        for s in levels[k]:
            for j in sorted(common[s]):
                pieces = []
                seen = set()
                for r in regions[s]:
                    for b in parts[j].boxes:
                        x = r.intersect(b)
                        if x is not None and x not in seen:
                            seen.add(x)
                            pieces.append(x)
                if pieces:
                    t = s + (j,)
                    nxt.append(t)
                    regions[t] = pieces
                    common[t] = common[s] & common[(j,)]
                    kept = [b for b in pieces if b.k == pieces[0].d - k - 1]
                    faces[t] = _face(t, kept, parts[0].den)
                    for v in t:
                        cofaces.setdefault(tuple(u for u in t if u != v), []).append(t)
        k += 1
        if nxt:
            levels[k] = nxt
    return Nerve(simplices=levels, faces=faces, cofaces=cofaces, skeleton={})  # not compared


def assert_same_nerve(got, want):
    assert got.simplices == want.simplices
    assert got.max_dim == want.max_dim
    assert {s: sorted(ts) for s, ts in got.cofaces.items()} == {
        s: sorted(ts) for s, ts in want.cofaces.items()
    }
    assert got.faces.keys() == want.faces.keys()
    for s, face in want.faces.items():
        assert (got.faces[s].d, got.faces[s].k) == (face.d, face.k), s
        assert got.faces[s].terms == face.terms, s


@pytest.mark.parametrize("d,n", [(d, n) for d in (1, 2, 3) for n in range(1, 6)])
def test_nerve_matches_region_product_oracle(d, n):
    p = build_shifted_partition(d, n, F(1, 16 * n))
    for colors in range(1, 5):
        for seed in range(3):
            parts = mono_parts(p, random_coloring(d, n, colors, seed))
            want = nerve_by_region_products(parts)
            assert_same_nerve(nerve(p, parts), want)
            # recolor the last edge's second part to its first part's
            # color: the nerve trips on the first edge, in the oracle's
            # creation order, whose two parts now share a color
            edges = want.simplices.get(1, [])
            if edges:
                i, j = edges[-1]
                bad = [dataclasses.replace(pt, color=parts[i].color) if pt.id == j else pt
                       for pt in parts]
                with pytest.raises(MultiplicityError) as got:
                    nerve(p, bad)
                assert got.value.simplex == next(
                    (a, b) for a, b in edges if bad[a].color == bad[b].color
                )


def test_nerve_rejects_four_squares_meeting_at_a_point():
    # not simple: the four cells of the 2x2 grid, and its diagonal pairs,
    # meet in the centre point, fixed on two axes; the walk, depth first
    # in cell order, reaches all four before the pair (0, 3)
    cells = [
        PartitionCell(BoxCell([(c, c + 1) for c in xy]), xy) for xy in product((0, 1), repeat=2)
    ]
    p = ShiftedPartition(d=2, n=2, delta=F(0), cells=cells, den=2)
    parts = mono_parts(p, parse_coloring("2 2 4\n0 1 2 3"))
    with pytest.raises(IdentityError) as err:
        nerve(p, parts)
    assert str(err.value) == (
        "nerve: cells (0, 1, 2, 3) meet in Cell(1 x 1), fixed on 2 axes, not 3: "
        "the partition is not simple"
    )


@pytest.mark.parametrize("d,n", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_nerve_rejects_the_unshifted_grid(d, n):
    # 2^d cells meet at a grid vertex, so some clique of cells meets in a
    # box fixed on more axes than it has cells less one
    cells = [
        PartitionCell(BoxCell([(c, c + 1) for c in coords]), coords)
        for coords in product(range(n), repeat=d)
    ]
    p = ShiftedPartition(d=d, n=n, delta=F(0), cells=cells, den=n)
    for colors in range(2, 5):
        for seed in range(3):
            parts = mono_parts(p, random_coloring(d, n, colors, seed))
            if len(parts) == 1:
                continue
            with pytest.raises(IdentityError, match=r"^nerve: cells \(\d+(, \d+)+\) meet in "):
                nerve(p, parts)


@pytest.mark.parametrize("drop", ["missing", "repeated", "foreign"])
def test_nerve_rejects_parts_not_covering_the_partition_once(drop):
    p = build_shifted_partition(2, 2, F(1, 16))
    parts = mono_parts(p, parse_coloring("2 2 2\n0 1 0 1"))
    last = parts[-1]
    ids = {
        "missing": last.cell_ids[:-1],
        "repeated": last.cell_ids + last.cell_ids[:1],
        "foreign": last.cell_ids + (len(p.cells),),
    }[drop]
    bad = parts[:-1] + [dataclasses.replace(last, cell_ids=ids)]
    with pytest.raises(ValueError, match="cover the partition's cells"):
        nerve(p, bad)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), p=box_families())
def test_cliques_are_the_cell_sets_with_a_common_point(data, p):
    count = len(p.cells)
    key = data.draw(st.none() | st.lists(st.integers(0, 3), min_size=count, max_size=count))
    rank = range(count) if key is None else key
    want = set()
    for size in range(1, count + 1):
        for ids in combinations(range(count), size):
            if len({rank[c] for c in ids}) < size:
                continue
            extents = zip(*(p.cells[c].box.extents for c in ids))
            if any(max(lo for lo, _ in ax) > min(hi for _, hi in ax) for ax in extents):
                continue  # no common point
            want.add(tuple(sorted(ids, key=lambda c: rank[c])))
    got = list(cliques(p, rank))
    assert len(got) == len(set(got))
    assert set(got) == want
    assert got == sorted(got)


# ---------------------------------------------------------- face chains


def oracle_face_chain(parts, simplex):
    """The per-simplex intersection chain as it was computed before the
    nerve pass built it: intersect the parts' boxes again from scratch."""
    s = tuple(sorted(simplex))
    d = parts[0].boxes[0].d
    target = d - (len(s) - 1)
    if target < 0:
        return RectChain.zero(d, 0, MOD2)
    regions = list(parts[s[0]].boxes)
    for pid in s[1:]:
        nxt = []
        seen = set()
        for r in regions:
            for b in parts[pid].boxes:
                x = r.intersect(b)
                if x is not None and x not in seen:
                    seen.add(x)
                    nxt.append(x)
        regions = nxt
    kept = [b for b in regions if b.k == target]
    if not kept:
        return RectChain.zero(d, target, MOD2)
    den = parts[0].den
    chain = RectChain.make(d, target, MOD2, [(b, 1) for b in kept], den)
    assert chain.volume() == union_volume(kept, den)
    return chain


def union_volume(boxes, den):
    """Measure of the union of same-dimension boxes over `den`, overlaps
    counted once (each point counts 1)."""
    return sum((F(b.volume(), den**b.k) for b in union_normalize(boxes)), F(0))


@pytest.mark.parametrize(
    "d,n,colors",
    [(2, n, c) for n in (3, 4, 5) for c in (2, 3)] + [(3, 3, c) for c in (2, 3, 4)],
)
def test_nerve_faces_match_per_simplex_oracle(d, n, colors):
    p = build_shifted_partition(d, n, F(1, 16 * n))
    for seed in range(2):
        parts = mono_parts(p, random_coloring(d, n, colors, seed))
        nrv = nerve(p, parts)
        simplices = [s for ss in nrv.simplices.values() for s in ss]
        assert set(nrv.faces) == set(simplices)
        for s in simplices:
            want = oracle_face_chain(parts, s)
            got = nrv.faces[s]
            assert (got.d, got.k) == (want.d, want.k), s
            assert got.terms == want.terms, s


def oracle_extensions(nrv, s):
    """The cofaces of a simplex as they were found before the nerve pass
    recorded them: scan every simplex one vertex larger."""
    return [t for t in nrv.simplices.get(len(s), []) if set(s) <= set(t)]


@pytest.mark.parametrize(
    "d,n,colors",
    [(2, n, c) for n in (3, 4, 5) for c in (2, 3)]
    + [(3, 3, c) for c in (2, 3, 4)]
    + [(3, 4, 4)],
)
def test_nerve_extensions_match_scan_oracle(d, n, colors):
    p = build_shifted_partition(d, n, F(1, 16 * n))
    for seed in range(2):
        nrv = nerve(p, mono_parts(p, random_coloring(d, n, colors, seed)))
        for s in (s for ss in nrv.simplices.values() for s in ss):
            assert sorted(nrv.cofaces.get(s, [])) == oracle_extensions(nrv, s), s


def test_face_chain_vertex_is_part_chain():
    p = build_shifted_partition(2, 2, F(1, 16))
    parts = mono_parts(p, parse_coloring("2 2 2\n0 1 0 1"))
    assert nerve(p, parts).faces[(0,)] == parts[0].chain()


def test_face_chain_wall_area():
    # vertical half/half at n=2: the interface consists of the two row
    # walls plus the overhang where the shifted upper-left cell rests on
    # the lower-right one
    p = build_shifted_partition(2, 2, F(1, 16))
    parts = mono_parts(p, parse_coloring("2 2 2\n0 1 0 1"))
    c = nerve(p, parts).faces[(0, 1)]
    assert c.k == 1
    assert c.volume() == F(1, 2) + F(1, 2) + F(1, 80)


def test_face_chain_off_nerve_is_zero():
    p = build_shifted_partition(2, 2, F(1, 16))
    g = parse_coloring("2 2 2\n0 1 1 0")
    parts = mono_parts(p, g)  # parts 0 and 2 are the separated diagonal
    nrv = nerve(p, parts)
    assert (0, 2) not in nrv.faces
    assert oracle_face_chain(parts, (0, 2)).is_zero()


def test_face_overlap_is_an_identity_error():
    # part 1's boxes overlap, so its two wall pieces against part 0 overlap
    # on {1/2} x [1/4, 1/2]; mod-2 addition would erase that stretch.  The
    # clique walk meets the overlap first: the three cells meet in that
    # stretch, fixed on one axis where three cells must be fixed on two
    boxes = [((0, "1/2"), (0, 1)), (("1/2", 1), (0, "1/2")), (("1/2", 1), ("1/4", 1))]
    p = partition_of(boxes, 2)
    a = Part(0, 0, (0,), (p.cells[0].box,), F(1, 2), p.den)
    b = Part(1, 1, (1, 2), (p.cells[1].box, p.cells[2].box), F(5, 8), p.den)
    with pytest.raises(IdentityError, match=r"^nerve: cells \(0, 1, 2\) meet in "):
        nerve(p, [a, b])


def test_contraction_failure_is_an_identity_error_naming_the_simplex():
    # fill raises FillError, a ValueError that the CLI reads as bad input,
    # when its argument is not a relative cycle; there eq2 fails at s
    p = build_shifted_partition(2, 2, F(1, 32))
    nrv = nerve(p, mono_parts(p, parse_coloring("2 2 2\n0 0 1 1")))
    assert nrv.simplices[1] == [(0, 1)]
    stub = BoxCell([(p.den // 4, p.den // 2), (p.den // 2, p.den // 2)])  # ends inside
    faces = {**nrv.faces, (0, 1): RectChain.make(2, 1, MOD2, [(stub, 1)], p.den)}
    with pytest.raises(IdentityError, match=r"^contraction: simplex \(0, 1\): .*relative cycle"):
        contraction(dataclasses.replace(nrv, faces=faces))
    contraction(nrv)  # the true walls are relative cycles


def test_stage_errors_name_their_stage():
    with pytest.raises(PartitionError, match="^partition: delta must lie"):
        build_shifted_partition(2, 2, F(1, 8))
    p = build_shifted_partition(2, 2, F(1, 16))
    parts = mono_parts(p, parse_coloring("2 2 4\n0 1 2 3"))
    parts[3] = dataclasses.replace(parts[3], color=parts[1].color)
    with pytest.raises(MultiplicityError, match=r"^nerve: parts \(\d+, \d+\) share a point"):
        nerve(p, parts)


def old_face_overlaps(kept, den):
    """Oracle: the overlap verdict of `_face` before it read contacts, the
    mod-2 chain's volume against the volume of the union."""
    chain = RectChain.make(kept[0].d, kept[0].k, MOD2, [(b, 1) for b in kept], den)
    return chain.volume() != union_volume(kept, den)


def face_overlaps(simplex, pieces, den):
    try:
        _face(simplex, pieces, den)
    except IdentityError:
        return True
    return False


@settings(max_examples=200, deadline=None)
@given(data=st.data(), p=box_families())
def test_face_overlap_verdict_matches_union_volume_oracle(data, p):
    pieces = [pc.box for pc in p.cells]
    target = data.draw(st.sampled_from(sorted({b.k for b in pieces})))
    simplex = tuple(range(p.d - target + 1))
    kept = [b for b in pieces if b.k == target]
    got = face_overlaps(simplex, kept, p.den)
    # a pair overlaps exactly when the pieces' volumes add up to more
    # than their union's
    total = F(sum(b.volume() for b in kept), p.den**target)
    assert got == (total != union_volume(kept, p.den))
    # the verdict read from the contact sweep, before `_face` compared volumes
    assert got == any(x.k == target for _, _, x in contacts(kept))
    # the old verdict raised on a subset: mod 2, an overlap covered an odd
    # number of times keeps its volume
    assert got or not old_face_overlaps(kept, p.den)
    # the same set without coplanar overlaps passes both, with one chain
    disjoint = union_normalize(kept)
    assert not face_overlaps(simplex, disjoint, p.den)
    assert not old_face_overlaps(disjoint, p.den)
    if not got:
        want = RectChain.make(p.d, target, MOD2, [(b, 1) for b in disjoint], p.den)
        assert _face(simplex, kept, p.den) == want


def test_face_raises_on_an_overlap_that_mod_2_keeps():
    # the corner square lies in all three pieces, an odd number, so the
    # mod-2 chain keeps the whole L and its volume is the union's, short
    # of the pieces' total; the same L as a wall in d = 3
    for specs in (
        [((0, 1), (0, "1/2")), ((0, "1/2"), (0, 1)), ((0, "1/2"), (0, "1/2"))],
        [
            ((0, 1), (0, "1/2"), "1/2"),
            ((0, "1/2"), (0, 1), "1/2"),
            ((0, "1/2"), (0, "1/2"), "1/2"),
        ],
    ):
        den, kept = lattice_cells(specs)
        d, k = kept[0].d, kept[0].k
        assert not old_face_overlaps(kept, den)
        mod2 = RectChain.make(d, k, MOD2, [(b, 1) for b in kept], den)
        assert mod2.volume() == F(3, 4) < F(sum(b.volume() for b in kept), den**k) == F(5, 4)
        simplex = tuple(range(d - k + 1))
        with pytest.raises(IdentityError, match=re.escape(str(simplex))):
            _face(simplex, kept, den)


def eq2_residual(nrv, simplex):
    lhs = boundary(nrv.faces[simplex], relative=True)
    rhs = RectChain.zero(lhs.d, lhs.k, MOD2)
    for t in nrv.cofaces.get(simplex, []):
        rhs = rhs + nrv.faces[t]
    return lhs - modulo_boundary(rhs)


@pytest.mark.parametrize("seed", range(4))
def test_boundary_decomposition_d2_n3(seed):
    p = build_shifted_partition(2, 3, DELTA[3])
    parts = mono_parts(p, random_coloring(2, 3, 2, seed))
    nrv = nerve(p, parts)
    for k in range(nrv.max_dim + 1):
        for s in nrv.simplices.get(k, []):
            assert eq2_residual(nrv, s).is_zero(), s


def test_boundary_decomposition_three_colors():
    # triple contacts: the walls between two parts end at points where a
    # third part takes over, and those points are exactly the 2-simplices
    p = build_shifted_partition(2, 3, DELTA[3])
    parts = mono_parts(p, random_coloring(2, 3, 3, 1))
    nrv = nerve(p, parts)
    for k in range(nrv.max_dim + 1):
        for s in nrv.simplices.get(k, []):
            assert eq2_residual(nrv, s).is_zero(), s


# ---------------------------------------------------------- contraction


def test_contraction_empty_when_no_edges():
    p = build_shifted_partition(2, 2, F(1, 16))
    parts = mono_parts(p, parse_coloring("2 2 1\n0 0 0 0"))
    assert contraction(nerve(p, parts)) == {}


def test_contraction_half_half():
    p = build_shifted_partition(2, 2, F(1, 16))
    parts = mono_parts(p, parse_coloring("2 2 2\n0 1 0 1"))
    nrv = nerve(p, parts)
    f = contraction(nrv)[(0, 1)]
    # filling the interface recovers the right-hand region exactly
    assert f == parts[1].chain()
    residual = boundary(f, relative=True) - modulo_boundary(nrv.faces[(0, 1)])
    assert residual.is_zero()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_contraction_relation_random(seed):
    p = build_shifted_partition(2, 4, F(1, 64))
    parts = mono_parts(p, random_coloring(2, 4, 2, seed))
    nrv = nerve(p, parts)
    fillings = contraction(nrv)
    for s, f in fillings.items():
        rhs = nrv.faces[s]
        for t in nrv.cofaces.get(s, []):
            rhs = rhs + fillings[t]
        assert boundary(f, relative=True) == modulo_boundary(rhs)


def pairwise_contraction(nrv):
    """contraction as it was before each cycle became one sum: the
    fillings of the cofaces added to the face chain one at a time."""
    fillings = {}
    for k in range(nrv.max_dim, 0, -1):
        for s in nrv.simplices.get(k, []):
            z = nrv.faces[s]
            for t in nrv.cofaces.get(s, []):
                z = z + fillings[t]
            fillings[s] = fill(z)
    return fillings


@pytest.mark.parametrize("d,n", [(2, n) for n in range(3, 8)] + [(3, 3), (3, 4)])
def test_contraction_matches_pairwise_sums(d, n):
    p = build_shifted_partition(d, n, F(1, 16 * n))
    for colors, seed in product(range(2, d + 2), range(3)):
        nrv = nerve(p, mono_parts(p, random_coloring(d, n, colors, seed)))
        got, want = contraction(nrv), pairwise_contraction(nrv)
        assert got.keys() == want.keys()
        for s, f in want.items():
            assert (got[s].terms, got[s].den) == (f.terms, f.den), s


# ---------------------------------------------------------------- audit


def per_part_S_table(parts, nrv, fillings, m):
    """Oracle: S(i0, k) as the audit summed it before it read the
    fillings once, scanning the k-simplices for each part."""
    table = {}
    for p in parts:
        for k in range(1, m + 2):
            tot = F(0)
            for s in nrv.simplices.get(k, []):
                if p.id in s:
                    tot += fillings[s].volume()
            table[(p.id, k)] = tot * factorial(k)
    return table


@pytest.mark.parametrize("d,n", [(2, 3), (2, 4), (2, 5), (3, 2), (3, 3)])
def test_S_table_matches_per_part_scan(d, n):
    p = build_shifted_partition(d, n, F(1, 16 * n))
    for colors in range(2, d + 2):
        for seed in range(2):
            parts = mono_parts(p, random_coloring(d, n, colors, seed))
            nrv = nerve(p, parts)
            fillings = contraction(nrv)
            # m below the nerve's depth: the deeper simplices are left out
            for m in range(colors):
                rep = assemble_and_audit(parts, nrv, fillings, n=n, m=m)
                want = per_part_S_table(parts, nrv, fillings, m)
                assert list(rep.S_table.items()) == list(want.items())


@pytest.mark.parametrize("text", ["2 2 4\n0 1 2 3", "1 3 3\n0 1 2"])
def test_certify_rejects_more_than_d_plus_one_colors(text, monkeypatch):
    import cubecolor.nervecontract as nc

    def no_partition(*args, **kwargs):
        raise AssertionError("the partition was built before the color check")

    monkeypatch.setattr(nc, "build_shifted_partition", no_partition)
    g = parse_coloring(text)
    with pytest.raises(ValueError, match=rf"at most d\+1 = {g.d + 1} colors, got {g.num_colors}"):
        certify_coloring(g)


def test_audit_single_part_is_the_cube():
    rep = certify_coloring(parse_coloring("2 2 1\n0 0 0 0"))
    assert rep.ok
    assert rep.max_X_volume == 1
    assert rep.X_volumes == [F(1)]
    assert not rep.all_X_below_one


def test_audit_random_d2_n4():
    rep = certify_coloring(random_coloring(2, 4, 2, 7))
    assert rep.ok
    assert rep.eq2_ok and rep.eq3_ok and rep.dXi_zero and rep.sum_is_Q
    assert rep.max_X_volume >= 1


def test_audit_S_terminates_at_zero():
    rep = certify_coloring(random_coloring(2, 3, 2, 2))
    m = rep.m
    for pid in range(len(rep.part_volumes)):
        assert rep.S_table[(pid, m + 1)] == 0


def test_audit_alpha_definition():
    rep = certify_coloring(random_coloring(2, 3, 2, 4))
    assert rep.alpha == max(rep.part_volumes) * F(3) ** rep.m


@pytest.mark.parametrize(
    "name", ["certify_d4_n4_c5", "certify_d4_n5_c2", "certify_d5_n2_c6", "certify_d5_n3_c2"]
)
def test_certify_past_the_cli_range_matches_stored_report(name):
    # random_coloring(d, n, colors, 1) through the library; test_cli runs the
    # same files through `certify`, whose bytes these are.  d5_n2_c6 has a
    # 5-simplex
    g = parse_coloring((DATA / f"{name}.txt").read_text())
    rep = certify_coloring(g)
    assert rep.failures == []
    assert json.dumps(rep.to_json(), indent=2) + "\n" == (DATA / f"{name}.json").read_text()


def test_audit_flags_engineered_failure():
    # feed assemble a wrong interface chain: the report lists the failure
    p = build_shifted_partition(2, 2, F(1, 16))
    parts = mono_parts(p, parse_coloring("2 2 2\n0 1 0 1"))
    nrv = nerve(p, parts)
    fillings = contraction(nrv)
    den, cells = lattice_cells([(("1/4", "1/2"), "1/4")])
    bogus = RectChain.make(2, 1, MOD2, [(cells[0], 1)], den)
    bad = dataclasses.replace(nrv, faces={**nrv.faces, (0, 1): bogus})
    rep = assemble_and_audit(parts, bad, fillings, n=2, m=1)
    assert not rep.ok
    assert not rep.eq2_ok
    assert any("simplex (0, 1)" in msg for msg in rep.failures)


def comparing_audit_failures(nrv, fillings, d):
    """The eq2 and eq3 failures as the audit found them before each check
    became one sum: the relative boundary compared with the right-hand
    side summed on its own."""
    out = []
    for k in range(nrv.max_dim + 1):
        for s in nrv.simplices.get(k, []):
            rhs = RectChain.sum(d, d - k - 1, MOD2, (nrv.faces[t] for t in nrv.cofaces.get(s, [])))
            if boundary(nrv.faces[s], relative=True) != modulo_boundary(rhs):
                out.append(f"boundary decomposition fails at simplex {s}")
    for s, f_chain in fillings.items():
        cofaces = nrv.cofaces.get(s, [])
        rhs = RectChain.sum(d, d - len(s) + 1, MOD2, [nrv.faces[s], *(fillings[t] for t in cofaces)])
        if boundary(f_chain, relative=True) != modulo_boundary(rhs):
            out.append(f"contraction relation fails at simplex {s}")
    return out


@pytest.mark.parametrize("d,n,seed", [(2, 4, 0), (2, 4, 1), (2, 5, 2), (3, 3, 0)])
def test_eq2_eq3_failures_match_the_comparing_audit(d, n, seed):
    p = build_shifted_partition(d, n, F(1, 16 * n))
    parts = mono_parts(p, random_coloring(d, n, 3, seed))
    nrv = nerve(p, parts)
    fillings = contraction(nrv)
    # swap the faces and the fillings of the first two edges: the checks
    # at both edges, and at the simplices next to them, see wrong chains
    a, b = nrv.simplices[1][:2]
    faces = {**nrv.faces, a: nrv.faces[b], b: nrv.faces[a]}
    variants = [
        (nrv, fillings),
        (dataclasses.replace(nrv, faces=faces), fillings),
        (nrv, {**fillings, a: fillings[b], b: fillings[a]}),
    ]
    for corrupted, (bad_nrv, bad_fillings) in enumerate(variants):
        rep = assemble_and_audit(parts, bad_nrv, bad_fillings, n=n, m=2)
        got = [f for f in rep.failures if "boundary decomposition" in f or "relation fails" in f]
        assert got == comparing_audit_failures(bad_nrv, bad_fillings, d)
        assert bool(got) == bool(corrupted)


@pytest.mark.parametrize("d,n,seed", [(2, 4, 0), (2, 5, 2), (3, 3, 0)])
def test_audit_names_the_simplex_of_a_dropped_or_shrunk_cell(d, n, seed):
    p = build_shifted_partition(d, n, F(1, 16 * n))
    parts = mono_parts(p, random_coloring(d, n, 3, seed))
    nrv = nerve(p, parts)
    fillings = contraction(nrv)

    def audit(bad_nrv, bad_fillings):
        return assemble_and_audit(parts, bad_nrv, bad_fillings, n=n, m=2)

    # a filling without one of its cells: that cell's relative boundary is
    # left over in the contraction relation at the simplex (a cell that
    # spans the cube on each of its axes has none)
    dropped_at = []
    for s, f in fillings.items():
        cells = (b for b in f.terms if not is_relative_cycle(RectChain(d, f.k, MOD2, {b: 1}, f.den)))
        b = next(cells, None)
        if b is None:
            continue
        dropped_at.append(s)
        dropped = RectChain(d, f.k, MOD2, {c: 1 for c in f.terms if c != b}, f.den)
        rep = audit(nrv, {**fillings, s: dropped})
        assert not rep.eq3_ok
        assert f"contraction relation fails at simplex {s}" in rep.failures
    assert {len(s) for s in dropped_at} == {len(s) for s in fillings}
    # a face with one cell cut short on its first free axis: the sliver's
    # relative boundary is left over in the boundary relation at the simplex
    for s, face in nrv.faces.items():
        if face.k == 0:
            continue
        fine = face.rescale(2 * face.den)
        b = next(b for b in fine.terms if not b.in_cube_boundary(fine.den))
        a = interval_axes(b)[0]
        lo, hi = b.extents[a]
        terms = {c: 1 for c in fine.terms if c != b}
        terms[b.replace(a, lo, hi - 1)] = 1
        shrunk = RectChain(d, face.k, MOD2, terms, fine.den)
        rep = audit(dataclasses.replace(nrv, faces={**nrv.faces, s: shrunk}), fillings)
        assert not rep.eq2_ok
        assert f"boundary decomposition fails at simplex {s}" in rep.failures


def test_pipeline_cells_hold_ints():
    # corners are numerators over a denominator: no Fraction reaches a cell
    p = build_shifted_partition(3, 3, DELTA[3])
    nrv = nerve(p, mono_parts(p, random_coloring(3, 3, 3, 1)))
    chains = [*nrv.faces.values(), *contraction(nrv).values()]
    boxes = [pc.box for pc in p.cells] + [b for c in chains for b in c.terms]
    assert all(type(v) is int for b in boxes for ext in b.extents for v in ext)
    # every denominator is the partition's, doubled by fill where it cut
    # between two lattice points (a zero chain is over 1)
    for c in (c for c in chains if not c.is_zero()):
        ratio, rest = divmod(c.den, p.den)
        assert rest == 0 and ratio & (ratio - 1) == 0, c.den


def test_every_X_is_zero_or_the_cube():
    # mod 2, a d-cycle relative to the cube boundary is 0 or the cube
    from cubecolor.chains import fundamental_chain

    p = build_shifted_partition(2, 4, F(1, 64))
    g = random_coloring(2, 4, 2, 3)
    parts = mono_parts(p, g)
    nrv = nerve(p, parts)
    fillings = contraction(nrv)
    cube = fundamental_chain(2)
    for pt in parts:
        x = pt.chain()
        for t in nrv.cofaces.get((pt.id,), []):
            x = x + fillings[t]
        assert x.is_zero() or x == cube


# ------------------------------------------------------------- skeleton


def _single_box_part(*extents) -> Part:
    den, (b,) = lattice_cells([extents])
    return Part(id=0, color=0, cell_ids=(0,), boxes=(b,), volume=F(b.volume(), den**b.d), den=den)


def test_skeleton_k0_is_volume():
    pt = _single_box_part(("1/4", "1/2"), ("1/4", "1/2"))
    assert skeleton_volumes(pt.chain())[0] == F(1, 16)


def test_skeleton_perimeter_interior_cell():
    pt = _single_box_part(("1/3", "2/3"), ("1/3", "2/3"))
    assert skeleton_volumes(pt.chain())[1] == F(4, 3)  # 4 * (1/3), nothing on the hull
    assert skeleton_volumes(pt.chain())[2] == 4  # four corners


def test_skeleton_relative_drops_hull_faces():
    pt = _single_box_part((0, "1/3"), ("1/3", "2/3"))
    assert skeleton_volumes(pt.chain())[1] == F(1, 3) * 3  # left edge lies in the hull


def test_skeleton_merges_internal_walls():
    den, (b1, b2) = lattice_cells([(("1/4", "1/2"), ("1/4", "1/2")),
                                   (("1/2", "3/4"), ("1/4", "1/2"))])
    pt = Part(0, 0, (0, 1), (b1, b2), F(b1.volume() + b2.volume(), den**2), den)
    # the shared wall at x=1/2 is interior to the region: not a face
    assert skeleton_volumes(pt.chain())[1] == F(3, 2)
    assert skeleton_volumes(pt.chain())[2] == 4


def test_skeleton_3d_cell():
    pt = _single_box_part(("1/3", "2/3"), ("1/3", "2/3"), ("1/3", "2/3"))
    assert skeleton_volumes(pt.chain())[1] == 6 * F(1, 9)
    assert skeleton_volumes(pt.chain())[2] == 12 * F(1, 3)
    assert skeleton_volumes(pt.chain())[3] == 8


def box_face_volume(box: BoxCell, k: int) -> tuple[int, F]:
    """Oracle by direct enumeration: the number and total (d-k)-volume, in
    lattice units, of the codimension-k faces of one box.  A box with all
    axes of length L has C(d,k) * 2^k faces of volume L^(d-k) each."""
    axes = interval_axes(box)
    count, total = 0, F(0)
    for fixed in combinations(axes, k):
        vol = F(1)
        for a in axes:
            if a not in fixed:
                lo, hi = box.extents[a]
                vol *= hi - lo
        count += 2**k
        total += 2**k * vol
    return count, total


def test_face_volume_direct_count_oracle():
    # independent count: fixing any k of d axes at either end gives
    # C(d,k) * 2^k faces; on a cube of side 1/n each has volume n^(k-d)
    den, (b,) = lattice_cells([((0, "1/3"), (0, "1/3"), (0, "1/3"))])
    for k in range(4):
        count, total = box_face_volume(b, k)
        from math import comb

        assert count == comb(3, k) * 2**k
        assert total / den ** (3 - k) == comb(3, k) * 2**k * F(1, 3) ** (3 - k)


def plane_of(box):
    """Fixed coordinates, None on interval axes: the box's affine plane."""
    return tuple(None if lo < hi else lo for lo, hi in box.extents)


def oracle_skeleton_volume(part, k):
    """skeleton_volumes(chain)[k] as it was before every level came out of one pass:
    a fresh boundary per k, and all pairs of pieces at every level."""
    d = part.boxes[0].d
    if k == 0:
        return part.volume
    pieces = [b for b, _ in boundary(part.chain(), relative=True).cells()]
    for level in range(2, k + 1):
        target = d - level
        found = []
        for b1, b2 in combinations(pieces, 2):
            if plane_of(b1) == plane_of(b2):
                continue
            x = b1.intersect(b2)
            if x is not None and x.k == target:
                if x.in_cube_boundary(part.den):
                    continue
                found.append(x)
        pieces = union_normalize(found)
    return F(sum(b.volume() for b in pieces), part.den ** (d - k))


@pytest.mark.parametrize(
    "d,n,colors",
    [(2, n, c) for n in (3, 4, 5) for c in (2, 3)] + [(3, 3, c) for c in (2, 3, 4)],
)
def test_skeleton_volumes_match_per_level_oracle(d, n, colors):
    p = build_shifted_partition(d, n, F(1, 16 * n))
    for seed in range(2):
        for pt in mono_parts(p, random_coloring(d, n, colors, seed)):
            got = skeleton_volumes(pt.chain())
            want = [oracle_skeleton_volume(pt, k) for k in range(d + 1)]
            assert got == want, pt.id


@pytest.mark.parametrize("d,n", [(1, 5), (2, 4), (3, 3), (4, 2), (5, 2)])
def test_audit_g_checks_match_the_wall_skeleton(d, n):
    # the audit's rows come from the clique walk's orthant rule; the
    # oracle builds each level geometrically from the part's pair faces,
    # as the audit did before the walk
    p = build_shifted_partition(d, n, F(1, 16 * n))
    for colors in range(1, d + 2):
        for seed in (0, 1):
            parts = mono_parts(p, random_coloring(d, n, colors, seed))
            nrv = nerve(p, parts)
            rep = assemble_and_audit(parts, nrv, contraction(nrv), n=n, m=colors - 1)
            want = [
                (pt.id, k, skel)
                for pt in parts
                for k, skel in enumerate(
                    skeleton_from_walls(pair_face_walls(nrv, pt.id), d, pt.den), start=1
                )
            ]
            assert [(row["part"], row["k"], row["skeleton"]) for row in rep.g_checks] == want
            assert rep.ok, (colors, seed, rep.failures)


@pytest.mark.parametrize(
    "d,n,colors,seed",
    [(2, 4, 2, 0), (2, 5, 3, 1), (3, 3, 2, 0), (3, 4, 3, 1), (3, 4, 4, 2)]
    + [(4, 2, c, seed) for c in (2, 3) for seed in (0, 1, 2)],
)
def test_audit_skeleton_matches_standalone_skeleton_volumes(d, n, colors, seed):
    # the audit takes each part's walls from its pair faces; taking them
    # from the part's relative boundary gives the same rows
    g = random_coloring(d, n, colors, seed)
    p = build_shifted_partition(d, n, F(1, 16 * n))
    want = [
        (pt.id, k, skeleton_volumes(pt.chain())[k])
        for pt in mono_parts(p, g)
        for k in range(1, d + 1)
    ]
    rep = certify_coloring(g)
    assert [(row["part"], row["k"], row["skeleton"]) for row in rep.g_checks] == want


@pytest.mark.parametrize("d,seed", [(2, 0), (2, 1), (3, 0)])
def test_skeleton_bound_random_instance(d, seed):
    p = build_shifted_partition(d, 3, DELTA[d])
    parts = mono_parts(p, random_coloring(d, 3, 2, seed))
    for pt in parts:
        for k in range(1, d + 1):
            assert skeleton_volumes(pt.chain())[k] <= g_constant(d, k) * pt.volume * 3**k


def test_tiny_parts_stress_the_skeleton_bound():
    # exhaustive over all 2x2 two-colorings: every part of every shifted
    # instance satisfies the skeleton inequality
    from itertools import product

    p = build_shifted_partition(2, 2, F(1, 16))
    for cells in product(range(2), repeat=4):
        g = parse_coloring("2 2 2\n" + " ".join(map(str, cells)))
        for pt in mono_parts(p, g):
            for k in (1, 2):
                assert skeleton_volumes(pt.chain())[k] <= g_constant(2, k) * pt.volume * 2**k


def contact_skeleton_volumes(chain):
    """Oracle: skeleton_volumes as it was before the pattern join, each
    level from chains.contacts over all of its pieces, with the coflat
    pairs and the lower-dimensional intersections thrown away."""
    den = chain.den
    pieces = list(boundary(chain, relative=True).terms)
    volumes = [chain.volume(), F(sum(b.volume() for b in pieces), den ** (chain.d - 1))]
    for target in range(chain.d - 2, -1, -1):
        patterns = [tuple(lo == hi for lo, hi in b.extents) for b in pieces]
        found = (
            x for i, j, x in contacts(pieces) if patterns[i] != patterns[j] and x.k == target
        )
        pieces = list(dict.fromkeys(found)) if target == 0 else union_normalize(found)
        volumes.append(F(sum(b.volume() for b in pieces), den**target))
    return volumes


@pytest.mark.parametrize(
    "d,n,colors",
    [(2, 4, c) for c in (2, 3)]
    + [(3, 3, c) for c in (2, 3, 4)]
    + [(4, 2, c) for c in (2, 3, 4, 5)]
    + [(5, 2, c) for c in (2, 3, 4, 5, 6)],
)
def test_pattern_join_matches_the_contact_skeleton(d, n, colors):
    # (5, 2, 6) has a 5-simplex in its nerve
    p = build_shifted_partition(d, n, F(1, 16 * n))
    parts = mono_parts(p, random_coloring(d, n, colors, 1))
    nrv = nerve(p, parts)
    for pt in parts:
        chain = nrv.faces[(pt.id,)]
        want = contact_skeleton_volumes(chain)
        assert skeleton_volumes(chain) == want, pt.id
        # pair-face walls and boundary walls cover one set
        assert [want[0], *skeleton_from_walls(pair_face_walls(nrv, pt.id), d, pt.den)] == want, pt.id
    if (d, colors) == (5, 6):
        assert nrv.max_dim == 5


def notched_box(d, depth):
    """The mod-2 d-chain of [1/5, 4/5]^d, minus the corner box [1/2, 4/5]^d
    at depth >= 1, with [1/2, 13/20]^d put back into that notch at depth 2.
    The notch leaves reentrant faces, so the region bends inwards and
    outwards at every level of its skeleton."""
    corners = [(4, 16), (10, 16), (10, 13)][: depth + 1]  # over 20
    return RectChain.make(d, d, MOD2, [(BoxCell([e] * d), 1) for e in corners], 20)


def split_walls(walls, den):
    """The same walls over 2 * den, each cut in two on its first free axis:
    another decomposition of the same set."""
    out = []
    for b in walls:
        b = b.scaled(2)
        a = next(a for a, (lo, hi) in enumerate(b.extents) if lo < hi)
        lo, hi = b.extents[a]
        mid = lo + 1 if hi - lo == 2 else (lo + hi) // 2
        out += [b.replace(a, lo, mid), b.replace(a, mid, hi)]
    return out


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("depth", [0, 1, 2])
def test_pattern_join_matches_the_contact_skeleton_on_notched_boxes(d, depth):
    chain = notched_box(d, depth)
    want = contact_skeleton_volumes(chain)
    assert skeleton_volumes(chain) == want
    assert all(v > 0 for v in want)  # the region has faces at every level
    walls = list(boundary(chain, relative=True).terms)
    assert [want[0], *skeleton_from_walls(split_walls(walls, chain.den), d, 2 * chain.den)] == want


@st.composite
def box_regions(draw):
    """A d-chain, d = 2..4, of up to 5 boxes with corners over 6, mod 2."""
    d = draw(st.integers(2, 4))
    boxes = []
    for _ in range(draw(st.integers(1, 5))):
        ext = []
        for _ in range(d):
            lo, hi = sorted(draw(st.lists(st.integers(0, 6), min_size=2, max_size=2, unique=True)))
            ext.append((lo, hi))
        boxes.append((BoxCell(ext), 1))
    return RectChain.make(d, d, MOD2, boxes, 6)


@given(chain=box_regions())
@settings(max_examples=60, deadline=None)
def test_pattern_join_matches_the_contact_skeleton_on_box_regions(chain):
    want = contact_skeleton_volumes(chain)
    assert skeleton_volumes(chain) == want
    walls = list(boundary(chain, relative=True).terms)
    assert [want[0], *skeleton_from_walls(split_walls(walls, chain.den), chain.d, 2 * chain.den)] == want
