"""Exact chain algebra: boundary, volume, zero tests, sections, cones, filling."""

import copy
import hashlib
import itertools
import json
import math
import pickle
import random
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cubecolor.chains import (
    INTEGER,
    MOD2,
    BoxCell,
    ChainError,
    FillError,
    RectChain,
    SectionError,
    _canonical_terms,
    _merge_plane,
    _pick_slab,
    _reduce_coef,
    boundary,
    contacts,
    dumps_chain,
    fill,
    fundamental_chain,
    is_relative_cycle,
    lattice_cells,
    modulo_boundary,
    random_relative_cycle,
    sweep_slabs,
    vanishes,
)
from cubecolor import chains as chains_module
from cubecolor.nervecontract import _cycle, build_shifted_partition, contraction, mono_parts, nerve
from cubecolor.search import random_coloring

from oracles import union_normalize


DATA = Path(__file__).parent / "data"


def interval_axes(box):
    """The axes on which a cell spans an interval, in increasing order."""
    return tuple(a for a, (lo, hi) in enumerate(box.extents) if lo < hi)


def chain_from(d, k, ring, raw):
    """The chain of (spec, coefficient) terms whose specs give rational
    corners, as lattice_cells reads them."""
    raw = list(raw)
    den, cells = lattice_cells(spec for spec, _ in raw)
    return RectChain.make(d, k, ring, zip(cells, (cf for _, cf in raw)), den)


def chain_of(*specs, d=2, ring=MOD2):
    """The chain of the given cells, each with coefficient 1."""
    k = lattice_cells(specs[:1])[1][0].k
    return chain_from(d, k, ring, [(spec, 1) for spec in specs])


def fractions_of(cell, den):
    """The cell's extents as Fraction pairs."""
    return tuple((F(lo, den), F(hi, den)) for lo, hi in cell.extents)


def loads_chain(text: str) -> RectChain:
    """Inverse of dumps_chain."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("#"):
        raise ChainError("chain dump must start with a '# d=... k=... ring=...' header")
    header = dict(part.split("=") for part in lines[0][1:].split())
    d, k, ring = int(header["d"]), int(header["k"]), header["ring"]
    raw = []
    for ln in lines[1:]:
        coef_str, *specs = [p.strip() for p in ln.split("|")]
        ext = []
        for sp in specs:
            fields = sp.split()
            if fields[0] == "F":
                ext.append(F(fields[1]))
            elif fields[0] == "I":
                ext.append((F(fields[1]), F(fields[2])))
            else:
                raise ChainError(f"bad axis spec {sp!r}")
        raw.append((ext, int(coef_str)))
    return chain_from(d, k, ring, raw)


def random_chain(seed, d, k, size=2, ring=MOD2, boundary_safe=False):
    """A random k-chain (not necessarily a cycle).  With boundary_safe the
    cells stay clear of the facets x_1 = 0 and x_1 = 1 so cones along
    axis 1 are legal."""
    rng = random.Random(seed)
    raw = []
    for _ in range(size):
        axes = sorted(rng.sample(range(d), k))
        ext = []
        for a in range(d):
            den = rng.choice([4, 6, 8, 12])
            lo_min = 1 if (boundary_safe and a == 0) else 0
            hi_max = den - 1 if (boundary_safe and a == 0) else den
            if a in axes:
                i, j = sorted(rng.sample(range(lo_min, hi_max + 1), 2))
                ext.append((F(i, den), F(j, den)))
            else:
                ext.append(F(rng.randint(max(lo_min, 1), min(hi_max, den - 1)), den))
        coef = 1 if ring == MOD2 else rng.choice([1, -1, 2, -2])
        raw.append((ext, coef))
    return chain_from(d, k, ring, raw)


# ---------------------------------------------------------------- cells


def test_cell_basic_properties():
    den, (b,) = lattice_cells([((0, "1/2"), "1/4", ("1/3", 1))])
    assert den == 12
    assert b == BoxCell([(0, 6), 3, (4, 12)])
    assert b.d == 3
    assert b.k == 2
    assert F(b.volume(), den**b.k) == F(1, 2) * F(2, 3)
    assert not b.in_cube_boundary(den)
    assert BoxCell([0, (0, 1)]).in_cube_boundary(1)
    assert BoxCell([2, (0, 1)]).in_cube_boundary(2)
    assert not BoxCell([2, (0, 1)]).in_cube_boundary(4)


def test_cell_rejects_bad_extents():
    with pytest.raises(ChainError):
        lattice_cells([((0, "3/2"),)])
    with pytest.raises(ChainError):
        lattice_cells([(("-1/4", 0),)])
    # a cell holds int numerators only
    with pytest.raises(ChainError):
        BoxCell([(F(0), F(1, 2))])
    with pytest.raises(ChainError):
        BoxCell([(0, 1.0)])
    with pytest.raises(ChainError):
        BoxCell([(2, 1)])
    with pytest.raises(ChainError):
        BoxCell([-1])
    # bool is a subclass of int, but not a lattice coordinate
    for spec in ([True], [(0, True)], [(False, 1)]):
        with pytest.raises(ChainError, match="cell extent is not a pair of ints"):
            BoxCell(spec)


def test_degenerate_interval_is_fixed():
    _, (b,) = lattice_cells([(("1/2", "1/2"), (0, 1))])
    assert b.k == 1  # lo == hi is a fixed axis, not a zero-length interval


@pytest.mark.parametrize("name", ["extents", "d", "k", "den", "coef"])
def test_cell_is_immutable(name):
    b = BoxCell([(0, 2), 1])
    with pytest.raises(AttributeError):
        setattr(b, name, 0)
    assert b == BoxCell([(0, 2), 1])


@pytest.mark.parametrize("seed", range(8))
def test_cell_is_its_extents_tuple(seed):
    cells = list(random_chain(seed, d=3, k=2, size=4).terms)
    cells += [b.replace(0, 0, 0) for b in cells]  # some share their other extents
    for b in cells:
        assert type(b.extents) is tuple
        assert b.extents == tuple(b) and b == b.extents
        assert hash(b) == hash(b.extents)
        assert b == BoxCell(b.extents)
    for a, b in itertools.product(cells, repeat=2):
        assert (a == b) is (a.extents == b.extents)
        assert (a < b) is (a.extents < b.extents)
    assert [b.extents for b in sorted(cells)] == sorted(b.extents for b in cells)


@pytest.mark.parametrize("seed", range(8))
def test_cell_pickles_and_deep_copies_through_the_checking_constructor(seed):
    # process pools pickle chains; a cell comes back as a BoxCell, and its
    # extents are checked again on the way in
    c = random_chain(seed, d=3, k=2, size=4, ring=INTEGER)
    for copied in (pickle.loads(pickle.dumps(c)), copy.deepcopy(c)):
        assert copied.terms == c.terms
        assert all(type(b) is BoxCell for b in copied.terms)
    for b in c.terms:
        assert type(pickle.loads(pickle.dumps(b))) is BoxCell
        assert type(copy.deepcopy(b)) is BoxCell
    bad = BoxCell._from_valid(((2, 1),))  # the fast constructor trusts its input
    with pytest.raises(ChainError):
        pickle.loads(pickle.dumps(bad))
    with pytest.raises(ChainError):
        copy.deepcopy(bad)


# ------------------------------------------------------------- boundary


def test_relative_boundary_drops_cube_faces():
    B = chain_of(((0, "1/2"), (0, "1/2")))
    dB = boundary(B, relative=True)
    assert dB == chain_of(("1/2", (0, "1/2")), ((0, "1/2"), "1/2"))


def test_absolute_boundary_four_edges_volume_one():
    B = chain_of((("1/4", "1/2"), ("1/4", "1/2")))
    dB = boundary(B)
    assert len(dB) == 4
    assert dB.volume() == 1


@pytest.mark.parametrize("ring", [MOD2, INTEGER])
@pytest.mark.parametrize("seed", range(20))
def test_boundary_squares_to_zero(ring, seed):
    c = random_chain(seed, d=3, k=2, size=3, ring=ring)
    assert boundary(boundary(c)).is_zero()
    assert boundary(boundary(c, relative=True), relative=True).is_zero()


def test_boundary_of_points_needs_relative():
    pts = chain_of(("1/2", "1/3"))
    with pytest.raises(ChainError):
        boundary(pts, relative=False)
    assert boundary(pts, relative=True).is_zero()


def test_integer_boundary_signs():
    box = RectChain.make(2, 2, INTEGER, [(BoxCell([(0, 1), (0, 1)]), 1)], 1)
    db = boundary(box)
    coef = dict(db.cells())
    # first interval axis: top minus bottom; second: bottom minus top
    assert coef[BoxCell([1, (0, 1)])] == 1
    assert coef[BoxCell([0, (0, 1)])] == -1
    assert coef[BoxCell([(0, 1), 1])] == -1
    assert coef[BoxCell([(0, 1), 0])] == 1


# ------------------------------------------------------ canonical form


def test_canonicalization_idempotent_and_merging():
    # two abutting halves canonicalize to the full square
    halves = chain_of(((0, "1/2"), (0, 1)), (("1/2", 1), (0, 1)))
    assert halves == fundamental_chain(2)
    assert len(halves) == 1  # merged representation


@pytest.mark.parametrize("seed", range(8))
def test_canonicalization_idempotent(seed):
    c = random_chain(seed, d=3, k=2, size=4)
    again = RectChain.make(c.d, c.k, c.ring, list(c.terms.items()), c.den)
    assert again.terms == c.terms  # already-canonical input is a fixed point
    assert again.volume() == c.volume()
    # cells() lists the terms sorted on the cells' extents
    assert list(c.cells()) == sorted(c.terms.items(), key=lambda t: t[0].extents)


def plane_key(box):
    """plane_key of a box given as Fraction (lo, hi) pairs."""
    return tuple(None if lo < hi else lo for lo, hi in box)


def old_merge_atoms(atoms, nfree):
    """The merge as it was before the plane merge swept rows: rounds of one
    pass per axis over the full atom grid, until a round merges nothing."""
    changed = True
    while changed and len(atoms) > 1:
        changed = False
        for pos in range(nfree):
            runs = {}
            for ext, coef in atoms.items():
                rest = ext[:pos] + ext[pos + 1 :]
                runs.setdefault(rest, []).append((ext[pos], coef))
            merged = {}
            for rest, pieces in runs.items():
                pieces.sort()
                acc_lo, acc_hi, acc_cf = pieces[0][0][0], pieces[0][0][1], pieces[0][1]
                done = []
                for (lo, hi), cf in pieces[1:]:
                    if lo == acc_hi and cf == acc_cf:
                        acc_hi = hi
                        changed = True
                    else:
                        done.append(((acc_lo, acc_hi), acc_cf))
                        acc_lo, acc_hi, acc_cf = lo, hi, cf
                done.append(((acc_lo, acc_hi), acc_cf))
                for (lo, hi), cf in done:
                    merged[rest[:pos] + ((lo, hi),) + rest[pos:]] = cf
            atoms = merged
    return atoms


UNION = "union"  # presence: a cell counts once however often it is covered


def reduce_coef(coef, ring):
    """`_reduce_coef`, with the union ring besides."""
    return min(coef, 1) if ring == UNION else _reduce_coef(coef, ring)


def merge_plane(ring, key, members):
    """`_merge_plane`; in the union ring, the plane step of
    oracles.union_normalize: the integer cut into disjoint cells, each
    covered a positive number of times, then their mod-2 merge."""
    if ring != UNION:
        return _merge_plane(ring, key, members)
    covered = _merge_plane(INTEGER, key, members)
    return _merge_plane(MOD2, key, [(c, 1) for c, _ in covered])


def old_merge_plane(ring, key, members):
    """The plane merge as it was before it swept rows: every member is cut
    on all of the plane's breakpoints and the atoms are merged."""
    free = [a for a, v in enumerate(key) if v is None]
    cuts = [sorted({p for c, _ in members for p in c.extents[a]}) for a in free]
    segments = [list(zip(pts, pts[1:])) for pts in cuts]
    ranks = [{p: i for i, p in enumerate(pts)} for pts in cuts]
    atoms = {}
    for c, coef in members:
        per_axis = []
        for a, segs, rank in zip(free, segments, ranks):
            lo, hi = c.extents[a]
            per_axis.append(segs[rank[lo] : rank[hi]])
        for combo in itertools.product(*per_axis):
            atoms[combo] = atoms.get(combo, 0) + coef
    atoms = {e: cf for e, cf in ((e, reduce_coef(c, ring)) for e, c in atoms.items()) if cf}
    for ext, coef in old_merge_atoms(atoms, len(free)).items():
        full = [(v, v) for v in key]
        for a, e in zip(free, ext):
            full[a] = e
        yield BoxCell._from_valid(tuple(full)), coef


def old_canonical_terms(ring, raw):
    """The canonicalization as it was before the plane splitter was shared
    with union_normalize, on boxes given as Fraction (lo, hi) pairs: the
    oracle for the shared routine."""
    groups = {}
    for c, coef in raw:
        coef = _reduce_coef(coef, ring)
        if coef == 0:
            continue
        groups.setdefault(plane_key(c), []).append((c, coef))
    out = {}
    for key, members in groups.items():
        free = [a for a, v in enumerate(key) if v is None]
        if not free:
            total = _reduce_coef(sum(coef for _, coef in members), ring)
            if total:
                out[members[0][0]] = total
            continue
        cuts = {a: sorted({p for c, _ in members for p in c[a]}) for a in free}
        atoms = {}
        for c, coef in members:
            per_axis = []
            for a in free:
                lo, hi = c[a]
                pts = [p for p in cuts[a] if lo <= p <= hi]
                per_axis.append(list(zip(pts, pts[1:])))
            for combo in itertools.product(*per_axis):
                atoms[combo] = atoms.get(combo, 0) + coef
        atoms = {
            ext: cf
            for ext, cf in ((e, _reduce_coef(c, ring)) for e, c in atoms.items())
            if cf
        }
        for ext, coef in old_merge_atoms(atoms, len(free)).items():
            full = [(v, v) for v in key]
            for pos, a in enumerate(free):
                full[a] = ext[pos]
            out[tuple(full)] = coef
    return out


def old_union_normalize(boxes):
    """union_normalize as it was before it shared the plane splitter, on
    boxes given as Fraction (lo, hi) pairs."""
    out = []
    groups = {}
    for b in boxes:
        groups.setdefault(plane_key(b), []).append(b)
    for key, members in groups.items():
        free = [a for a, v in enumerate(key) if v is None]
        if not free:
            out.append(members[0])
            continue
        cuts = {a: sorted({p for b in members for p in b[a]}) for a in free}
        atoms = set()
        for b in members:
            per_axis = []
            for a in free:
                lo, hi = b[a]
                pts = [p for p in cuts[a] if lo <= p <= hi]
                per_axis.append(list(zip(pts, pts[1:])))
            atoms.update(itertools.product(*per_axis))
        for ext in old_merge_atoms({combo: 1 for combo in atoms}, len(free)):
            full = [(v, v) for v in key]
            for pos, a in enumerate(free):
                full[a] = ext[pos]
            out.append(tuple(full))
    return out


# corners with denominators up to 4; fixed coordinates come from a small
# set so that many boxes share a plane and overlap, abut or coincide
_CORNERS = sorted({F(i, q) for q in (1, 2, 3, 4) for i in range(q + 1)})
_FIXED = [F(0), F(1, 2), F(1)]


def draw_box(draw, d, planes):
    """A box as Fraction (lo, hi) pairs, free on the axes of one of `planes`."""
    free = draw(st.sampled_from(planes))
    ext = []
    for a in range(d):
        if a in free:
            lo, hi = draw(st.lists(st.sampled_from(_CORNERS), min_size=2,
                                   max_size=2, unique=True).map(sorted))
            ext.append((lo, hi))
        else:
            v = draw(st.sampled_from(_FIXED))
            ext.append((v, v))
    return tuple(ext)


@st.composite
def same_dim_family(draw):
    """(d, k, boxes): boxes of one dimension k in [0,1]^d as Fraction
    (lo, hi) pairs, duplicates included, k = 0 (points only) included."""
    d = draw(st.integers(1, 3))
    k = draw(st.integers(0, d))
    planes = list(itertools.combinations(range(d), k))
    boxes = [draw_box(draw, d, planes) for _ in range(draw(st.integers(1, 6)))]
    boxes += draw(st.lists(st.sampled_from(boxes), max_size=3))  # duplicates
    return d, k, boxes


@st.composite
def repeated_box_terms(draw):
    """(d, k, terms): (Fraction box, coefficient) pairs in which boxes
    recur exactly, shuffled: lone boxes, duplicates, +c/-c pairs and even
    multiplicities, alone on their plane or among other boxes."""
    d = draw(st.integers(1, 3))
    k = draw(st.integers(0, d))
    planes = list(itertools.combinations(range(d), k))
    terms = []
    for _ in range(draw(st.integers(1, 5))):
        box = draw_box(draw, d, planes)
        coef = draw(st.integers(-3, 3))
        copies = draw(st.sampled_from([[coef], [coef, coef], [coef, -coef], [coef] * 4]))
        terms += [(box, cf) for cf in copies]
    return d, k, draw(st.permutations(terms))


@pytest.mark.parametrize("ring", [MOD2, INTEGER])
@given(family=same_dim_family(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_canonical_terms_matches_old_splitter(ring, family, data):
    d, k, boxes = family
    coefs = data.draw(st.lists(st.integers(-3, 3), min_size=len(boxes), max_size=len(boxes)))
    den, cells = lattice_cells(boxes)
    terms = _canonical_terms(ring, zip(cells, coefs), d, k)
    new = {fractions_of(c, den): cf for c, cf in terms.items()}
    assert new == old_canonical_terms(ring, zip(boxes, coefs))  # same cells and coefficients


@pytest.mark.parametrize("ring", [MOD2, INTEGER])
@given(family=repeated_box_terms())
@settings(max_examples=200, deadline=None)
def test_canonical_terms_matches_old_splitter_on_repeated_boxes(ring, family):
    # planes that keep one nonzero box after identical boxes are summed
    # skip the split and merge; the output must not change
    d, k, terms = family
    den, cells = lattice_cells(box for box, _ in terms)
    out = _canonical_terms(ring, zip(cells, (cf for _, cf in terms)), d, k)
    new = {fractions_of(c, den): cf for c, cf in out.items()}
    assert new == old_canonical_terms(ring, terms)


def test_canonical_terms_lone_survivor_passes_through():
    # B and -B cancel, leaving A alone on its plane: A comes out as given
    den, (a, b, p) = lattice_cells([((0, "3/4"), "1/2"), (("1/4", 1), "1/2"), ((0, 1), "1/4")])
    terms = [(a, 1), (b, 2), (p, 1), (b, -2)]
    assert _canonical_terms(INTEGER, terms, 2, 1) == {a: 1, p: 1}
    assert _canonical_terms(MOD2, terms, 2, 1) == {a: 1, p: 1}
    assert _canonical_terms(INTEGER, [(a, 1), (a, -1)], 2, 1) == {}


@pytest.mark.parametrize("ring,coef", [(MOD2, 0), (MOD2, 2), (MOD2, -4), (INTEGER, 0)])
def test_make_checks_cells_whose_coefficient_vanishes(ring, coef):
    # every cell is checked, also one that reduces to 0 and is dropped
    good = (BoxCell([(0, 1), 0]), 1)
    wrong_d = BoxCell([(0, 1), 0, 0])
    wrong_k = BoxCell([(0, 1), (0, 1)])
    with pytest.raises(ChainError, match="cell dimension 3 does not match d=2"):
        RectChain.make(2, 1, ring, [good, (wrong_d, coef)], 1)
    with pytest.raises(ChainError, match=r"has dimension 2, expected 1"):
        RectChain.make(2, 1, ring, [good, (wrong_k, coef)], 1)
    # the first bad cell decides the message
    with pytest.raises(ChainError, match=r"has dimension 2, expected 1"):
        RectChain.make(2, 1, ring, iter([(wrong_k, coef), (wrong_d, 1)]), 1)


def test_union_normalize_needs_one_dimension():
    _, boxes = lattice_cells([((0, 1), "1/2"), ((0, 1), (0, 1))])
    assert union_normalize([]) == []
    with pytest.raises(ChainError):
        union_normalize(boxes)


def old_relative_boundary(c):
    """boundary(c, relative=True) as it was before the facet test moved to
    the cell: every face is built, then dropped if it lies in a facet."""
    raw = []
    for b, coef in c.terms.items():
        for p, axis in enumerate(interval_axes(b)):
            lo, hi = b.extents[axis]
            sign = -1 if p % 2 else 1
            for face, s in ((b.replace(axis, hi, hi), sign), (b.replace(axis, lo, lo), -sign)):
                if not face.in_cube_boundary(c.den):
                    raw.append((face, coef * s))
    return RectChain.make(c.d, c.k - 1, c.ring, raw, c.den)


@pytest.mark.parametrize("ring", [MOD2, INTEGER])
@given(family=same_dim_family(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_relative_boundary_matches_per_face_test(ring, family, data):
    # fixed coordinates 0 and 1 put whole cells inside facets, and corners
    # 0 and 1 put single faces there
    d, k, boxes = family
    assume(k > 0)
    coefs = data.draw(st.lists(st.integers(-3, 3), min_size=len(boxes), max_size=len(boxes)))
    c = chain_from(d, k, ring, zip(boxes, coefs))
    assert boundary(c, relative=True).terms == old_relative_boundary(c).terms


def test_relative_boundary_of_cells_in_facets():
    # a square in the facet x_3 = 0 contributes nothing; a square in the
    # interior plane x_3 = 1/2 that reaches x_1 = 1 loses that one edge
    c = chain_of(((0, "1/2"), (0, 1), 0), (("1/2", 1), ("1/4", "3/4"), "1/2"), d=3)
    want = chain_of(("1/2", ("1/4", "3/4"), "1/2"), (("1/2", 1), "3/4", "1/2"),
                    (("1/2", 1), "1/4", "1/2"), d=3)
    assert boundary(c, relative=True) == want
    assert boundary(c, relative=True).terms == old_relative_boundary(c).terms


@pytest.mark.parametrize("ring", [MOD2, INTEGER])
@given(family=same_dim_family(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_canonical_cells_do_not_depend_on_grouping(ring, family, data):
    # (a + b) + c, one RectChain.sum and one make of all the raw cells give
    # the same cells and coefficients
    d, k, boxes = family
    coefs = data.draw(st.lists(st.integers(-3, 3), min_size=len(boxes), max_size=len(boxes)))
    i, j = sorted(data.draw(st.lists(st.integers(0, len(boxes)), min_size=2, max_size=2)))
    terms = list(zip(boxes, coefs))
    a, b, c = (chain_from(d, k, ring, part) for part in (terms[:i], terms[i:j], terms[j:]))
    pairwise = (a + b) + c
    once = RectChain.sum(d, k, ring, [a, b, c])
    whole = chain_from(d, k, ring, terms).rescale(pairwise.den)
    assert pairwise.terms == once.terms == whole.terms


@pytest.mark.parametrize("ring", [MOD2, INTEGER])
@given(family=same_dim_family(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_modulo_boundary_keeps_a_canonical_chain_canonical(ring, family, data):
    d, k, boxes = family
    coefs = data.draw(st.lists(st.integers(-3, 3), min_size=len(boxes), max_size=len(boxes)))
    c = chain_from(d, k, ring, zip(boxes, coefs))
    kept = [(b, cf) for b, cf in c.terms.items() if not b.in_cube_boundary(c.den)]
    assert modulo_boundary(c).terms == RectChain.make(d, k, ring, kept, c.den).terms


@given(family=same_dim_family())
@settings(max_examples=150, deadline=None)
def test_union_normalize_matches_old_splitter(family):
    _, _, boxes = family
    den, cells = lattice_cells(boxes)
    new = [fractions_of(c, den) for c in union_normalize(cells)]
    assert len(new) == len(set(new))
    assert set(new) == set(old_union_normalize(boxes))


# ----------------------------------------------------------- zero tests


def raw_chain(d, k, ring, terms, factor=1):
    """A chain that holds the (Fraction box, coefficient) terms as given,
    not canonical (boxes may overlap), over their lcm times `factor`."""
    den, cells = lattice_cells([box for box, _ in terms])
    held = {}
    for c, (_, cf) in zip(cells, terms):
        held[c.scaled(factor)] = held.get(c.scaled(factor), 0) + cf
    return RectChain(d, k, ring, held, den * factor)


@st.composite
def zero_test_cases(draw):
    """(ring, d, k, walls, chains): (k+1)-chains `walls` and k-chains
    `chains`, raw or canonical, over mixed denominators, with cells in the
    facets of the cube, 0-chains and zero chains among them.  Often the
    chains hold the negated relative boundaries of the walls, cut in two,
    so that with the extra chain drawn last the sum may vanish."""
    ring = draw(st.sampled_from([MOD2, INTEGER]))
    d = draw(st.integers(1, 3))
    k = draw(st.integers(0, d))

    def chain(j, facet=False):
        planes = list(itertools.combinations(range(d), j))
        boxes = [draw_box(draw, d, planes) for _ in range(draw(st.integers(1, 4)))]
        if facet:  # move the first fixed axis of each box onto a facet
            moved = []
            for box in boxes:
                a = next(a for a, (lo, hi) in enumerate(box) if lo == hi)
                v = draw(st.sampled_from([F(0), F(1)]))
                moved.append(box[:a] + ((v, v),) + box[a + 1 :])
            boxes = moved
        coefs = draw(st.lists(st.integers(-2, 2), min_size=len(boxes), max_size=len(boxes)))
        c = raw_chain(d, j, ring, list(zip(boxes, coefs)), draw(st.sampled_from([1, 2, 3])))
        return c if draw(st.booleans()) else RectChain.make(d, j, ring, c.terms.items(), c.den)

    walls = [chain(k + 1) for _ in range(draw(st.integers(0, 2)))] if k < d else []
    chains = []
    if draw(st.booleans()):
        for w in walls:
            neg = -boundary(w, relative=True)
            terms = list(neg.terms.items())
            cut = draw(st.integers(0, len(terms)))
            for part in (terms[:cut], terms[cut:]):
                factor = draw(st.sampled_from([1, 2, 5]))
                chains.append(RectChain(d, k, ring, dict(part), neg.den).rescale(neg.den * factor))
    extra = draw(st.sampled_from(["none", "zero", "facet", "pair", "random"]))
    if extra == "zero":
        chains.append(RectChain.zero(d, k, ring))
    elif extra == "facet" and k < d:
        chains.append(chain(k, facet=True))
    elif extra == "pair":
        c = chain(k)
        chains += [c, (-c).rescale(2 * c.den)]
    elif extra == "random":
        chains.append(chain(k))
    return ring, d, k, walls, draw(st.permutations(chains))


@given(case=zero_test_cases())
@settings(max_examples=400, deadline=None)
def test_vanishes_matches_the_canonical_sum(case):
    ring, d, k, walls, chains = case
    total = RectChain.sum(d, k, ring, [boundary(w, relative=True) for w in walls] + chains)
    assert vanishes(ring, walls, chains) == modulo_boundary(total).is_zero()


def test_vanishes_examples():
    square = chain_of((("1/4", "1/2"), ("1/4", "1/2")), ring=INTEGER)
    wall = boundary(square, relative=True)
    assert not vanishes(INTEGER, walls=[square])
    assert not vanishes(INTEGER, walls=[square], chains=[wall])  # twice the wall
    assert vanishes(INTEGER, walls=[square], chains=[(-wall).rescale(12)])
    assert vanishes(MOD2, walls=[square], chains=[wall.rescale(12)])
    # the edges of a corner square on x_1 = 0 and x_2 = 0 lie in the cube boundary
    corner = chain_of(((0, "1/2"), (0, "1/2")))
    edges = chain_of(("1/2", (0, "1/2")), ((0, "1/2"), "1/2"))
    assert vanishes(MOD2, walls=[corner], chains=[edges])
    # a chain inside the cube boundary vanishes, and so do its faces
    facet = chain_of((0, ("1/3", 1)), ring=INTEGER)
    assert vanishes(INTEGER, walls=[facet], chains=[facet])
    # points: twice a point cancels mod 2 only; a 0-chain has no faces
    two = RectChain(2, 0, INTEGER, {BoxCell([1, 1]): 2}, 3)
    assert not vanishes(INTEGER, chains=[two])
    assert vanishes(MOD2, chains=[two])
    assert vanishes(INTEGER, walls=[two])
    assert is_relative_cycle(two)
    assert vanishes(INTEGER)  # the empty sum


def old_vanishes(ring, walls=(), chains=()):
    """Oracle: `vanishes` as it was before a cell's corners were built once,
    when a wall cell built the corners of each face on its own."""
    walls, chains = list(walls), list(chains)
    den = math.lcm(*(c.den for c in walls), *(c.den for c in chains))
    planes = {}

    def add(mask, ends, coef, signs):
        corners = itertools.product(*ends)
        if ring == MOD2:
            if coef % 2:
                planes.setdefault(mask, set()).symmetric_difference_update(corners)
            return
        counts = planes.setdefault(mask, {})
        for v, sign in zip(corners, signs, strict=True):
            counts[v] = counts.get(v, 0) + coef * sign

    for c, wall in [(c, True) for c in walls] + [(c, False) for c in chains]:
        f = den // c.den
        signs = [1]
        for _ in range(c.k - 1 if wall else c.k):
            signs = [s for t in signs for s in (t, -t)]
        for b, coef in c.terms.items():
            ends, mask = [], 0
            for a, (lo, hi) in enumerate(b.extents):
                if lo < hi:
                    ends.append((lo * f, hi * f))
                    mask |= 1 << a
                elif 0 < lo < c.den:
                    ends.append((lo * f,))
                else:
                    break
            if len(ends) < len(b.extents):
                continue
            if not wall:
                add(mask, ends, coef, signs)
                continue
            sign = coef
            for a, e in enumerate(ends):
                if len(e) == 2:
                    for end, s in ((e[0], -sign), (e[1], sign)):
                        if 0 < end < den:
                            add(mask ^ (1 << a), ends[:a] + [(end,)] + ends[a + 1 :], s, signs)
                    sign = -sign
    if ring == MOD2:
        return not any(planes.values())
    return not any(n for counts in planes.values() for n in counts.values())


@given(case=zero_test_cases())
@settings(max_examples=400, deadline=None)
def test_vanishes_matches_the_face_by_face_oracle(case):
    # both rings, walls and chains, cells and wall ends on the facets
    ring, _, _, walls, chains = case
    assert vanishes(ring, walls, chains) == old_vanishes(ring, walls, chains)
    assert vanishes(ring, walls=walls) == old_vanishes(ring, walls=walls)


@st.composite
def plane_members(draw, ring):
    """(key, members): cells of one plane with k = 1..4 free axes in
    [0,1]^4 over den 12, as `_canonical_terms` hands them to `_merge_plane`
    but also with repeated cells, which it sums first: tilings of a
    sub-grid by abutting boxes (as a part's cells lie), boxes
    that overlap, +c/-c pairs that empty whole rows, and a -c copy of a
    box's first-axis prefix on some of its rows, which cancels those rows'
    first atoms while later atoms survive; possibly shuffled.  Coefficients
    come reduced, as `_canonical_terms` passes them: mod 2 and in the union
    ring a pair covers twice instead of cancelling."""
    k = draw(st.integers(1, 4))
    free = draw(st.sampled_from(list(itertools.combinations(range(4), k))))
    key = tuple(None if a in free else draw(st.sampled_from([0, 6, 12])) for a in range(4))

    def interval(lo=0, hi=12):
        return tuple(sorted(draw(st.lists(st.integers(lo, hi), min_size=2, max_size=2,
                                          unique=True))))

    def cell(spans):
        spans = iter(spans)
        return BoxCell._from_valid(tuple(next(spans) if v is None else (v, v) for v in key))

    def coef():
        if ring == UNION:
            return 1
        return _reduce_coef(draw(st.integers(-3, 3).filter(bool)), ring) or 1

    members = []
    for move in draw(st.lists(st.sampled_from(["tile", "box", "cancel", "prefix"]),
                              min_size=1, max_size=4)):
        spans = [interval() for _ in free]
        if move == "tile":  # split the box into abutting pieces along each axis
            cuts = [sorted({lo, hi, *draw(st.lists(st.integers(lo, hi), max_size=3))})
                    for lo, hi in spans]
            same = draw(st.booleans())
            c = coef()
            for combo in itertools.product(*(list(zip(p, p[1:])) for p in cuts)):
                members.append((cell(combo), c if same else coef()))
        elif move == "box":
            members.append((cell(spans), coef()))
        else:
            c = coef()
            members.append((cell(spans), c))
            neg = c if ring == UNION else _reduce_coef(-c, ring)
            if move == "cancel":
                members.append((cell(spans), neg))
            else:
                (lo, hi), *rest = spans
                mid = draw(st.integers(lo + 1, hi))
                members.append((cell([(lo, mid), *(interval(*r) for r in rest)]), neg))
    members += draw(st.lists(st.sampled_from(members), max_size=2))  # duplicates
    if draw(st.booleans()):
        members = draw(st.permutations(members))
    return key, members


@pytest.mark.parametrize("ring", [MOD2, INTEGER, UNION])
@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_merge_plane_matches_atom_grid(ring, data):
    # same cells and coefficients as cutting on all breakpoints
    key, members = data.draw(plane_members(ring))
    assert dict(merge_plane(ring, key, members)) == dict(old_merge_plane(ring, key, members))


@pytest.mark.parametrize("ring", [MOD2, INTEGER, UNION])
@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_merge_plane_is_a_fixed_point_of_the_atom_merge(ring, data):
    # one round of joins is the whole merge: another on every free axis changes nothing
    key, members = data.draw(plane_members(ring))
    free = [a for a, v in enumerate(key) if v is None]
    boxes = {tuple(c.extents[a] for a in free): cf for c, cf in merge_plane(ring, key, members)}
    assert old_merge_atoms(boxes, len(free)) == boxes


def grid_join(pieces):
    """Sorted, disjoint ((lo, hi), coef) pieces of one line with touching
    neighbours of equal coefficient joined."""
    out = []
    for (lo, hi), cf in pieces:
        if out and out[-1][0][1] == lo and out[-1][1] == cf:
            out[-1] = ((out[-1][0][0], hi), cf)
        else:
            out.append(((lo, hi), cf))
    return out


def grid_merge_plane(ring, key, members):
    """The plane merge before the slab sweep, the oracle of `_merge_plane`:
    every member is cut into rows on the breakpoints of all members, on
    every free axis after the first; a step sweep gives each row's maximal
    first-axis runs, which are joined once along each later free axis."""
    free = [a for a, v in enumerate(key) if v is None]
    cuts = [sorted({p for c, _ in members for p in c.extents[a]}) for a in free[1:]]
    segments = [list(zip(pts, pts[1:])) for pts in cuts]
    ranks = [{p: i for i, p in enumerate(pts)} for pts in cuts]
    rows = {}
    for c, coef in members:
        per_axis = []
        for a, segs, rank in zip(free[1:], segments, ranks):
            lo, hi = c.extents[a]
            per_axis.append(segs[rank[lo] : rank[hi]])
        span = (*c.extents[free[0]], coef)
        for row in itertools.product(*per_axis):
            rows.setdefault(row, []).append(span)
    boxes = {}
    for row, spans in rows.items():
        steps = {}
        for lo, hi, coef in spans:
            steps[lo] = steps.get(lo, 0) + coef
            steps[hi] = steps.get(hi, 0) - coef
        marks = sorted(steps)
        elementary, total = [], 0
        for lo, hi in zip(marks, marks[1:]):
            total += steps[lo]
            cf = reduce_coef(total, ring)
            if cf:
                elementary.append(((lo, hi), cf))
        for ext, cf in grid_join(elementary):
            boxes[(ext,) + row] = cf
    for pos in range(1, len(free)):
        lines = {}
        for ext, cf in boxes.items():
            lines.setdefault(ext[:pos] + ext[pos + 1 :], []).append((ext[pos], cf))
        boxes = {}
        for rest, pieces in lines.items():
            for ext, cf in grid_join(sorted(pieces)):
                boxes[rest[:pos] + (ext,) + rest[pos:]] = cf
    for ext, coef in boxes.items():
        full = [(v, v) for v in key]
        for a, e in zip(free, ext):
            full[a] = e
        yield BoxCell._from_valid(tuple(full)), coef


def ring_coef(draw, ring):
    """A nonzero coefficient as `_canonical_terms` hands it on: reduced."""
    if ring == UNION:
        return 1
    return _reduce_coef(draw(st.integers(-3, 3).filter(bool)), ring) or 1


def repeat_and_cancel(draw, ring, members):
    """`members` with some repeated and some joined by a cancelling copy
    (mod 2 a copy cancels; in the union ring it covers twice), shuffled."""
    out = list(members)
    for c, cf in draw(st.lists(st.sampled_from(members), max_size=3)):
        neg = cf if ring == UNION else _reduce_coef(-cf, ring)
        out.append((c, draw(st.sampled_from([cf, neg]))))
    return draw(st.permutations(out))


@st.composite
def sweep_planes(draw, ring):
    """(key, members): cells of one plane with k >= 1 free axes in [0,1]^d,
    d = 1..5, with corners over mixed denominators, repeated and cancelling
    cells among them."""
    d = draw(st.integers(1, 5))
    k = draw(st.integers(1, d))
    free = draw(st.sampled_from(list(itertools.combinations(range(d), k))))
    dens = draw(st.lists(st.sampled_from([2, 3, 4, 5, 6]), min_size=1, max_size=3))
    corners = sorted({F(i, q) for q in dens for i in range(q + 1)})
    fixed = {a: draw(st.sampled_from(corners)) for a in range(d) if a not in free}
    pair = st.lists(st.sampled_from(corners), min_size=2, max_size=2, unique=True).map(sorted)
    boxes = [
        tuple(tuple(draw(pair)) if a in free else (fixed[a],) * 2 for a in range(d))
        for _ in range(draw(st.integers(2, 7)))
    ]
    _, cells = lattice_cells(boxes)
    members = repeat_and_cancel(draw, ring, [(c, ring_coef(draw, ring)) for c in cells])
    return tuple(None if lo < hi else lo for lo, hi in cells[0].extents), members


@st.composite
def staggered_stacks(draw, ring):
    """(key, members): boxes stacked in layers along the plane's last free
    axis, each layer shifted by its own offset on the lower free axes.  A
    cut on the breakpoints of all members makes a product of rows out of
    every layer, while a slab holds only its own layers.  Layers abut,
    overlap or leave gaps, and neighbours often share their lower extents,
    with equal or different coefficients."""
    d = draw(st.integers(2, 5))
    k = draw(st.integers(2, d))
    free = draw(st.sampled_from(list(itertools.combinations(range(d), k))))
    key = tuple(None if a in free else draw(st.sampled_from([0, 30, 60])) for a in range(d))
    offsets = [draw(st.integers(0, 30)) for _ in range(draw(st.integers(1, 2)))]
    widths = [draw(st.integers(1, 30)) for _ in range(2)]
    bottom, members = 0, []
    for _ in range(draw(st.integers(2, 8))):
        height = draw(st.integers(1, 8))
        lower = [(o, o + draw(st.sampled_from(widths))) for o in
                 (draw(st.sampled_from(offsets) | st.integers(0, 30)) for _ in free[:-1])]
        spans = iter([*lower, (bottom, bottom + height)])
        cell = BoxCell._from_valid(tuple(next(spans) if v is None else (v, v) for v in key))
        members.append((cell, ring_coef(draw, ring)))
        bottom = max(0, bottom + height + draw(st.integers(-2, 2)))
    return key, repeat_and_cancel(draw, ring, members)


@pytest.mark.parametrize("ring", [MOD2, INTEGER, UNION])
@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_merge_plane_matches_the_row_grid(ring, data):
    # the slab sweep gives the cells of cutting on all breakpoints
    key, members = data.draw(sweep_planes(ring) | plane_members(ring))
    assert dict(merge_plane(ring, key, members)) == dict(grid_merge_plane(ring, key, members))


@pytest.mark.parametrize("ring", [MOD2, INTEGER, UNION])
@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_merge_plane_matches_the_row_grid_on_staggered_stacks(ring, data):
    key, members = data.draw(staggered_stacks(ring))
    assert dict(merge_plane(ring, key, members)) == dict(grid_merge_plane(ring, key, members))


@pytest.mark.parametrize("colors", [2, 3, 4, 5])
def test_part_chains_and_cycles_match_the_row_grid(monkeypatch, colors):
    # every part chain and X_i of a d = 4 coloring, cell for cell
    def chains_of(g):
        partition = build_shifted_partition(g.d, g.n, F(1, 16 * g.n))
        parts = mono_parts(partition, g)
        nrv = nerve(partition, parts)
        fillings = contraction(nrv)
        return {p.id: (p.chain().terms, _cycle(nrv, fillings, (p.id,)).terms) for p in parts}

    g = random_coloring(4, 3, colors, colors)
    swept = chains_of(g)
    monkeypatch.setattr(chains_module, "_merge_plane", grid_merge_plane)
    assert chains_of(g) == swept


@st.composite
def closed_box_families(draw):
    """Closed boxes in [0,1]^d, d = 1..3, with corners of denominator <= 4,
    so zero-width extents, face and corner contacts, overlaps and (with
    the appended copies) duplicates are all common."""
    d = draw(st.integers(1, 3))
    extent = st.lists(st.sampled_from(_CORNERS), min_size=2, max_size=2).map(
        lambda e: tuple(sorted(e))
    )
    box = st.lists(extent, min_size=d, max_size=d)
    boxes = draw(st.lists(box, min_size=1, max_size=10))
    return lattice_cells(boxes + draw(st.lists(st.sampled_from(boxes), max_size=3)))[1]


@st.composite
def huge_and_tiny_boxes(draw):
    """A few boxes spanning most of [0,1]^d, d = 1..3, among many tiny
    ones, over den 64: each huge box stays open through most of the sweep
    and meets many tiny boxes on one axis but not on the others."""
    d = draw(st.integers(1, 3))

    def box(size):
        ext = []
        for _ in range(d):
            lo = draw(st.integers(0, 64 - size))
            ext.append((lo, lo + draw(st.integers(0, size))))
        return BoxCell(ext)

    huge = [box(draw(st.integers(40, 64))) for _ in range(draw(st.integers(1, 3)))]
    tiny = [box(draw(st.integers(0, 4))) for _ in range(draw(st.integers(10, 40)))]
    return draw(st.permutations(huge + tiny))


def all_pairs_contacts(boxes):
    """Oracle: intersect every pair."""
    want = []
    for (i, a), (j, b) in itertools.combinations(enumerate(boxes), 2):
        x = a.intersect(b)
        if x is not None:
            want.append((i, j, x))
    return want


def sweep_contacts(boxes):
    """Oracle: `contacts` as it was before the second-axis filter, a sweep
    on the first axis that tests every open box on every axis."""
    keys = [b.extents for b in boxes]
    active = []
    out = []
    for j in sorted(range(len(boxes)), key=lambda i: keys[i][0][0]):
        active = [i for i in active if keys[i][0][1] >= keys[j][0][0]]
        for i in active:
            x = boxes[i].intersect(boxes[j])
            if x is not None:
                out.append((min(i, j), max(i, j), x))
        active.append(j)
    return sorted(out, key=lambda t: t[:2])


@given(st.one_of(closed_box_families(), huge_and_tiny_boxes()))
@settings(max_examples=200, deadline=None)
def test_contacts_match_all_pairs(boxes):
    # the same triples, sorted by (i, j)
    assert contacts(boxes) == all_pairs_contacts(boxes) == sweep_contacts(boxes)


@pytest.mark.parametrize(
    "specs",
    [
        [],
        [(0, "1/2")],
        [(0, "1/2"), ("1/2", 1), ("1/4", "3/4"), "1/2", "1/2", (0, 1), "3/4"],  # d = 1
    ],
)
def test_contacts_on_empty_and_one_dimensional_input(specs):
    boxes = lattice_cells([(e,) for e in specs])[1]
    assert contacts(boxes) == all_pairs_contacts(boxes) == sweep_contacts(boxes)


def test_contacts_keep_corner_and_face_contacts():
    _, boxes = lattice_cells([
        ((0, "1/2"), (0, "1/2")),
        (("1/2", 1), ("1/2", 1)),  # corner
        ((0, "1/2"), ("1/2", "3/4")),  # face
        (("3/4", 1), (0, "1/4")),  # apart
    ])
    assert contacts(boxes) == [
        (0, 1, BoxCell([2, 2])),
        (0, 2, BoxCell([(0, 2), 2])),
        (1, 2, BoxCell([2, (2, 3)])),
    ]


def test_mod2_overlap_cancels():
    twice = RectChain.make(2, 2, MOD2, [(BoxCell([(0, 1), (0, 1)]), 1)] * 2, 1)
    assert twice.is_zero()


def test_overlapping_boxes_resolved_pointwise():
    a = ((0, "3/4"), (0, 1))
    b = (("1/4", 1), (0, 1))
    c = chain_from(2, 2, MOD2, [(a, 1), (b, 1)])
    # the overlap [1/4,3/4] cancels mod 2, leaving the two outer strips
    assert c.volume() == F(1, 2)
    ci = chain_from(2, 2, INTEGER, [(a, 1), (b, 1)])
    assert ci.volume() == F(3, 2)  # overlap carries coefficient 2


def test_equality_is_semantic_not_structural():
    cross_v = chain_of(
        (("1/3", "2/3"), (0, 1)),
        ((0, "1/3"), ("1/3", "2/3")),
        (("2/3", 1), ("1/3", "2/3")),
    )
    cross_h = chain_of(
        ((0, 1), ("1/3", "2/3")),
        (("1/3", "2/3"), (0, "1/3")),
        (("1/3", "2/3"), ("2/3", 1)),
    )
    assert cross_v == cross_h
    assert cross_v.volume() == cross_h.volume() == F(5, 9)


def test_equality_across_dimensions():
    square, edge = chain_of(((0, "1/2"), (0, 1))), chain_of(("1/2", (0, 1)))
    assert square != edge and edge != square
    assert edge not in [square]
    assert square != RectChain.zero(2, 2) and square != RectChain.zero(2, 1)
    assert RectChain.zero(2, 1) == RectChain.zero(2, 2)  # zero is zero in any dimension
    with pytest.raises(ChainError):
        square + edge  # combining them still raises


def test_volume_examples():
    assert RectChain.zero(2, 1).volume() == 0
    assert chain_of(((0, "1/3"), (0, 1))).volume() == F(1, 3)
    tripled = chain_from(2, 1, INTEGER, [(((0, "1/2"), "1/4"), 3)])
    assert tripled.volume() == F(3, 2)


# ------------------------------------------------------ section / split
#
# The sweep as `fill` composed it before each level became one pass over
# the cycle: cut into a section and two halves, cone the halves onto
# opposite facets, extrude the filled section.  These operators are the
# oracle for the one-pass kernel, and their identities are checked here.


class ConeError(ChainError):
    """Cone input touches the facet opposite to the sweep target."""


def old_cone_sign(b, axis):
    # position the new interval axis would take among the cell's interval axes
    q = sum(1 for a in interval_axes(b) if a < axis)
    return -1 if q % 2 else 1


def section_and_split(z, axis, t):
    """Cut z at {x_axis = t / z.den}: returns (section, lower half, upper half).

    t must be generic: distinct from every fixed coordinate and interval
    endpoint of z on the axis.  The halves satisfy z = z0 + z1 and, when z
    is a relative cycle, the relative boundaries of z0 / z1 are +/- the
    section.  The section carries the sign (-1)^p of the cut axis'
    position among each cell's interval axes, so those identities hold in
    the integer ring as well.
    """
    if not 0 < t < z.den:
        raise SectionError(f"cut height {F(t, z.den)} outside (0,1)")
    sec_raw, lo_raw, hi_raw = [], [], []
    for b, coef in z.terms.items():
        blo, bhi = b.extents[axis]
        if blo == bhi:
            if blo == t:
                raise SectionError(f"cut height {F(t, z.den)} hits a fixed coordinate")
            (lo_raw if blo < t else hi_raw).append((b, coef))
            continue
        if t in (blo, bhi):
            raise SectionError(f"cut height {F(t, z.den)} hits an interval endpoint")
        if bhi < t:
            lo_raw.append((b, coef))
        elif blo > t:
            hi_raw.append((b, coef))
        else:
            p = interval_axes(b).index(axis)
            sign = -1 if p % 2 else 1
            sec_raw.append((b.replace(axis, t, t), coef * sign))
            lo_raw.append((b.replace(axis, blo, t), coef))
            hi_raw.append((b.replace(axis, t, bhi), coef))
    z_t = RectChain.make(z.d, max(z.k - 1, 0), z.ring, sec_raw, z.den)
    z0 = RectChain.make(z.d, z.k, z.ring, lo_raw, z.den)
    z1 = RectChain.make(z.d, z.k, z.ring, hi_raw, z.den)
    return z_t, z0, z1


def cone_project(y, axis, side):
    """Sweep y to the facet {x_axis = side}, producing a (k+1)-chain.

    Cells fixed at c on the axis become the interval from c to the facet;
    cells already spanning the axis sweep to a degenerate image and are
    dropped.  Requires that no cell of y touches the opposite facet.
    Writing I for this operator, the exact identity

        boundary(I(y)) = y - I(boundary(y))   (modulo the cube boundary)

    holds in both rings with the sign conventions of chains, and the
    volume never grows: ||I(y)|| <= ||y||.
    """
    if side not in (0, 1):
        raise ChainError("side must be 0 or 1")
    den = y.den
    raw = []
    for b, coef in y.terms.items():
        lo, hi = b.extents[axis]
        if (side == 0 and hi == den) or (side == 1 and lo == 0):
            raise ConeError(
                f"cell {b} touches the facet x_{axis + 1}={1 - side}; cannot sweep to {side}"
            )
        if lo < hi:
            continue  # sweep direction already spanned: degenerate image
        c = lo
        new_lo, new_hi = (0, c) if side == 0 else (c, den)
        if new_lo == new_hi:
            continue
        sign = old_cone_sign(b, axis)
        if side == 1:
            sign = -sign
        raw.append((b.replace(axis, new_lo, new_hi), coef * sign))
    return RectChain.make(y.d, y.k + 1, y.ring, raw, den)


def old_extrude(w, axis):
    """Extend a chain fixed on `axis` to the full interval on that axis."""
    raw = []
    for b, coef in w.terms.items():
        lo, hi = b.extents[axis]
        if lo < hi:
            raise ChainError("extrude input must be fixed on the sweep axis")
        raw.append((b.replace(axis, 0, w.den), coef * old_cone_sign(b, axis)))
    return RectChain.make(w.d, w.k + 1, w.ring, raw, w.den)


def old_fill_rec(z, axes, levels):
    """One level of the composed sweep; appends (level, refined) to
    `levels` for each level that cuts, refined when its midpoint was odd."""
    if z.is_zero():
        return RectChain.zero(z.d, z.k + 1, z.ring)
    axis = axes[0]
    t = _pick_slab(z, axis)
    levels.append((z.d - len(axes), t % 2 == 1))
    z, t = (z.rescale(2 * z.den), t) if t % 2 else (z, t // 2)
    z_t, z0, z1 = section_and_split(z, axis, t)
    h = cone_project(z0, axis, 0) + cone_project(z1, axis, 1)
    if not z_t.is_zero():
        h = h - old_extrude(old_fill_rec(z_t, axes[1:], levels), axis)
    return h


def old_fill(z, levels):
    """fill of a relative cycle as the composed sweep computed it."""
    return old_fill_rec(modulo_boundary(z), tuple(range(z.d)), levels)


def test_section_no_crossing():
    z = chain_of(("1/3", (0, 1)))
    z_t, z0, z1 = section_and_split(z.rescale(6), 0, 1)  # cut at 1/6
    assert z_t.is_zero() and z0.is_zero()
    assert z1 == z


def test_section_splits_a_segment():
    z = chain_of(((0, 1), "1/2"))
    z_t, z0, z1 = section_and_split(z.rescale(6), 0, 2)  # cut at 1/3
    assert z_t == chain_of(("1/3", "1/2"))
    assert z0 == chain_of(((0, "1/3"), "1/2"))
    assert z1 == chain_of((("1/3", 1), "1/2"))


def test_section_rejects_breakpoints():
    z = chain_of(((0, 1), "1/2"))
    assert z.den == 2
    with pytest.raises(SectionError):
        section_and_split(z, 1, 1)  # hits the fixed coordinate 1/2
    with pytest.raises(SectionError):
        section_and_split(z, 0, 2)  # endpoint of the unit interval


@pytest.mark.parametrize("seed", range(10))
def test_section_volume_additivity(seed):
    z = random_chain(seed, d=3, k=2, size=3)
    # cut at 7/16, generic for the denominators used by random_chain
    z = z.rescale(z.den * 16)
    _, z0, z1 = section_and_split(z, 0, 7 * z.den // 16)
    assert z0.volume() + z1.volume() == z.volume()


def volume_split(z: RectChain, axis: int) -> tuple[F, F]:
    """Oracle: the volume of z split into the cells orthogonal and the
    cells parallel to the given axis."""
    perp = par = F(0)
    for b, cf in z.terms.items():
        lo, hi = b.extents[axis]
        if lo < hi:
            par += abs(cf) * F(b.volume(), z.den**z.k)
        else:
            perp += abs(cf) * F(b.volume(), z.den**z.k)
    return perp, par


def test_sweep_slabs_integral_recovers_parallel_volume():
    # boundary of a square, swept along axis 1
    z = boundary(chain_of((("1/4", "1/2"), ("1/4", "1/2"))), relative=True)
    perp, par = volume_split(z, 0)
    assert par == F(1, 2)
    slabs = sweep_slabs(z, 0)
    nonempty = [(lo, hi, sec) for lo, hi, sec in slabs if sec]
    assert len(nonempty) == 1
    lo, hi, sec = nonempty[0]
    # two walls cross the slab, each in one point
    assert (F(lo, z.den), F(hi, z.den)) == (F(1, 4), F(1, 2)) and sec == 2
    integral = sum((hi - lo) * sec for lo, hi, sec in slabs)
    assert F(integral, z.den**z.k) == par


def test_split_halves_bound_the_section():
    z = boundary(chain_of((("1/4", "1/2"), ("1/4", "1/2"))), relative=True)
    z_t, z0, z1 = section_and_split(z.rescale(8), 0, 3)  # cut at 3/8
    assert boundary(z0, relative=True) == modulo_boundary(z_t)
    assert boundary(z1, relative=True) == modulo_boundary(-z_t)


# ---------------------------------------------------------------- cones


def test_cone_sweeps_a_segment():
    y = chain_of(("1/3", (0, 1)))
    up = cone_project(y, 0, 1)
    down = cone_project(y, 0, 0)
    assert up == chain_of((("1/3", 1), (0, 1)))
    assert up.volume() == F(2, 3)
    assert down == chain_of(((0, "1/3"), (0, 1)))
    assert down.volume() == F(1, 3)


def test_cone_precondition():
    y = chain_of(("1", (0, 1)))
    with pytest.raises(ConeError):
        cone_project(y, 0, 0)  # touches x_1 = 1, cannot sweep to x_1 = 0


@pytest.mark.parametrize("side", [0, 1])
@pytest.mark.parametrize("seed", range(25))
def test_cone_boundary_identity_mod2(side, seed):
    y = random_chain(seed, d=3, k=1, size=2, boundary_safe=True)
    iy = cone_project(y, 0, side)
    residual = (
        boundary(iy, relative=True)
        - y
        + cone_project(boundary(y, relative=True), 0, side)
    )
    assert modulo_boundary(residual).is_zero()
    assert iy.volume() <= y.volume()


@pytest.mark.parametrize("side", [0, 1])
@pytest.mark.parametrize("seed", range(15))
def test_cone_boundary_identity_integer(side, seed):
    # with cubical signs both sweeps satisfy d(I(y)) = y - I(d(y)) mod bdry
    y = random_chain(seed, d=3, k=1, size=2, ring=INTEGER, boundary_safe=True)
    iy = cone_project(y, 0, side)
    residual = (
        boundary(iy, relative=True)
        - y
        + cone_project(boundary(y, relative=True), 0, side)
    )
    assert modulo_boundary(residual).is_zero()


# ---------------------------------------------------------------- fill


def test_fill_zero():
    z = RectChain.zero(3, 1)
    assert fill(z).is_zero()


def test_fill_single_wall_segment():
    # all slabs have empty section, so the tie-break picks the leftmost
    # slab and everything sweeps right
    z = chain_of(("1/3", (0, 1)))
    h = fill(z)
    assert h == chain_of((("1/3", 1), (0, 1)))
    assert h.volume() == F(2, 3)


def test_fill_square_boundary_recovers_square():
    B = chain_of((("1/4", "1/2"), ("1/4", "1/2")))
    h = fill(boundary(B, relative=True))
    assert h == B
    assert h.volume() == F(1, 16)


def test_fill_rejects_non_cycles():
    z = chain_of((("1/4", "1/2"), "1/2"))  # a bare segment, not a cycle
    with pytest.raises(FillError):
        fill(z)
    with pytest.raises(FillError):
        fill(fundamental_chain(2))  # k = d


@pytest.mark.parametrize("ring", [MOD2, INTEGER])
@pytest.mark.parametrize("d,k", [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3)])
def test_fill_contract(ring, d, k):
    for seed in range(15):
        z = random_relative_cycle(seed, d, k, size=2, ring=ring)
        h = fill(z)
        assert boundary(h, relative=True) == modulo_boundary(z)
        assert h.volume() <= modulo_boundary(z).volume()


def test_fill_is_odd_in_integer_ring():
    z = random_relative_cycle(9, 3, 1, size=3, ring=INTEGER)
    assert fill(-z) == -fill(z)


def test_fill_refines_the_lattice_at_an_odd_midpoint():
    # the boundary of [1/4, 1/2]^2 over 4: every section along axis 1 is
    # empty, so the leftmost slab [0, 1/4] is picked, and its midpoint
    # 1/8 is off the lattice: fill works over 8
    z = boundary(chain_of((("1/4", "1/2"), ("1/4", "1/2"))), relative=True)
    assert z.den == 4
    assert _pick_slab(z, 0) == 1  # numerator over 2 * den, odd
    h = fill(z)
    assert h.den == 8
    assert boundary(h, relative=True) == modulo_boundary(z)
    assert h.volume() <= z.volume()
    assert h == chain_of((("1/4", "1/2"), ("1/4", "1/2")))


@pytest.mark.parametrize("ring", [MOD2, INTEGER])
def test_fill_contract_through_odd_midpoints(ring):
    # random cycles whose first slab midpoint leaves the lattice
    odd = 0
    for seed in range(40):
        z = modulo_boundary(random_relative_cycle(seed, 3, 1, size=2, ring=ring))
        if z.is_zero() or _pick_slab(z, 0) % 2 == 0:
            continue
        odd += 1
        h = fill(z)
        assert h.den % (2 * z.den) == 0
        assert boundary(h, relative=True) == z
        assert h.volume() <= z.volume()
    assert odd >= 5


FILL_CASES = json.loads((DATA / "fill_fixtures.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("key", sorted(FILL_CASES))
def test_fill_matches_stored_fixture(key):
    # dump digest and volumes of fill on seeds 0-24 of the benchmark's fill
    # classes, stored when cell corners were Fractions
    d, k, ring, s = key.split("-")
    z = random_relative_cycle(int(s[1:]), int(d[1:]), int(k[1:]), ring=ring)
    h = fill(z)
    want = FILL_CASES[key]
    assert hashlib.sha256(dumps_chain(h).encode("utf-8")).hexdigest() == want["sha256"]
    assert str(modulo_boundary(z).volume()) == want["z_volume"]
    assert str(h.volume()) == want["h_volume"]


def spanning_box(d, k, ring, notch=None):
    """A (k+1)-box spanning [0, 1] on the first k axes, or [1/6, 1] on the
    axis `notch`.  Each section of its relative boundary spans the next
    axis, so the sweep cuts k+1 levels, each over the whole axis, and the
    first cut off the lattice is at level k, or at the notch."""
    last = ("1/6", "1/3") if notch is None else ("1/2", "5/6")  # apart: nothing cancels
    spec = [(0, 1)] * k + [last] + ["1/2"] * (d - k - 1)
    if notch is not None:
        spec[notch] = ("1/6", 1)
    return chain_from(d, k + 1, ring, [(spec, 1 if ring == MOD2 else 2)])


def assert_fill_matches_composed_sweep(z, levels):
    got, want = fill(z), old_fill(z, levels)
    assert dumps_chain(got) == dumps_chain(want)
    assert got.den == want.den


@st.composite
def cycle_shapes(draw):
    """(d, k, size, seed) for random_relative_cycle, d = 1..5, every k < d."""
    d = draw(st.integers(1, 5))
    return d, draw(st.integers(0, d - 1)), draw(st.integers(1, 4)), draw(st.integers(0, 10**6))


def old_sweep_slabs(z, axis):
    """Oracle: the slabs with each section volume rescanned over every cell,
    as `sweep_slabs` computed them before its running sum."""
    pts = sorted({0, z.den} | {p for b in z.terms for p in b.extents[axis]})
    slabs = []
    for lo, hi in zip(pts, pts[1:]):
        sec = 0
        for b, cf in z.terms.items():
            blo, bhi = b.extents[axis]
            if blo < bhi and blo <= lo and hi <= bhi:
                sec += abs(cf) * (b.volume() // (bhi - blo))
        slabs.append((lo, hi, sec))
    return slabs


@pytest.mark.parametrize("ring", [MOD2, INTEGER])
@given(shape=cycle_shapes(), notch=st.integers(0, 4))
@settings(max_examples=200, deadline=None)
def test_sweep_slabs_matches_the_per_slab_rescan(ring, shape, notch):
    d, k, size, seed = shape
    z = random_relative_cycle(seed, d, k, size, ring)
    box = spanning_box(d, k, ring) + spanning_box(d, k, ring, notch % (k + 1))
    for c in (z, z + boundary(box, relative=True), box):
        for axis in range(d):
            assert sweep_slabs(c, axis) == old_sweep_slabs(c, axis)


@pytest.mark.parametrize("ring", [MOD2, INTEGER])
@given(shape=cycle_shapes())
@settings(max_examples=200, deadline=None)
def test_fill_matches_the_composed_sweep(ring, shape):
    d, k, size, seed = shape
    assert_fill_matches_composed_sweep(random_relative_cycle(seed, d, k, size, ring), [])


@pytest.mark.parametrize("ring", [MOD2, INTEGER])
def test_fill_matches_the_composed_sweep_on_every_level(ring):
    # a random cycle seldom cuts past its second level, since the slab of
    # least section is mostly empty, and it refines the lattice at most
    # once: a refined lattice puts every later breakpoint on even numerators
    levels = []
    for d in range(1, 6):
        for k in range(d):
            wall = boundary(spanning_box(d, k, ring), relative=True)
            assert_fill_matches_composed_sweep(wall, levels)
            for seed in range(4):
                z = random_relative_cycle(seed, d, k, 1 + seed, ring)
                assert_fill_matches_composed_sweep(z, levels)
                assert_fill_matches_composed_sweep(z + wall, levels)
            for notch in range(k):
                box = spanning_box(d, k, ring) + spanning_box(d, k, ring, notch)
                assert_fill_matches_composed_sweep(boundary(box, relative=True), levels)
    assert {level for level, _ in levels} == set(range(5))
    assert {level for level, refined in levels if refined} == set(range(5))


# ------------------------------------------------------------ lattices


def fraction_terms(c):
    """The chain's terms as (Fraction box, coefficient) pairs."""
    return [(fractions_of(b, c.den), cf) for b, cf in c.terms.items()]


@pytest.mark.parametrize("ring", [MOD2, INTEGER])
@given(family=same_dim_family(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_sums_across_denominators_match_fraction_oracle(ring, family, data):
    d, k, boxes = family
    cut = data.draw(st.integers(0, len(boxes)))
    coefs = data.draw(st.lists(st.integers(-3, 3), min_size=len(boxes), max_size=len(boxes)))
    terms = list(zip(boxes, coefs))
    a, b = chain_from(d, k, ring, terms[:cut]), chain_from(d, k, ring, terms[cut:])
    a = a.rescale(a.den * data.draw(st.sampled_from([1, 2, 3, 8])))
    b = b.rescale(b.den * data.draw(st.sampled_from([1, 2, 5])))
    total = a + b
    assert total.den % a.den == 0 and total.den % b.den == 0
    # the oracle sums the same terms over Fractions
    want = old_canonical_terms(ring, fraction_terms(a) + fraction_terms(b))
    assert dict(fraction_terms(total)) == want
    # == decides by cancellation over the common lattice
    oracle_equal = not old_canonical_terms(
        ring, fraction_terms(a) + [(box, -cf) for box, cf in fraction_terms(b)]
    )
    assert (a == b) is oracle_equal
    assert a == a.rescale(a.den * 7)
    assert a + b == b + a


def test_rescale_needs_a_multiple():
    z = chain_of(((0, "1/3"), (0, 1)))
    assert z.rescale(3) is z
    assert z.rescale(6).terms == {BoxCell([(0, 2), (0, 6)]): 1}
    with pytest.raises(ChainError):
        z.rescale(4)


# ---------------------------------------------------- cycle generation


def test_random_cycle_is_cycle_and_deterministic():
    a = random_relative_cycle(1, 2, 1, size=1)
    b = random_relative_cycle(1, 2, 1, size=1)
    assert a == b
    assert is_relative_cycle(a)


@pytest.mark.parametrize("seed", range(12))
def test_random_cycle_boundary_in_cube_boundary(seed):
    z = random_relative_cycle(seed, 3, 2, size=2)
    assert is_relative_cycle(z)


@pytest.mark.parametrize("d,k,size", [(2, 1, 0), (2, 1, -1), (2, -1, 2), (2, 2, 2)])
def test_random_cycle_rejects_bad_shape(d, k, size):
    # size 0 used to re-seed itself forever (no boxes never make a cycle)
    with pytest.raises(ChainError):
        random_relative_cycle(0, d, k, size=size)


def test_random_cycles_are_diverse():
    dumps = {dumps_chain(random_relative_cycle(s, 2, 1, size=2)) for s in range(100)}
    assert len(dumps) >= 90


# ----------------------------------------------------------- protocols


def test_dump_roundtrip():
    z = random_relative_cycle(4, 3, 1, size=2, ring=INTEGER)
    assert loads_chain(dumps_chain(z)) == z


def test_union_volume_counts_overlap_once():
    den, boxes = lattice_cells([((0, "3/4"), (0, 1)), (("1/4", 1), (0, 1))])
    union = union_normalize(boxes)
    assert sum(b.volume() for b in union) == den**2
    assert not any(x.k == 2 for _, _, x in contacts(union))


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_fill_contract_hypothesis(seed):
    z = random_relative_cycle(seed, 3, 1, size=2)
    h = fill(z)
    assert boundary(h, relative=True) == modulo_boundary(z)
    assert h.volume() <= modulo_boundary(z).volume()
