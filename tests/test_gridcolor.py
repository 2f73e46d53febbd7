"""Grid colorings, component labelling, spanning detection."""

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubecolor.gridcolor import (
    ColoringFormatError,
    ComponentReport,
    ComponentTracker,
    GridColoring,
    _neighbor_table,
    _ring_adjacency,
    components,
    neighbor_offsets,
    parse_coloring,
    report_to_json,
    spanning_report,
)


def bfs_components(g: GridColoring) -> list[set[tuple[int, ...]]]:
    """Independent oracle: breadth-first search over the same-color cells,
    adjacency = coordinates differing by at most 1 on every axis."""
    todo = set(product(range(g.n), repeat=g.d))
    comps = []
    while todo:
        start = min(todo)
        todo.discard(start)
        comp = {start}
        queue = [start]
        while queue:
            cur = queue.pop()
            for off in product((-1, 0, 1), repeat=g.d):
                if not any(off):
                    continue
                nbr = tuple(c + o for c, o in zip(cur, off))
                if nbr in todo and g.color_at(nbr) == g.color_at(cur):
                    todo.discard(nbr)
                    comp.add(nbr)
                    queue.append(nbr)
        comps.append(comp)
    return comps


def cell_coords(g: GridColoring, idx: int) -> tuple[int, ...]:
    """The coordinates of flat cell idx, axis 1 first."""
    out = []
    for _ in range(g.d):
        out.append(idx % g.n)
        idx //= g.n
    return tuple(out)


# --------------------------------------------------------------- parsing


def test_parse_basic():
    g = parse_coloring("2 2 2 \n 0 0 1 1")
    assert (g.d, g.n, g.num_colors) == (2, 2, 2)
    assert g.cells == (0, 0, 1, 1)
    # axis 1 varies fastest: the rows along axis 2 are [0,0] and [1,1]
    assert g.color_at((0, 0)) == 0 and g.color_at((1, 0)) == 0
    assert g.color_at((0, 1)) == 1 and g.color_at((1, 1)) == 1


def test_parse_single_color_line():
    g = parse_coloring("1 3 1 \n 0 0 0")
    assert g.d == 1 and g.cells == (0, 0, 0)


def test_parse_color_out_of_range():
    with pytest.raises(ColoringFormatError) as err:
        parse_coloring("2 2 2 \n 0 0 1 2")
    assert "out of range" in str(err.value)


def test_parse_wrong_token_count():
    with pytest.raises(ColoringFormatError):
        parse_coloring("2 2 2 \n 0 0 1")
    with pytest.raises(ColoringFormatError):
        parse_coloring("2 2 2 \n 0 0 1 1 1")


@pytest.mark.parametrize(
    "text,want",
    [
        ("20000 2 2\n0 1\n", "line 2: expected 2^20000 cell colors, got 2"),
        ("10000000 3 2\n0 1\n", "line 2: expected 3^10000000 cell colors, got 2"),
        ("2 5000 2\n0 1\n", "line 2: expected 5000^2 cell colors, got 2"),
        ("2 2 2\n0 1\n1\n", "line 3: expected 2^2 = 4 cell colors, got 3"),
    ],
)
def test_parse_count_mismatch_names_n_to_the_d(text, want):
    # n^d is not built when it cannot match: 2^20000 used to fail while
    # formatting its 6,000 digits, and 3^10000000 took seconds to build
    with pytest.raises(ColoringFormatError) as err:
        parse_coloring(text)
    assert str(err.value) == want


@pytest.mark.parametrize(
    "d,n,want",
    [(20000, 2, "expected 2^20000 cells, got 2"), (2, 2, "expected 2^2 = 4 cells, got 2")],
)
def test_grid_coloring_count_mismatch_names_n_to_the_d(d, n, want):
    with pytest.raises(ColoringFormatError) as err:
        GridColoring(d, n, 2, (0, 1))
    assert str(err.value) == want


@pytest.mark.parametrize("d,n", [(1, 1), (5, 1), (1, 2), (3, 2), (2, 3)])
def test_count_checks_accept_n_to_the_d_cells(d, n):
    # n = 1 and small powers take the exact comparison
    text = f"{d} {n} 1\n" + " ".join("0" * n**d)
    assert parse_coloring(text).cells == (0,) * n**d
    assert GridColoring(d, n, 1, (0,) * n**d).cells == (0,) * n**d


def test_parse_non_integer_token_reports_line():
    with pytest.raises(ColoringFormatError) as err:
        parse_coloring("2 2 2\n0 0\nx 1")
    assert err.value.line == 3


@pytest.mark.parametrize(
    "tok,message",
    [
        ("x", "line 2: non-integer color 'x'"),
        ("1__0", "line 2: non-integer color '1__0'"),  # int() syntax, not length
        ("x" * 21, f"line 2: non-integer color '{'x' * 20}'..."),
        ("7" * 4301, f"line 2: color '{'7' * 20}'... is too long (4301 characters)"),
        ("-" + "7" * 4400, f"line 2: color '-{'7' * 19}'... is too long (4401 characters)"),
    ],
)
def test_parse_bad_color_token_message(tok, message):
    with pytest.raises(ColoringFormatError) as err:
        parse_coloring(f"2 2 2\n0 0 1 {tok}")
    assert str(err.value) == message


@pytest.mark.parametrize("coords", [(3, 0), (-1, 0), (0, 0, 5), (0,)])
def test_color_at_rejects_coordinates_off_the_grid(coords):
    # unchecked, (3, 0) would wrap onto (0, 1), (-1, 0) onto (2, 2), and
    # (0, 0, 5) would lose its third coordinate
    g = GridColoring(2, 3, 9, tuple(range(9)))
    with pytest.raises(ValueError) as err:
        g.color_at(coords)
    assert str(coords) in str(err.value)
    with pytest.raises(ValueError):
        g.flat_index(coords)


def test_text_roundtrip():
    g = parse_coloring("2 3 2\n0 1 0 1 0 1 0 1 0")
    assert parse_coloring(g.to_text()) == g


# ------------------------------------------------------------ components


def test_all_one_color_single_component():
    g = GridColoring(2, 2, 1, (0, 0, 0, 0))
    rep = components(g)
    assert rep.num_components == 1
    assert rep.max_size == 4


def test_checkerboard_diagonals_connect():
    g = GridColoring(2, 2, 2, (0, 1, 1, 0))
    rep = components(g)
    assert rep.num_components == 2
    assert sorted(rep.sizes) == [2, 2]


@pytest.mark.parametrize("seed_cells", [
    tuple((i + j) // 2 % 2 for j in range(6) for i in range(6)),
])
def test_diagonal_stripes_match_oracle(seed_cells):
    g = GridColoring(2, 6, 2, seed_cells)
    rep = components(g)
    oracle = bfs_components(g)
    assert rep.num_components == len(oracle)
    assert sorted(rep.sizes) == sorted(len(c) for c in oracle)
    assert rep.max_size == max(len(c) for c in oracle) == 11


@pytest.mark.parametrize("d,n,num_colors,seed", [
    (1, 5, 2, 0), (2, 4, 2, 1), (2, 5, 3, 2), (3, 3, 2, 3), (3, 2, 4, 4),
])
def test_components_match_oracle_random(d, n, num_colors, seed):
    import random

    rng = random.Random(seed)
    cells = tuple(rng.randrange(num_colors) for _ in range(n**d))
    g = GridColoring(d, n, num_colors, cells)
    rep = components(g)
    oracle = bfs_components(g)
    assert sorted(rep.sizes) == sorted(len(c) for c in oracle)
    # labels deterministic: component 0 contains flat cell 0
    assert rep.component_id[0] == 0


def test_component_labels_sound():
    # every same-color adjacent pair shares a label; distinct same-color
    # components are never adjacent (full scan)
    import random

    rng = random.Random(99)
    g = GridColoring(2, 5, 2, tuple(rng.randrange(2) for _ in range(25)))
    rep = components(g)
    for idx in range(25):
        ci = cell_coords(g, idx)
        for off in neighbor_offsets(2):
            nbr = tuple(c + o for c, o in zip(ci, off))
            if all(0 <= x < 5 for x in nbr):
                j = g.flat_index(nbr)
                if g.cells[idx] == g.cells[j]:
                    assert rep.component_id[idx] == rep.component_id[j]


def test_adjacency_cap():
    assert len(neighbor_offsets(2)) == 8
    assert len(neighbor_offsets(3)) == 26


def test_adjacency_symmetric():
    offs = set(neighbor_offsets(3))
    assert all(tuple(-x for x in off) in offs for off in offs)


def test_sizes_sum_to_total():
    g = GridColoring(3, 2, 2, (0, 1, 0, 1, 1, 0, 1, 0))
    assert sum(components(g).sizes) == 8


# -------------------------------------------------------------- spanning


def test_spanning_all_one_color():
    g = GridColoring(2, 3, 1, (0,) * 9)
    rep = components(g)
    assert spanning_report(rep) == [(0, 1), (0, 2)]


def test_spanning_left_column_instance():
    # left column color 0, the rest color 1: both components span axis 2
    cells = tuple(0 if i == 0 else 1 for j in range(3) for i in range(3))
    g = GridColoring(2, 3, 2, cells)
    rep = components(g)
    assert rep.num_components == 2
    assert spanning_report(rep) == [(0, 2), (1, 2)]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_spanning_exhaustive_small(n):
    # every 2-coloring of a small square grid has a spanning component
    for cells in product(range(2), repeat=n * n):
        g = GridColoring(2, n, 2, cells)
        assert spanning_report(components(g)), cells


def test_report_json_shape():
    g = GridColoring(2, 2, 2, (0, 1, 1, 0))
    doc = report_to_json(components(g))
    assert set(doc) == {"d", "n", "num_colors", "max_component", "components"}
    assert doc["max_component"] == 2
    assert all(set(c) == {"color", "size", "spans"} for c in doc["components"])


@given(st.integers(2, 4), st.integers(1, 3), st.data())
@settings(max_examples=25, deadline=None)
def test_components_random_property(n, num_colors, data):
    cells = tuple(
        data.draw(st.integers(0, num_colors - 1)) for _ in range(n * n)
    )
    g = GridColoring(2, n, num_colors, cells)
    rep = components(g)
    oracle = bfs_components(g)
    assert sorted(rep.sizes) == sorted(len(c) for c in oracle)


def components_by_coords(g: GridColoring) -> ComponentReport:
    """Oracle of the flood fill: labels by a union-find over the neighbour
    table, with the facet contacts read from the coordinates cell by cell."""
    total = g.n**g.d
    table = _neighbor_table(g.d, g.n)[0]
    cells = g.cells
    parent = list(range(total))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for idx in range(total):
        for nbr in table[idx]:
            if nbr > idx and cells[nbr] == cells[idx]:
                ra, rb = find(idx), find(nbr)
                if ra != rb:
                    if ra < rb:
                        parent[rb] = ra
                    else:
                        parent[ra] = rb
    roots = {}
    labels = [0] * total
    for idx in range(total):
        r = find(idx)
        if r not in roots:
            roots[r] = len(roots)
        labels[idx] = roots[r]
    m = len(roots)
    sizes = [0] * m
    colors = [0] * m
    touch = [[[False, False] for _ in range(g.d)] for _ in range(m)]
    for idx in range(total):
        lab = labels[idx]
        sizes[lab] += 1
        colors[lab] = cells[idx]
        coords = cell_coords(g, idx)
        for a in range(g.d):
            if coords[a] == 0:
                touch[lab][a][0] = True
            if coords[a] == g.n - 1:
                touch[lab][a][1] = True
    return ComponentReport(
        d=g.d,
        n=g.n,
        num_colors=g.num_colors,
        component_id=tuple(labels),
        sizes=tuple(sizes),
        colors=tuple(colors),
        facet_touch=tuple(tuple((lo, hi) for lo, hi in t) for t in touch),
    )


@pytest.mark.parametrize("d,sides", [(1, (1, 2, 7)), (2, (1, 2, 3, 6)), (3, (1, 2, 4)), (4, (1, 2, 3))])
def test_components_match_coords_oracle(d, sides):
    rng = random.Random(d)
    for n in sides:
        for num_colors in range(1, 5):
            for _ in range(3):
                cells = tuple(rng.randrange(num_colors) for _ in range(n**d))
                g = GridColoring(d, n, num_colors, cells)
                assert components(g) == components_by_coords(g), (n, num_colors, cells)


@pytest.mark.parametrize("d,n", [(2, 16), (3, 6)])
@pytest.mark.parametrize("seed", range(3))
def test_components_match_coords_oracle_on_percolating_shapes(d, n, seed):
    # random 2-colorings here have a component that spans the cube, so the
    # flood fill runs through a large share of the grid at once
    g = GridColoring(d, n, 2, tuple(random.Random(seed).randrange(2) for _ in range(n**d)))
    rep = components(g)
    assert rep == components_by_coords(g)
    assert rep.max_size > n**d // 4 and spanning_report(rep)


@pytest.mark.parametrize("d,n", [(d, n) for d in range(1, 5) for n in range(1, 5)] + [(6, 2)])
def test_neighbor_positions_name_the_offset_of_each_neighbour(d, n):
    g = GridColoring(d, n, 1, (0,) * n**d)
    offsets = neighbor_offsets(d)
    table, positions = _neighbor_table(d, n)
    for idx in range(n**d):
        assert len(positions[idx]) == len(table[idx])
        here = cell_coords(g, idx)
        for j, p in zip(table[idx], positions[idx]):
            assert cell_coords(g, j) == tuple(c + o for c, o in zip(here, offsets[p]))
        # every offset that stays inside the grid is in the row
        inside = [
            p for p, off in enumerate(offsets) if all(0 <= c + o < n for c, o in zip(here, off))
        ]
        assert list(positions[idx]) == inside


@pytest.mark.parametrize("d", range(1, 6))
def test_ring_adjacency_marks_offsets_one_apart(d):
    offsets = neighbor_offsets(d)
    masks = _ring_adjacency(d)
    assert len(masks) == len(offsets)
    for p, off in enumerate(offsets):
        for q, other in enumerate(offsets):
            near = p != q and max(abs(x - y) for x, y in zip(off, other)) <= 1
            assert bool(masks[p] >> q & 1) == near, (off, other)
        assert masks[p] >> len(offsets) == 0


# --------------------------------------------------------------- tracker


def objective(g: GridColoring) -> tuple[int, int]:
    """Oracle: the max component size and how many components have it,
    from a fresh labelling."""
    sizes = components(g).sizes
    return max(sizes), sizes.count(max(sizes))


def check_tracker(t: ComponentTracker, g: GridColoring):
    """The tracker describes exactly the components of g."""
    assert t.cells == list(g.cells)
    rep = components(g)
    assert sorted(len(m) for m in t.members.values()) == sorted(rep.sizes)
    parts = {frozenset(m) for m in t.members.values()}
    assert parts == {
        frozenset(i for i, lab in enumerate(rep.component_id) if lab == c)
        for c in range(rep.num_components)
    }
    for lab, members in t.members.items():
        assert all(t.label[j] == lab for j in members)
    assert (t.max_size, t.max_count) == objective(g)
    assert sum(t.hist[s] * s for s in range(len(t.hist))) == len(g.cells)


def tracker_walk(d, n, num_colors, seed, start, steps=60):
    rng = random.Random(f"{d}/{n}/{num_colors}/{seed}")
    total = n**d
    if start == "random":
        cells = [rng.randrange(num_colors) for _ in range(total)]
    else:  # one color everywhere
        cells = [0] * total
    g = GridColoring(d, n, num_colors, tuple(cells))
    t = ComponentTracker(g)
    check_tracker(t, g)
    for _ in range(steps):
        idx = rng.randrange(total)
        new = rng.choice([c for c in range(num_colors) if c != cells[idx]])
        cand = cells[:idx] + [new] + cells[idx + 1 :]
        got = t.propose(idx, new)
        assert got == objective(GridColoring(d, n, num_colors, tuple(cand)))
        if rng.random() < 0.7:
            t.commit()
            cells = cand
        check_tracker(t, GridColoring(d, n, num_colors, tuple(cells)))


@pytest.mark.parametrize("start", ["random", "one-color"])
@pytest.mark.parametrize(
    "d,n", [(d, n) for d in (1, 2, 3) for n in range(1, 7)] + [(4, 2), (4, 3)]
)
def test_tracker_matches_fresh_components_on_random_walks(d, n, start):
    # at d = 4 the ring has 80 offsets, so its masks pass 64 bits, and the
    # rows of boundary cells miss offsets
    for num_colors in (2, 3, 4):
        tracker_walk(d, n, num_colors, seed=0, start=start)


@pytest.mark.parametrize("seed", range(4))
def test_tracker_splits_and_merges_large_components(seed):
    # longer walks on larger grids: splits that need the bounded search,
    # and merges that relabel large components
    tracker_walk(2, 12, 2, seed, "random", steps=300)
    tracker_walk(3, 5, 3, seed, "one-color", steps=150)


def test_tracker_split_of_a_ring_reconnected_outside():
    # a 1-wide loop of color 0 around a 3x3 block: removing one loop cell
    # leaves its two neighbours apart in the ring but joined the long way
    n = 5
    cells = [0 if i in (0, n - 1) or j in (0, n - 1) else 1 for j in range(n) for i in range(n)]
    g = GridColoring(2, n, 2, tuple(cells))
    t = ComponentTracker(g)
    # the middle of the bottom edge: the loop keeps 15 cells in one piece
    assert t.propose(2, 1) == (15, 1)
    t.commit()
    cells[2] = 1
    check_tracker(t, GridColoring(2, n, 2, tuple(cells)))
    # the middle of the top edge as well: two arcs of 7, the block grows to 11
    assert t.propose(22, 1) == (11, 1)
    t.commit()
    cells[22] = 1
    check_tracker(t, GridColoring(2, n, 2, tuple(cells)))


def test_tracker_at_d6_where_offset_positions_pass_255():
    # 3^6 - 1 = 728 offsets do not fit in a byte; the rows hold tuples
    assert isinstance(_neighbor_table(6, 2)[1][0], tuple)
    tracker_walk(6, 2, 2, seed=0, start="random", steps=40)


def test_tracker_rejects_bad_moves():
    t = ComponentTracker(GridColoring(1, 3, 2, (0, 1, 0)))
    with pytest.raises(ValueError):
        t.commit()  # nothing proposed
    with pytest.raises(ValueError):
        t.propose(0, 0)  # same color
    with pytest.raises(ValueError):
        t.propose(0, 2)  # out of range
    assert t.propose(1, 0) == (3, 1)
    t.commit()
    with pytest.raises(ValueError):
        t.commit()  # the proposal is used up
