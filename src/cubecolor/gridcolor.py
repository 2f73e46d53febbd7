"""Colorings of the n^d grid of subcubes and their monochromatic components.

Two cells of the grid are adjacent when their closed subcubes intersect,
i.e. when the coordinate vectors differ by at most 1 on every axis (the
full set of 3^d - 1 neighbor offsets).  The same adjacency is used for
every color.

Cells are stored flat, with the axis-1 coordinate varying fastest:
flat = c_1 + n*c_2 + n^2*c_3 + ...  Axes are reported 1-based in
human-facing output and 0-based in code.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import product


class ColoringFormatError(ValueError):
    """Malformed coloring file."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _check_count(d: int, n: int, got: int, what: str, line: int | None = None):
    """Raise unless `got` is n^d.  The power is not built when it cannot
    equal `got` (n^d >= n, and n^d >= 2^d for n > 1), so a huge header
    fails at once, with a message that names n^d."""
    if n > got or (n > 1 and d > got.bit_length()):
        raise ColoringFormatError(f"expected {n}^{d} {what}, got {got}", line)
    if n**d != got:
        raise ColoringFormatError(f"expected {n}^{d} = {n**d} {what}, got {got}", line)


@dataclass(frozen=True)
class GridColoring:
    """One color index per cell of the n^d grid."""

    d: int
    n: int
    num_colors: int
    cells: tuple[int, ...]

    def __post_init__(self):
        if self.d < 1 or self.n < 1 or self.num_colors < 1:
            raise ColoringFormatError("d, n and num_colors must all be >= 1")
        _check_count(self.d, self.n, len(self.cells), "cells")
        for c in self.cells:
            if not 0 <= c < self.num_colors:
                raise ColoringFormatError(
                    f"color {c} out of range [0, {self.num_colors})"
                )

    def flat_index(self, coords) -> int:
        """The flat index of the cell at `coords`, which must be d
        integers in [0, n); anything else raises ValueError."""
        if len(coords) != self.d or min(coords) < 0 or max(coords) >= self.n:
            raise ValueError(f"{tuple(coords)} is not a cell of the {self.n}^{self.d} grid")
        idx = 0
        for c in reversed(coords):
            idx = idx * self.n + c
        return idx

    def color_at(self, coords) -> int:
        return self.cells[self.flat_index(coords)]

    def to_text(self) -> str:
        header = f"{self.d} {self.n} {self.num_colors}\n"
        return header + " ".join(str(c) for c in self.cells) + "\n"


_SHOWN = 20  # characters of a bad token an error message echoes


def _bad_int(tok: str, what: str, line: int) -> ColoringFormatError:
    """The error for a token that `int` refused.  A well-formed integer is
    refused only for having more digits than the interpreter converts (4300
    by default), so it is reported as too long; either way at most _SHOWN
    characters of the token are echoed."""
    shown = repr(tok) if len(tok) <= _SHOWN else repr(tok[:_SHOWN]) + "..."
    if re.fullmatch(r"[+-]?\d+(_\d+)*", tok):
        return ColoringFormatError(f"{what} {shown} is too long ({len(tok)} characters)", line)
    return ColoringFormatError(f"non-integer {what} {shown}", line)


def parse_coloring(text: str) -> GridColoring:
    """Parse the coloring file format: "d n num_colors" then n^d colors."""
    tokens: list[tuple[str, int]] = []
    for ln, line in enumerate(text.splitlines(), start=1):
        for tok in line.split():
            tokens.append((tok, ln))
    if len(tokens) < 3:
        raise ColoringFormatError("missing header 'd n num_colors'")

    def as_int(pos: int, what: str) -> int:
        tok, ln = tokens[pos]
        try:
            return int(tok)
        except ValueError:
            raise _bad_int(tok, what, ln) from None

    d = as_int(0, "dimension")
    n = as_int(1, "subdivision count")
    num_colors = as_int(2, "color count")
    if d < 1 or n < 1 or num_colors < 1:
        raise ColoringFormatError("d, n and num_colors must all be >= 1", tokens[0][1])
    body = tokens[3:]
    _check_count(d, n, len(body), "cell colors", body[-1][1] if body else tokens[-1][1])
    cells = []
    for pos in range(len(body)):
        tok, ln = body[pos]
        try:
            c = int(tok)
        except ValueError:
            raise _bad_int(tok, "color", ln) from None
        if not 0 <= c < num_colors:
            raise ColoringFormatError(f"color {c} out of range [0, {num_colors})", ln)
        cells.append(c)
    return GridColoring(d, n, num_colors, tuple(cells))


@lru_cache(maxsize=64)
def neighbor_offsets(d: int) -> tuple[tuple[int, ...], ...]:
    """All 3^d - 1 nonzero offsets in {-1,0,1}^d."""
    return tuple(off for off in product((-1, 0, 1), repeat=d) if any(off))


@lru_cache(maxsize=32)
def _neighbor_table(d: int, n: int) -> tuple[tuple[tuple[int, ...], ...], tuple]:
    """Per cell, the flat indices of its neighbours, and the position in
    neighbor_offsets(d) of the offset leading to each of them, built
    together once per grid shape.  The positions of a cell are one
    `bytes` object (a tuple when d > 5, where they pass 255)."""
    strides = [n**a for a in range(d)]
    offsets = neighbor_offsets(d)
    row_of = bytes if len(offsets) <= 256 else tuple
    table, positions = [], []
    for idx in range(n**d):
        coords = []
        rest = idx
        for _ in range(d):
            coords.append(rest % n)
            rest //= n
        nbrs, pos = [], []
        for p, off in enumerate(offsets):
            flat = 0
            for a in range(d):
                c = coords[a] + off[a]
                if not 0 <= c < n:
                    break
                flat += c * strides[a]
            else:
                nbrs.append(flat)
                pos.append(p)
        table.append(tuple(nbrs))
        positions.append(row_of(pos))
    return tuple(table), tuple(positions)


@lru_cache(maxsize=16)
def _ring_adjacency(d: int) -> tuple[int, ...]:
    """Per position p in neighbor_offsets(d), the bit mask of the other
    positions q whose offsets differ from p's by at most 1 on every axis."""
    offsets = neighbor_offsets(d)
    return tuple(
        sum(1 << q for q, o in enumerate(offsets)
            if o != off and all(abs(x - y) <= 1 for x, y in zip(off, o)))
        for off in offsets
    )


@lru_cache(maxsize=32)
def _facet_table(d: int, n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per cell, the (axis, side) pairs of the cube facets it lies on;
    side 0 is the lower facet, 1 the upper.  Interior cells get ()."""
    table = []
    for idx in range(n**d):
        facets = []
        rest = idx
        for a in range(d):
            c = rest % n
            rest //= n
            if c == 0:
                facets.append((a, 0))
            if c == n - 1:
                facets.append((a, 1))
        table.append(tuple(facets))
    return tuple(table)


@dataclass
class ComponentReport:
    """Connected components of the same-color adjacency graph."""

    d: int
    n: int
    num_colors: int
    component_id: tuple[int, ...]  # per cell, labels 0..num_components-1
    sizes: tuple[int, ...]
    colors: tuple[int, ...]  # per component
    # per component, per axis: (touches lower facet, touches upper facet)
    facet_touch: tuple[tuple[tuple[bool, bool], ...], ...]

    @property
    def max_size(self) -> int:
        return max(self.sizes)

    @property
    def num_components(self) -> int:
        return len(self.sizes)


def _label(table, colors) -> tuple[list[int], list[list[int]]]:
    """The monochromatic components of a graph: per vertex the label of
    its component, and per label its vertices.  `table[i]` lists the
    neighbours of vertex i, and `colors[i]` is its color.  A flood fill
    starts at each unlabelled vertex in index order, so label k numbers
    the component whose smallest vertex is the k-th smallest among the
    components' smallest vertices."""
    label = [-1] * len(colors)
    members = []
    for start, color in enumerate(colors):
        if label[start] >= 0:
            continue
        lab = len(members)
        label[start] = lab
        comp = [start]
        for idx in comp:  # the loop reaches the vertices appended in it
            for k in table[idx]:
                if label[k] < 0 and colors[k] == color:
                    label[k] = lab
                    comp.append(k)
        members.append(comp)
    return label, members


def components(g: GridColoring) -> ComponentReport:
    """Label monochromatic components by one flood fill per component
    (`_label`); labels are deterministic, numbered by smallest contained
    flat cell index."""
    label, members = _label(_neighbor_table(g.d, g.n)[0], g.cells)
    facets = _facet_table(g.d, g.n)
    touched = [{f for idx in comp for f in facets[idx]} for comp in members]
    return ComponentReport(
        d=g.d,
        n=g.n,
        num_colors=g.num_colors,
        component_id=tuple(label),
        sizes=tuple(map(len, members)),
        colors=tuple(g.cells[comp[0]] for comp in members),
        facet_touch=tuple(tuple(((a, 0) in t, (a, 1) in t) for a in range(g.d)) for t in touched),
    )


class ComponentTracker:
    """The monochromatic components of a coloring, kept up to date under
    single-cell recolorings.

    Built once from one flood-fill labelling (`_label`).  It holds the
    label of each cell, the member set of each label and a histogram of
    component sizes, so the largest size and how many components have it
    read in O(1).  propose(idx, new) returns the (max_size, max_count) of
    the coloring with cell idx recolored to new, without changing the
    tracker; commit() applies the last proposal.

    A recoloring merges the new-color components around idx, and may
    split the old component of idx.  A merge relabels the smaller
    components into the largest one.  A split is first tested inside the
    3^d ring around idx: when the old-color neighbours stay connected
    there, the rest of the component stays connected through them.  Ring
    cells idx + p and idx + q touch exactly when the offsets p and q differ
    by at most 1 on every axis, so the old-color ring is a bit mask over
    offset positions, and its groups come from a flood over bits
    (`_ring_adjacency`) that reads nothing of the grid.  With two groups
    or more, one search per group grows in turn, a cell at a time; groups
    that meet are joined, and the search stops once at most one group is
    still open.  The closed groups are the pieces split off, so the cost
    is their size, not that of the whole component.
    """

    def __init__(self, g: GridColoring):
        self._table, self._positions = _neighbor_table(g.d, g.n)
        label, comps = _label(self._table, g.cells)
        self.num_colors = g.num_colors
        self.cells = list(g.cells)
        self.label = label
        self.members: dict[int, set[int]] = {lab: set(comp) for lab, comp in enumerate(comps)}
        self._next_label = len(comps)
        self._adjacency = _ring_adjacency(g.d)
        self.hist = [0] * (len(self.cells) + 1)  # components per size
        for comp in comps:
            self.hist[len(comp)] += 1
        self.max_size = max(map(len, comps))
        self.max_count = self.hist[self.max_size]
        self._pending = None

    def propose(self, idx: int, new: int) -> tuple[int, int]:
        """(max_size, max_count) after recoloring cell idx to new."""
        cells, label, members, nbrs = self.cells, self.label, self.members, self._table[idx]
        old = cells[idx]
        if new == old or not 0 <= new < self.num_colors:
            raise ValueError(f"cannot recolor cell {idx} from {old} to {new}")
        size = len(members[label[idx]])
        same = 0  # bit p: the neighbour at offset position p has the old color
        merged = set()
        for j, p in zip(nbrs, self._positions[idx]):
            c = cells[j]
            if c == old:
                same |= 1 << p
            elif c == new:
                merged.add(label[j])
        pieces = self._split(idx, same)
        joined_sizes = [len(members[m]) for m in merged]
        joined = 1 + sum(joined_sizes)
        rest = size - 1 - sum(map(len, pieces))

        changes = [(size, -1), (joined, 1), (rest, 1)]
        changes += [(s, -1) for s in joined_sizes]
        changes += [(len(piece), 1) for piece in pieces]
        delta = {}  # change in components per size
        for s, change in changes:
            delta[s] = delta.get(s, 0) + change
        delta.pop(0, None)  # rest is 0 when idx was the whole component

        top = max(self.max_size, joined, rest, *map(len, pieces))
        hist = self.hist
        while hist[top] + delta.get(top, 0) == 0:
            top -= 1
        result = (top, hist[top] + delta.get(top, 0))
        self._pending = (idx, new, pieces, merged, delta, result)
        return result

    def _split(self, idx: int, same: int) -> list[list[int]]:
        """The pieces that removing idx cuts off its component, all but
        one: the piece left out keeps the old label.  `same` has bit p set
        when the neighbour of idx at offset position p lies in that
        component."""
        adjacency, masks, rest = self._adjacency, [], same
        while rest:  # one flood over the bits of `rest` per ring group
            group = front = rest & -rest
            rest ^= group
            while front:
                bit = front & -front
                front ^= bit
                grown = adjacency[bit.bit_length() - 1] & rest
                rest ^= grown
                group |= grown
                front |= grown
            masks.append(group)
        if len(masks) < 2:
            return []
        table, nbrs, pos = self._table, self._table[idx], self._positions[idx]
        groups = [[j for j, p in zip(nbrs, pos) if mask >> p & 1] for mask in masks]

        cells, old = self.cells, self.cells[idx]
        owner = {idx: -1}  # cell -> group that reached it first
        for g, group in enumerate(groups):
            for j in group:
                owner[j] = g
        root = list(range(len(groups)))  # union-find over joined groups

        def find(g: int) -> int:
            while root[g] != g:
                g = root[g]
            return g

        frontier = [list(group) for group in groups]
        turns = deque(range(len(groups)))  # open groups, one cell each in turn
        closed = []
        while len(turns) > 1:
            g = turns.popleft()
            for k in table[frontier[g].pop()]:
                if cells[k] != old:
                    continue
                h = owner.get(k)
                if h is None:
                    owner[k] = g
                    groups[g].append(k)
                    frontier[g].append(k)
                elif h >= 0 and (h := find(h)) != g:
                    root[h] = g
                    groups[g].extend(groups[h])
                    frontier[g].extend(frontier[h])
                    turns.remove(h)
            if frontier[g]:
                turns.append(g)
            else:
                closed.append(groups[g])
        return closed

    def commit(self) -> None:
        """Apply the last proposal."""
        if self._pending is None:
            raise ValueError("no proposal to commit")
        idx, new, pieces, merged, delta, (top, count) = self._pending
        self._pending = None
        label, members = self.label, self.members
        lab = label[idx]
        rest = members[lab]
        rest.discard(idx)
        for piece in pieces:
            rest.difference_update(piece)
            members[self._next_label] = set(piece)
            for j in piece:
                label[j] = self._next_label
            self._next_label += 1
        if not rest:
            del members[lab]

        self.cells[idx] = new
        if merged:
            keep = max(merged, key=lambda m: len(members[m]))
            into = members[keep]
            for m in merged:
                if m != keep:
                    for j in members[m]:
                        label[j] = keep
                    into |= members.pop(m)
        else:
            keep = self._next_label
            self._next_label += 1
            into = members[keep] = set()
        into.add(idx)
        label[idx] = keep

        for size, change in delta.items():
            self.hist[size] += change
        self.max_size, self.max_count = top, count


def spanning_report(r: ComponentReport) -> list[tuple[int, int]]:
    """(component, axis) pairs where the component touches both opposite
    facets of the axis.  Axes are 1-based here."""
    out = []
    for comp in range(r.num_components):
        for a in range(r.d):
            lo, hi = r.facet_touch[comp][a]
            if lo and hi:
                out.append((comp, a + 1))
    return out


def report_to_json(r: ComponentReport) -> dict:
    """The stable JSON shape for component reports."""
    spans: dict[int, list[int]] = {}
    for comp, axis in spanning_report(r):
        spans.setdefault(comp, []).append(axis)
    return {
        "d": r.d,
        "n": r.n,
        "num_colors": r.num_colors,
        "max_component": r.max_size,
        "components": [
            {
                "color": r.colors[comp],
                "size": r.sizes[comp],
                "spans": spans.get(comp, []),
            }
            for comp in range(r.num_components)
        ],
    }
