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
        idx = 0
        for a in reversed(range(self.d)):
            idx = idx * self.n + coords[a]
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
def _neighbor_table(d: int, n: int) -> tuple[tuple[int, ...], ...]:
    """Flat neighbor indices per cell, precomputed once per grid shape."""
    strides = [n**a for a in range(d)]
    table = []
    for idx in range(n**d):
        coords = []
        rest = idx
        for _ in range(d):
            coords.append(rest % n)
            rest //= n
        nbrs = []
        for off in neighbor_offsets(d):
            flat = 0
            ok = True
            for a in range(d):
                c = coords[a] + off[a]
                if not 0 <= c < n:
                    ok = False
                    break
                flat += c * strides[a]
            if ok:
                nbrs.append(flat)
        table.append(tuple(nbrs))
    return tuple(table)


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


def components(g: GridColoring) -> ComponentReport:
    """Label monochromatic components; deterministic labels by smallest
    contained flat cell index."""
    total = g.n**g.d
    table = _neighbor_table(g.d, g.n)
    cells = g.cells
    parent = list(range(total))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for idx in range(total):
        color = cells[idx]
        for nbr in table[idx]:
            if nbr > idx and cells[nbr] == color:
                ra, rb = find(idx), find(nbr)
                if ra != rb:
                    if ra < rb:
                        parent[rb] = ra
                    else:
                        parent[ra] = rb

    roots: dict[int, int] = {}
    labels = [0] * total
    for idx in range(total):
        r = find(idx)
        if r not in roots:
            roots[r] = len(roots)  # roots appear in increasing flat order
        labels[idx] = roots[r]

    m = len(roots)
    sizes = [0] * m
    colors = [0] * m
    touch = [[[False, False] for _ in range(g.d)] for _ in range(m)]
    facets = _facet_table(g.d, g.n)
    for idx in range(total):
        lab = labels[idx]
        sizes[lab] += 1
        colors[lab] = cells[idx]
        for a, side in facets[idx]:
            touch[lab][a][side] = True

    return ComponentReport(
        d=g.d,
        n=g.n,
        num_colors=g.num_colors,
        component_id=tuple(labels),
        sizes=tuple(sizes),
        colors=tuple(colors),
        facet_touch=tuple(tuple((lo, hi) for lo, hi in t) for t in touch),
    )


class ComponentTracker:
    """The monochromatic components of a coloring, kept up to date under
    single-cell recolorings.

    Built once from components(g).  It holds the label of each cell, the
    member set of each label and a histogram of component sizes, so the
    largest size and how many components have it read in O(1).
    propose(idx, new) returns the (max_size, max_count) of the coloring
    with cell idx recolored to new, without changing the tracker;
    commit() applies the last proposal.

    A recoloring merges the new-color components around idx, and may
    split the old component of idx.  A merge relabels the smaller
    components into the largest one.  A split is first tested inside the
    3^d ring around idx: when the old-color neighbours stay connected
    there, the rest of the component stays connected through them.
    Otherwise one search per local group grows in turn, a cell at a time;
    groups that meet are joined, and the search stops once at most one
    group is still open.  The closed groups are the pieces split off, so
    the cost is their size, not that of the whole component.
    """

    def __init__(self, g: GridColoring):
        rep = components(g)
        self.num_colors = g.num_colors
        self.cells = list(g.cells)
        self.label = list(rep.component_id)
        self.members: dict[int, set[int]] = {lab: set() for lab in range(rep.num_components)}
        for idx, lab in enumerate(self.label):
            self.members[lab].add(idx)
        self._next_label = rep.num_components
        self._table = _neighbor_table(g.d, g.n)
        self.hist = [0] * (len(self.cells) + 1)  # components per size
        for size in rep.sizes:
            self.hist[size] += 1
        self.max_size = rep.max_size
        self.max_count = self.hist[self.max_size]
        self._pending = None

    def propose(self, idx: int, new: int) -> tuple[int, int]:
        """(max_size, max_count) after recoloring cell idx to new."""
        cells, label, members, nbrs = self.cells, self.label, self.members, self._table[idx]
        old = cells[idx]
        if new == old or not 0 <= new < self.num_colors:
            raise ValueError(f"cannot recolor cell {idx} from {old} to {new}")
        size = len(members[label[idx]])
        pieces = self._split(idx, [j for j in nbrs if cells[j] == old])
        merged = {label[j] for j in nbrs if cells[j] == new}
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

    def _split(self, idx: int, same: list[int]) -> list[list[int]]:
        """The pieces that removing idx cuts off its component, all but
        one: the piece left out keeps the old label.  `same` lists the
        neighbours of idx in that component."""
        if len(same) < 2:
            return []
        table = self._table
        ring = set(same)
        groups = []
        while ring:
            seed = ring.pop()
            group = [seed]
            stack = [seed]
            while stack:
                for k in table[stack.pop()]:
                    if k in ring:
                        ring.remove(k)
                        group.append(k)
                        stack.append(k)
            groups.append(group)
        if len(groups) < 2:
            return []

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
