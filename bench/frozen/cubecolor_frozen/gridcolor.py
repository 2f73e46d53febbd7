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
        if len(self.cells) != self.n**self.d:
            raise ColoringFormatError(
                f"expected {self.n**self.d} cells, got {len(self.cells)}"
            )
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

    def coords(self, idx: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.d):
            out.append(idx % self.n)
            idx //= self.n
        return tuple(out)

    def color_at(self, coords) -> int:
        return self.cells[self.flat_index(coords)]

    def to_text(self) -> str:
        header = f"{self.d} {self.n} {self.num_colors}\n"
        return header + " ".join(str(c) for c in self.cells) + "\n"


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
            raise ColoringFormatError(f"non-integer {what} {tok!r}", ln) from None

    d = as_int(0, "dimension")
    n = as_int(1, "subdivision count")
    num_colors = as_int(2, "color count")
    if d < 1 or n < 1 or num_colors < 1:
        raise ColoringFormatError("d, n and num_colors must all be >= 1", tokens[0][1])
    expected = n**d
    body = tokens[3:]
    if len(body) != expected:
        raise ColoringFormatError(
            f"expected {expected} cell colors, got {len(body)}",
            body[-1][1] if body else tokens[-1][1],
        )
    cells = []
    for pos in range(len(body)):
        tok, ln = body[pos]
        try:
            c = int(tok)
        except ValueError:
            raise ColoringFormatError(f"non-integer color {tok!r}", ln) from None
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
    for idx in range(total):
        lab = labels[idx]
        sizes[lab] += 1
        colors[lab] = cells[idx]
        coords = g.coords(idx)
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
