"""Constructions and searches for colorings with small maximal
monochromatic components.

The exhaustive search finds the exact minimum at desk scale by depth-first
branch and bound; the stripe family and the annealer give upper-bound
witnesses.  Everything is deterministic given its seed.

The branch and bound colors cells in flat order, tries colors in
increasing order, and cuts a branch as soon as a component of the colored
prefix reaches the incumbent.  It still returns the lexicographically
least witness.  A component of a prefix lies inside a component of every
completion, so each prefix of the least coloring W of minimum value V has
all components <= V.  Every leaf reached improves strictly on the
incumbent, and none before W can reach V, so the incumbent stays above V
until W, no prefix of W is cut, and W is the first leaf of value V.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from itertools import product

from .gridcolor import ComponentTracker, GridColoring, _neighbor_table, components

DEFAULT_BUDGET = 2**24
BUDGET_ENV = "CUBECOLOR_MAX_NODES"


class BudgetError(ValueError):
    """Exhaustive search would visit more nodes than its budget allows."""


def node_budget() -> int:
    raw = os.environ.get(BUDGET_ENV)
    if raw is None:
        return DEFAULT_BUDGET
    try:
        return int(raw)
    except ValueError:
        raise BudgetError(f"bad {BUDGET_ENV} value {raw!r}") from None


@dataclass(frozen=True)
class SearchConfig:
    d: int
    n: int
    num_colors: int
    seed: int = 0
    steps: int = 10_000
    t_initial: float = 2.0
    decay: float = 0.999

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if not 0.0 < self.decay < 1.0:
            raise ValueError("decay must lie in (0,1)")


def check_shape(d: int, n: int, num_colors: int) -> None:
    """Raise ValueError unless d, n and num_colors are all at least 1."""
    if d < 1 or n < 1 or num_colors < 1:
        raise ValueError(
            f"need d, n, num_colors >= 1, got d={d}, n={n}, num_colors={num_colors}"
        )


def stripe_construction(d: int, n: int, num_colors: int, w: int) -> GridColoring:
    """Diagonal stripes of width w: color = floor(sum of the first
    min(num_colors, d) coordinates / w) mod num_colors."""
    check_shape(d, n, num_colors)
    if w < 1:
        raise ValueError("stripe width must be >= 1")
    use = min(num_colors, d)
    cells = []
    for rev in product(range(n), repeat=d):  # flat order: axis 1 fastest
        s = sum(rev[::-1][:use])
        cells.append((s // w) % num_colors)
    return GridColoring(d, n, num_colors, tuple(cells))


def random_coloring(d: int, n: int, num_colors: int, seed: int) -> GridColoring:
    rng = random.Random(seed)
    cells = tuple(rng.randrange(num_colors) for _ in range(n**d))
    return GridColoring(d, n, num_colors, cells)


def anneal(cfg: SearchConfig) -> tuple[GridColoring, list[int]]:
    """Simulated annealing over single-cell recolorings.

    The objective is, in order: the max component size, the number of
    components of that size, and the grid itself, lexicographically.
    Returns the best coloring found and the best-so-far max size trace
    (one entry per step, non-increasing).  Never returns anything worse
    than the initial random coloring.
    """
    rng = random.Random(cfg.seed)
    start = random_coloring(cfg.d, cfg.n, cfg.num_colors, cfg.seed)
    tracker = ComponentTracker(start)
    cur_obj = (tracker.max_size, tracker.max_count)
    if cfg.num_colors < 2:  # no moves exist
        return start, [cur_obj[0]] * cfg.steps
    best_obj, best_cells = cur_obj, tracker.cells[:]
    temp = cfg.t_initial
    total = cfg.n**cfg.d
    trace = []

    for _ in range(cfg.steps):
        idx = rng.randrange(total)
        old = tracker.cells[idx]
        new = rng.randrange(cfg.num_colors - 1)
        if new >= old:
            new += 1
        cand_obj = tracker.propose(idx, new)
        delta = cand_obj[0] - cur_obj[0]
        # the grids differ only at idx, so the grid tie-break is new < old
        accept = (cand_obj, new) < (cur_obj, old)
        if not accept and temp > 1e-12:
            accept = rng.random() < pow(2.718281828459045, -delta / temp)
        if accept:
            tracker.commit()
            cur_obj = cand_obj
            if cur_obj < best_obj or (cur_obj == best_obj and tracker.cells < best_cells):
                best_obj, best_cells = cur_obj, tracker.cells[:]
        temp *= cfg.decay
        trace.append(best_obj[0])
    return GridColoring(cfg.d, cfg.n, cfg.num_colors, tuple(best_cells)), trace


def exhaustive_min(
    d: int, n: int, num_colors: int, budget: int | None = None
) -> tuple[int, GridColoring]:
    """Exact minimum over all colorings of the maximal monochromatic
    component, with the lexicographically least witness.

    The color of cell 0 is fixed to 0: permuting colors preserves the
    component structure, so this loses nothing and divides the work by
    num_colors.  The witness is still the global lexicographic minimum
    because every witness has a color-permuted copy starting with 0.

    `budget` (default: the `CUBECOLOR_MAX_NODES` environment variable, else
    2^24) caps the nodes the search visits, one per cell colored, cell 0
    included.  The first leaf takes one node per cell, so a grid with more
    cells than the budget is refused at once, without building n^d when it
    cannot fit.
    """
    check_shape(d, n, num_colors)
    cap = budget if budget is not None else node_budget()
    if cap < 1:
        raise BudgetError(f"need a node budget >= 1, got {cap}")
    if n > cap or (n > 1 and d > cap.bit_length()) or n**d > cap:
        raise BudgetError(f"{n}^{d} cells exceed the budget of {cap} nodes")
    best_val, cells = _branch_and_bound(d, n, num_colors, cap)
    witness = GridColoring(d, n, num_colors, tuple(cells))
    check = components(witness).max_size
    if check != best_val:
        raise RuntimeError(
            f"branch and bound reported {best_val}, but its witness has a "
            f"largest component of {check}"
        )
    return best_val, witness


def _branch_and_bound(d: int, n: int, num_colors: int, cap: int) -> tuple[int, list[int]]:
    """Depth-first search over colorings in lexicographic order, cell 0
    fixed to color 0; returns the minimum and the least coloring
    reaching it, or raises BudgetError once it has colored more than
    `cap` cells, cell 0 included.

    A union-find with rollback (union by size, no path compression)
    holds the components of the colored prefix: placing a cell unions it
    only with its earlier same-color neighbors, and backtracking undoes
    those unions.  The walk is a loop, not a recursion, so a branch may
    be as deep as the grid has cells.
    """
    total = n**d
    if total == 1:
        return 1, [0]
    lower = [tuple(j for j in nbrs if j < i) for i, nbrs in enumerate(_neighbor_table(d, n)[0])]
    parent = list(range(total))
    size = [1] * total
    cells = [0] * total
    best, witness = total + 1, None
    # per depth k (cells 0..k-1 colored): the prefix's largest component,
    # the next color to try at cell k, and the roots absorbed by placing it
    run_max = [0] * (total + 1)
    run_max[1] = 1
    next_color = [0] * total
    absorbed: list[list[int]] = [[] for _ in range(total)]

    def undo(pos: int) -> None:
        merged = absorbed[pos]
        while merged:
            r = merged.pop()
            size[parent[r]] -= size[r]
            parent[r] = r

    pos, nodes = 1, 1
    while pos:
        c = next_color[pos]
        if c == num_colors or run_max[pos] >= best:
            pos -= 1
            if pos:
                undo(pos)
            continue
        nodes += 1
        if nodes > cap:
            raise BudgetError(
                f"search of d={d}, n={n}, num_colors={num_colors} passed the budget of "
                f"{cap} nodes; set {BUDGET_ENV} to raise it"
            )
        next_color[pos] = c + 1
        cells[pos] = c
        root, merged = pos, absorbed[pos]
        for j in lower[pos]:
            if cells[j] == c:
                r = j
                while parent[r] != r:
                    r = parent[r]
                if r != root:
                    if size[r] < size[root]:
                        r, root = root, r
                    parent[root] = r
                    size[r] += size[root]
                    merged.append(root)
                    root = r
        grown = size[root]
        if grown >= best:
            undo(pos)
            continue
        run_max[pos + 1] = grown if grown > run_max[pos] else run_max[pos]
        if pos + 1 == total:
            best, witness = run_max[total], cells[:]
            undo(pos)
        else:
            pos += 1
            next_color[pos] = 0
    return best, witness
