"""Constructions and searches for colorings with small maximal
monochromatic components.

The exhaustive scan is the brute-force oracle at desk scale; the stripe
family and the annealer give upper-bound witnesses.  Everything is
deterministic given its seed.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from itertools import product

from .gridcolor import ComponentTracker, GridColoring, components

DEFAULT_BUDGET = 2**24
BUDGET_ENV = "CUBECOLOR_MAX_COLORINGS"


class BudgetError(ValueError):
    """Exhaustive scan would exceed the configured coloring budget."""


def coloring_budget() -> int:
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
    """
    check_shape(d, n, num_colors)
    total = n**d
    cap = budget if budget is not None else coloring_budget()
    if num_colors**total > cap:
        raise BudgetError(
            f"{num_colors}^{total} colorings exceed the budget of {cap}"
        )
    best_val = total + 1
    best_witness = None
    for rest in product(range(num_colors), repeat=total - 1):
        g = GridColoring(d, n, num_colors, (0,) + rest)
        val = components(g).max_size
        if val < best_val:
            best_val = val
            best_witness = g
    return best_val, best_witness
