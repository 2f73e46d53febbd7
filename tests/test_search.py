"""Constructions, annealing, and the exhaustive branch and bound."""

import json
import random
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from cubecolor import search
from cubecolor.bounds import bound_table
from cubecolor.gridcolor import GridColoring, components
from cubecolor.search import (
    BudgetError,
    SearchConfig,
    anneal,
    exhaustive_min,
    random_coloring,
    stripe_construction,
)

DATA = Path(__file__).parent / "data"


# ---------------------------------------------------------------- stripes


def test_stripe_d1_blocks():
    g = stripe_construction(1, 6, 2, 2)
    assert g.cells == (0, 0, 1, 1, 0, 0)


def test_stripe_w2_bounded_by_2n():
    g = stripe_construction(2, 6, 2, 2)
    assert components(g).max_size == 11 <= 12


def test_stripe_w1_is_a_bad_construction():
    # width-1 diagonals of one color reconnect through corner contacts
    g = stripe_construction(2, 6, 2, 1)
    assert components(g).max_size == 18  # half the grid


def test_stripe_rejects_bad_width():
    with pytest.raises(ValueError):
        stripe_construction(2, 4, 2, 0)


@pytest.mark.parametrize("colors", [0, -1])
def test_stripe_rejects_nonpositive_colors(colors):
    # 0 colors used to raise ZeroDivisionError
    with pytest.raises(ValueError, match="num_colors >= 1"):
        stripe_construction(2, 3, colors, 2)


# ----------------------------------------------------------- random grids


def test_random_coloring_deterministic():
    assert random_coloring(2, 8, 2, 7) == random_coloring(2, 8, 2, 7)
    assert random_coloring(2, 8, 2, 7) != random_coloring(2, 8, 2, 8)


def test_random_coloring_roughly_uniform():
    g = random_coloring(2, 32, 2, 3)
    ones = sum(g.cells)
    total = 32 * 32
    # 5 sigma around the binomial mean
    sigma = (total * 0.25) ** 0.5
    assert abs(ones - total / 2) < 5 * sigma


# -------------------------------------------------------------- annealing


def test_anneal_trivial_grid():
    g, trace = anneal(SearchConfig(1, 1, 2, seed=0, steps=5))
    assert trace[-1] == 1


def test_anneal_deterministic_and_monotone():
    cfg = SearchConfig(2, 6, 2, seed=3, steps=400)
    g1, t1 = anneal(cfg)
    g2, t2 = anneal(cfg)
    assert g1 == g2 and t1 == t2
    assert all(a >= b for a, b in zip(t1, t1[1:]))  # best-so-far never worsens


def test_anneal_never_worse_than_start():
    cfg = SearchConfig(2, 6, 2, seed=5, steps=300)
    start = components(random_coloring(2, 6, 2, 5)).max_size
    _, trace = anneal(cfg)
    assert trace[-1] <= start


def test_anneal_beats_stripe_at_n8():
    stripe_obj = components(stripe_construction(2, 8, 2, 2)).max_size
    _, trace = anneal(SearchConfig(2, 8, 2, seed=0, steps=10_000))
    assert trace[-1] <= stripe_obj


def _objective(g):
    """Primary: max component size; ties: fewer maximal components, then
    the lexicographically smaller grid."""
    rep = components(g)
    m = rep.max_size
    return (m, sum(1 for s in rep.sizes if s == m), g.cells)


def anneal_by_full_relabel(cfg):
    """anneal as it was before the component tracker: every candidate is
    a fresh GridColoring, labelled from scratch."""
    rng = random.Random(cfg.seed)
    current = random_coloring(cfg.d, cfg.n, cfg.num_colors, cfg.seed)
    cur_obj = _objective(current)
    best, best_obj = current, cur_obj
    if cfg.num_colors < 2:
        return best, [cur_obj[0]] * cfg.steps
    temp = cfg.t_initial
    total = cfg.n**cfg.d
    trace = []
    for _ in range(cfg.steps):
        idx = rng.randrange(total)
        old = current.cells[idx]
        new = rng.randrange(cfg.num_colors - 1)
        if new >= old:
            new += 1
        cand_cells = current.cells[:idx] + (new,) + current.cells[idx + 1 :]
        cand = GridColoring(cfg.d, cfg.n, cfg.num_colors, cand_cells)
        cand_obj = _objective(cand)
        delta = cand_obj[0] - cur_obj[0]
        accept = delta < 0 or (delta == 0 and cand_obj <= cur_obj)
        if not accept and temp > 1e-12:
            accept = rng.random() < pow(2.718281828459045, -delta / temp)
        if accept:
            current, cur_obj = cand, cand_obj
            if cur_obj < best_obj:
                best, best_obj = current, cur_obj
        temp *= cfg.decay
        trace.append(best_obj[0])
    return best, trace


@pytest.mark.parametrize("d,n,colors,steps", [
    (1, 1, 2, 5), (1, 9, 2, 300), (1, 7, 3, 300), (2, 1, 3, 5), (2, 6, 2, 600),
    (2, 5, 3, 600), (2, 4, 4, 400), (2, 9, 2, 800), (3, 3, 2, 400), (3, 4, 3, 400),
    (2, 4, 1, 10), (4, 3, 2, 300),
])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_anneal_matches_full_relabel_loop(d, n, colors, steps, seed):
    cfg = SearchConfig(d, n, colors, seed=seed, steps=steps)
    assert anneal(cfg) == anneal_by_full_relabel(cfg)


def test_anneal_matches_full_relabel_loop_cold():
    # a low start temperature with fast decay: most moves are decided by
    # the objective and its tie-breaks, not by the Metropolis draw
    cfg = SearchConfig(2, 6, 3, seed=4, steps=1500, t_initial=0.05, decay=0.99)
    assert anneal(cfg) == anneal_by_full_relabel(cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(2, 4, 2, steps=0)
    with pytest.raises(ValueError):
        SearchConfig(2, 4, 2, decay=1.5)


# -------------------------------------------------------- exhaustive scan


def test_exhaustive_d1_n3():
    value, witness = exhaustive_min(1, 3, 2)
    assert value == 1
    assert witness.cells == (0, 1, 0)


def test_exhaustive_d2_n2():
    value, witness = exhaustive_min(2, 2, 2)
    assert value == 2  # all four cells pairwise touch, pigeonhole forces 2
    assert witness.cells == (0, 0, 1, 1)


def test_exhaustive_d2_n3():
    value, witness = exhaustive_min(2, 3, 2)
    assert value == 3
    assert 1 <= value <= 3
    assert components(witness).max_size == value


def test_exhaustive_below_constructions():
    value, _ = exhaustive_min(2, 3, 2)
    assert value <= components(stripe_construction(2, 3, 2, 2)).max_size
    assert value <= components(random_coloring(2, 3, 2, 11)).max_size


@pytest.mark.parametrize("d,n,colors", [(2, 2, 0), (2, 0, 2), (0, 2, 2), (2, -1, 2)])
def test_exhaustive_rejects_bad_shape(d, n, colors):
    # checked before the budget: 0 colors used to return (n^d + 1, None)
    with pytest.raises(ValueError, match="need d, n, num_colors >= 1"):
        exhaustive_min(d, n, colors, budget=10**9)


def test_budget_guard():
    # the budget counts the search's nodes, one per cell colored, cell 0
    # included: (2, 4, 2) takes 300
    with pytest.raises(BudgetError, match=r"passed the budget of 1000 nodes"):
        exhaustive_min(2, 6, 2, budget=1000)
    assert exhaustive_min(2, 4, 2, budget=300)[0] == 4
    with pytest.raises(BudgetError, match=r"^search of d=2, n=4, num_colors=2 passed the budget of 299"):
        exhaustive_min(2, 4, 2, budget=299)
    # the first leaf takes one node per cell
    with pytest.raises(BudgetError, match=r"^2\^2 cells exceed the budget of 3 nodes$"):
        exhaustive_min(2, 2, 2, budget=3)
    for cap in (0, -3):
        with pytest.raises(BudgetError, match=r"^need a node budget >= 1"):
            exhaustive_min(1, 1, 1, budget=cap)
    assert exhaustive_min(1, 1, 1, budget=1) == (1, GridColoring(1, 1, 1, (0,)))


def test_budget_env_var(monkeypatch):
    monkeypatch.setenv("CUBECOLOR_MAX_COLORINGS", "10")  # the old cap is not read
    monkeypatch.setenv("CUBECOLOR_MAX_NODES", "299")
    with pytest.raises(BudgetError, match="set CUBECOLOR_MAX_NODES to raise it"):
        exhaustive_min(2, 4, 2)
    monkeypatch.setenv("CUBECOLOR_MAX_NODES", "300")
    assert exhaustive_min(2, 4, 2)[0] == 4
    for raw in ("abc", "1e6"):
        monkeypatch.setenv("CUBECOLOR_MAX_NODES", raw)
        with pytest.raises(BudgetError, match="bad CUBECOLOR_MAX_NODES value"):
            exhaustive_min(2, 2, 2)
    monkeypatch.setenv("CUBECOLOR_MAX_NODES", "0")
    with pytest.raises(BudgetError, match="need a node budget >= 1"):
        exhaustive_min(2, 2, 2)


def test_budget_guard_refuses_a_huge_grid_at_once():
    # more cells than the 2^24 default budget: refused before the walk,
    # and n^d is not built when it cannot fit (3^(10^9) would not finish)
    with pytest.raises(BudgetError, match=r"^1000\^3 cells exceed the budget of 16777216 nodes$"):
        exhaustive_min(3, 1000, 3)
    with pytest.raises(BudgetError, match=r"^3\^1000000000 cells exceed"):
        exhaustive_min(10**9, 3, 3)
    with pytest.raises(BudgetError, match=r"^1000000000\^1 cells exceed"):
        exhaustive_min(1, 10**9, 2)


def test_exhaustive_one_color_deep_grid():
    # one branch 1,600 cells deep: the walk is iterative
    value, witness = exhaustive_min(2, 40, 1)
    assert value == 1600
    assert witness.cells == (0,) * 1600


def test_exhaustive_checks_its_witness(monkeypatch):
    class Report:
        max_size = 5

    monkeypatch.setattr(search, "components", lambda g: Report())
    with pytest.raises(RuntimeError, match="reported 4, but its witness has a largest component of 5"):
        exhaustive_min(2, 4, 2)


def exhaustive_by_enumeration(d, n, num_colors):
    """exhaustive_min as it was before the branch and bound: every
    coloring with cell 0 colored 0, in lexicographic order, labelled from
    scratch."""
    total = n**d
    best_val = total + 1
    best_witness = None
    for rest in product(range(num_colors), repeat=total - 1):
        g = GridColoring(d, n, num_colors, (0,) + rest)
        val = components(g).max_size
        if val < best_val:
            best_val = val
            best_witness = g
    return best_val, best_witness


ORACLE_SHAPES = (
    [(1, n, c) for n in range(1, 11) for c in (1, 2, 3)]
    + [(2, n, 2) for n in range(1, 5)]
    + [(2, n, 3) for n in range(1, 4)]
    + [(3, 2, c) for c in (1, 2, 3)]
)


@pytest.mark.parametrize("d,n,colors", ORACLE_SHAPES)
def test_exhaustive_matches_enumeration(d, n, colors):
    assert colors ** (n**d - 1) <= 2**15
    value, witness = exhaustive_min(d, n, colors)
    expected_value, expected_witness = exhaustive_by_enumeration(d, n, colors)
    assert (value, witness.cells) == (expected_value, expected_witness.cells)


def _exact(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


MINIMA = json.loads((DATA / "exhaustive_minima.json").read_text())["entries"]


@pytest.mark.parametrize(
    "entry", MINIMA, ids=[f"d{e['d']}-n{e['n']}-c{e['num_colors']}" for e in MINIMA]
)
def test_exhaustive_minima_regression(entry):
    d, n, colors, m = entry["d"], entry["n"], entry["num_colors"], entry["m"]
    assert m == colors - 1
    value, witness = exhaustive_min(d, n, colors, budget=colors ** (n**d))
    assert value == entry["value"]
    assert list(witness.cells) == entry["witness"]
    assert components(witness).max_size == value
    bounds = (entry["f_eq5_scaled"], entry["f_remark_scaled"], entry["prior_2color"])
    if m >= d:
        assert bounds == (None, None, None)
        return
    t = bound_table(d, m, n)
    scale = n ** (d - m)
    assert bounds == (_exact(t.f_eq5 * scale), _exact(t.f_remark * scale), _exact(t.prior_2color))
    if colors == 2:
        assert value >= t.prior_2color
