"""Constructions, annealing, and the exhaustive oracle."""

import pytest

from cubecolor.gridcolor import components
from cubecolor.search import (
    BudgetError,
    SearchConfig,
    anneal,
    exhaustive_min,
    random_coloring,
    stripe_construction,
)


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
    with pytest.raises(BudgetError):
        exhaustive_min(2, 6, 2, budget=1000)


def test_budget_env_var(monkeypatch):
    monkeypatch.setenv("CUBECOLOR_MAX_COLORINGS", "10")
    with pytest.raises(BudgetError):
        exhaustive_min(2, 2, 2)
    monkeypatch.setenv("CUBECOLOR_MAX_COLORINGS", "100000")
    assert exhaustive_min(2, 2, 2)[0] == 2

