"""Acceptance criteria, one test per criterion, exact tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion; every numeric check here is exact rational arithmetic, zero
tolerance, and the stated runtime caps are asserted.
"""

import json
import time
from fractions import Fraction as F
from itertools import combinations, product
from math import factorial
from pathlib import Path

import pytest

from cubecolor.bounds import bound_table, g_constant
from cubecolor.chains import (
    MOD2,
    boundary,
    fill,
    modulo_boundary,
    random_relative_cycle,
)
from cubecolor.gridcolor import GridColoring, components, spanning_report
from cubecolor.nervecontract import (
    build_shifted_partition,
    certify_coloring,
    mono_parts,
)
from cubecolor.search import (
    SearchConfig,
    anneal,
    exhaustive_min,
    random_coloring,
    stripe_construction,
)

from oracles import skeleton_volumes

DATA = Path(__file__).parent / "data"


def interval_axes(box):
    """The axes on which a cell spans an interval, in increasing order."""
    return tuple(a for a, (lo, hi) in enumerate(box.extents) if lo < hi)


def announce(name: str, detail: str):
    print(f"\nACCEPTANCE {name}: PASS — {detail}")


# ------------------------------------------------------------ criterion 1


def test_criterion_1_filling_contract():
    """>= 1000 random relative cycles across d in {2,3,4}, k < d: the
    filling has the exact boundary and never more volume.  <= 2 min."""
    t0 = time.time()
    cases = 0
    combos = [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3)]
    for d, k in combos:
        for seed in range(170):
            z = random_relative_cycle(seed, d, k, size=2, ring=MOD2)
            h = fill(z)
            zr = modulo_boundary(z)
            assert boundary(h, relative=True) == zr, (d, k, seed)
            assert h.volume() <= zr.volume(), (d, k, seed)
            cases += 1
    elapsed = time.time() - t0
    assert cases >= 1000
    assert elapsed <= 120, f"filling contract took {elapsed:.0f}s"
    announce("1 filling contract", f"{cases} cycles exact in {elapsed:.0f}s")


# ------------------------------------------------- criteria 2 and 3 data


@pytest.fixture(scope="module")
def pipeline_runs():
    """d=2, n in 3..6, 2 colors, 20 random colorings each: full audits."""
    t0 = time.time()
    runs = []
    for n in (3, 4, 5, 6):
        for seed in range(20):
            g = random_coloring(2, n, 2, seed)
            rep = certify_coloring(g, check_skeleton=False)
            runs.append((n, seed, rep))
    return runs, time.time() - t0


def test_criterion_2_pipeline_identities(pipeline_runs):
    """Exact residuals for every identity on 80 random instances, and the
    maximal per-part cycle volume is always >= 1.  <= 10 min."""
    runs, elapsed = pipeline_runs
    assert len(runs) == 80
    for n, seed, rep in runs:
        assert rep.ok, (n, seed, rep.failures)
        assert rep.eq2_ok, (n, seed)
        assert rep.eq3_ok, (n, seed)
        assert rep.dXi_zero, (n, seed)
        assert rep.sum_is_Q, (n, seed)
        assert rep.max_X_volume >= 1, (n, seed)
        assert not (rep.all_X_below_one and rep.sum_is_Q), (n, seed)
    assert elapsed <= 600, f"pipeline runs took {elapsed:.0f}s"
    announce(
        "2 pipeline identities",
        f"80 runs (n=3..6), all residuals zero, in {elapsed:.0f}s",
    )


def test_criterion_3_s_recursion(pipeline_runs):
    """The measured filling-volume sums obey
    S(i0,k) <= (k+1)! g(d,k) alpha n^(k-m) + S(i0,k+1), exactly."""
    runs, _ = pipeline_runs
    checked = 0
    for n, seed, rep in runs:
        alpha = rep.alpha
        m = rep.m
        parts = range(len(rep.part_volumes))
        for i0 in parts:
            for k in range(1, m + 1):
                lhs = rep.S_table[(i0, k)]
                rhs = (
                    factorial(k + 1) * g_constant(2, k) * alpha * F(n) ** (k - m)
                    + rep.S_table[(i0, k + 1)]
                )
                assert lhs <= rhs, (n, seed, i0, k)
                checked += 1
        assert rep.s_bound_ok
    announce("3 S-recursion", f"{checked} inequalities exact over 80 runs")


# ------------------------------------------------------------ criterion 4


def test_criterion_4_skeleton_bound():
    """The certify report's skeleton rows equal the geometric skeleton of
    each part's region (the oracle in tests/oracles.py), and obey
    skeleton <= g(d,k) * volume * n^k, for every part of random d in
    {2,3}, n=3 instances; per-box face volumes are verified against a
    direct enumeration."""
    from math import comb

    checked = 0
    for d, delta, seeds in ((2, F(1, 48), range(8)), (3, F(1, 64), range(3))):
        partition = build_shifted_partition(d, 3, delta)
        for seed in seeds:
            g = random_coloring(d, 3, 2, seed)
            report = certify_coloring(g, delta=delta).to_json()
            assert report["g_ok"], (d, seed)
            rows = {(row["part"], row["k"]): row for row in report["g_checks"]}
            parts = mono_parts(partition, g)
            assert len(rows) == len(parts) * d
            for part in parts:
                skeleton = skeleton_volumes(part.chain())
                for k in range(1, d + 1):
                    row = rows[part.id, k]
                    skel = F(row["skeleton"]["exact"])
                    bound = g_constant(d, k) * part.volume * F(3) ** k
                    assert skel == skeleton[k], (d, seed, part.id, k)
                    assert F(row["bound"]["exact"]) == bound, (d, seed, part.id, k)
                    assert row["ok"] and skel <= bound, (d, seed, part.id, k)
                    checked += 1
                # direct-count oracle for the per-box face volumes
                for b in part.boxes:
                    for k in range(d + 1):
                        count, total = box_face_volume(b, k)
                        assert count == comb(d, k) * 2**k
                        expect = sum(
                            F(2) ** k
                            * _prod(
                                b.extents[a][1] - b.extents[a][0]
                                for a in interval_axes(b)
                                if a not in fixed
                            )
                            for fixed in _ksubsets(interval_axes(b), k)
                        )
                        assert total == expect
    announce("4 skeleton bound", f"{checked} report rows equal the oracle, bounds exact")


def box_face_volume(box, k: int) -> tuple[int, F]:
    """Oracle by direct enumeration: the number and total (d-k)-volume of
    the codimension-k faces of one box.  A box with all axes of length L
    has C(d,k) * 2^k faces of volume L^(d-k) each."""
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


def _prod(it):
    out = F(1)
    for x in it:
        out *= x
    return out


def _ksubsets(axes, k):
    from itertools import combinations

    return list(combinations(axes, k))


# ------------------------------------------------------------ criterion 5


def test_criterion_5_constants():
    """The explicit constants evaluate exactly, and the factor-two gap
    between the two published coefficients is flagged."""
    assert bound_table(2, 1).f_eq5 == F(1, 8)
    assert bound_table(3, 2).f_eq5 == F(1, 144)
    assert g_constant(3, 1) == 6
    assert bound_table(2, 1).h_eq4 == 8
    for d in range(1, 6):
        for m in range(d):
            t = bound_table(d, m)
            assert t.f_remark == t.f_eq5 / 2
            assert t.discrepancy_factor_two
    announce("5 constants", "f_eq5(2,1)=1/8, f_eq5(3,2)=1/144, g(3,1)=6, h_eq4(2,1)=8")


# ------------------------------------------------------------ criterion 6


def test_criterion_6_exhaustive_minimum_check():
    """The exact min over all 2-colorings of the largest component, for
    n in {2,3,4}, beats the prior 2-color bound and matches the stored
    regression table.  <= 5 min."""
    t0 = time.time()
    stored = json.loads((DATA / "exhaustive_d2_2colors.json").read_text())
    table = {}
    for n in (2, 3, 4):
        value, witness = exhaustive_min(2, n, 2)
        assert value >= 1
        prior = bound_table(2, 1, n).prior_2color  # n - 4
        assert value >= prior
        assert components(witness).max_size == value
        table[str(n)] = value
    assert table == stored["table"], "regression table drifted"
    values = [table[str(n)] for n in (2, 3, 4)]
    assert values == sorted(values), "min-max component must not decrease with n"
    elapsed = time.time() - t0
    assert elapsed <= 300, f"exhaustive scan took {elapsed:.0f}s"
    announce("6 exhaustive check", f"table {table} matches stored artifact, {elapsed:.0f}s")


# ------------------------------------------------------------ criterion 7


def test_criterion_7_spanning_property():
    """Every 2-coloring of the n x n grid with n <= 4 has a monochromatic
    component spanning two opposite facets (exhaustive).  <= 5 min."""
    t0 = time.time()
    total = 0
    for n in (1, 2, 3, 4):
        for cells in product(range(2), repeat=n * n):
            g = GridColoring(2, n, 2, cells)
            assert spanning_report(components(g)), (n, cells)
            total += 1
    elapsed = time.time() - t0
    assert elapsed <= 300, f"spanning scan took {elapsed:.0f}s"
    announce("7 spanning property", f"{total} colorings checked in {elapsed:.0f}s")


# ------------------------------------------------------------ criterion 8


def test_criterion_8_construction_bracket():
    """Stripes of width 2 keep the largest component at <= 2n for
    n in {4,8,16,32}, and annealing at n=16 matches or beats them."""
    stripe_obj = {}
    for n in (4, 8, 16, 32):
        g = stripe_construction(2, n, 2, 2)
        obj = components(g).max_size
        assert obj <= 2 * n, (n, obj)
        stripe_obj[n] = obj
    best, trace = anneal(SearchConfig(2, 16, 2, seed=0, steps=20_000))
    assert trace[-1] <= stripe_obj[16]
    assert components(best).max_size == trace[-1]
    announce(
        "8 construction bracket",
        f"stripe objectives {stripe_obj}, anneal(n=16) = {trace[-1]}",
    )
