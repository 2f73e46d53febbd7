"""End-to-end command-line behaviour: outputs, formats, exit codes."""

import json
import time
from fractions import Fraction

import pytest

from importlib import resources
from pathlib import Path

from cubecolor import chains, cli, nervecontract
from cubecolor.chains import MOD2, BoxCell, RectChain, lattice_cells
from cubecolor.nervecontract import Part, PartitionCell, ShiftedPartition
from cubecolor.search import stripe_construction

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_coloring(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def load_schema(name):
    with resources.files("cubecolor.schemas").joinpath(name).open() as fh:
        return json.load(fh)


# ---------------------------------------------------------------- analyze


def test_analyze_all_one_color(tmp_path, capsys):
    path = write_coloring(tmp_path, "c.txt", "2 3 1\n0 0 0 0 0 0 0 0 0\n")
    code, out, _ = run(capsys, "analyze", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["max_component"] == 9
    # one color is m = 0: in range, but the m=0 coefficient is a formula
    # artifact (2, not 1), so the comparison only makes sense as asymptotic
    assert doc["bound"]["asymptotic"] is True
    assert doc["bound"]["f_eq5"]["exact"] == "2/1"


def test_analyze_m_at_least_d_has_no_bound(tmp_path, capsys):
    path = write_coloring(tmp_path, "c.txt", "2 2 3\n0 1 2 0\n")
    code, out, _ = run(capsys, "analyze", path)
    assert code == 0
    assert json.loads(out)["bound"] is None  # m = 2 >= d = 2


def test_analyze_checkerboard_schema(tmp_path, capsys):
    path = write_coloring(tmp_path, "c.txt", "2 2 2\n0 1 1 0\n")
    code, out, _ = run(capsys, "analyze", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["max_component"] == 2
    jsonschema = pytest.importorskip("jsonschema")
    jsonschema.validate(doc, load_schema("analyze.schema.json"))


def test_analyze_stripe_file(tmp_path, capsys):
    g = stripe_construction(2, 8, 2, 2)
    path = write_coloring(tmp_path, "s.txt", g.to_text())
    code, out, _ = run(capsys, "analyze", path)
    doc = json.loads(out)
    assert code == 0
    assert doc["max_component"] <= 16


def test_analyze_parse_error_exit_2(tmp_path, capsys):
    path = write_coloring(tmp_path, "bad.txt", "2 2 2\n0 0 1 7\n")
    code, _, err = run(capsys, "analyze", path)
    assert code == 2
    assert "out of range" in err


@pytest.mark.parametrize("header,power", [("20000 2 2", "2^20000"), ("10000000 3 2", "3^10000000")])
def test_analyze_huge_header_exit_2_at_once(tmp_path, capsys, header, power):
    path = write_coloring(tmp_path, "huge.txt", f"{header}\n0 1\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "analyze", path)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err == f"error: line 2: expected {power} cell colors, got 2\n"


@pytest.mark.parametrize(
    "text,line,what",
    [
        ("2 {} 2\n0 1\n", 1, "subdivision count"),
        ("2 2 2\n0 0 1 {}\n", 2, "color"),
    ],
)
def test_analyze_overlong_integer_token_exit_2(tmp_path, capsys, text, line, what):
    # int() refuses integer strings of more than 4300 digits; the token is
    # reported as too long, not as non-integer, and echoed only in part
    path = write_coloring(tmp_path, "long.txt", text.format("9" * 5000))
    code, out, err = run(capsys, "analyze", path)
    assert code == 2 and out == ""
    assert err == f"error: line {line}: {what} '{'9' * 20}'... is too long (5000 characters)\n"


def test_analyze_overlong_non_integer_token_is_cut(tmp_path, capsys):
    path = write_coloring(tmp_path, "long.txt", "2 2 2\n0 0 1 " + "x" * 5000 + "\n")
    code, _, err = run(capsys, "analyze", path)
    assert code == 2
    assert err == f"error: line 2: non-integer color '{'x' * 20}'...\n"


def test_analyze_missing_file_exit_2(capsys):
    code, _, err = run(capsys, "analyze", "/nonexistent/x.txt")
    assert code == 2


# ---------------------------------------------------------------- certify


def test_certify_half_half(tmp_path, capsys):
    path = write_coloring(tmp_path, "h.txt", "2 4 2\n" + "0 0 1 1\n" * 4)
    code, out, _ = run(capsys, "certify", path)
    assert code == 0
    doc = json.loads(out)
    assert all(doc["identities"].values())
    assert doc["max_X_volume"]["exact"] == "1/1"
    jsonschema = pytest.importorskip("jsonschema")
    jsonschema.validate(doc, load_schema("certify.schema.json"))


def test_certify_single_color(tmp_path, capsys):
    path = write_coloring(tmp_path, "one.txt", "2 2 2\n0 0 0 0\n")
    code, out, _ = run(capsys, "certify", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["X_volumes"] == [{"exact": "1/1", "approx": 1.0}]


def test_certify_malformed_exit_2(tmp_path, capsys):
    path = write_coloring(tmp_path, "bad.txt", "2 2\n0 0 0 0\n")
    code, _, _ = run(capsys, "certify", path)
    assert code == 2


def test_certify_budget_exit_2(tmp_path, capsys):
    from cubecolor.search import random_coloring

    path = write_coloring(tmp_path, "big.txt", random_coloring(2, 9, 2, 0).to_text())
    code, _, err = run(capsys, "certify", path)
    assert code == 2
    assert "budget" in err


def test_certify_ring_option_rejected(tmp_path, capsys):
    # the pipeline is mod 2 only, so certify has no ring option at all
    path = write_coloring(tmp_path, "h.txt", "2 2 2\n0 1 0 1\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["certify", path, "--ring", "int"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --ring int" in capsys.readouterr().err


@pytest.mark.parametrize("header,cells", [("2 2 4", "0 1 2 3"), ("1 3 3", "0 1 2")])
def test_certify_too_many_colors_exit_2(tmp_path, capsys, header, cells):
    path = write_coloring(tmp_path, "c.txt", f"{header}\n{cells}\n")
    code, out, err = run(capsys, "certify", path)
    assert code == 2
    assert out == ""
    d = int(header.split()[0])
    assert f"at most d+1 = {d + 1} colors" in err


@pytest.mark.parametrize(
    "name",
    [
        "certify_d3_n4_c2",
        "certify_d3_n4_c3",
        "certify_d3_n5_c3",
        "certify_d3_n4_c4",
        "certify_d3_n8_c4",
        "certify_d3_n8_c2",
    ],
)
def test_certify_d3_matches_stored_report(capsys, name):
    # stored reports: a silent change in S_table or X_volumes fails here.
    # n4_c4 has d+1 colors, so its nerve has 3-simplices: their eq2
    # right-hand side is empty, and triple intersections have cofaces.
    # n8_c4 is random_coloring(3, 8, 4, 1), the largest grid certify accepts;
    # n8_c2 is random_coloring(3, 8, 2, 1), whose 319-cell part puts one
    # plane of many abutting boxes through the chain merge
    code, out, _ = run(capsys, "certify", str(DATA / f"{name}.txt"))
    assert code == 0
    assert json.loads(out)["failures"] == []
    assert out == (DATA / f"{name}.json").read_text()


def test_certify_no_skeleton_drops_only_g_checks(capsys):
    # the skeleton rows are the only part of the report it changes
    code, out, _ = run(capsys, "certify", "--no-skeleton", str(DATA / "certify_d3_n4_c3.txt"))
    assert code == 0
    want = json.loads((DATA / "certify_d3_n4_c3.json").read_text())
    assert want["g_checks"]
    assert json.loads(out) == {**want, "g_checks": []}


def test_certify_custom_delta(tmp_path, capsys):
    path = write_coloring(tmp_path, "h.txt", "2 2 2\n0 1 0 1\n")
    code, out, _ = run(capsys, "certify", path, "--delta", "1/32")
    assert code == 0
    assert json.loads(out)["identities"]["eq2"]


@pytest.mark.parametrize("delta", ["1/0", "abc"])
def test_certify_bad_delta_exit_2(tmp_path, capsys, delta):
    # 1/0 used to escape as a ZeroDivisionError with exit code 1
    path = write_coloring(tmp_path, "h.txt", "2 2 2\n0 1 0 1\n")
    code, out, err = run(capsys, "certify", path, "--delta", delta)
    assert code == 2
    assert out == ""
    assert f"certify: bad --delta {delta!r}" in err


# A failure names its stage: bad input exits 2 with "error: <stage>:", a
# failed identity exits 1 with "identity failure: <stage>:".

STRIPES = "2 2 2\n0 0 1 1\n"  # two parts and one wall between them


def test_certify_partition_failure_names_the_stage(tmp_path, capsys):
    path = write_coloring(tmp_path, "h.txt", STRIPES)
    code, out, err = run(capsys, "certify", path, "--delta", "1/4")  # not < 1/(4n)
    assert (code, out) == (2, "")
    assert err.startswith("error: partition: delta must lie strictly between")


def test_certify_multiplicity_failure_names_the_stage(tmp_path, capsys, monkeypatch):
    # shifted partitions keep within the bound certify declares; with a
    # bound of 1 the two parts meeting along their wall exceed it
    real = nervecontract.nerve
    monkeypatch.setattr(nervecontract, "nerve", lambda p, parts, **_: real(p, parts, 1))
    code, out, err = run(capsys, "certify", write_coloring(tmp_path, "h.txt", STRIPES))
    assert (code, out) == (1, "")
    assert err.startswith("identity failure: nerve: parts (0, 1) share a point")


def test_certify_face_overlap_names_the_stage(tmp_path, capsys, monkeypatch):
    # part 1's boxes overlap, so the three cells meet in a box fixed on one
    # axis, where three cells must be fixed on two
    den, boxes = lattice_cells([((0, "1/2"), (0, 1)), (("1/2", 1), (0, "1/2")),
                                (("1/2", 1), ("1/4", 1))])
    p = ShiftedPartition(2, 1, 0, [PartitionCell(b, (0, 0)) for b in boxes], den)
    parts = [Part(0, 0, (0,), tuple(boxes[:1]), Fraction(1, 2), den),
             Part(1, 1, (1, 2), tuple(boxes[1:]), Fraction(5, 8), den)]
    monkeypatch.setattr(nervecontract, "build_shifted_partition", lambda *_: p)
    monkeypatch.setattr(nervecontract, "mono_parts", lambda *_: parts)
    path = write_coloring(tmp_path, "h.txt", "2 1 2\n0\n")
    code, out, err = run(capsys, "certify", path)
    assert (code, out) == (1, "")
    assert err.startswith("identity failure: nerve: cells (0, 1, 2) meet in ")


def test_certify_contraction_failure_names_the_stage(tmp_path, capsys, monkeypatch):
    # a wall replaced by a stub that ends inside the cube is no relative
    # cycle, so eq2 cannot hold at (0, 1): an identity failure, not bad input
    real = nervecontract.nerve

    def broken_nerve(p, parts, **kw):
        nrv = real(p, parts, **kw)
        stub = BoxCell([(p.den // 4, p.den // 2), (p.den // 2, p.den // 2)])
        nrv.faces[(0, 1)] = RectChain.make(2, 1, MOD2, [(stub, 1)], p.den)
        return nrv

    monkeypatch.setattr(nervecontract, "nerve", broken_nerve)
    code, out, err = run(capsys, "certify", write_coloring(tmp_path, "h.txt", STRIPES))
    assert (code, out) == (1, "")
    assert err == "identity failure: contraction: simplex (0, 1): input is not a relative cycle\n"


# -------------------------------------------------------------- fill-test


def test_fill_test_counts(capsys):
    code, out, _ = run(capsys, "fill-test", "--count", "25", "--d", "2", "--k", "1")
    assert code == 0
    assert "25/25 passed" in out


@pytest.mark.parametrize("count", ["0", "-3"])
def test_fill_test_rejects_nonpositive_count(capsys, count):
    # used to print "0/0 passed" with exit 0 having checked nothing
    code, out, err = run(capsys, "fill-test", "--count", count)
    assert code == 2
    assert out == ""
    assert f"fill-test: need --count >= 1, got {count}" in err


def test_fill_test_bad_dims(capsys):
    code, _, err = run(capsys, "fill-test", "--d", "2", "--k", "2")
    assert code == 2


@pytest.mark.parametrize(
    "flags",
    [["--size", "0"], ["--size", "-1"], ["--k", "-1", "--d", "2"], ["--d", "5", "--k", "1"]],
)
def test_fill_test_rejects_bad_shape(capsys, flags):
    # --size 0 used to recurse until RecursionError; --k -1 used to "pass"
    code, out, err = run(capsys, "fill-test", "--count", "2", *flags)
    assert code == 2
    assert out == ""
    assert "fill-test: need 0 <= k < d <= 4 and size >= 1" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["fill-test", "--count", "2", "--workers", "0"],
        ["fill-test", "--count", "2", "--workers", "-3"],
        ["search", "anneal", "--n", "3", "--steps", "5", "--workers", "0"],
        ["search", "anneal", "--n", "3", "--steps", "5", "--workers", "-3"],
    ],
)
def test_rejects_nonpositive_workers(capsys, argv):
    # used to run serially without a word
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"need --workers >= 1, got {argv[-1]}" in err


class FakePool:
    """Stands in for ProcessPoolExecutor: records the size asked for and
    maps in-process, so no worker is ever started."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks, chunksize=1):
        return map(fn, tasks)


@pytest.mark.parametrize(
    "cpus,workers,tasks,size",
    [(4, 3, 100, 3), (4, 10_000, 100, 4), (4, 10_000, 2, 2), (None, 8, 100, None)],
)
def test_pool_map_clamps_workers_to_tasks_and_cpus(monkeypatch, cpus, workers, tasks, size):
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(FakePool, "sizes", [])
    assert cli._pool_map(abs, list(range(-tasks, 0)), workers) == list(range(tasks, 0, -1))
    # a single worker (unknown CPU count included) runs in-process
    assert FakePool.sizes == ([] if size is None else [size])


def test_pool_map_rejects_nonpositive_workers():
    with pytest.raises(ValueError, match="need --workers >= 1, got 0"):
        cli._pool_map(abs, [1], 0)


def test_fill_test_workers_merge_deterministically(capsys):
    code1, out1, _ = run(capsys, "fill-test", "--count", "16", "--d", "3", "--k", "2")
    code2, out2, _ = run(
        capsys, "fill-test", "--count", "16", "--d", "3", "--k", "2", "--workers", "2"
    )
    assert code1 == code2 == 0
    assert out1 == out2


def test_fill_test_reports_a_filling_that_lost_a_cell(capsys, monkeypatch):
    # the boundary check cancels corners, so a filling whose boundary misses
    # a wall fails there, whatever fill's own merge code would make of it
    real_fill = chains.fill

    def lossy_fill(z):
        h = real_fill(z)
        dropped = dict(list(h.terms.items())[1:])
        return RectChain(h.d, h.k, h.ring, dropped, h.den)

    monkeypatch.setattr(chains, "fill", lossy_fill)
    code, out, _ = run(capsys, "fill-test", "--count", "3", "--d", "2", "--k", "1")
    assert code == 1
    assert "0/3 passed" in out
    assert out.count("boundary mismatch") == 3


# ----------------------------------------------------------------- search


def test_search_exhaustive_csv(tmp_path, capsys):
    code, out, _ = run(capsys, "search", "exhaustive", "--n", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "d,n,num_colors,method,objective,seed"
    assert lines[1] == "2,2,2,exhaustive,2,"


def test_search_budget_error(capsys, monkeypatch):
    monkeypatch.setenv("CUBECOLOR_MAX_NODES", "1000")  # --n 6 takes 22,297 nodes
    code, _, err = run(capsys, "search", "exhaustive", "--n", "6")
    assert code == 2
    assert "budget" in err


@pytest.mark.parametrize(
    "flags",
    [["--n", "2", "--num-colors", "0"], ["--n", "0"], ["--n", "2", "--d", "0"]],
)
def test_search_exhaustive_rejects_bad_shape(tmp_path, capsys, flags):
    # --num-colors 0 used to print objective 10 with no witness and exit 0
    # (exit 1 with --best-out); --n 0 leaked an internal product() error
    best = tmp_path / "best.txt"
    code, out, err = run(capsys, "search", "exhaustive", *flags, "--best-out", str(best))
    assert code == 2
    assert out == ""
    assert "search: need d, n, num_colors >= 1" in err
    assert not best.exists()


@pytest.mark.parametrize("method", ["stripe", "random", "anneal"])
def test_search_rejects_zero_colors(capsys, method):
    # stripe used to die with ZeroDivisionError and exit 1 (identity
    # failure); random and anneal leaked "empty range for randrange()"
    code, out, err = run(capsys, "search", method, "--n", "3", "--num-colors", "0")
    assert code == 2
    assert out == ""
    assert "search: need d, n, num_colors >= 1, got d=2, n=3, num_colors=0" in err


@pytest.mark.parametrize("method", ["random", "anneal"])
@pytest.mark.parametrize("restarts", ["0", "-2"])
def test_search_rejects_nonpositive_restarts(capsys, method, restarts):
    # used to print only the CSV header with exit 0
    code, out, err = run(capsys, "search", method, "--n", "3", "--restarts", restarts)
    assert code == 2
    assert out == ""
    assert f"search: need --restarts >= 1, got {restarts}" in err


def test_search_anneal_reproducible(tmp_path, capsys):
    args = ("search", "anneal", "--n", "4", "--steps", "200", "--seed", "5")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_search_best_coloring_file(tmp_path, capsys):
    best = tmp_path / "best.txt"
    code, _, _ = run(
        capsys, "search", "stripe", "--n", "6", "--width", "2",
        "--out", str(tmp_path / "rows.csv"), "--best-out", str(best),
    )
    assert code == 0
    from cubecolor.gridcolor import parse_coloring

    g = parse_coloring(best.read_text())
    assert g.n == 6
    rows = (tmp_path / "rows.csv").read_text().splitlines()
    assert rows[1] == "2,6,2,stripe-w2,11,"


@pytest.mark.parametrize("flag", ["--out", "--best-out"])
def test_search_unwritable_output_exit_2(capsys, flag):
    # used to escape as a FileNotFoundError traceback with exit code 1
    path = "/nonexistent/out.txt"
    code, out, err = run(capsys, "search", "stripe", "--n", "3", flag, path)
    assert code == 2
    assert out == ""  # no CSV for a failed command
    assert err.startswith("error: ")
    assert path in err


# ----------------------------------------------------------------- bounds


def test_bounds_text(capsys):
    code, out, _ = run(capsys, "bounds", "--d", "2", "--m", "1")
    assert code == 0
    assert "f_eq5        = 1/8" in out
    assert "factor-2 discrepancy" in out


def test_bounds_json(capsys):
    code, out, _ = run(capsys, "bounds", "--d", "3", "--m", "2", "--json")
    doc = json.loads(out)
    assert doc["h_eq4"]["exact"] == "144/1"
    assert doc["discrepancy_factor_two"] is True


def test_bounds_invalid_m(capsys):
    code, _, _ = run(capsys, "bounds", "--d", "2", "--m", "2")
    assert code == 2


# ----------------------------------------------------------------- render


CHECKER_PPM = (
    b"P6\n2 2\n255\n"
    + bytes([230, 25, 75])  # color 0
    + bytes([60, 180, 75])  # color 1
    + bytes([60, 180, 75])
    + bytes([230, 25, 75])
)


def test_render_checkerboard_golden_bytes(tmp_path, capsys):
    path = write_coloring(tmp_path, "c.txt", "2 2 2\n0 1 1 0\n")
    out = tmp_path / "img.ppm"
    code, _, _ = run(capsys, "render", path, "--out", str(out))
    assert code == 0
    assert out.read_bytes() == CHECKER_PPM


def test_render_pgm_grayscale(tmp_path, capsys):
    path = write_coloring(tmp_path, "c.txt", "2 2 2\n0 1 1 0\n")
    out = tmp_path / "img.pgm"
    code, _, _ = run(capsys, "render", path, "--out", str(out), "--format", "pgm")
    assert code == 0
    assert out.read_bytes() == b"P5\n2 2\n255\n" + bytes([0, 255, 255, 0])


def test_render_d3_slice_diagonal_bands(tmp_path, capsys):
    g = stripe_construction(3, 4, 2, 2)
    path = write_coloring(tmp_path, "s.txt", g.to_text())
    out = tmp_path / "slice.ppm"
    code, _, _ = run(capsys, "render", path, "--out", str(out), "--slice", "3=0")
    assert code == 0
    data = out.read_bytes()
    header, raster = data.split(b"255\n", 1)
    # pixel (x1, x2) carries the palette color of floor((x1+x2)/2) mod 2
    for x2 in range(4):
        for x1 in range(4):
            expect = cli._palette_color(((x1 + x2) // 2) % 2)
            at = 3 * (x2 * 4 + x1)
            assert tuple(raster[at : at + 3]) == expect
    # deterministic bytes
    out2 = tmp_path / "slice2.ppm"
    run(capsys, "render", path, "--out", str(out2), "--slice", "3=0")
    assert out2.read_bytes() == data


def test_render_d1_rejected(tmp_path, capsys):
    path = write_coloring(tmp_path, "c.txt", "1 3 2\n0 1 0\n")
    code, _, err = run(capsys, "render", path, "--out", str(tmp_path / "x.ppm"))
    assert code == 2


def test_render_bad_slice(tmp_path, capsys):
    g = stripe_construction(3, 2, 2, 1)
    path = write_coloring(tmp_path, "s.txt", g.to_text())
    code, _, _ = run(capsys, "render", path, "--out", str(tmp_path / "x.ppm"))
    assert code == 2  # d=3 needs --slice 3=<v>
    code, _, _ = run(
        capsys, "render", path, "--out", str(tmp_path / "x.ppm"), "--slice", "3=9"
    )
    assert code == 2


@pytest.mark.parametrize("spec,message", [
    ("3=0,3=1", "slice fixes axis 3 twice"),
    ("abc", "bad slice item 'abc'"),
    ("3=x", "bad slice item '3=x'"),
    ("3=", "bad slice item '3='"),
])
def test_render_malformed_slice_named(tmp_path, capsys, spec, message):
    # a repeated axis used to render the last value given, and a bad item
    # leaked int()'s "invalid literal" message
    g = stripe_construction(3, 2, 2, 1)
    path = write_coloring(tmp_path, "s.txt", g.to_text())
    out = tmp_path / "x.ppm"
    code, _, err = run(capsys, "render", path, "--out", str(out), "--slice", spec)
    assert code == 2
    assert err.startswith(f"render: {message}")
    assert "invalid literal" not in err
    assert not out.exists()


def test_render_unwritable_output_exit_2(tmp_path, capsys):
    # used to escape as a FileNotFoundError traceback with exit code 1
    path = write_coloring(tmp_path, "c.txt", "2 2 2\n0 1 1 0\n")
    out = "/nonexistent/img.ppm"
    code, _, err = run(capsys, "render", path, "--out", out)
    assert code == 2
    assert err.startswith("error: ")
    assert out in err
