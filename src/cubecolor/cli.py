"""Command-line interface.

Subcommands: analyze, certify, fill-test, search, bounds, render.
Exit codes: 0 ok, 1 identity or bound failure, 2 usage/parse error or an
output path that cannot be written.
Every command is deterministic given its flags and seeds; rationals in
JSON output appear as {"exact": "p/q", "approx": float}.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import json
import os
import sys
from fractions import Fraction

from . import bounds as bounds_mod
from .bounds import _rat
from . import chains, gridcolor, nervecontract, search as search_mod

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2

# the largest n that certify accepts at each d: with d+1 colors a random
# coloring of the largest grid of each row certifies in under 7 s, well
# inside a 60 s CI step (README)
CERTIFY_MAX_N = {1: 1024, 2: 64, 3: 20, 4: 6, 5: 3}


_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_json_str = json.encoder.encode_basestring_ascii
# the JSON text of each scalar type, as json.dumps writes it
_JSON_SCALAR = {
    str: _json_str,
    int: int.__repr__,
    float: lambda x: _NONFINITE.get(r := float.__repr__(x), r),
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _json_text(doc, pad: str = "\n") -> str:
    """`json.dumps(doc, indent=2)`, byte for byte, in about three fifths of
    its time on a certify report.  With an indent the standard library leaves
    its C encoder for a Python generator that yields every bracket, key
    and separator as its own chunk; this joins one list per container and
    writes each scalar of an exact JSON type from one table lookup.  Other
    types (subclasses, unserializable objects) go through json.dumps."""
    inner = pad + "  "
    scalar = _JSON_SCALAR.get
    if isinstance(doc, dict):
        if not doc:
            return "{}"
        rows = [
            inner
            + (_json_str(k) if type(k) is str else _json_key(k))
            + ": "
            + (f(v) if (f := scalar(type(v))) else _json_text(v, inner))
            for k, v in doc.items()
        ]
        return "{" + ",".join(rows) + pad + "}"
    if isinstance(doc, (list, tuple)):
        if not doc:
            return "[]"
        rows = [inner + (f(v) if (f := scalar(type(v))) else _json_text(v, inner)) for v in doc]
        return "[" + ",".join(rows) + pad + "]"
    return json.dumps(doc)


def _json_key(k) -> str:
    """A key that is not a str, as json.dumps writes it: a number, bool or
    None as a string, anything else a TypeError."""
    (text,) = json.loads(json.dumps({k: None}))
    return _json_str(text)


def _read_coloring(path: str) -> gridcolor.GridColoring:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise gridcolor.ColoringFormatError(f"cannot read {path}: {exc}") from exc
    return gridcolor.parse_coloring(text)


def cmd_analyze(args) -> int:
    g = _read_coloring(args.coloring)
    report = gridcolor.components(g)
    doc = gridcolor.report_to_json(report)
    m = g.num_colors - 1
    if 0 <= m < g.d:
        table = bounds_mod.bound_table(g.d, m, g.n)
        guaranteed = table.f_eq5 * Fraction(g.n) ** (g.d - m)
        doc["bound"] = {
            "f_eq5": _rat(table.f_eq5),
            "f_remark": _rat(table.f_remark),
            "guaranteed_size": _rat(guaranteed),
            "asymptotic": True,
            "max_component_at_least_guaranteed": report.max_size >= guaranteed,
        }
    else:
        doc["bound"] = None  # the component bound needs m < d
    print(_json_text(doc))
    return EXIT_OK


def cmd_certify(args) -> int:
    g = _read_coloring(args.coloring)
    if g.n > CERTIFY_MAX_N.get(g.d, 0):
        table = ", ".join(f"d={d}: n <= {n}" for d, n in CERTIFY_MAX_N.items())
        print(
            f"certify: d={g.d}, n={g.n} is outside the budget table CERTIFY_MAX_N "
            f"({table})",
            file=sys.stderr,
        )
        return EXIT_USAGE
    try:
        delta = Fraction(args.delta) if args.delta else None
    except (ValueError, ZeroDivisionError):
        print(
            f"certify: bad --delta {args.delta!r}, want a rational like 1/32",
            file=sys.stderr,
        )
        return EXIT_USAGE
    report = nervecontract.certify_coloring(g, delta=delta)
    print(_json_text(report.to_json()))
    return EXIT_OK if report.ok else EXIT_FAILURE


def _pool_map(fn, tasks: list, workers: int, chunksize: int = 1) -> list:
    """fn over tasks, in order, on min(workers, tasks, CPUs) processes: a
    process pool starts all its workers at once.  One runs in-process."""
    if workers < 1:
        raise ValueError(f"need --workers >= 1, got {workers}")
    workers = min(workers, len(tasks), os.cpu_count() or 1)
    if workers == 1:
        return [fn(t) for t in tasks]
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks, chunksize=chunksize))


def _fill_one(task) -> tuple[int, str]:
    seed, d, k, size, ring = task
    z = chains.random_relative_cycle(seed, d, k, size=size, ring=ring)
    h = chains.fill(z)
    # corner cancellation, not fill's own merge code, decides the boundary
    ok_boundary = chains.vanishes(z.ring, walls=[h], chains=[-z])
    ok_volume = h.volume() <= chains.modulo_boundary(z).volume()
    if ok_boundary and ok_volume:
        return seed, ""
    reason = [] if ok_boundary else ["boundary mismatch"]
    if not ok_volume:
        reason.append("volume grew")
    return seed, "; ".join(reason) + "\n" + chains.dumps_chain(z)


def cmd_fill_test(args) -> int:
    if not 0 <= args.k < args.d <= 4 or args.size < 1:
        print("fill-test: need 0 <= k < d <= 4 and size >= 1", file=sys.stderr)
        return EXIT_USAGE
    if args.count < 1:
        print(f"fill-test: need --count >= 1, got {args.count}", file=sys.stderr)
        return EXIT_USAGE
    tasks = [(seed, args.d, args.k, args.size, args.ring) for seed in range(args.count)]
    failures = []
    for seed, err in sorted(_pool_map(_fill_one, tasks, args.workers, chunksize=32)):
        if err:
            failures.append((seed, err))
    passed = len(tasks) - len(failures)
    print(f"fill-test d={args.d} k={args.k} ring={args.ring}: {passed}/{len(tasks)} passed")
    for seed, err in failures:
        print(f"seed {seed} FAILED: {err}")
    return EXIT_OK if not failures else EXIT_FAILURE


def cmd_search(args) -> int:
    try:
        search_mod.check_shape(args.d, args.n, args.num_colors)
    except ValueError as exc:
        print(f"search: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.method in ("random", "anneal") and args.restarts < 1:
        print(f"search: need --restarts >= 1, got {args.restarts}", file=sys.stderr)
        return EXIT_USAGE
    rows = []
    best = None  # (objective, grid)
    if args.method == "exhaustive":
        try:
            value, witness = search_mod.exhaustive_min(args.d, args.n, args.num_colors)
        except ValueError as exc:  # over the budget
            print(f"search: {exc}", file=sys.stderr)
            return EXIT_USAGE
        rows.append((args.d, args.n, args.num_colors, "exhaustive", value, ""))
        best = (value, witness)
    elif args.method == "stripe":
        g = search_mod.stripe_construction(args.d, args.n, args.num_colors, args.width)
        value = gridcolor.components(g).max_size
        rows.append((args.d, args.n, args.num_colors, f"stripe-w{args.width}", value, ""))
        best = (value, g)
    elif args.method == "random":
        for seed in _seed_list(args):
            g = search_mod.random_coloring(args.d, args.n, args.num_colors, seed)
            value = gridcolor.components(g).max_size
            rows.append((args.d, args.n, args.num_colors, "random", value, seed))
            if best is None or value < best[0]:
                best = (value, g)
    else:  # anneal
        seeds = _seed_list(args)
        configs = [
            search_mod.SearchConfig(
                args.d, args.n, args.num_colors, seed=seed, steps=args.steps
            )
            for seed in seeds
        ]
        outs = _pool_map(search_mod.anneal, configs, args.workers)
        for cfg, (g, trace) in zip(configs, outs):
            value = trace[-1]
            rows.append((args.d, args.n, args.num_colors, "anneal", value, cfg.seed))
            if best is None or value < best[0]:
                best = (value, g)

    # open both outputs before writing a row, so a bad path prints nothing
    with contextlib.ExitStack() as stack:
        out, best_fh = (
            stack.enter_context(open(path, "w", encoding="utf-8")) if path else None
            for path in (args.out, args.best_out)
        )
        out = out or sys.stdout
        out.write("d,n,num_colors,method,objective,seed\n")
        for row in rows:
            out.write(",".join(str(x) for x in row) + "\n")
        if best_fh:
            best_fh.write(best[1].to_text())
    return EXIT_OK


def _seed_list(args) -> list[int]:
    return list(range(args.seed, args.seed + args.restarts))


def cmd_bounds(args) -> int:
    try:
        table = bounds_mod.bound_table(args.d, args.m, args.n)
    except bounds_mod.BoundsError as exc:
        print(f"bounds: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.json:
        print(_json_text(table.to_json()))
    else:
        print(table.to_text())
    return EXIT_OK


PALETTE = [
    (230, 25, 75),
    (60, 180, 75),
    (255, 225, 25),
    (0, 130, 200),
    (245, 130, 48),
    (145, 30, 180),
    (70, 240, 240),
    (240, 50, 230),
    (210, 245, 60),
    (250, 190, 190),
    (0, 128, 128),
    (170, 110, 40),
    (128, 0, 0),
    (170, 255, 195),
    (128, 128, 0),
    (0, 0, 128),
]


def _palette_color(idx: int) -> tuple[int, int, int]:
    if idx < len(PALETTE):
        return PALETTE[idx]
    v = (idx * 2654435761) % (256**3)  # deterministic spread for many colors
    return (v >> 16 & 255, v >> 8 & 255, v & 255)


def _parse_slice(spec: str | None, d: int) -> dict[int, int]:
    """Parse "3=0,4=2" into {axis(0-based): value}; axes are 1-based in
    the flag, and exactly the axes 3..d must be fixed."""
    fixed: dict[int, int] = {}
    if spec:
        for item in spec.split(","):
            axis_str, _, val_str = item.partition("=")
            try:
                axis, val = int(axis_str) - 1, int(val_str)
            except ValueError:
                raise ValueError(f"bad slice item {item!r}, expected <axis>=<value>") from None
            if axis in fixed:
                raise ValueError(f"slice fixes axis {axis + 1} twice")
            fixed[axis] = val
    expected = set(range(2, d))
    if set(fixed) != expected:
        want = ",".join(f"{a + 1}=<v>" for a in sorted(expected)) or "(nothing)"
        raise ValueError(f"slice must fix exactly the axes above 2: {want}")
    return fixed


def cmd_render(args) -> int:
    g = _read_coloring(args.coloring)
    if g.d < 2:
        print("render: need d >= 2", file=sys.stderr)
        return EXIT_USAGE
    try:
        fixed = _parse_slice(args.slice, g.d)
    except ValueError as exc:
        print(f"render: {exc}", file=sys.stderr)
        return EXIT_USAGE
    for a, v in fixed.items():
        if not 0 <= v < g.n:
            print(f"render: slice value {v} out of range on axis {a + 1}", file=sys.stderr)
            return EXIT_USAGE

    n = g.n
    raster = bytearray()
    for x2 in range(n):  # image rows top to bottom follow axis 2
        for x1 in range(n):
            coords = [0] * g.d
            coords[0], coords[1] = x1, x2
            for a, v in fixed.items():
                coords[a] = v
            color = g.color_at(coords)
            if args.format == "ppm":
                raster.extend(_palette_color(color))
            else:
                level = 255 * color // max(g.num_colors - 1, 1)
                raster.append(level)
    magic = b"P6" if args.format == "ppm" else b"P5"
    header = magic + f"\n{n} {n}\n255\n".encode()
    with open(args.out, "wb") as fh:
        fh.write(header + bytes(raster))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubecolor",
        description="Grid colorings of the cube: components, exact chain "
        "certification, searches, constants, rendering.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="component report for a coloring file")
    p.add_argument("coloring")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("certify", help="run the exact certification pipeline")
    p.add_argument("coloring")
    p.add_argument("--delta", help="partition offset, a rational like 1/32")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("fill-test", help="randomized filling-contract check")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--size", type=int, default=2)
    p.add_argument("--ring", default=chains.MOD2, choices=[chains.MOD2, chains.INTEGER])
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_fill_test)

    p = sub.add_parser("search", help="minimize the maximal component")
    p.add_argument("method", choices=["exhaustive", "anneal", "stripe", "random"])
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--num-colors", type=int, default=2)
    p.add_argument("--width", type=int, default=2, help="stripe width")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=1)
    p.add_argument("--steps", type=int, default=10_000)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", help="CSV destination (default stdout)")
    p.add_argument("--best-out", help="write the best coloring file here")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("bounds", help="print the exact constants")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("render", help="write a PGM/PPM image of a 2d slice")
    p.add_argument("coloring")
    p.add_argument("--out", required=True)
    p.add_argument("--format", default="ppm", choices=["ppm", "pgm"])
    p.add_argument("--slice", help="fix axes above 2, e.g. '3=0' for d=3")
    p.set_defaults(func=cmd_render)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # bad input (format, partition and chain errors are ValueErrors)
        # or an output path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except nervecontract.IdentityError as exc:
        print(f"identity failure: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
