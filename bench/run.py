"""Run one workload of the cubecolor benchmark and print its metrics.

    python3 bench/run.py --workload certify-d2 --seed 1 --seconds 15 --trace 0

Single process, one closed-loop client: the next operation starts when
the previous one has returned.  The package is imported from ``src/`` of
the checkout this file sits in; nothing is built or installed.

With ``--trace 0`` the end-to-end metrics are printed:

* ``op_rel_p50``: the median over rounds of the round's seconds divided by
  the seconds the frozen package (``frozen/cubecolor_frozen``, a copy of
  ``src/cubecolor`` as of the first benchmark) took for the same inputs;
* ``op_rel_tail``: the per-call seconds per operation at the highest
  percentile with at least ten calls above it (the maximum when a run has
  fewer than twenty calls), divided by the same percentile of the frozen
  package's calls;
* ``setup_s``: the median of several set-ups of the package under test:
  a fresh import of ``src/cubecolor`` and one small warm-up operation.
  The frozen package, the references and the inputs are loaded outside
  the timer.  Each input is built just before its operation, untimed,
  so that no operation sees an object an earlier one touched; building
  the whole ``fill`` pool up front would take about 5.6 s per set-up;
* ``peak_rss_mib``: the process's peak resident memory (both packages;
  the peak before the frozen package is loaded is in the run record).

Every operation runs back to back with the same operation of the frozen
package, alternating which goes first.  The ratio is the gated number
because on a shared 2-vCPU Xeon VM the speed of the same code drifted by
up to 60% over minutes, which both halves of a pair see alike; plain
seconds spread across runs by more than any useful bound.  The plain timings (``op_per_s``,
``op_s_p50``, ``op_s_tail``) are in the run record.  An operation is one
certification, one filling, one anneal step or one exhaustive search.

With ``--trace 1`` every input is run once untraced and once traced (see
``tracer.py``) and the per-layer metrics are printed, per traced
operation, together with the tracing overhead (traced minus untraced
wall time) and the residual that no span accounts for.  Every output is
checked against ``refs.json``; an operation that raises, exits non-zero
or returns anything else counts as failed, and is never skipped.

The last line of stdout is the result, ``{"correct", "attempted",
"failed", "metrics"}``.  The line before it is the run record: machine,
Python, commit, seed, failed fraction, and each metric's unit and sample
count; the same record is written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFS = BENCH / "refs.json"
FROZEN = BENCH / "frozen"  # holds cubecolor_frozen, the package as of the first benchmark
SETUP_REPEATS = 15
TAIL_BEYOND = 10  # samples that must lie above the reported tail value

sys.path.insert(0, str(BENCH))
from tracer import MODULES, Tracer, op_times, size_counts  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {
    "op_rel_p50": "ratio",
    "op_rel_tail": "ratio",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

_TIMES = (
    "nervecontract.ShiftedPartition.max_multiplicity.s",
    "nervecontract.ShiftedPartition.verify.self_s",
    "nervecontract.build_shifted_partition.self_s",
    "nervecontract.mono_parts.s",
    "nervecontract.nerve.s",
    "nervecontract.face_chain.s",
    "nervecontract.contraction.self_s",
    "nervecontract.assemble_and_audit.self_s",
    "nervecontract.skeleton_volume.self_s",
    "nervecontract.AuditReport.to_json.s",
    "chains.RectChain.make.s",
    "chains.boundary.s",
    "chains.fill.s",
    "chains.union_normalize.s",
    "gridcolor.components.s",
    "gridcolor.parse_coloring.s",
    "search.anneal.self_s",
    "search.exhaustive_min.self_s",
    "cli.main.self_s",
    *(f"{m}.self_s" for m in MODULES),
    "trace.op_wall_s",
    "trace.residual_s",
    "trace.overhead_s",
)
_COUNTS = (
    "partition.cells",
    "parts",
    *(f"nerve.simplices.k{k}" for k in range(4)),
    "chains.RectChain.make.calls",
    "chains.fill.calls",
    "chains.BoxCell.intersect.calls",
    "gridcolor.components.calls",
    "chains.max_denominator",
    "trace.spans",
)
PER_LAYER = {**{m: "s" for m in _TIMES}, **{m: "count" for m in _COUNTS}}


def load_lib(package: str = "cubecolor", where: Path = SRC) -> SimpleNamespace:
    """Import the package afresh, so every set-up pays for the import."""
    for name in [m for m in sys.modules if m == package or m.startswith(package + ".")]:
        del sys.modules[name]
    if str(where) not in sys.path:
        sys.path.insert(0, str(where))
    pkg = importlib.import_module(package)
    mods = {m: importlib.import_module(f"{package}.{m}") for m in MODULES}
    return SimpleNamespace(package=pkg, **mods)


def set_up(name: str, workdir: Path):
    """Import the package afresh and run one small warm-up operation.
    Returns (seconds, workload)."""
    t0 = perf_counter()
    wl = WORKLOADS[name](load_lib(), workdir)
    wl.warm_up()
    return perf_counter() - t0, wl


def frozen_and_refs(name: str, workdir: Path):
    """The workload on the frozen package, warmed up, and the stored
    references of the workload; neither is part of the timed set-up."""
    frozen = WORKLOADS[name](load_lib("cubecolor_frozen", FROZEN), workdir)
    frozen.warm_up()
    return frozen, json.loads(REFS.read_text(encoding="utf-8"))[name]


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_op(wl, key, inp):
    """Run one operation; returns (seconds, output, error)."""
    t0 = perf_counter()
    try:
        out = wl.op(inp)
    except Exception as exc:  # a failed operation is counted, not raised
        return perf_counter() - t0, None, f"{key}: {type(exc).__name__}: {exc}"
    return perf_counter() - t0, out, ""


def check(wl, key, out, refs) -> str:
    """Compare one output with its reference; returns an error or ""."""
    try:
        if key in refs and wl.matches(key, out, refs[key]):
            return ""
    except Exception as exc:
        return f"{key}: check raised {type(exc).__name__}: {exc}"
    return f"{key}: output differs from the reference"


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples above it,
    as (value, percentile).  With fewer than 2 * TAIL_BEYOND samples that
    percentile would lie below the median, so the maximum is reported."""
    xs = sorted(samples)
    if len(xs) < 2 * TAIL_BEYOND:
        return xs[-1], 100.0
    rank = len(xs) - TAIL_BEYOND  # 1-based rank of the reported sample
    return xs[rank - 1], 100.0 * rank / len(xs)


def measure(wl, frozen, refs, rounds, seconds: float, tracer: Tracer | None) -> dict:
    """Closed loop over whole rounds until `seconds` have passed.  Without
    a tracer each operation is paired with the same operation of the
    frozen package, run just before or just after it in turn."""
    calls = []  # (seconds per unit, units, seconds, frozen seconds) per successful call
    round_means = []
    round_ratios = []
    traced = []  # (op index, key, traced seconds, untraced seconds)
    sizes: Counter = Counter()
    max_den = 0
    attempted = failed = 0
    errors: list[str] = []

    def record(key, out, err) -> bool:
        nonlocal attempted, failed
        attempted += 1
        err = err or check(wl, key, out, refs)
        if err:
            failed += 1
            if len(errors) < 5:
                errors.append(err)
        return not err

    start = perf_counter()
    for keys in rounds:
        r_seconds = r_units = r_frozen = 0
        for key in keys:
            inp = wl.prepare(key)
            units = wl.units(key)
            fdt = 0.0
            if tracer is not None:
                dt, out, err = timed_op(wl, key, inp)
            elif len(calls) % 2:  # alternate which half of the pair runs first
                fdt = timed_op(frozen, key, frozen.prepare(key))[0]
                dt, out, err = timed_op(wl, key, inp)
            else:
                dt, out, err = timed_op(wl, key, inp)
                fdt = timed_op(frozen, key, frozen.prepare(key))[0]
            if record(key, out, err):
                calls.append((dt / units, units, dt, fdt))
                r_seconds += dt
                r_units += units
                r_frozen += fdt
            if tracer is not None:
                op = len(traced)
                with tracer.patched(wl.lib, op):
                    tdt, tout, terr = timed_op(wl, key, inp)
                record(key, tout, terr)
                traced.append((op, key, tdt, dt))
                counts = size_counts(tracer.observed.pop(op, []))
                max_den = max(max_den, counts.pop("chains.max_denominator"))
                sizes.update(counts)
        if r_units:
            round_means.append(r_seconds / r_units)
            if r_frozen:
                round_ratios.append(r_seconds / r_frozen)
        if perf_counter() - start >= seconds:
            break
    return {
        "calls": calls,
        "round_means": round_means,
        "round_ratios": round_ratios,
        "traced": traced,
        "sizes": sizes,
        "max_den": max_den,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
    }


def end_to_end(m: dict, setup_times: list[float]) -> tuple[dict, dict]:
    """The end-to-end metrics, and the plain timings for the run record."""
    calls, rounds, ratios = m["calls"], m["round_means"], m["round_ratios"]
    per_unit = [c[0] for c in calls]
    tail_s, tail_pct = tail(per_unit) if per_unit else (0.0, 0.0)
    frozen_tail_s = tail([c[3] / c[1] for c in calls])[0] if calls else 0.0
    units = sum(c[1] for c in calls)
    busy = sum(c[2] for c in calls)
    frozen_busy = sum(c[3] for c in calls)
    metrics = {
        "op_rel_p50": (
            statistics.median(ratios) if ratios else 0.0,
            f"{len(ratios)} rounds (median of per-round seconds / frozen seconds)",
        ),
        "op_rel_tail": (
            tail_s / frozen_tail_s if frozen_tail_s else 0.0,
            f"{len(calls)} calls, p{tail_pct:.1f} of each package",
        ),
        "setup_s": (statistics.median(setup_times), f"{len(setup_times)} set-ups"),
        "peak_rss_mib": (peak_rss_mib(), "1 process"),
    }
    timings = {
        "op_per_s": (units / busy if busy else 0.0, "1/s", f"{units} ops"),
        "op_s_p50": (
            statistics.median(rounds) if rounds else 0.0, "s",
            f"{len(rounds)} rounds (median of per-round mean seconds per op)",
        ),
        "op_s_tail": (tail_s, "s", f"{len(per_unit)} calls, p{tail_pct:.1f}"),
        "frozen_op_s_tail": (frozen_tail_s, "s", f"{len(per_unit)} calls, p{tail_pct:.1f}"),
        "frozen_op_per_s": (units / frozen_busy if frozen_busy else 0.0, "1/s", f"{units} ops"),
    }
    return metrics, {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in timings.items()}


def per_layer(m: dict, tracer: Tracer) -> tuple[dict, list[dict]]:
    """Per traced operation means of the span statistics and size counts,
    and for each traced operation how its wall time is accounted for."""
    per_op = op_times(tracer)
    tot: Counter = Counter()
    rows = []
    for op, key, wall, base in m["traced"]:
        rec = per_op.get(op, {"s": {}, "self_s": {}, "calls": {}})
        for stat in ("s", "self_s", "calls"):
            for name, v in rec[stat].items():
                tot[f"{name}.{stat}"] += v
        for name, v in rec["self_s"].items():
            tot[f"{name.split('.')[0]}.self_s"] += v
        attributed = sum(rec["self_s"].values())
        rows.append({"key": key, "traced_s": wall, "untraced_s": base,
                     "self_s_total": attributed, "residual_s": wall - attributed})
        tot["trace.op_wall_s"] += wall
        tot["trace.residual_s"] += wall - attributed
        tot["trace.overhead_s"] += wall - base
        tot["trace.spans"] += sum(rec["calls"].values())
        for name, c in tracer.counts.get(op, {}).items():
            tot[f"{name}.calls"] += c
    tot.update(m["sizes"])
    n = len(m["traced"])
    out = {name: (tot[name] / n, f"mean of {n} traced ops") for name in PER_LAYER}
    out["chains.max_denominator"] = (m["max_den"], f"max over {n} traced ops")
    return out, rows


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Set up, measure and summarise one run; returns (result, record)."""
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            dt, wl = set_up(name, workdir)
            setup_times.append(dt)
        live_rss = peak_rss_mib()
        frozen, refs = frozen_and_refs(name, workdir)
        tracer = Tracer() if trace else None
        m = measure(wl, frozen, refs, wl.rounds(seed), seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ops, timings = [], {}
    if trace:
        metrics, ops = per_layer(m, tracer)
        tracer.write(OUT / f"{name}-seed{seed}.spans.json")
    else:
        metrics, timings = end_to_end(m, setup_times)
    units = PER_LAYER if trace else END_TO_END
    result = {
        "correct": m["failed"] == 0,
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, (v, _) in metrics.items()},
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "failed_frac": m["failed"] / m["attempted"],
        "errors": m["errors"],
        "peak_rss_mib_before_frozen": live_rss,
        "metrics": {
            k: {"value": v, "unit": units[k], "samples": s} for k, (v, s) in metrics.items()
        },
        "timings": timings,
        "traced_ops": ops,
    }
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8"
    )
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cubecolor" / "__init__.py").is_file() or not REFS.is_file():
        print(f"bench: no cubecolor sources under {SRC}, or no {REFS.name}", file=sys.stderr)
        return 2
    result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
