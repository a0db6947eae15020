"""Benchmark of the itolegendre package: four closed-loop workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload exact --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end figures; with ``--trace 1`` they are the
per-layer figures of a traced run, whose spans are written to
``.perfbench/trace_<workload>_<seed>.json``. See perfbench/README.md.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 3
SIDE_TIMEOUT_S = 120

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "mse_per_s": "exact_errors/s",
    "bound_per_s": "bounds/s",
    "build_entries_per_s": "entries/s",
    "load_entries_per_s": "entries/s",
    "cli_entries_per_s": "entries/s",
    "path_steps_per_s": "path_steps/s",
    "realize_per_s": "realizations/s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("exact", "tables", "mc", "sample"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: run the other workloads' side passes (see run_plain)
    parser.add_argument("--side", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_program():
    """Import the package from this checkout's src/, and nothing else."""
    init = SRC / "itolegendre" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: no package source at {init}")
    sys.path.insert(0, str(SRC))
    import itolegendre

    if Path(itolegendre.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: itolegendre imported from {itolegendre.__file__}")
    # an inherited cache directory would turn cold builds into cache hits
    os.environ.pop("COEFF_CACHE_DIR", None)


def log(line: str):
    print(line, file=sys.stderr, flush=True)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def speed(cal) -> float:
    """Median of three kernel timings: host speed relative to reference."""
    return statistics.median(cal.measure() for _ in range(3))


def run_plain(name, seed, seconds, work, import_s):
    from calibrate import Calibrator
    from common import Runner, Tracer, run_rounds
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    # set-up times, each scaled to reference speed like the throughputs
    cal = Calibrator()
    before = first = speed(cal)
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl = cls(seed, work / name)
        wl.setup()
        dt = time.perf_counter() - t0
        after = speed(cal)
        setups.append(dt * (before + after) / 2)
        before = after
    setup_s = import_s * first + statistics.median(setups)
    log(f"import {import_s:.3f} s, scaled set-ups " + ", ".join(f"{s:.3f}" for s in setups))

    runner = Runner(Tracer(False), cal if cls.scaled else None)
    t0 = time.perf_counter()
    rounds = run_rounds(runner, lambda r: wl.round(runner, r), seconds)
    rss = peak_rss_mb()
    log(f"{name}: {rounds} rounds in {time.perf_counter() - t0:.2f} s")

    # metrics of the other workloads, from their side passes in a fresh
    # process, so that they do not depend on what this loop left behind
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--side"],
        capture_output=True, text=True, timeout=SIDE_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"side passes exited with {proc.returncode}")
    side = json.loads(proc.stdout.strip().splitlines()[-1])

    t0 = time.perf_counter()
    problems = wl.check(runner) + side["problems"]
    log(f"checks: {time.perf_counter() - t0:.2f} s")
    values = {"setup_s": setup_s, "peak_rss_mb": rss}
    values.update(side["values"])
    for metric in cls.metrics:
        values[metric] = runner.rate(metric)
    log(f"unscaled {name}: " + json.dumps({m: runner.rate(m, raw=True) for m in cls.metrics}))
    out = result([runner], problems, values)
    out["attempted"] += side["attempted"]
    out["failed"] += side["failed"]
    out["correct"] = out["correct"] and side["correct"]
    return out


def run_sides(name, seed, work):
    """Fixed side passes of every workload but ``name``; Monte Carlo last,
    since its large arrays change the allocator's state for what follows."""
    from calibrate import Calibrator
    from common import Runner, Tracer
    from workloads import WORKLOADS

    cal = Calibrator()
    sides = []
    for other in sorted(set(WORKLOADS) - {name}, key=lambda n: n == "mc"):
        side_cls = WORKLOADS[other]
        t0 = time.perf_counter()
        side_wl = side_cls(seed, work / f"side_{other}", side=True)
        side_wl.setup()
        t1 = time.perf_counter()
        runner = Runner(Tracer(False), cal if side_cls.scaled else None)
        side_wl.side_round(runner)
        runner.end_stretch()
        sides.append((side_wl, runner))
        log(f"side {other}: set-up {t1 - t0:.2f} s, pass {time.perf_counter() - t1:.2f} s")
    problems = []
    values, raw = {}, {}
    for side_wl, runner in sides:
        problems += side_wl.check(runner)
        for metric in side_wl.metrics:
            values[metric] = runner.rate(metric)
            raw[metric] = runner.rate(metric, raw=True)
    log("unscaled side: " + json.dumps(raw))
    out = result([r for _, r in sides], [], {}, {})
    out.update(values=values, problems=problems,
               correct=out["correct"] and not problems)
    return out


def run_traced(name, seed, seconds, work):
    from calibrate import Calibrator
    from common import Runner, Tracer, run_rounds
    from layers import UNITS, probe
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    wl = cls(seed, work / name)
    wl.setup()
    cal = Calibrator() if cls.scaled else None
    plain = Runner(Tracer(False), cal)
    run_rounds(plain, lambda r: wl.round(plain, f"u{r}"), seconds / 2)
    tracer = Tracer(True)
    wl.tracer = tracer
    traced = Runner(tracer, cal)
    run_rounds(traced, lambda r: wl.round(traced, f"t{r}"), seconds / 2)
    wl.tracer = Tracer(False)

    layer_tracer = Tracer(True)
    layer_runner = Runner(Tracer(False))
    values = probe(layer_tracer, layer_runner, seed, work / "layers")
    problems = wl.check(traced)
    slowdowns = [plain.rate(m) / traced.rate(m) - 1.0 for m in wl.metrics
                 if traced.rate(m) > 0]
    values["trace.overhead_pct"] = 100.0 * statistics.median(slowdowns) \
        if slowdowns else 0.0

    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"trace_{name}_{seed}.json", "w", encoding="utf-8") as fh:
        json.dump({
            "workload": name, "seed": seed,
            "untraced": {m: plain.rate(m) for m in wl.metrics},
            "traced": {m: traced.rate(m) for m in wl.metrics},
            "workload_totals": tracer.totals(),
            "layer_totals": layer_tracer.totals(),
            "span_fields": ["name", "start_s", "end_s", "parent", "attrs"],
            "workload_spans": tracer.spans,
            "layer_spans": layer_tracer.spans,
        }, fh)
    return result([plain, traced, layer_runner], problems, values, UNITS)


def result(runners, problems, values, units=END_TO_END):
    attempted = sum(r.attempted for r in runners)
    failed = sum(r.failed for r in runners)
    for r in runners:
        for line in r.errors[:20]:
            print(f"failed: {line}", file=sys.stderr)
    for line in problems:
        print(f"check: {line}", file=sys.stderr)
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": values[m], "unit": u} for m, u in units.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import layers  # noqa: F401  (imports every module the runs use)

    import_s = time.perf_counter() - _T0
    work = OUT_DIR / f"work_{os.getpid()}"
    try:
        if args.side:
            out = run_sides(args.workload, args.seed, work)
        elif args.trace:
            out = run_traced(args.workload, args.seed, args.seconds, work)
        else:
            out = run_plain(args.workload, args.seed, args.seconds, work, import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
