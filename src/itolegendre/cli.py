"""Command-line surface: coefficient tables, exact errors, bounds, validation.

Every run emits a single JSON or CSV document with an embedded manifest
(command, parameters, seed, schema and tool versions, timestamp). Reruns
with the same manifest, timestamp aside, produce byte-identical numeric
payloads. Floats are rendered with repr, which round-trips exactly and is
identical in both output formats.

Exit codes: 0 success, 2 usage or precondition error, 3 cache integrity
error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import warnings
from datetime import datetime, timezone
from fractions import Fraction
from typing import Optional, Sequence

from . import __version__
from .coeffs import (
    CacheIntegrityError,
    DegreeCapError,
    Interval,
    WeightSpec,
    coefficient_table,
)
from .expansion import IndexPattern
from .msekit import PatternScopeError, exact_mse, list_cases, mse_bound_exact
from .montecarlo import (McConfig, peak_bytes_per_thread, run_report,
                         thread_count)

SCHEMA_VERSION = 1


def _manifest(command: str, parameters: dict, seed: Optional[int]) -> dict:
    return {
        "command": command,
        "parameters": parameters,
        "seed": seed,
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def _render_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, Fraction):
        return str(value)
    return "" if value is None else str(value)


def _emit(doc: dict, rows: list[dict], fieldnames: list[str],
          fmt: str, out: Optional[str]) -> None:
    if fmt == "json":
        text = json.dumps(doc, indent=2, sort_keys=False) + "\n"
    else:
        buf = io.StringIO()
        for key, value in doc["manifest"].items():
            enc = json.dumps(value, sort_keys=True) \
                if isinstance(value, dict) else value
            buf.write(f"# {key}={enc}\n")
        writer = csv.DictWriter(buf, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _render_cell(v) for k, v in row.items()})
        text = buf.getvalue()
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_exponents(text: Optional[str], k: int) -> WeightSpec:
    if text is None:
        return WeightSpec.unit(k)
    exps = tuple(int(part) for part in text.split(","))
    if len(exps) != k:
        raise ValueError(
            f"--q lists {len(exps)} exponents but the multiplicity is {k}")
    return WeightSpec(exps)


def _parse_interval(text: str) -> Interval:
    length = Fraction(text)
    if length <= 0:
        raise ValueError(f"--len must be positive, got {text}")
    return Interval.from_length(length)


def _positions(block: Sequence[int]) -> str:
    return "{" + ",".join(str(pos + 1) for pos in block) + "}"


def cmd_coeffs(args) -> int:
    if args.k < 1:
        raise ValueError(f"--k must be at least 1, got {args.k}")
    w = _parse_exponents(args.q, args.k)
    interval = _parse_interval(args.len)
    results = [
        {"j": list(j), "core": str(cv.core),
         "half_power": cv.half_power, "two_power": cv.two_power,
         "value": cv.value(interval)}
        for j, cv in coefficient_table(w, args.p).items()
    ]
    rows = [{f"j{l + 1}": m for l, m in enumerate(r["j"])}
            | {key: v for key, v in r.items() if key != "j"} for r in results]
    doc = {
        "manifest": _manifest("coeffs", {
            "k": args.k, "q": list(w.exponents), "p": args.p,
            "len": str(interval.length)}, None),
        "results": results,
    }
    _emit(doc, rows, list(rows[0]), args.format, args.out)
    return 0


def cmd_mse(args) -> int:
    pattern = IndexPattern.parse(args.pattern)
    w = _parse_exponents(args.q, pattern.k)
    interval = _parse_interval(args.len)
    report = exact_mse(pattern, args.p, w, interval)
    result = {
        "pattern": ",".join(str(i) for i in pattern.labels),
        "p": args.p,
        "q": ",".join(str(e) for e in w.exponents),
        "len": str(interval.length),
        "case_id": report.case_id,
        "exact_mse": str(report.exact_mse_rational),
        "exact_mse_float": report.exact_mse,
        "bound": report.bound,
        "kernel_norm": report.kernel_norm,
    }
    doc = {
        "manifest": _manifest("mse", {
            "pattern": list(pattern.labels), "p": args.p,
            "q": list(w.exponents), "len": str(interval.length)}, None),
        "result": result,
    }
    _emit(doc, [result], list(result), args.format, args.out)
    return 0


def cmd_bound(args) -> int:
    pattern = IndexPattern.parse(args.pattern)
    w = _parse_exponents(args.q, pattern.k)
    interval = _parse_interval(args.len)
    parts = tuple(int(piece) for piece in args.p.split(","))
    p_levels = parts * pattern.k if len(parts) == 1 else parts
    exact = mse_bound_exact(pattern, p_levels, w, interval)
    result = {
        "pattern": ",".join(str(i) for i in pattern.labels),
        "p_levels": ",".join(str(p) for p in p_levels),
        "q": ",".join(str(e) for e in w.exponents),
        "len": str(interval.length),
        "bound": str(exact),
        "bound_float": float(exact),
    }
    doc = {
        "manifest": _manifest("bound", {
            "pattern": list(pattern.labels), "p_levels": list(p_levels),
            "q": list(w.exponents), "len": str(interval.length)}, None),
        "result": result,
    }
    _emit(doc, [result], list(result), args.format, args.out)
    return 0


def _available_memory() -> Optional[int]:
    """Bytes the host reports available (Linux MemAvailable), else None."""
    try:
        with open("/proc/meminfo") as meminfo:
            return next(int(line.split()[1]) * 1024 for line in meminfo
                        if line.startswith("MemAvailable:"))
    except (OSError, StopIteration):
        return None


def cmd_validate(args) -> int:
    if args.threads is not None and args.threads < 1:
        raise ValueError(f"--threads must be at least 1, got {args.threads}")
    pattern = IndexPattern.parse(args.pattern)
    w = _parse_exponents(args.q, pattern.k)
    interval = _parse_interval(args.len)
    with warnings.catch_warnings():
        # the run report carries these advisories instead
        warnings.simplefilter("ignore", UserWarning)
        cfg = McConfig(pattern=pattern, p=args.p, weights=w, interval=interval,
                       n_paths=args.n_paths, n_steps=args.n_steps,
                       seed=args.seed)
    threads = thread_count(cfg, args.threads)
    need, available = threads * peak_bytes_per_thread(cfg), _available_memory()
    if available is not None and need > available:
        raise ValueError(
            f"--threads {threads} needs about {need / 2 ** 20:.0f} MB of "
            f"arrays, more than the {available / 2 ** 20:.0f} MB available; "
            "lower --threads")
    report = run_report(cfg, threads=threads)
    for line in report["warnings"]:
        print(f"warning: {line}", file=sys.stderr)
    doc = {
        "manifest": _manifest("validate", {
            "pattern": list(pattern.labels), "p": args.p,
            "q": list(w.exponents), "len": str(interval.length),
            "n_paths": args.n_paths, "n_steps": args.n_steps,
            "threads": threads}, args.seed),
        "result": report,
    }
    row = {
        "estimate": report["estimate"],
        "standard_error": report["standard_error"],
        "exact_mse": report["exact_mse"],
        "z_score": report["z_score"],
    }
    _emit(doc, [row], list(row), args.format, args.out)
    return 0


def cmd_cases(args) -> int:
    infos = list_cases(args.k)
    rows = [
        {
            "label": info.label,
            "coincidences": ",".join(_positions(s) for s in info.subsets)
            or "none",
            "group_size": info.group_size,
            "example_pattern": ",".join(str(i) for i in info.example.labels),
        }
        for info in infos
    ]
    doc = {
        "manifest": _manifest("cases", {"k": args.k}, None),
        "results": rows,
    }
    _emit(doc, rows, ["label", "coincidences", "group_size",
                      "example_pattern"], args.format, args.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="itolegendre",
        description="Iterated Ito integral expansions and their exact "
                    "mean-square truncation errors.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--len", default="1",
                       help="interval length T - t, exact decimal or fraction")
        p.add_argument("--q", default=None,
                       help="comma-separated weight exponents (default all 0)")

    p = sub.add_parser("coeffs", help="emit a coefficient table")
    add_common(p)
    p.add_argument("--k", type=int, required=True, help="multiplicity")
    p.add_argument("--p", type=int, required=True, help="truncation order")
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("mse", help="exact mean-square truncation error")
    add_common(p)
    p.add_argument("--pattern", required=True,
                   help="component labels, e.g. 1,1,2 (all must be >= 1)")
    p.add_argument("--p", type=int, required=True)
    p.set_defaults(func=cmd_mse)

    p = sub.add_parser("bound", help="factorial upper bound on the error")
    add_common(p)
    p.add_argument("--pattern", required=True,
                   help="component labels; 0 allowed when length < 1")
    p.add_argument("--p", required=True,
                   help="truncation order, single value or one per level")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("validate", help="coupled Monte Carlo validation")
    add_common(p)
    p.add_argument("--pattern", required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--n-paths", type=int, default=100_000)
    p.add_argument("--n-steps", type=int, default=2048)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=None,
                   help="worker threads (default: the usable CPUs, at most "
                        "one per chunk of paths)")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("cases", help="list the coincidence-case catalog")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_cases)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except CacheIntegrityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DegreeCapError, PatternScopeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
