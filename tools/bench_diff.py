#!/usr/bin/env python3
"""Compare BENCH_*.json results against committed baselines.

Four gates, one file:

* simulated_ns — virtual time is a pure function of the cost model and the
  workload, independent of host speed, thread count, and load. Any drift
  means the model or the code path changed, so the default tolerance is
  exact; --rel-tol exists only to loosen the gate deliberately.
* wall_ms — host wall-clock, gated only when --wall-tol is given (CI runs
  each bench several times and passes every run via repeated --current /
  --current-dir; the median per point absorbs scheduler noise). The gate is
  one-sided: only a slowdown beyond the tolerance fails, a speedup prints a
  reminder to refresh the baselines.

Points that carry percentile columns — any key matching pNN_*_ns, e.g.
p99_admitted_ns (overload) or p50_op_ns/p99_op_ns (kv_skew) — get a third
gate: latency percentiles in *virtual* time, checked per run
at --p99-tol (default 0.10). Like simulated_ns they are deterministic, but
they sit on percentiles so a deliberate cost-model retune may move them
slightly; hence a tolerance rather than an exact match.

Every other column except wall_ms — rebalances, cycles,
cache_hit_ratio, goodput_ops, shed_ratio, vmexits_per_op, ... — is a
virtual-time value or a counter, identical across runs and thread counts,
and is gated exactly: a changed decision that happens to keep
simulated_ns still fails.

Usage:
  tools/bench_diff.py --baseline bench/baselines/BENCH_fig12.json \
                      --current build/bench/BENCH_fig12.json
  tools/bench_diff.py --baseline-dir bench/baselines \
                      --current-dir run1 --current-dir run2 \
                      --current-dir run3 --wall-tol 0.10

Exit status: 0 when every point matches within tolerance, 1 on drift,
missing points, or unreadable files.
"""

import argparse
import json
import pathlib
import re
import statistics
import sys

# Percentile-in-virtual-time columns: p50_alloc_ns, p99_admitted_ns, ...
PERCENTILE_RE = re.compile(r"^p\d+_\w+_ns$")
# Columns with a gate of their own (or, for name, none).
OWN_GATE = {"name", "simulated_ns", "wall_ms"}


def load_points(path):
    """name -> (simulated_ns, wall_ms, percentile columns, exact columns)."""
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    points = {}
    for p in doc["points"]:
        percentiles = {k: int(v) for k, v in p.items()
                       if PERCENTILE_RE.match(k)}
        exact = {k: v for k, v in p.items()
                 if k not in OWN_GATE and k not in percentiles}
        points[p["name"]] = (int(p["simulated_ns"]),
                             float(p.get("wall_ms", 0.0)), percentiles, exact)
    return points


def diff_simulated(baseline_path, base, current_path, cur, rel_tol):
    ok = True
    for name, (expect, _, _, _) in sorted(base.items()):
        if name not in cur:
            print(f"FAIL {name}: missing from {current_path}")
            ok = False
            continue
        got = cur[name][0]
        drift = abs(got - expect) / expect if expect else (0.0 if got == expect else 1.0)
        if drift > rel_tol:
            print(f"FAIL {name}: simulated_ns {got} vs baseline {expect} "
                  f"({drift * 100:.3f}% > {rel_tol * 100:.3f}%)")
            ok = False
        elif got != expect:
            # Within tolerance but not exact: surface it — virtual time
            # should never drift at all.
            print(f"WARN {name}: simulated_ns {got} vs baseline {expect} "
                  f"({drift * 100:.4f}%)")
        else:
            print(f"ok   {name}: {got} ns")
    for name in sorted(set(cur) - set(base)):
        print(f"WARN {name}: not in baseline {baseline_path} "
              f"(new point? refresh baselines)")
    return ok


def diff_percentiles(baseline_path, base, current_path, cur, p99_tol):
    ok = True
    for name, (_, _, expected_cols, _) in sorted(base.items()):
        for col, expect in sorted(expected_cols.items()):
            if name not in cur or col not in cur[name][2]:
                print(f"FAIL {name}: {col} in baseline but missing "
                      f"from {current_path}")
                ok = False
                continue
            got = cur[name][2][col]
            drift = abs(got - expect) / expect if expect else (0.0 if got == expect else 1.0)
            if drift > p99_tol:
                print(f"FAIL {name}: {col} {got} vs baseline {expect} "
                      f"({drift * 100:.1f}% > {p99_tol * 100:.0f}%)")
                ok = False
            else:
                print(f"ok   {name}: {col} {got} ns ({drift * 100:+.1f}%)")
    return ok


def diff_exact(base, current_path, cur):
    ok = True
    for name, (_, _, _, expected_cols) in sorted(base.items()):
        for col, expect in sorted(expected_cols.items()):
            if name not in cur or col not in cur[name][3]:
                print(f"FAIL {name}: {col} in baseline but missing "
                      f"from {current_path}")
                ok = False
                continue
            got = cur[name][3][col]
            if got != expect:
                print(f"FAIL {name}: {col} {got} vs baseline {expect} "
                      f"(gated exactly)")
                ok = False
            else:
                print(f"ok   {name}: {col} {got}")
    return ok


def diff_wall(base, runs, wall_tol):
    ok = True
    for name, (_, expect, _, _) in sorted(base.items()):
        walls = [run[name][1] for run in runs if name in run]
        if not walls or expect <= 0.0:
            continue
        median = statistics.median(walls)
        drift = (median - expect) / expect
        if drift > wall_tol:
            print(f"FAIL {name}: wall_ms median {median:.3f} vs baseline "
                  f"{expect:.3f} (+{drift * 100:.1f}% > {wall_tol * 100:.0f}%, "
                  f"{len(walls)} runs)")
            ok = False
        elif drift < -wall_tol:
            print(f"WARN {name}: wall_ms median {median:.3f} vs baseline "
                  f"{expect:.3f} ({drift * 100:.1f}% — refresh baselines to "
                  f"lock the speedup in)")
        else:
            print(f"ok   {name}: wall {median:.3f} ms "
                  f"({drift * +100:+.1f}%, {len(walls)} runs)")
    return ok


def diff_one(baseline_path, current_paths, rel_tol, wall_tol, p99_tol):
    try:
        base = load_points(baseline_path)
    except (OSError, ValueError, KeyError) as e:
        print(f"FAIL {baseline_path}: unreadable baseline ({e})")
        return False
    runs = []
    ok = True
    for current_path in current_paths:
        try:
            cur = load_points(current_path)
        except (OSError, ValueError, KeyError) as e:
            print(f"FAIL {current_path}: unreadable result ({e})")
            ok = False
            continue
        runs.append(cur)
        # Every run must hold the simulated line, not just the first: a run
        # that drifts only sometimes is a determinism bug.
        ok &= diff_simulated(baseline_path, base, current_path, cur, rel_tol)
        # Tail latency is virtual time too, so every run must hold it.
        ok &= diff_percentiles(baseline_path, base, current_path, cur,
                               p99_tol)
        # So are counters and ratios of virtual-time results.
        ok &= diff_exact(base, current_path, cur)
    if not runs:
        return False
    if wall_tol is not None:
        ok &= diff_wall(base, runs, wall_tol)
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", help="single baseline JSON")
    ap.add_argument("--current", action="append", default=[],
                    help="result JSON (repeat for median-of-N wall gating)")
    ap.add_argument("--baseline-dir", help="directory of BENCH_*.json baselines")
    ap.add_argument("--current-dir", action="append", default=[],
                    help="directory holding fresh BENCH_*.json "
                         "(repeat for median-of-N wall gating)")
    ap.add_argument("--rel-tol", type=float, default=0.005,
                    help="max relative simulated_ns drift per point "
                         "(default 0.005)")
    ap.add_argument("--wall-tol", type=float, default=None,
                    help="max relative wall_ms slowdown of the per-point "
                         "median across runs; wall gating is off unless set "
                         "(e.g. 0.10)")
    ap.add_argument("--p99-tol", type=float, default=0.10,
                    help="max relative drift per percentile column "
                         "(pNN_*_ns) for baselines that carry one "
                         "(default 0.10)")
    args = ap.parse_args()

    pairs = []
    if args.baseline and args.current:
        pairs.append((args.baseline, args.current))
    elif args.baseline_dir and args.current_dir:
        baselines = sorted(pathlib.Path(args.baseline_dir).glob("BENCH_*.json"))
        if not baselines:
            print(f"FAIL no BENCH_*.json baselines in {args.baseline_dir}")
            return 1
        for b in baselines:
            pairs.append((str(b), [str(pathlib.Path(d) / b.name)
                                   for d in args.current_dir]))
    else:
        ap.error("need --baseline/--current or --baseline-dir/--current-dir")

    ok = True
    for baseline_path, current_paths in pairs:
        ok &= diff_one(baseline_path, current_paths, args.rel_tol,
                       args.wall_tol, args.p99_tol)
    print("bench-diff:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
