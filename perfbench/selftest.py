#!/usr/bin/env python3
"""Self-test of the two-clock benchmark.

    python3 perfbench/selftest.py [--seed N]

Builds the driver (as run.py does) and checks, workload by workload:

1. Thread invariance: the simulated digest, the span digest and every
   simulated end-to-end metric are identical at VPIM_THREADS=1 and at
   VPIM_THREADS=nproc.
2. Cost sensitivity: VPIM_COST_PERTURB=1.01 (every cost of the model 1%
   slower) moves every simulated end-to-end metric.
3. Host sensitivity (prim_fig8): a per-call delay planted in the
   benchmark's own RankDevice decorator (PERFBENCH_PLANT_DELAY) pushes
   wall_s and the vpim.host_s.* metric of the delayed call class past the
   wall_s bound in BENCHMARK.json, while the simulated digest and every
   simulated metric stay identical.

Exits non-zero when any check fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (build helper)

WORKLOADS = ("prim_fig8", "kv_zipf", "tenant_churn")
SIM_METRICS = ("sim_s", "overhead_x", "p50_lat_us", "p99_lat_us",
               "p99_lat_us.hi", "max_rate_kops")
PLANT = ("symbol", 10000)  # call class, microseconds per vPIM-arm call


def drive(binary, workload, seed, trace, reps, **env_extra):
    env = dict(os.environ)
    env.pop("VPIM_COST_PERTURB", None)
    env.pop("PERFBENCH_PLANT_DELAY", None)
    env.setdefault("VPIM_THREADS", "1")
    env.update(env_extra)
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", "0",
         "--trace", str(trace), "--min-reps", str(reps)],
        env=env, stdout=subprocess.PIPE, text=True, check=False).stdout
    lines = out.strip().split("\n")
    try:
        res = json.loads(lines[-1])
    except ValueError:
        sys.exit("%s printed no result:\n%s" % (workload, out))
    digests = {l.split()[0]: l.split()[1] for l in lines
               if l.startswith(("sim_digest ", "span_digest "))}
    metrics = {k: v["value"] for k, v in res["metrics"].items()}
    return res["correct"], digests, metrics


class Checker:
    def __init__(self):
        self.failures = 0

    def check(self, ok, what):
        print("%s  %s" % ("PASS" if ok else "FAIL", what), flush=True)
        if not ok:
            self.failures += 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    binary = run.build()
    if binary is None:
        return 2
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wall_bound = next(m["bound"] for m in spec["end_to_end"]
                      if m["name"] == "wall_s")
    nproc = str(os.cpu_count() or 1)
    c = Checker()

    for wl in WORKLOADS:
        # 1. thread invariance, untraced and traced
        for trace in (0, 1):
            runs = [drive(binary, wl, args.seed, trace, 1, VPIM_THREADS=t)
                    for t in ("1", nproc)]
            c.check(all(r[0] for r in runs), "%s trace=%d correct" % (wl, trace))
            c.check(runs[0][1] == runs[1][1],
                    "%s trace=%d digests equal at VPIM_THREADS 1 and %s: %s"
                    % (wl, trace, nproc, runs[0][1]))
            if trace == 0:
                same = all(runs[0][2][m] == runs[1][2][m] for m in SIM_METRICS)
                c.check(same, "%s simulated metrics equal at VPIM_THREADS 1 "
                        "and %s" % (wl, nproc))
                base = runs[0][2]
        # 2. cost perturbation moves every simulated metric
        ok, _, pert = drive(binary, wl, args.seed, 0, 1,
                            VPIM_COST_PERTURB="1.01")
        for m in SIM_METRICS:
            c.check(ok and pert[m] != base[m],
                    "%s VPIM_COST_PERTURB=1.01 moves %s: %.6g -> %.6g"
                    % (wl, m, base[m], pert[m]))

    # 3. planted host delay on the vPIM arm of prim_fig8
    delay = "%s:%d" % PLANT
    layer = "vpim.host_s." + PLANT[0]
    _, d0, plain = drive(binary, "prim_fig8", args.seed, 0, 3)
    _, d1, slow = drive(binary, "prim_fig8", args.seed, 0, 3,
                        PERFBENCH_PLANT_DELAY=delay)
    c.check(slow["wall_s"] > plain["wall_s"] * (1 + wall_bound),
            "planted %s moves wall_s past its %.2f bound: %.3f -> %.3f s"
            % (delay, wall_bound, plain["wall_s"], slow["wall_s"]))
    c.check(d0 == d1 and all(plain[m] == slow[m] for m in SIM_METRICS),
            "planted %s leaves simulated digest and metrics unchanged" % delay)
    _, _, lplain = drive(binary, "prim_fig8", args.seed, 1, 1)
    _, _, lslow = drive(binary, "prim_fig8", args.seed, 1, 1,
                        PERFBENCH_PLANT_DELAY=delay)
    c.check(lslow[layer] > lplain[layer] * (1 + wall_bound),
            "planted %s moves %s past %.2f: %.3f -> %.3f s"
            % (delay, layer, wall_bound, lplain[layer], lslow[layer]))
    c.check(all(lslow[k] == lplain[k] for k in lplain
                if k.startswith(("sim_self_ms.", "spans."))),
            "planted %s leaves simulated per-layer time unchanged" % delay)

    print("%d check(s) failed" % c.failures if c.failures else "all checks passed")
    return 1 if c.failures else 0


if __name__ == "__main__":
    sys.exit(main())
