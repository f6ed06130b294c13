"""glattice benchmark: four seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]
    python3 perfbench/run.py --check-determinism --workload NAME [--seed N]

A run imports ``glattice`` from ``src/`` of the checkout it sits in and times
calls into its public functions; it edits no program file.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1``).  ``--all`` runs every workload in its own process and
prints a table; ``--check-determinism`` runs two traced runs and reports every
count that differs.  See README.md in this directory for the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from speed import Probe  # noqa: E402
from tracer import CHECK, Tracer  # noqa: E402
from workloads import OUT, WORKLOADS, StaleInputs, cycle, fresh_glattice  # noqa: E402

SETUP_REPEATS = 3
HASH_SEED = "0"
ENV = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_s", "s"), ("op_p90_s", "s"),
              ("explicit_share", "ratio"), ("ok_share", "ratio"), ("peak_rss_mb", "MB"))


def tail_percentile(n: int, candidates=(99.9, 99, 95, 90, 75, 50)):
    """The highest candidate percentile with at least ten of n samples beyond
    its nearest rank."""
    for q in candidates:
        if n - max(1, math.ceil(Fraction(str(q)) * n / 100)) >= 10:
            return q
    return None


def percentile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-th percentile.

    A weighted mean of all order statistics, with Beta(p(n+1), (1-p)(n+1))
    weights.  Where the sorted latencies have a gap near the percentile's
    rank, the nearest-rank value jumps across it when one op gets slower or
    faster; this estimate moves by that op's share of the weight instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    p = q / 100
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [_betainc(a, b, i / n) for i in range(n + 1)]
    return sum((hi - lo) * x for lo, hi, x in zip(cdf, cdf[1:], ordered))


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b), by its continued fraction."""
    if x <= 0 or x >= 1:
        return 0.0 if x <= 0 else 1.0
    if x > (a + 1) / (a + b + 2):
        return 1.0 - _betainc(b, a, 1.0 - x)
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x)) / a
    # modified Lentz evaluation of the continued fraction
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 500):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= c * d
        if abs(c * d - 1.0) < 1e-15:
            break
    return front * h


def setup(workload, seed: int, index: int, tracer=None):
    """Fresh import, load and re-validate the inputs, draw one cycle's order."""
    g = fresh_glattice()
    if tracer is not None:
        tracer.install(g)
        tracer.op = "setup"
    ops = cycle(workload.load(g), workload.name, seed, index)
    return g, ops


def timed_setup(probe, workload, seed: int, index: int, tracer=None):
    """``(g, ops, ref_s)``; a set-up that fails ends the run."""
    result, error, _wall, ref = probe.run(setup, workload, seed, index, tracer)
    if error is not None:
        raise error
    return (*result, ref)


def run_cycle(probe, workload, g, ops, tracer=None) -> dict:
    """Every op once, each timed by ``probe``; its answer is checked untimed."""
    out = {"latencies": [], "ops": 0, "failed": 0, "explicit": 0, "wall_s": 0.0, "ref_s": 0.0}
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        result, error, wall, ref = probe.run(workload.call, g, op)
        if error is not None:
            print(f"op {i} raised {type(error).__name__}: {error}", file=sys.stderr)
            covered = getattr(workload, "rows_per_command", 1)
            bad, good = covered, 0
        else:
            if tracer is not None:
                tracer.op = CHECK
            covered, bad, good = workload.check(g, op, result)
        # an op covering several rows contributes its mean row time
        out["latencies"].append(ref / covered)
        out["ops"] += covered
        out["failed"] += bad
        out["explicit"] += good
        out["wall_s"] += wall
        out["ref_s"] += ref
    return out


def measure(name: str, seed: int, seconds: float) -> dict:
    """Untraced run: cycles over the whole pool until ``seconds`` of op wall time."""
    workload = WORKLOADS[name]
    probe = Probe()
    setups, cycles = [], []
    while True:
        for _ in range(SETUP_REPEATS if not cycles else 1):
            g, ops, ref = timed_setup(probe, workload, seed, len(cycles))
            setups.append(ref)
        cycles.append(run_cycle(probe, workload, g, ops))
        walls = [c["wall_s"] for c in cycles]
        # stop at the cycle boundary nearest to the requested measuring time
        if sum(walls) + statistics.mean(walls) / 2 >= seconds:
            break
    latencies = [x for c in cycles for x in c["latencies"]]
    n_ops, failed, explicit = (sum(c[k] for c in cycles) for k in ("ops", "failed", "explicit"))
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": n_ops / sum(c["ref_s"] for c in cycles),
        "op_p50_s": percentile(latencies, 50),
        "op_p90_s": percentile(latencies, 90),
        "explicit_share": explicit / n_ops,
        "ok_share": (n_ops - failed) / n_ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info = {"cycles": len(cycles), "samples": len(latencies),
            "tail": tail_percentile(len(latencies)), "setup_samples": len(setups),
            "cycle_wall_s": walls, "cycle_ref_s": [c["ref_s"] for c in cycles],
            "kernel_ms_median": 1e3 * statistics.median(probe.samples)}
    return {"attempted": n_ops, "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END}, "info": info}


def measure_traced(name: str, seed: int) -> dict:
    """One untraced and one traced cycle over the same order, each with cold caches."""
    workload = WORKLOADS[name]
    probe = Probe()
    g, ops, _ref = timed_setup(probe, workload, seed, 0)
    plain = run_cycle(probe, workload, g, ops)
    tracer = Tracer()
    try:
        g, ops, _ref = timed_setup(probe, workload, seed, 0, tracer)
        traced = run_cycle(probe, workload, g, ops, tracer)
        per_layer = tracer.summary(g)
    finally:
        tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace_{name}_{seed}.jsonl.gz")
    per_layer.update({
        "run.ops": traced["ops"],
        "run.explicit_share": traced["explicit"] / traced["ops"],
        "trace.spans": len(tracer.spans),
        "trace.overhead_pct": 100 * (traced["ref_s"] - plain["ref_s"]) / plain["ref_s"],
    })
    metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in per_layer.items()}
    info = {"untraced_ref_s": plain["ref_s"], "traced_ref_s": traced["ref_s"],
            "untraced_wall_s": plain["wall_s"], "traced_wall_s": traced["wall_s"]}
    return {"attempted": traced["ops"], "failed": traced["failed"], "metrics": metrics,
            "info": info}


def per_layer_unit(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if key.endswith("_pct"):
        return "%"
    if key.endswith("_share"):
        return "ratio"
    return "count"


def counts_only(metrics: dict) -> dict:
    """The per-layer values that must repeat exactly between traced runs."""
    return {k: m["value"] for k, m in metrics.items()
            if m["unit"] in ("count", "ratio")}


def child_result(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload in a fresh process and return its result line."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, env=ENV)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{name} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_all(seed: int, seconds: float) -> int:
    print(f"{'workload':16s} {'metric':16s} {'value':>14s} unit")
    ok = True
    for name in WORKLOADS:
        res = child_result(name, seed, seconds, 0)
        ok &= res["correct"]
        for key, m in res["metrics"].items():
            print(f"{name:16s} {key:16s} {m['value']:14.6g} {m['unit']}")
        print(f"{name:16s} {'failed_share':16s} {res['failed'] / res['attempted']:14.6g} ratio"
              f"  ({res['failed']} of {res['attempted']} ops)")
    return 0 if ok else 1


def check_determinism(name: str, seed: int) -> int:
    first, second = (counts_only(child_result(name, seed, 0, 1)["metrics"]) for _ in range(2))
    differ = {k: (first.get(k), second.get(k)) for k in first.keys() | second.keys()
              if first.get(k) != second.get(k)}
    for key, (a, b) in sorted(differ.items()):
        print(f"DIFFERS {key}: {a} != {b}")
    print(f"{name}: {len(first)} counts compared, {len(differ)} differ")
    return 1 if differ else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="glattice benchmark")
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="every workload, one table")
    ap.add_argument("--check-determinism", action="store_true",
                    help="two traced runs of --workload must give identical counts")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "glattice" / "__init__.py").is_file():
        print(f"error: no glattice sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # string hashing orders sets and dicts inside the program; fix it
        os.execve(sys.executable, [sys.executable, *sys.argv], ENV)
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        ap.error("--workload is required")
    if args.check_determinism:
        return check_determinism(args.workload, args.seed)
    try:
        if args.trace:
            res = measure_traced(args.workload, args.seed)
        else:
            res = measure(args.workload, args.seed, args.seconds)
    except StaleInputs as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"workload": args.workload, "seed": args.seed, **res["info"]}))
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": res["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
