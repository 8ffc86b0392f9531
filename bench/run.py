"""knvex benchmark: CLI workloads end to end, or per layer with --trace 1.

Run from the root of a checkout (stdlib only; knvex is imported from src/):

    python3 bench/run.py --workload exact-graph --seed 0 --seconds 18 --trace 0

Closed loop, one client: each pass of the workload's op list runs in a fresh
child interpreter (child.py), one at a time, and a new pass starts while the
passes so far took less than --seconds at reference speed (see below).  Before
the passes, SETUP_SAMPLES children only set up, so setup_s is a median even
when one pass fills the time.  With --trace 1, half the time runs untraced
passes and half traced ones (spans.py); their wall-time ratio gives
trace.overhead_frac.

Times are normalized to a reference CPU speed.  The speed of the host this was
written on (2 vCPUs) swings by up to 2x over seconds to minutes, which moved
identical 20 s passes by a quarter between runs.  The child times a fixed
calibration workload every 20 ms while it sets up and while it runs its ops
(child.SpeedSampler), and each time is scaled by the mean speed the samples
around it saw (metrics.normalized).  On that host this cut the spread of
repeated identical ops from 0.26-0.33 to 0.03-0.06 (quartile distance over
median).  Measured times are printed on the '#' lines.  Per-layer times are
measured, not normalized: they are shares of one traced pass.

Every output is checked after its pass (checks.py).  The last stdout line is
one JSON object: correct, attempted, failed and the metrics (end-to-end ones
with --trace 0, per-layer ones with --trace 1).  Lines before it, starting
with '#', give the tail percentile with its sample count, fail_frac and each
failure.  See workloads.py for why each workload exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from statistics import median

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

from checks import check_output  # noqa: E402
from metrics import (  # noqa: E402
    fail_frac, layer_metrics, medians, normalized, normalized_setup, tail)
from workloads import WORKLOADS, make_ops  # noqa: E402

SETUP_SAMPLES = 5
RUN_LIMIT_S = 170  # the whole run must end within 180 s


class BenchError(RuntimeError):
    pass


def _child(root, workdir, args, tag, pass_index, deadline, trace=False, setup_only=False):
    out = os.path.join(workdir, f"{tag}.json")
    cmd = [sys.executable, os.path.join(BENCH_DIR, "child.py"), "--root", root,
           "--workload", args.workload, "--seed", str(args.seed),
           "--pass-index", str(pass_index), "--workdir", os.path.join(workdir, tag),
           "--out", out]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=root, env=env,
                              timeout=max(deadline - t0, 1))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{tag} did not finish within the run limit") from None
    if proc.returncode != 0:
        raise BenchError(f"{tag} exited with code {proc.returncode}")
    with open(out) as fh:
        return json.load(fh)


def _passes(root, workdir, args, budget, deadline, trace):
    """Passes, one child each, started while the passes so far took less than
    budget seconds at reference speed (so the pass count does not follow the
    host's speed drift)."""
    reports = []
    elapsed = 0.0
    while not reports or elapsed < budget:
        tag = f"{'traced' if trace else 'pass'}{len(reports)}"
        reports.append(_child(root, workdir, args, tag, len(reports), deadline, trace=trace))
        elapsed += normalized(reports[-1])[0]
    return reports


def _check(args, reports, failures, cache):
    """Check every op output of the passes, one failure line per failed op.

    Returns the number of ops attempted.  Identical outputs of the same op are
    checked once.
    """
    attempted = 0
    for index, report in enumerate(reports):
        ops = make_ops(args.workload, args.seed, index)
        for op, res in zip(ops, report["ops"], strict=True):
            attempted += 1
            if res["error"] is not None:
                reason = res["error"]
            else:
                key = hashlib.sha256(
                    json.dumps([op.label, op.subject, res["code"], res["out"]]).encode()
                ).hexdigest()
                if key not in cache:
                    cache[key] = check_output(op, res["code"], res["out"])
                reason = cache[key]
            if reason is not None:
                failures.append(f"pass {index}: {op.label}: {reason}")
    return attempted


def run(args) -> dict:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "knvex", "cli.py")):
        raise BenchError("no src/knvex in the current directory; run from a checkout root")
    workdir = os.path.join(root, ".bench_build", f"knvex-{os.getpid()}")
    deadline = time.monotonic() + RUN_LIMIT_S
    os.makedirs(workdir, exist_ok=True)
    try:
        setups = [_child(root, workdir, args, f"setup{k}", 0, deadline, setup_only=True)
                  for k in range(SETUP_SAMPLES)]
        budget = args.seconds / 2 if args.trace else args.seconds
        plain = _passes(root, workdir, args, budget, deadline, trace=False)
        traced = _passes(root, workdir, args, budget, deadline, trace=True) if args.trace else []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures, cache = [], {}
    attempted = _check(args, plain, failures, cache) + _check(args, traced, failures, cache)
    frac = fail_frac(len(failures), attempted)
    norm = [normalized(r) for r in plain]
    walls = [wall for wall, _ in norm]
    latencies = [ms for _, ops in norm for ms in ops]
    tail_ms, tail_pct, beyond = tail(latencies)

    print(f"# knvex bench: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"python={platform.python_version()} nproc={os.cpu_count()}")
    print(f"# passes={len(plain)} traced_passes={len(traced)} ops={len(latencies)} "
          f"measured_wall_s={[round(r['wall_s'], 3) for r in plain]} "
          f"normalized_wall_s={[round(w, 3) for w in walls]}")
    print(f"# normalized_op_ms={[round(ms, 1) for ms in latencies]}")
    print(f"# op_ms_tail is p{tail_pct:.1f} with {beyond} of {len(latencies)} samples beyond it")
    print(f"# fail_frac={frac} ({len(failures)} of {attempted} ops)")
    for reason in failures:
        print(f"# FAILED {reason}")

    if args.trace:
        per_pass = [layer_metrics(r["trace"], r["wall_s"]) for r in traced]
        values = medians(per_pass)
        traced_walls = [normalized(r)[0] for r in traced]
        values["trace.overhead_frac"] = median(traced_walls) / median(walls) - 1
        values["fail_frac"] = frac
    else:
        values = {
            "wall_s": median(walls),
            "op_ms_p50": median(latencies),
            "op_ms_tail": tail_ms,
            "setup_s": median(normalized_setup(r) for r in setups + plain),
            "peak_rss_mb": median(r["peak_rss_mb"] for r in plain),
        }
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    return {"correct": not failures, "attempted": attempted,
            "failed": len(failures), "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
