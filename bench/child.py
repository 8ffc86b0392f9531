"""One benchmark pass in a fresh interpreter, so process caches start cold.

Run by run.py, never by hand:

    python3 bench/child.py --root R --workload W --seed S --pass-index I
        --workdir D --t0 T --out FILE [--trace] [--setup-only]

Set-up is importing knvex.cli from R/src and writing the pass's input files;
setup_s counts from T, the parent's time.monotonic() just before it started
this process.  Each op then runs through knvex.cli.main(argv) in-process with
its standard output captured, after an untimed full garbage collection; the
pass's wall_s is the sum of its op latencies.  The report (latencies, outputs, peak RSS and,
with --trace, the span table) is written as JSON to FILE; outputs are checked
by the parent, outside the timed region.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import resource
import signal
import sys
import time

CAL_PERIOD_S = 0.02


def _random_graph(size: int, density: float, seed: int) -> tuple[int, ...]:
    rng = random.Random(seed)
    adj = [0] * size
    for u in range(size):
        for v in range(u + 1, size):
            if rng.random() < density:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return tuple(adj)


_CAL_GRAPH = _random_graph(18, 0.35, seed=5)


def _independent_sets(cands: int) -> int:
    count = 1
    while cands:
        low = cands & -cands
        cands ^= low
        count += _independent_sets(cands & ~_CAL_GRAPH[low.bit_length() - 1])
    return count


def calibrate() -> int:
    """Fixed work of the kind knvex's embedders do (bitset backtracking):
    count the 493 independent sets of a fixed 18-vertex graph, 0.1-0.2 ms.

    It tracked the host's speed better than plain integer arithmetic did.
    """
    return _independent_sets((1 << len(_CAL_GRAPH)) - 1)


class SpeedSampler:
    """Times `calibrate` every CAL_PERIOD_S from a SIGALRM handler.

    The handler runs in the main thread between bytecodes, so each sample
    measures the speed of the core the ops run on, at that moment.
    """

    def __init__(self):
        self.samples: list[float] = []

    def _sample(self, signum, frame):
        t = time.perf_counter()
        calibrate()
        self.samples.append(time.perf_counter() - t)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD_S, CAL_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass-index", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    with SpeedSampler() as setup_speed:
        sys.path.insert(0, os.path.join(args.root, "src"))
        import knvex.cli  # looked up per call below, so a traced main is used

        from workloads import make_ops

        os.makedirs(args.workdir, exist_ok=True)
        runs = []
        for i, op in enumerate(make_ops(args.workload, args.seed, args.pass_index)):
            paths = {}
            for fname, text in op.files.items():
                paths[fname] = os.path.join(args.workdir, f"op{i}-{fname}")
                with open(paths[fname], "w") as fh:
                    fh.write(text)
            runs.append([paths.get(tok, tok) for tok in op.argv])
        setup_s = time.monotonic() - args.t0
    report = {"setup_s": setup_s, "setup_cal": setup_speed.samples}

    if not args.setup_only:
        tracer = None
        if args.trace:
            import spans

            tracer = spans.Tracer()
            spans.install(tracer)
        ops = []
        with SpeedSampler() as sampler:
            for argv in runs:
                gc.collect()  # each op starts clean, as a separate CLI call would
                buf = io.StringIO()
                code, error = None, None
                first = len(sampler.samples)
                t = time.perf_counter()
                try:
                    with contextlib.redirect_stdout(buf):
                        code = knvex.cli.main(argv)
                except SystemExit as exc:  # argparse usage errors
                    code = exc.code
                except Exception as exc:  # counted as a failed op by the parent
                    error = f"{type(exc).__name__}: {exc}"
                ops.append({"ms": (time.perf_counter() - t) * 1000, "code": code,
                            "error": error, "out": buf.getvalue(),
                            "cal": [first, len(sampler.samples)]})
        report.update(
            wall_s=sum(op["ms"] for op in ops) / 1000,
            cal=sampler.samples,
            ops=ops,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
        if tracer is not None:
            report["trace"] = tracer.to_json()

    with open(args.out, "w") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main()
