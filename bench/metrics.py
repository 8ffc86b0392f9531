"""Arithmetic of the benchmark's metrics, kept apart so it can be tested."""

from __future__ import annotations

from statistics import fmean, median

TAIL_BEYOND = 10
# Normalized times are seconds at the speed where child.calibrate takes this
# long: its time in the slow phase of the 2-vCPU host the benchmark was written
# on, where a pass of an exact-* workload took about 25 s and one of certify 7 s.
REF_CAL_S = 0.00019
MIN_CAL_SAMPLES = 5
LAYERS = ("cli", "search", "freeness", "posets", "constructions", "sets", "cycle")
# spans reported with call count and inclusive time
COUNTED = (
    "search.max_family",
    "freeness.push", "freeness.pop", "freeness.is_free", "freeness.neighbor_mask",
    "posets.push", "posets.pop", "posets.contains_copy",
    "sets.level_slice", "sets.upset", "sets.family_of",
    "cycle.double_count", "cycle.upper_bound",
)
# spans reported with inclusive time only
TIMED = ("search.vex_exact", "search.vex_bounds", "constructions.generate", "constructions.verify")


def tail(samples) -> tuple[float, float, int]:
    """Value at the highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile, samples beyond).  With TAIL_BEYOND samples or
    fewer no percentile qualifies; the maximum is returned with 0 beyond.
    """
    xs = sorted(samples)
    if not xs:
        raise ValueError("no samples")
    i = len(xs) - 1 - TAIL_BEYOND if len(xs) > TAIL_BEYOND else len(xs) - 1
    return xs[i], 100.0 * (i + 1) / len(xs), len(xs) - 1 - i


def speed_factor(samples) -> float:
    """Factor taking measured times to reference speed.

    Samples are calibration times taken at a fixed period, so the mean of
    their inverses is the mean speed over the interval they cover.
    """
    return REF_CAL_S * fmean(1 / d for d in samples)


def normalized(report: dict) -> tuple[float, list[float]]:
    """(wall_s, op latencies in ms) of one pass at reference speed.

    Each op is scaled by the samples taken while it ran, widened to the
    nearest MIN_CAL_SAMPLES for short ops; the pass wall by all its samples.
    """
    cal = report["cal"]

    def factor(lo: int, hi: int) -> float:
        while hi - lo < MIN_CAL_SAMPLES and (lo > 0 or hi < len(cal)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(cal))
        return speed_factor(cal[lo:hi]) if hi > lo else 1.0

    ops = [op["ms"] * factor(*op["cal"]) for op in report["ops"]]
    return report["wall_s"] * factor(0, len(cal)), ops


def normalized_setup(report: dict) -> float:
    """setup_s at reference speed, from the samples taken during set-up.

    Interpreter start-up before the sampler starts is scaled by the same factor.
    """
    cal = report["setup_cal"]
    return report["setup_s"] * (speed_factor(cal) if cal else 1.0)


def fail_frac(failed: int, attempted: int) -> float:
    """Failed ops over attempted ops."""
    if attempted < 1:
        raise ValueError("nothing attempted")
    return failed / attempted


def layer_metrics(trace: dict, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass from its aggregated span table."""
    rows = trace["spans"]  # [name, parent, calls, total_s, self_s]

    def calls(name):
        return sum(r[2] for r in rows if r[0] == name and r[1] != name)

    def ms(name):
        return 1000 * sum(r[3] for r in rows if r[0] == name and r[1] != name)

    def self_ms(layer):
        return 1000 * sum(r[4] for r in rows if r[0].split(".")[0] == layer)

    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = self_ms(layer)
    for name in COUNTED:
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.ms"] = ms(name)
    for name in TIMED:
        out[f"{name}.ms"] = ms(name)
    for name in ("freeness.push", "posets.push"):
        pushes = calls(name)
        violations = trace["violations"].get(name, 0)
        out[f"{name}.violation_ratio"] = violations / pushes if pushes else 0.0
    out["trace.attributed_frac"] = sum(r[4] for r in rows) / wall_s
    return out


def medians(dicts: list[dict]) -> dict[str, float]:
    return {key: median(d[key] for d in dicts) for key in dicts[0]}
