"""Workload definitions for the knvex benchmark: ops, frozen answers, rationale.

Each workload is a list of CLI ops, run in order as one *pass* by a fresh
child interpreter (see child.py).  Every op carries the expected output frozen
at the commit that introduced the benchmark and cross-checked against closed
size formulas (checks.py) where one applies.

The seed relabels the pattern vertices and poset elements of the ops marked
`relabel` and picks the cyclecheck families; each pass of a run gets its own.
Seed 0 keeps the canonical labels.  Values never depend on labels, so the
expected values hold for every seed.  The op order is fixed: peak RSS depends
on which op runs after which.

Why some ops keep canonical labels.  The incremental checker forces pattern
vertices in label order and stops at the first copy, so the search time
depends on the labelling, not only on the graph.  Measured on 2 vCPUs
(nproc=2) with Python 3.11.7:

  vex --n 5 --pattern K2,3            2.3 to 11.7 s over six labellings
                                      (2.7 s canonical)
  vex --n 5 --pattern C5              14.9 to 18.1 s (16.6 s canonical)
  vex --n 13 --pattern C5 --bounds    1.4 to 119 s (1.4 s canonical)
  table --pattern K2,3 --n 6..11      minutes (1.4 s canonical)
  la --n 5 --poset V                  21 and 25 s against 18 s canonical
  la --n 4 --poset butterfly          187 to 287 ms over its six labellings
                                      (187 ms canonical)

Relabelled, these ops would spread a workload's times between seeds far
beyond any usable bound, so they take the canonical named inputs, as a user
types them.  The other pattern and poset ops are relabelled: `la` on Lambda,
`eposet`, and `table` on K4 (a relabelled K4 is K4, so that op exercises the
pattern-file path).  The labelling sensitivity is a property of the
program, which a label-invariant checker (one forced vertex per automorphism
orbit) would remove; a change that does so shows here as a faster canonical
run, not as a narrower spread.

Layer map (traced run, see spans.py): which end-to-end metric each per-layer
metric should move, and on which workload.

  cli.self_ms                        op_ms_p50 on certify (argparse, JSON/CSV
                                     output of witnesses up to 5812 sets)
  search.*                           wall_s on exact-graph and exact-poset;
                                     search.max_family.calls is 0 on certify
  freeness.push/pop.*                wall_s and op_ms_tail on exact-graph;
                                     absent elsewhere
  freeness.is_free/neighbor_mask.*   wall_s and peak_rss_mb on certify; small
                                     on exact-graph (seed and witness checks)
  posets.push/pop.*                  wall_s on exact-poset
  posets.contains_copy.*             op_ms_p50 on certify; small share on
                                     exact-graph through the K2,3 seeds
  constructions.generate/verify.ms   wall_s on certify
  sets.*                             wall_s and peak_rss_mb on certify
                                     (set-up builds the inputs without knvex,
                                     so setup_s is imports only)
  cycle.*                            op_ms_p50 on certify only

Noise.  The host's speed swings by up to 2x over seconds to minutes, so times
are normalized to a reference speed (see run.py).  After that, over ten seeds,
wall_s, op_ms_p50 and op_ms_tail spread by 2 to 7% (quartile distance over
median), setup_s by up to 16% and peak_rss_mb by under 1%.  Samples per run:
exact-* make one pass (3 or 4 ops, so op_ms_tail is the slowest op), certify
three (30 ops, op_ms_tail at p66.7).

Left out.  Budgeted runs at n >= 10 all die with RecursionError in the
recursive search driver, so a budgeted large-n workload waits for that fix
(adding it now would make the fix read as a wall_s regression).  Instances of
a minute or more (`verify threshold n=12 k=2`, `la butterfly n=5`,
`la chain3 n=5`) are too long for the number of runs a check makes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import factorial

# Canonical structures, as knvex builds them from their names.
PATTERNS = {
    "C5": (5, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4))),
    "K4": (4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))),
    "K2,3": (5, ((0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4))),
}
# (size, cover relations p < q)
POSETS = {
    "V": (3, ((0, 1), (0, 2))),
    "Lambda": (3, ((0, 2), (1, 2))),
    "butterfly": (4, ((1, 0), (1, 2), (3, 0), (3, 2))),
    "K2,1,2": (5, ((0, 2), (1, 2), (2, 3), (2, 4))),
}


@dataclass(frozen=True)
class Op:
    """One CLI call.  An argv token that is a key of `files` becomes that file's path."""

    argv: tuple[str, ...]
    kind: str
    expect: dict
    files: dict = field(default_factory=dict)
    # the (relabelled) pattern, posets or family the output is checked against
    subject: object = None

    @property
    def label(self) -> str:
        return " ".join(self.argv)


def relabel_pattern(name: str, rng: random.Random) -> tuple[int, tuple]:
    count, edges = PATTERNS[name]
    perm = rng.sample(range(count), count)
    return count, tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges))


def relabel_poset(name: str, rng: random.Random) -> tuple[int, tuple]:
    size, covers = POSETS[name]
    perm = rng.sample(range(size), size)
    return size, tuple(sorted((perm[p], perm[q]) for p, q in covers))


def pattern_text(pattern) -> str:
    count, edges = pattern
    return "".join([f"p {count}\n"] + [f"{u} {v}\n" for u, v in edges])


def poset_text(poset) -> str:
    size, covers = poset
    return "".join([f"e {size}\n"] + [f"{p} < {q}\n" for p, q in covers])


def family_text(n: int, masks) -> str:
    lines = [f"n={n}"]
    for m in masks:
        lines.append(",".join(str(i + 1) for i in range(n) if m >> i & 1) or "-")
    return "\n".join(lines) + "\n"


def _pattern_arg(name: str, rng, relabel: bool):
    """(argv token, files, structure): the name itself, or a relabelled file."""
    if not relabel or rng is None:
        return name, {}, PATTERNS[name]
    pattern = relabel_pattern(name, rng)
    return "pattern.txt", {"pattern.txt": pattern_text(pattern)}, pattern


def _poset_arg(name: str, rng, relabel: bool, tag: str = "poset"):
    if not relabel or rng is None:
        return name, {}, POSETS[name]
    poset = relabel_poset(name, rng)
    fname = f"{tag}.txt"
    return fname, {fname: poset_text(poset)}, poset


def vex_op(name: str, n: int, value: int, relabel: bool = False):
    def build(rng):
        token, files, pattern = _pattern_arg(name, rng, relabel)
        return Op(("vex", "--n", str(n), "--pattern", token), "vex",
                  {"value": value}, files, pattern)
    return build


def bounds_op(name: str, n: int, lower: int, source: str, upper: int, relabel: bool = False):
    def build(rng):
        token, files, pattern = _pattern_arg(name, rng, relabel)
        return Op(("vex", "--n", str(n), "--pattern", token, "--bounds"), "vex_bounds",
                  {"lower": lower, "lower_source": source, "upper": upper}, files, pattern)
    return build


def table_op(name: str, lo: int, hi: int, lowers: tuple, relabel: bool = False):
    def build(rng):
        token, files, pattern = _pattern_arg(name, rng, relabel)
        rows = [[str(n), str(v), "", ""] for n, v in zip(range(lo, hi + 1), lowers)]
        return Op(("table", "--pattern", token, "--n", f"{lo}..{hi}"), "table",
                  {"pattern": name, "rows": rows}, files, pattern)
    return build


def la_op(names: tuple, n: int, value: int, symmetric: bool = False, relabel: bool = False):
    def build(rng):
        argv = ["la", "--n", str(n)]
        files, posets = {}, []
        for i, name in enumerate(names):
            token, f, poset = _poset_arg(name, rng, relabel, tag=f"poset{i}")
            argv += ["--poset", token]
            files.update(f)
            posets.append(poset)
        if symmetric:
            argv.append("--symmetric")
        return Op(tuple(argv), "la", {"value": value, "symmetric": symmetric}, files,
                  tuple(posets))
    return build


def eposet_op(name: str, nmax: int, e: int, relabel: bool = False):
    def build(rng):
        token, files, poset = _poset_arg(name, rng, relabel)
        return Op(("eposet", "--poset", token, "--nmax", str(nmax)), "eposet",
                  {"e": e}, files, poset)
    return build


def verify_op(construction: str, n: int, **params: int):
    def build(rng):
        argv = ["verify", "--construction", construction, "--n", str(n)]
        for key, val in params.items():
            argv += [f"--{key}", str(val)]
        return Op(tuple(argv), "verify", {"construction": construction, "n": n, **params})
    return build


def cyclecheck_op(n: int):
    """A seeded family of 2^(n-1) sets avoiding the empty set and [n]."""
    def build(rng):
        pick = rng if rng is not None else random.Random(0)
        masks = sorted(pick.sample(range(1, (1 << n) - 1), 1 << (n - 1)))
        fname = f"family{n}.txt"
        return Op(("cyclecheck", "--n", str(n), "--family", fname), "cyclecheck",
                  {"size": len(masks), "rhs": len(masks) * factorial(n)},
                  {fname: family_text(n, masks)}, (n, tuple(masks)))
    return build


# Op builders per workload; the rationale is in the module docstring and in
# BENCHMARK.json.  Each builder takes the pass's random generator, or None for
# the canonical op.
WORKLOADS = {
    "exact-graph": (
        vex_op("C5", 5, 24),
        vex_op("K2,3", 5, 26),
        vex_op("K4", 5, 28),
    ),
    "exact-poset": (
        la_op(("V",), 5, 13),
        la_op(("Lambda",), 5, 12, symmetric=True, relabel=True),
        la_op(("butterfly",), 5, 20, symmetric=True),
        la_op(("butterfly",), 4, 10),
    ),
    "certify": (
        bounds_op("C5", 13, 5812, "construction:threshold", 8192),
        table_op("K2,3", 6, 11, (47, 99, 184, 382, 722, 1486)),
        table_op("K4", 6, 11, (57, 120, 219, 466, 968, 1981), relabel=True),
        verify_op("clique_threshold", 12, r=3),
        verify_op("bip_lower", 14),
        verify_op("e2_two_level", 12),
        eposet_op("butterfly", 8, 2, relabel=True),
        eposet_op("K2,1,2", 8, 2, relabel=True),
        cyclecheck_op(6),
        cyclecheck_op(7),
    ),
}


def make_ops(workload: str, seed: int, pass_index: int) -> list[Op]:
    """The ops of one pass, in run order.  Seed 0 gives the canonical pass."""
    rng = random.Random(f"{workload}:{seed}:{pass_index}") if seed else None
    return [build(rng) for build in WORKLOADS[workload]]
