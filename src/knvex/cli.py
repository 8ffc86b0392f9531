"""Command-line surface: vex, table, la, eposet, verify, cyclecheck.

Reports are JSON (tables are CSV) and deterministic given the parameters and
seed, so runs are directly comparable.  Exit code 0 means every verification
in the run passed, 1 that a result is not certified (a search stopped by its
budget, or a failed check), 2 that the input was rejected: a usage error,
or an input error reported as one "knvex: error: ..." line on stderr, and
141 (128 + SIGPIPE, as a shell reports a command killed by that signal) that
the reader closed stdout before the output was written.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import asdict, dataclass

from . import __version__
from .constructions import CONSTRUCTION_PARAMETERS, build_construction, verify_construction
from .cycle import double_count_check
from .patterns import parse_pattern, pattern_from_text
from .posets import e_of_poset, la, named_poset, poset_from_text
from .search import vex_bounds, vex_exact
from .sets import Family, elements_of, family_from_text, random_family, validate_ground


@dataclass
class RunReport:
    command: str
    params: dict
    results: dict
    elapsed_ms: int = 0
    toolkit_version: str = __version__

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def _family_json(fam: Family) -> dict:
    return {
        "n": fam.n,
        "sets": [",".join(map(str, elements_of(m))) or "-" for m in fam],
    }


def _load(spec: str, by_name, from_text):
    """by_name(spec), else from_text of the file named spec; when neither a
    name nor a file matches, the name's ValueError is raised."""
    try:
        return by_name(spec)
    except ValueError:
        if os.path.exists(spec):
            with open(spec) as fh:
                return from_text(fh.read())
        raise


def _cmd_vex(args) -> tuple[RunReport, int]:
    pattern = _load(args.pattern, parse_pattern, pattern_from_text)
    params = {"n": args.n, "pattern": args.pattern, "mode": "bounds" if args.bounds else "exact"}
    if args.bounds:
        res = vex_bounds(args.n, pattern)
        results = {
            "lower": res.value,
            "lower_source": res.lower_bound_source,
            "upper": res.upper,
            "upper_source": res.upper_bound_source,
        }
    else:
        res = vex_exact(args.n, pattern, max_nodes=args.budget, timeout=args.timeout)
        stats = {"nodes": res.nodes, "core_nodes": res.core_nodes, "core_value": res.core_value}
        results = {
            "value": res.value,
            "lower_bound_source": res.lower_bound_source,
            "upper_bound_source": res.upper_bound_source,
            "stats": stats,
        }
    results.update(witness=_family_json(res.witness), exact=res.exact)
    return RunReport("vex", params, results), 0 if res.exact or args.bounds else 1


def _cmd_table(args) -> tuple[RunReport | None, int]:
    pattern = _load(args.pattern, parse_pattern, pattern_from_text)
    lo, hi = args.n_range
    # checked before the header, so a rejected range prints nothing
    if lo > hi:
        raise ValueError(f"empty range {lo}..{hi}")
    validate_ground(lo)
    validate_ground(hi)
    writer = csv.writer(sys.stdout)
    writer.writerow(["n", "lower", "upper", "exact"])
    for n in range(lo, hi + 1):
        res = vex_bounds(n, pattern)
        upper = "" if res.upper is None else res.upper
        writer.writerow([n, res.value, upper, res.value if res.exact else ""])
    return None, 0


def _cmd_la(args) -> tuple[RunReport, int]:
    forbidden = [_load(spec, named_poset, poset_from_text) for spec in args.poset]
    res = la(args.n, forbidden, symmetric=args.symmetric, max_nodes=args.budget)
    params = {"n": args.n, "posets": args.poset, "symmetric": args.symmetric}
    results = {
        "value": res.value,
        "exact": res.exact,
        "witness": _family_json(res.witness),
        "stats": {"nodes": res.nodes},
    }
    return RunReport("la", params, results), 0 if res.exact else 1


def _cmd_eposet(args) -> tuple[RunReport, int]:
    poset = _load(args.poset, named_poset, poset_from_text)
    cert = e_of_poset(poset, args.nmax)
    results = {
        "e": cert.value,
        "verified_up_to": args.nmax,
        "certificate": None,
    }
    if cert.certificate is not None:
        results["certificate"] = {
            "n": cert.certificate_n,
            "lowest_level": cert.certificate_lowest_level,
            "mapping": {
                str(e): ",".join(map(str, elements_of(m))) or "-"
                for e, m in sorted(cert.certificate.items())
            },
        }
    return RunReport("eposet", {"poset": args.poset, "nmax": args.nmax}, results), 0


def _cmd_verify(args) -> tuple[RunReport, int]:
    params = {key: getattr(args, key) for key in ("k", "r", "x") if getattr(args, key) is not None}
    nc = build_construction(args.construction, args.n, **params)
    verdict = verify_construction(nc)
    report = RunReport(
        "verify", {"construction": args.construction, "n": args.n, **params}, verdict
    )
    return report, 0 if verdict["pass"] else 1


def _cmd_cyclecheck(args) -> tuple[RunReport, int]:
    if args.family == "random":
        fam = random_family(args.n, seed=args.seed)
    else:
        with open(args.family) as fh:
            fam = family_from_text(fh.read())
        if fam.n != args.n:
            raise ValueError(f"family file has n={fam.n}, command says n={args.n}")
    res = double_count_check(fam)
    params = {"n": args.n, "family": args.family, "seed": args.seed}
    results = {"lhs": res.lhs, "rhs": res.rhs, "equal": res.equal, "size": len(fam)}
    return RunReport("cyclecheck", params, results), 0 if res.equal else 1


def _parse_range(text: str) -> tuple[int, int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return int(lo), int(hi)
    n = int(text)
    return n, n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="knvex", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("vex", help="exact value or sandwich bounds for one pattern")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--pattern", required=True, help="named pattern (M2, S3, C5, K4, K2,3) or file")
    p.add_argument("--bounds", action="store_true", help="sandwich bounds, not the exact value")
    p.add_argument(
        "--budget",
        type=int,
        default=None,
        help="node budget for the complement-core search (run at 4 <= n <= 6; at most half)"
        " and the main search",
    )
    p.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="wall-clock budget in seconds for the complement-core search (run at 4 <= n <= 6;"
        " at most half of the time left) and the main search (the rest); certifying the"
        " construction seed before them is not counted",
    )
    p.set_defaults(func=_cmd_vex)

    p = sub.add_parser("table", help="CSV sweep of bounds over a range of ground sizes")
    p.add_argument("--pattern", required=True)
    p.add_argument("--n", dest="n_range", type=_parse_range, required=True, help="range like 6..14")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("la", help="largest family avoiding the given posets")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--poset", action="append", required=True, help="named poset or file; repeatable")
    p.add_argument("--symmetric", action="store_true")
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(func=_cmd_la)

    p = sub.add_parser("eposet", help="certify how many consecutive cube levels stay poset-free")
    p.add_argument("--poset", required=True)
    p.add_argument("--nmax", type=int, required=True)
    p.set_defaults(func=_cmd_eposet)

    p = sub.add_parser("verify", help="size formula and freeness check for a named construction")
    p.add_argument("--construction", choices=CONSTRUCTION_PARAMETERS, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--x", type=int, default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("cyclecheck", help="double-counting identity over all cyclic permutations")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--family", default="random", help="family file or the literal 'random'")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_cyclecheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    start = time.monotonic()
    try:
        try:
            report, code = args.func(args)
        except BrokenPipeError:
            raise  # a closed stdout, not an input error
        except (ValueError, OSError) as exc:
            # rejected input: unknown names, out-of-range sizes, missing budgets, unreadable files
            print(f"knvex: error: {exc}", file=sys.stderr)
            return 2
        if report is not None:
            report.elapsed_ms = int((time.monotonic() - start) * 1000)
            print(report.to_json())
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (as `| head` does); point stdout at devnull
        # so that the flush at exit does not fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return code


if __name__ == "__main__":
    sys.exit(main())
