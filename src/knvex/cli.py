"""Command-line surface: vex, table, la, eposet, verify, cyclecheck.

Reports are JSON (tables are CSV) and deterministic given the parameters and
seed, so runs are directly comparable.  Exit code 0 means every verification
in the run passed, 1 that a result is not certified (a search stopped by its
budget, or an eposet e without a certificate), 2 that the input was
rejected, as a usage error or one "knvex: error: ..." line on stderr, 3
that a result failed its own check (one "knvex: verification failed: ..."
line; a correct program never exits 3), and 141 (128 + SIGPIPE, as a shell
reports a command killed by that signal) that stdout was closed early.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
import time
from dataclasses import dataclass

from . import __version__
from .constructions import CONSTRUCTION_PARAMETERS, build_construction, verify_construction
from .cycle import _check_ground, double_count_check
from .patterns import parse_pattern, pattern_from_text
from .posets import e_of_poset, la, named_poset, poset_from_text
from .search import vex_bounds, vex_exact
from .sets import Family, family_from_text, family_texts, random_family, set_to_text, validate_ground


@dataclass
class RunReport:
    command: str
    params: dict
    results: dict
    elapsed_ms: int = 0
    toolkit_version: str = __version__

    def to_json(self) -> str:
        # the fields are plain JSON data already; asdict would deep-copy every witness
        return json.dumps(vars(self), indent=2, sort_keys=True)


def _family_json(fam: Family) -> dict:
    return {"n": fam.n, "sets": family_texts(fam)}


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
    if lo > hi:
        raise ValueError(f"empty range {lo}..{hi}")
    validate_ground(lo)
    validate_ground(hi)
    writer = csv.writer(sys.stdout)
    for n in range(lo, hi + 1):
        res = vex_bounds(n, pattern)
        if n == lo:
            # written after the first row is computed, so a refused first row prints nothing
            writer.writerow(["n", "lower", "upper", "exact"])
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
            "mapping": {str(e): set_to_text(m) for e, m in sorted(cert.certificate.items())},
        }
    code = 0 if cert.certificate is not None else 1
    return RunReport("eposet", {"poset": args.poset, "nmax": args.nmax}, results), code


# one --flag per parameter name any construction takes: k, r and x
_CONSTRUCTION_KEYS = sorted({key for keys in CONSTRUCTION_PARAMETERS.values() for key in keys})


def _cmd_verify(args) -> tuple[RunReport, int]:
    params = {key: value for key, value in vars(args).items() if key in _CONSTRUCTION_KEYS}
    nc = build_construction(args.construction, args.n, **params)
    verdict = verify_construction(nc)
    if not verdict["pass"]:
        raise AssertionError(f"construction {nc.name!r} at n={args.n} fails its own checks")
    report = RunReport(
        "verify", {"construction": args.construction, "n": args.n, **params}, verdict
    )
    return report, 0


def _cmd_cyclecheck(args) -> tuple[RunReport, int]:
    if args.family == "random":
        _check_ground(args.n)  # before random_family builds up to 2^n sets
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


def _parse_int(text: str) -> int:
    if not re.fullmatch(r"-?[0-9]+", text):
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    return int(text)


def _parse_range(text: str) -> tuple[int, int]:
    m = re.fullmatch(r"([0-9]+)(?:\.\.([0-9]+))?", text)
    if not m:
        raise argparse.ArgumentTypeError(f"expected N or LO..HI, got {text!r}")
    return int(m[1]), int(m[2] or m[1])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="knvex", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("vex", help="exact value or sandwich bounds for one pattern")
    p.add_argument("--n", type=_parse_int, required=True)
    p.add_argument("--pattern", required=True, help="named pattern (M2, S3, C5, K4, K2,3) or file")
    p.add_argument("--bounds", action="store_true", help="sandwich bounds, not the exact value")
    p.add_argument(
        "--budget",
        type=_parse_int,
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
        " construction seed before them is not counted (about 0.1 s for C5 at n = 17)",
    )
    p.set_defaults(func=_cmd_vex)

    p = sub.add_parser(
        "table",
        help="CSV sweep of bounds over a range of ground sizes; a row refused after the first"
        " still exits 2, after the rows before it",
    )
    p.add_argument("--pattern", required=True)
    p.add_argument("--n", dest="n_range", type=_parse_range, required=True, help="range like 6..14")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("la", help="largest family avoiding the given posets")
    p.add_argument("--n", type=_parse_int, required=True)
    p.add_argument("--poset", action="append", required=True, help="named poset or file; repeatable")
    p.add_argument("--symmetric", action="store_true")
    p.add_argument("--budget", type=_parse_int, default=None)
    p.set_defaults(func=_cmd_la)

    p = sub.add_parser(
        "eposet",
        help="certify how many consecutive cube levels stay poset-free; without a certificate,"
        " e is only a lower bound checked at n <= --nmax (exit 1)",
    )
    p.add_argument("--poset", required=True)
    p.add_argument("--nmax", type=_parse_int, required=True)
    p.set_defaults(func=_cmd_eposet)

    p = sub.add_parser("verify", help="size formula and freeness check for a named construction")
    p.add_argument("--construction", choices=CONSTRUCTION_PARAMETERS, required=True)
    p.add_argument("--n", type=_parse_int, required=True)
    for key in _CONSTRUCTION_KEYS:
        p.add_argument(f"--{key}", type=_parse_int, default=argparse.SUPPRESS)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("cyclecheck", help="double-counting identity over all cyclic permutations")
    p.add_argument("--n", type=_parse_int, required=True)
    p.add_argument("--family", default="random", help="family file or the literal 'random'")
    p.add_argument("--seed", type=_parse_int, default=0)
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
        except AssertionError as exc:
            print(f"knvex: verification failed: {exc}", file=sys.stderr)
            return 3
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
