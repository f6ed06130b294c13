"""Command-line front end.

Exit codes: pass/affirmative 0, failure 1, unknown/inconclusive 2, usage
errors 3; `classify` maps its four statuses to 0..3 in declaration order.

There is one argument parser per process, built by the first `main` call
and reused by every later one; `parse_args` fills a fresh namespace each
time, so no option value carries over from one call to the next.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

from . import __version__
from .cohomology import cohomology_table, is_flabby
from .catalog import (
    CATALOG_NAMES,
    LEE_NAMES,
    WITNESS_IDS,
    build,
    circulant_det,
    circulant_pattern_one,
    circulant_pattern_two,
    verify_witness,
    witness,
)
from .cyclotomic import is_prime
from .rationality import (
    DEFAULT_BUDGET,
    Budget,
    STATUS_EXIT,
    classify,
    flabby_resolution,
    iso,
)
from .steinitz import default_class_table, steinitz_class
from . import serialize


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 3 per the contract
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(3)


def _budget_args(sub):
    sub.add_argument("--seed", type=int, default=DEFAULT_BUDGET.seed)
    sub.add_argument("--budget-box", type=int, default=DEFAULT_BUDGET.box_radius)
    sub.add_argument("--budget-draws", type=int, default=DEFAULT_BUDGET.draws)
    sub.add_argument("--budget-rank", type=int, default=DEFAULT_BUDGET.padding_rank_factor)


def _budget_from(args) -> Budget:
    return Budget(
        box_radius=args.budget_box,
        draws=args.budget_draws,
        padding_rank_factor=args.budget_rank,
        seed=args.seed,
    )


def _load_table(args):
    if getattr(args, "table", None):
        return serialize.class_table_from_json(serialize.load(args.table))
    return default_class_table()


def _emit(obj, out_path):
    text = serialize.dump(obj, out_path)
    if not out_path:
        sys.stdout.write(text)


def cmd_build(args) -> int:
    lat = build(args.name, args.n)
    _emit(serialize.lattice_to_json(lat), args.out)
    return 0


def _verify_range(args):
    """Odd n from --n-min (or --n) to --n-max (or --n); a missing end takes 3 or 31."""
    lo = next(x for x in (args.n_min, args.n, 3) if x is not None)
    hi = next(x for x in (args.n_max, args.n, 31) if x is not None)
    if lo % 2 == 0 or hi % 2 == 0 or not 3 <= lo <= hi:
        raise ValueError(f"verify range {lo}..{hi} needs odd bounds with 3 <= first <= last")
    return range(lo, hi + 1, 2)


def cmd_verify(args) -> int:
    wid = args.id
    failures = 0
    rows = []
    for n in _verify_range(args):
        t0 = time.time()
        if wid == "L36":
            d1 = circulant_det(circulant_pattern_one(n))
            d2 = circulant_det(circulant_pattern_two(n))
            ok = d1 == (n - 1) // 2 and d2 == -1
            detail = f"det1={d1} det2={d2}"
        else:
            check = verify_witness(witness(wid, n))
            ok = check.ok
            detail = f"det={check.determinant}"
            if not ok:
                detail += "; " + "; ".join(check.failures)
        failures += 0 if ok else 1
        rows.append(
            {
                "n": n,
                "ok": ok,
                "detail": detail,
                "seconds": round(time.time() - t0, 3),
            }
        )
        print(f"{wid} n={n}: {'pass' if ok else 'FAIL'} ({detail})")
    if args.out:
        _emit({"witness": wid, "results": rows, "tool_version": __version__}, args.out)
    return 0 if failures == 0 else 1


def cmd_table(args) -> int:
    p = args.p
    table = _load_table(args)
    if not is_prime(p) or p == 2 or not table.knows(p):
        print(f"error: p={p} is not an odd prime in the class table", file=sys.stderr)
        return 3
    out_rows = []
    expected_flabby = {"Z", "ZH", "V", "Y0", "Y1", "Y2"}
    mismatches = 0
    for name in LEE_NAMES:
        lat = build(name, p)
        if args.h1:  # one pass gives H^-1 and H^1 for every class
            coh = cohomology_table(lat, name)
            failing = [(lab, hm1) for lab, hm1, _, _ in coh.entries if not hm1.is_trivial]
        else:
            failing = is_flabby(lat).failing
        row = {
            "name": name,
            "rank": lat.rank,
            "flabby": not failing,
            "failing": [[lab, serialize.invariants_to_json(inv)] for lab, inv in failing],
        }
        shown = f"{name:7s} rank {lat.rank:3d} flabby={not failing}"
        if args.h1:
            row["coflabby"] = all(h1v.is_trivial for *_, h1v in coh.entries)
            row["cohomology"] = serialize.table_to_json(coh)["classes"]
            shown += f" coflabby={row['coflabby']}"
        if (not failing) != (name in expected_flabby):
            mismatches += 1
        out_rows.append(row)
        print(shown)
    if args.out:
        _emit({"p": p, "rows": out_rows, "tool_version": __version__}, args.out)
    return 0 if mismatches == 0 else 1


def cmd_cohomology(args) -> int:
    lat, _ = serialize.lattice_from_json(serialize.load(args.infile))
    table = cohomology_table(lat, args.infile)
    _emit(serialize.table_to_json(table), args.out)
    return 0


def cmd_resolve(args) -> int:
    lat, _ = serialize.lattice_from_json(serialize.load(args.infile))
    res = flabby_resolution(lat)
    out = {
        "lattice_rank": lat.rank,
        "perm_rank": res.perm.rank,
        "flabby_part_rank": res.flabby_part.rank,
        "summands": list(res.summands),
        "flabby_part": serialize.lattice_to_json(res.flabby_part),
        "flabby_check": bool(is_flabby(res.flabby_part)),
        "tool_version": __version__,
    }
    _emit(out, args.out)
    return 0


def cmd_iso(args) -> int:
    a, _ = serialize.lattice_from_json(serialize.load(args.a))
    b, _ = serialize.lattice_from_json(serialize.load(args.b))
    res = iso(a, b, _budget_from(args))
    out = {"outcome": res.outcome, "detail": res.detail, "seed": args.seed}
    if res.witness is not None:
        out["witness"] = serialize.map_to_json(res.witness.matrix, str(args.a), str(args.b))
    _emit(out, args.out)
    return {"iso": 0, "noniso": 1, "unknown": 2}[res.outcome]


def cmd_classify(args) -> int:
    lat, annotations = serialize.lattice_from_json(serialize.load(args.infile))
    table = _load_table(args)
    budget = _budget_from(args)
    verdict = classify(lat, table=table, budget=budget, annotations=annotations)
    out = {
        "status": verdict.status,
        "by_theorem": verdict.by_theorem,
        "reason": verdict.reason,
        "evidence": verdict.evidence,
        "seed": args.seed,
        "tool_version": __version__,
    }
    _emit(out, args.out)
    return STATUS_EXIT[verdict.status]


def cmd_steinitz(args) -> int:
    lat, _ = serialize.lattice_from_json(serialize.load(args.infile))
    rep = steinitz_class(lat, search_bound=args.search_bound)
    out = serialize.steinitz_to_json(rep)
    out["tool_version"] = __version__
    _emit(out, args.out)
    return 0 if rep.known_trivial else 2


@functools.cache
def _parser() -> _Parser:
    parser = _Parser(prog="lat", description="dihedral/cyclic lattice toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("build", help="emit a catalog lattice as JSON")
    sp.add_argument("--name", required=True, choices=CATALOG_NAMES)
    sp.add_argument("--n", required=True, type=int)
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_build)

    sp = subs.add_parser("verify", help="re-verify a change-of-basis identity")
    sp.add_argument("--id", required=True, choices=WITNESS_IDS + ("L36",))
    sp.add_argument("--n", type=int)
    sp.add_argument("--n-min", type=int)
    sp.add_argument("--n-max", type=int)
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_verify)

    sp = subs.add_parser("table", help="flabbiness table of the ten census lattices")
    sp.add_argument("--p", required=True, type=int)
    sp.add_argument("--table")
    sp.add_argument("--h1", action="store_true", help="include H^1 and coflabbiness")
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_table)

    sp = subs.add_parser("cohomology", help="full cohomology table of a lattice file")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_cohomology)

    sp = subs.add_parser("resolve", help="flabby resolution of a lattice file")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_resolve)

    sp = subs.add_parser("iso", help="equivariant isomorphism search")
    sp.add_argument("--a", required=True)
    sp.add_argument("--b", required=True)
    sp.add_argument("--out")
    _budget_args(sp)
    sp.set_defaults(fn=cmd_iso)

    sp = subs.add_parser("classify", help="rationality verdict for a lattice file")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--table")
    sp.add_argument("--out")
    _budget_args(sp)
    sp.set_defaults(fn=cmd_classify)

    sp = subs.add_parser("steinitz", help="Steinitz class of a C_p lattice file")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--search-bound", type=int, default=3)
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_steinitz)

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
