"""Seeded generator for the stored benchmark inputs.

    python3 perfbench/make_pool.py [--seed N] [--out DIR]

Writes ``pool.json`` (the classify_mix lattices and the extension_build
pairs, with the generator seed and a SHA-256 content hash) and
``excluded.json`` (drawn inputs in ``SLOW``, left out of the timed pools,
with the time one op took).  The stored lattices are plain matrices, so
later changes to ``catalog.build`` or ``_nonsplit_extension`` do not change
the benchmark's inputs.

Regenerating with ``--seed HELDOUT_SEED`` gives an input set that no change
was tuned on, for held-out checks of a claimed gain.
"""

from __future__ import annotations

import argparse
import json
import random
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import POOL_FORMAT, content_hash  # noqa: E402

GENERATOR_SEED = 20261017
HELDOUT_SEED = 31415
CAP_S = 15.0  # an op slower than this would swamp a timed run
RECORD_CAP_S = 60.0  # how long an op is followed before it is given up
# drawn inputs whose op took about 8 to 26 s when this pool was made, left out so
# that one pass over each pool stays near 15 to 30 s; they are listed with
# their time instead.  Naming them, rather than timing against CAP_S, keeps
# the pool independent of the speed of the machine that regenerates it.
SLOW = {"classify_mix": {"ext:Z<X@5", "ext:X<Z@5", "res:R+P|C3", "sum:Y1+ZH@3"},
        "extension_build": {"V<Y2@7", "Y2<Y1@7"}}
# the acceptance budget of the classification criterion
BUDGET = {"box_radius": 2, "draws": 3000, "padding_rank_factor": 2, "sp_attempts": 50}
PRIMES = (3, 5, 7)
# per-prime counts, chosen with SLOW to keep one pass over each pool under 30 s
SUMS = {3: 40, 5: 20, 7: 8}
EXTENSIONS = {3: 20, 5: 20, 7: 6}
CYCLIC_PRIMES = (3, 11, 13)  # census lattices restricted to C_p
CYCLIC_SUM_PRIMES = (3, 7, 11, 13)  # restricted direct sums; rank > 6 only at p = 7
CYCLIC_SUMS = 4
PAIRS = {5: (7, 23), 7: (2, 3)}  # (non-split, split) pairs drawn; every pair at p = 3


class _Overrun(Exception):
    pass


def _on_alarm(_signum, _frame):
    raise _Overrun


def timed(fn):
    """(result, seconds); result is None when ``fn`` ran past ``RECORD_CAP_S``."""
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, RECORD_CAP_S)
    t0 = time.perf_counter()
    try:
        return fn(), time.perf_counter() - t0
    except _Overrun:
        return None, time.perf_counter() - t0
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def generate(seed: int):
    from glattice import serialize
    from glattice.catalog import LEE_NAMES, _nonsplit_extension, build
    from glattice.groups import class_by_label, dihedral
    from glattice.lattices import LatticeError, direct_sum, restrict
    from glattice.rationality import Budget, classify

    rng = random.Random(seed)
    budget = Budget(**BUDGET)
    excluded = []

    def keep(workload, item_id, fn):
        """Run ``fn`` once; None (and a record of its time) for a SLOW input."""
        result, seconds = timed(fn)
        shown = round(seconds, 1) if result is not None else f">{RECORD_CAP_S}"
        if result is None or item_id in SLOW[workload]:
            excluded.append({"workload": workload, "id": item_id, "seconds": shown})
            return None
        if seconds > CAP_S:
            print(f"warning: {workload} {item_id} took {shown} s, over CAP_S; list it in SLOW",
                  file=sys.stderr)
        return result

    census = {p: {name: build(name, p) for name in LEE_NAMES} for p in PRIMES + CYCLIC_PRIMES}

    def extend(p, bottom, top):
        try:
            return _nonsplit_extension([census[p][bottom]], census[p][top])
        except LatticeError:
            return "split"

    # extension_build: every ordered pair at p = 3, a seeded draw per outcome above
    pairs = []
    outcomes = {}
    for p in PRIMES:
        ordered = [(b, t) for b in LEE_NAMES for t in LEE_NAMES if b != t]
        rng.shuffle(ordered)
        want = PAIRS.get(p)
        got = {"nonsplit": 0, "split": 0}
        for bottom, top in ordered:
            if want is not None and got["nonsplit"] >= want[0] and got["split"] >= want[1]:
                break
            pid = f"{bottom}<{top}@{p}"
            ext = keep("extension_build", pid, lambda: extend(p, bottom, top))
            if ext is None:
                continue
            outcome = "split" if ext == "split" else "nonsplit"
            outcomes[(p, bottom, top)] = ext
            if want is not None:
                cap = want[0] if outcome == "nonsplit" else want[1]
                if got[outcome] >= cap:
                    continue
            got[outcome] += 1
            pairs.append({"id": pid, "p": p, "bottom": bottom, "top": top, "outcome": outcome})
    pairs.sort(key=lambda e: (e["p"], e["id"]))

    # classify_mix: census singletons, direct sums and non-split extensions over
    # D_p, and a smaller share of C_p lattices
    candidates = []
    for p in PRIMES:
        candidates += [(f"one:{n}@{p}", p, "dihedral", census[p][n]) for n in LEE_NAMES]
        ordered = [(a, b) for a in LEE_NAMES for b in LEE_NAMES if a != b]
        for a, b in rng.sample(ordered, SUMS[p]):
            candidates.append((f"sum:{a}+{b}@{p}", p, "dihedral",
                               direct_sum(census[p][a], census[p][b])))
        nonsplit = sorted(k for k, v in outcomes.items() if k[0] == p and v != "split")
        if len(nonsplit) < EXTENSIONS[p]:
            # pairs not drawn above: find more non-split ones in a seeded order
            rest = [(p, b, t) for b in LEE_NAMES for t in LEE_NAMES
                    if b != t and (p, b, t) not in outcomes]
            rng.shuffle(rest)
            for key in rest:
                if len(nonsplit) >= EXTENSIONS[p]:
                    break
                ext, _seconds = timed(lambda: extend(*key))
                if ext not in (None, "split"):
                    outcomes[key] = ext
                    nonsplit.append(key)
        for key in rng.sample(sorted(nonsplit), EXTENSIONS[p]):
            _, b, t = key
            candidates.append((f"ext:{b}<{t}@{p}", p, "dihedral", outcomes[key]))
    for p in CYCLIC_PRIMES:
        cp = class_by_label(dihedral(p), f"C_{p}")
        candidates += [(f"res:{n}|C{p}", p, "cyclic", restrict(census[p][n], cp)) for n in LEE_NAMES]
    for p in CYCLIC_SUM_PRIMES:
        cp = class_by_label(dihedral(p), f"C_{p}")
        got = 0
        while got < CYCLIC_SUMS:
            a, b = rng.sample(LEE_NAMES, 2)
            cid = f"res:{a}+{b}|C{p}"
            lat = restrict(direct_sum(census[p][a], census[p][b]), cp)
            if p == 7 and lat.rank <= 6 or any(c[0] == cid for c in candidates):
                continue  # rank <= 6 at p = 7 is a known defect: minutes in a failed search
            candidates.append((cid, p, "cyclic", lat))
            got += 1
    lattices = []
    for cid, p, kind, lat in candidates:
        verdict = keep("classify_mix", cid, lambda: classify(lat, budget=budget))
        if verdict is None:
            continue
        if verdict.status != "StablyRational":
            raise SystemExit(f"{cid}: unexpected verdict {verdict.status}")
        lattices.append({"id": cid, "p": p, "group": kind,
                         "lattice": serialize.lattice_to_json(lat)})
    pool = {
        "format": POOL_FORMAT,
        "generator_seed": seed,
        "heldout_seed": HELDOUT_SEED,
        "budget": BUDGET,
        "census": {str(p): {n: serialize.lattice_to_json(census[p][n]) for n in LEE_NAMES}
                   for p in PRIMES},
        "classify_mix": lattices,
        "extension_build": pairs,
    }
    pool["sha256"] = content_hash(pool)
    return pool, excluded


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=GENERATOR_SEED)
    ap.add_argument("--out", default=str(HERE / "data"))
    args = ap.parse_args(argv)
    pool, excluded = generate(args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "pool.json").write_text(json.dumps(pool, indent=1, sort_keys=True) + "\n")
    (out / "excluded.json").write_text(json.dumps(
        {"generator_seed": args.seed, "excluded": excluded}, indent=1) + "\n")
    print(f"{len(pool['classify_mix'])} lattices, {len(pool['extension_build'])} pairs, "
          f"{len(excluded)} excluded, sha256 {pool['sha256']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
