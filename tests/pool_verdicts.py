"""Print one hash over every classify_mix verdict of a pool, to compare two trees.

The classify_mix inputs of a pool file (by default the 186 of
`perfbench/data/pool.json`; `tests/data/pool.json` holds the 187 of the
held-out pool, made by `perfbench/make_pool.py --seed 31415`) are classified
at the pool's budget, and `summarize` returns

    sha256(json.dumps({id: [status, by_theorem, reason, evidence]}, sort_keys=True))

as hex, the number of verdicts that rest on an explicit witness
(StablyRational and not by theorem) and the number of verdicts per reason;
the script prints them, the explicit count as a share.  A change that keeps
every verdict keeps the hash, and `tests/test_pool_verdicts.py` checks both
pools' hashes against the prefixes the README quotes.  Run it from the
repository root:

    PYTHONPATH=src python tests/pool_verdicts.py [POOL]
"""

import hashlib
import json
import sys
from collections import Counter
from pathlib import Path

from glattice.rationality import Budget, classify
from glattice.serialize import lattice_from_json

ROOT = Path(__file__).resolve().parent.parent
POOL = ROOT / "perfbench" / "data" / "pool.json"
HELDOUT_POOL = ROOT / "tests" / "data" / "pool.json"


def pool_lattice(entry_id: str, path: Path = POOL):
    """The classify_mix lattice stored under `entry_id`."""
    entries = json.loads(Path(path).read_text())["classify_mix"]
    return lattice_from_json(next(e for e in entries if e["id"] == entry_id)["lattice"])[0]


def summarize(path: Path = POOL) -> tuple[str, int, Counter]:
    """(hash, explicit count, verdicts per reason) over the pool's classify_mix inputs."""
    pool = json.loads(Path(path).read_text())
    budget = Budget(**pool["budget"])
    verdicts = {}
    for entry in pool["classify_mix"]:
        lat, _ = lattice_from_json(entry["lattice"])
        v = classify(lat, budget=budget)
        verdicts[entry["id"]] = [v.status, v.by_theorem, v.reason, v.evidence]
    text = json.dumps(verdicts, sort_keys=True)
    explicit = sum(status == "StablyRational" and not by_theorem for status, by_theorem, *_ in verdicts.values())
    reasons = Counter(reason for _, _, reason, _ in verdicts.values())
    return hashlib.sha256(text.encode()).hexdigest(), explicit, reasons


def main():
    digest, explicit, reasons = summarize(Path(sys.argv[1]) if len(sys.argv) > 1 else POOL)
    total = sum(reasons.values())
    print(digest)
    print(f"explicit_share {explicit / total:.4f} ({explicit}/{total})")
    for reason, count in reasons.most_common():
        print(f"{count:4d} {reason}")


if __name__ == "__main__":
    main()
