"""Print one hash over every classify_mix verdict, to compare two trees.

The 186 classify_mix inputs of `perfbench/data/pool.json` are classified at
the pool's budget, and the script prints

    sha256(json.dumps({id: [status, by_theorem, reason, evidence]}, sort_keys=True))

as hex, then the share of verdicts that rest on an explicit witness
(StablyRational and not by theorem), then the number of verdicts per reason.
A change that keeps every verdict keeps the hash.  Run it from the repository
root:

    PYTHONPATH=src python tests/pool_verdicts.py
"""

import hashlib
import json
from collections import Counter
from pathlib import Path

from glattice.rationality import Budget, classify
from glattice.serialize import lattice_from_json

POOL = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "pool.json"


def main():
    pool = json.loads(POOL.read_text())
    budget = Budget(**pool["budget"])
    verdicts = {}
    for entry in pool["classify_mix"]:
        lat, _ = lattice_from_json(entry["lattice"])
        v = classify(lat, budget=budget)
        verdicts[entry["id"]] = [v.status, v.by_theorem, v.reason, v.evidence]
    text = json.dumps(verdicts, sort_keys=True)
    explicit = sum(status == "StablyRational" and not by_theorem for status, by_theorem, *_ in verdicts.values())
    print(hashlib.sha256(text.encode()).hexdigest())
    print(f"explicit_share {explicit / len(verdicts):.4f} ({explicit}/{len(verdicts)})")
    for reason, count in Counter(reason for _, _, reason, _ in verdicts.values()).most_common():
        print(f"{count:4d} {reason}")


if __name__ == "__main__":
    main()
