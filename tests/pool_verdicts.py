"""Print one hash over every classify_mix verdict, to compare two trees.

The 186 classify_mix inputs of `perfbench/data/pool.json` are classified at
the pool's budget, and `summarize` returns

    sha256(json.dumps({id: [status, by_theorem, reason, evidence]}, sort_keys=True))

as hex, the number of verdicts that rest on an explicit witness
(StablyRational and not by theorem) and the number of verdicts per reason;
the script prints them, the explicit count as a share.  A change that keeps
every verdict keeps the hash, and `tests/test_pool_verdicts.py` checks it
against the prefix the README quotes.  Run it from the repository root:

    PYTHONPATH=src python tests/pool_verdicts.py
"""

import hashlib
import json
from collections import Counter
from pathlib import Path

from glattice.rationality import Budget, classify
from glattice.serialize import lattice_from_json

POOL = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "pool.json"


def summarize() -> tuple[str, int, Counter]:
    """(hash, explicit count, verdicts per reason) over the classify_mix inputs."""
    pool = json.loads(POOL.read_text())
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
    digest, explicit, reasons = summarize()
    total = sum(reasons.values())
    print(digest)
    print(f"explicit_share {explicit / total:.4f} ({explicit}/{total})")
    for reason, count in reasons.most_common():
        print(f"{count:4d} {reason}")


if __name__ == "__main__":
    main()
