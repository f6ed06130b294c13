"""The classify_mix verdict hashes that the README quotes are today's."""

import re
from pathlib import Path

from pool_verdicts import HELDOUT_POOL, POOL, summarize

README = Path(__file__).resolve().parent.parent / "README.md"


def _check_quoted_hash(pool, phrase):
    quoted = re.search(phrase + r"\s+is\s+today\s+`([0-9a-f]{12})…`", README.read_text())
    assert quoted, f"README.md quotes no verdict hash for {pool}"
    digest, explicit, reasons = summarize(pool)
    assert digest.startswith(quoted.group(1)), (digest, explicit, reasons)


def test_the_readme_quotes_the_current_pool_verdict_hash():
    _check_quoted_hash(POOL, r"stored\s+pool\s+the\s+hash")


def test_the_readme_quotes_the_held_out_pool_verdict_hash():
    _check_quoted_hash(HELDOUT_POOL, r"held-out\s+pool\s+the\s+hash")
