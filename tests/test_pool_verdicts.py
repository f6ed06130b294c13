"""The classify_mix verdict hash that the README quotes is today's."""

import re
from pathlib import Path

from pool_verdicts import summarize

README = Path(__file__).resolve().parent.parent / "README.md"


def test_the_readme_quotes_the_current_pool_verdict_hash():
    quoted = re.search(r"today\s+`([0-9a-f]{12})…`", README.read_text())
    assert quoted, "README.md quotes no classify_mix verdict hash"
    digest, explicit, reasons = summarize()
    assert digest.startswith(quoted.group(1)), (digest, explicit, reasons)
