"""The four benchmark workloads: stored inputs, the timed call and its check.

Each workload loads and re-validates its inputs with a freshly imported
``glattice`` (``load``), orders them from the seed (``cycle``), makes the
timed call for one op (``call``) and checks the answer outside the timed
region (``check``).  ``check`` returns ``(ops, failed, explicit)``: the ops the
call covered, how many of them failed, and how many answers rest on an
explicit certificate rather than a theorem.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
POOL = HERE / "data" / "pool.json"
POOL_FORMAT = 1
GOLDEN = ROOT / "tests" / "golden"
OUT = HERE / "out"
MODULES = ("exactla", "groups", "lattices", "cohomology", "catalog", "rationality",
           "steinitz", "serialize", "cli")


class StaleInputs(Exception):
    """The stored inputs are missing, altered or from another format."""


def fresh_glattice() -> dict:
    """Import ``glattice`` anew, so every module-level cache starts cold."""
    for name in [n for n in sys.modules if n == "glattice" or n.startswith("glattice.")]:
        del sys.modules[name]
    return {m: importlib.import_module(f"glattice.{m}") for m in MODULES}


def content_hash(pool: dict) -> str:
    """SHA-256 of the pool's canonical JSON, its own ``sha256`` key left out."""
    body = {k: v for k, v in pool.items() if k != "sha256"}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def load_pool(path: Path = POOL) -> dict:
    """The stored pool, after its format and content hash are checked."""
    try:
        pool = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise StaleInputs(f"cannot read {path.name}: {exc}") from exc
    if pool.get("format") != POOL_FORMAT:
        raise StaleInputs(f"{path.name} has format {pool.get('format')!r}, expected {POOL_FORMAT}")
    if content_hash(pool) != pool.get("sha256"):
        raise StaleInputs(f"{path.name} does not match its content hash")
    return pool


def _lattice(g, data: dict, p: int, kind: str):
    """Re-validate one stored lattice through the program's own reader."""
    try:
        lat, _ = g["serialize"].lattice_from_json(data)
    except (KeyError, TypeError, ValueError) as exc:  # LatticeError is a ValueError
        raise StaleInputs(f"stored lattice fails re-validation: {exc}") from exc
    if lat.group.n != p or lat.group.kind != kind:
        raise StaleInputs(f"stored lattice over {lat.group} where {kind} {p} was recorded")
    return lat


def _quiet(fn, *args):
    """Call ``fn`` with its standard output captured; (result, text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        result = fn(*args)
    return result, buf.getvalue()


class ClassifyMix:
    """op = one ``classify`` at the acceptance budget; every verdict must be
    StablyRational, since h_p^+ = 1 for p <= 67 and h_p = 1 for p <= 19 in the
    default class-number table."""

    name = "classify_mix"

    def load(self, g):
        pool = load_pool()
        budget = g["rationality"].Budget(**pool["budget"])
        return [(e["id"], _lattice(g, e["lattice"], e["p"], e["group"]), budget)
                for e in pool["classify_mix"]]

    def call(self, g, op):
        _id, lat, budget = op
        return g["rationality"].classify(lat, budget=budget)

    def check(self, g, op, verdict):
        ok = verdict.status == "StablyRational"
        return 1, 0 if ok else 1, 1 if ok and not verdict.by_theorem else 0


class ExtensionBuild:
    """op = one ordered (bottom, top) census pair through
    ``catalog._nonsplit_extension([bottom], top)``; the split or non-split
    outcome must equal the recorded one, and a built extension must carry the
    inputs' matrices as its diagonal blocks."""

    name = "extension_build"

    def load(self, g):
        pool = load_pool()
        census = {int(p): {n: _lattice(g, data, int(p), "dihedral") for n, data in lats.items()}
                  for p, lats in pool["census"].items()}
        return [(e["id"], census[e["p"]][e["bottom"]], census[e["p"]][e["top"]], e["outcome"])
                for e in pool["extension_build"]]

    def call(self, g, op):
        _id, bottom, top, _outcome = op
        try:
            return g["catalog"]._nonsplit_extension([bottom], top)
        except g["lattices"].LatticeError as exc:
            if "every cocycle is a coboundary" not in str(exc):
                raise
            return None

    def check(self, g, op, ext):
        _id, bottom, top, outcome = op
        if ext is None:
            return 1, 0 if outcome == "split" else 1, 1
        ok = outcome == "nonsplit" and all(
            _has_blocks(getattr(ext, rho), getattr(bottom, rho), getattr(top, rho))
            for rho in ("sigma", "tau"))
        return 1, 0 if ok else 1, 1


def _has_blocks(total, upper, lower) -> bool:
    """``total`` is block upper-triangular with ``upper`` and ``lower`` on its diagonal."""
    rb = upper.rows
    if total.rows != rb + lower.rows:
        return False
    rows = total.data
    return (all(tuple(rows[i][:rb]) == tuple(upper.data[i]) for i in range(rb))
            and all(tuple(rows[rb + i][rb:]) == tuple(lower.data[i]) for i in range(lower.rows))
            and all(not any(rows[rb + i][:rb]) for i in range(lower.rows)))


class CensusTable:
    """op = one census row of ``lat table --p P --h1``, run in-process through
    ``cli.main``; ten rows per command.  The JSON written must match the golden
    tables byte for byte (p = 3, 5, 7) and the references recorded with the
    benchmark (p = 11, 13)."""

    name = "census_table"
    primes = (3, 5, 7, 11, 13)
    rows_per_command = 10

    def load(self, g):
        refs = {}
        for p in self.primes:
            path = (GOLDEN if p <= 7 else HERE / "data") / f"table_p{p}.json"
            try:
                refs[p] = path.read_bytes()
            except OSError as exc:
                raise StaleInputs(f"missing reference {path.name}: {exc}") from exc
        OUT.mkdir(exist_ok=True)
        return [(p, refs[p]) for p in self.primes]

    def call(self, g, op):
        p, _ref = op
        out = OUT / f"table_p{p}.json"
        code, _text = _quiet(g["cli"].main, ["table", "--p", str(p), "--h1", "--out", str(out)])
        return code, out.read_bytes()

    def check(self, g, op, result):
        _p, ref = op
        code, got = result
        n = self.rows_per_command
        if code == 0 and got == ref:
            return n, 0, n
        try:
            got_rows, ref_rows = json.loads(got)["rows"], json.loads(ref)["rows"]
        except (ValueError, KeyError):
            return n, n, 0
        bad = sum(a != b for a, b in zip(got_rows, ref_rows)) + abs(len(got_rows) - len(ref_rows))
        # the bytes differ, so at least one row counts as failed
        bad = min(n, max(bad, 1))
        return n, bad, n - bad


class WitnessVerify:
    """op = one ``lat verify --id X --n N`` in-process: T34, T35, T37 and L46
    at odd N from 3 to 31, L36 at odd N from 3 to 101.  Exit code 0 is
    required, and the T37 n = 3, 5 matrices must match their golden bytes."""

    name = "witness_verify"
    golden_t37 = (3, 5)

    def load(self, g):
        golden = {}
        for n in self.golden_t37:
            path = GOLDEN / f"T37_n{n}.txt"
            try:
                golden[n] = path.read_bytes()
            except OSError as exc:
                raise StaleInputs(f"missing golden {path.name}: {exc}") from exc
        ops = [(wid, n, golden.get(n) if wid == "T37" else None)
               for wid in ("T34", "T35", "T37", "L46") for n in range(3, 32, 2)]
        return ops + [("L36", n, None) for n in range(3, 102, 2)]

    def call(self, g, op):
        wid, n, _golden = op
        return _quiet(g["cli"].main, ["verify", "--id", wid, "--n", str(n)])

    def check(self, g, op, result):
        wid, n, golden = op
        code, text = result
        ok = code == 0 and f"{wid} n={n}: pass" in text
        if ok and golden is not None:
            cat = g["catalog"]
            ok = cat.render_matrix(cat.witness(wid, n).change_of_basis).encode() == golden
        return 1, 0 if ok else 1, 1 if ok else 0


WORKLOADS = {w.name: w for w in (ClassifyMix(), CensusTable(), ExtensionBuild(), WitnessVerify())}


def cycle(ops: list, name: str, seed: int, index: int) -> list:
    """One pass over every stored op, in an order drawn from the seed."""
    order = list(ops)
    random.Random(f"{name}:{seed}:{index}").shuffle(order)
    return order
