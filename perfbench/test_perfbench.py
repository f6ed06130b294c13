"""Self-tests of the benchmark harness: percentile rule, self time, tracer.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from run import percentile, tail_percentile  # noqa: E402
from tracer import TRACED, TRACED_METHODS, Tracer, self_time  # noqa: E402
from workloads import MODULES, StaleInputs, content_hash, load_pool  # noqa: E402


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(100) == 90
    assert tail_percentile(99) == 75
    assert tail_percentile(200) == 95
    assert tail_percentile(1000) == 99
    assert tail_percentile(10_000) == 99.9
    assert tail_percentile(20) == 50
    assert tail_percentile(19) is None


def test_harrell_davis_percentile():
    assert abs(percentile(range(1, 101), 90) - 90.5) < 1e-6
    assert abs(percentile([5, 1, 4, 2, 3], 50) - 3.0) < 1e-9
    assert percentile([7.0], 90) == 7.0
    # the weights sum to one and favour the upper order statistics
    assert abs(percentile([2.0] * 30, 90) - 2.0) < 1e-9
    assert 4.5 < percentile([1, 2, 3, 4, 5], 90) < 5


def test_harrell_davis_smooths_a_gap_at_the_rank():
    # 90 fast ops and 10 slow ones: the nearest-rank p90 sits on the gap's
    # edge, and moving one op across it shifts the estimate only a little
    before = [0.1] * 90 + [1.0] * 10
    after = [0.1] * 89 + [1.0] * 11
    assert abs(percentile(after, 90) - percentile(before, 90)) < 0.15


def test_self_time_on_a_synthetic_tree():
    # root [0, 10] with children [1, 4] and [5, 6]; [1, 4] has child [2, 3];
    # a second root [20, 21] on its own
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 2.0, 3.0, 1, 0],
        ["c", 5.0, 6.0, 0, 0],
        ["other", 20.0, 21.0, -1, 1],
    ]
    assert self_time(spans) == [6.0, 2.0, 1.0, 1.0, 1.0]


def test_self_time_counts_overlapping_children_once():
    spans = [["p", 0.0, 10.0, -1, 0], ["x", 1.0, 5.0, 0, 0], ["y", 3.0, 7.0, 0, 0]]
    assert self_time(spans)[0] == 4.0


def _bindings(g):
    """Every (namespace, attribute) binding of a traced target, with its value."""
    targets = {id(getattr(g[mod], fn)) for mod, fns in TRACED.items() for fn in fns}
    return {(name, attr): value
            for name, module in _glattice_modules().items()
            for attr, value in vars(module).items() if id(value) in targets}


def _glattice_modules():
    return {n: m for n, m in sys.modules.items() if n == "glattice" or n.startswith("glattice.")}


def test_tracer_wraps_every_binding_and_restores_them():
    from workloads import fresh_glattice

    # a fresh import gives cold caches; the modules other tests hold come back after
    saved = _glattice_modules()
    try:
        _check_tracer(fresh_glattice())
    finally:
        for name in _glattice_modules():
            del sys.modules[name]
        sys.modules.update(saved)


def _check_tracer(g):
    before = _bindings(g)
    methods = {(mod, cls, meth): getattr(g[mod], cls).__dict__[meth]
               for mod, cls, meth in TRACED_METHODS}
    # `from .exactla import hnf` copies the name, so hnf is bound in several modules
    assert sum(attr == "hnf" for _ns, attr in before) > 1
    tracer = Tracer()
    tracer.install(g)
    try:
        for (ns, attr), original in before.items():
            wrapped = getattr(sys.modules[ns], attr)
            assert wrapped is not original and wrapped.__wrapped__ is original, (ns, attr)
        lat = g["catalog"].build("R", 3)
        assert not g["cohomology"].is_flabby(lat).ok
        g["rationality"].fingerprint(lat)
        g["rationality"].fingerprint(lat)
        summary = tracer.summary(g)
    finally:
        tracer.uninstall()
    assert _bindings(g) == before
    for (mod, cls, meth), original in methods.items():
        assert getattr(g[mod], cls).__dict__[meth] is original
    assert summary["catalog.build.calls"] == 1
    assert summary["cohomology.is_flabby.calls"] == 1
    assert summary["cohomology.tate_hminus1.calls"] >= 4
    assert summary["rationality.fingerprint.misses"] == 1
    assert summary["rationality.fingerprint.hits"] == 1
    assert summary["rationality.fingerprint.cache_entries"] == 1
    assert summary["lattices.GLattice.norm_matrix.calls"] > 0
    assert all(v >= 0 for k, v in summary.items() if k.endswith(".self_s"))
    assert set(MODULES) >= set(TRACED)


def test_altered_pool_is_rejected(tmp_path):
    pool = load_pool()
    assert content_hash(pool) == pool["sha256"]
    pool["classify_mix"][0]["lattice"]["sigma"][0][0] += 1
    path = tmp_path / "pool.json"
    path.write_text(json.dumps(pool))
    try:
        load_pool(path)
    except StaleInputs as exc:
        assert "content hash" in str(exc)
    else:
        raise AssertionError("an altered pool was accepted")
