"""CLI surface: exit codes, JSON round-trips, determinism."""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from glattice.cli import main
from glattice import __version__, cli, serialize
from glattice.catalog import build
from glattice.groups import cyclic, dihedral
from glattice.exactla import IntMatrix
from glattice.lattices import direct_sum, sign_lattice
from glattice.cyclotomic import ideal_cyclic_lattice, unit_ideal
from pool_verdicts import pool_lattice
from steinitz_oracle import factor_cyclotomic_mod, prime_ideal_above


def run(args):
    return main([str(a) for a in args])


def test_build_roundtrip(tmp_path):
    out = tmp_path / "np5.json"
    assert run(["build", "--name", "Nplus", "--n", 5, "--out", out]) == 0
    lat, annotations = serialize.lattice_from_json(serialize.load(out))
    assert lat == build("Nplus", 5)
    assert annotations == {}


def test_build_rejects_bad_input(capsys):
    assert run(["build", "--name", "Y2", "--n", 9]) == 3
    with pytest.raises(SystemExit) as err:
        run(["build", "--name", "Wrong", "--n", 5])
    assert err.value.code == 3


def test_verify_pass_and_fail_codes(capsys):
    assert run(["verify", "--id", "T34", "--n", 3]) == 0
    out = capsys.readouterr().out
    assert "pass" in out and "det=1" in out
    assert run(["verify", "--id", "T37", "--n-min", 3, "--n-max", 7]) == 0
    out = capsys.readouterr().out
    assert out.count("det=-1") == 3
    assert run(["verify", "--id", "L36", "--n-min", 3, "--n-max", 11]) == 0
    capsys.readouterr()
    # a missing end takes the default sweep's end, 3 or 31
    assert run(["verify", "--id", "T34", "--n-min", 29]) == 0
    assert [line.split(":")[0] for line in capsys.readouterr().out.splitlines()] == [
        "T34 n=29", "T34 n=31"]
    assert run(["verify", "--id", "T34", "--n-max", 5]) == 0
    assert [line.split(":")[0] for line in capsys.readouterr().out.splitlines()] == [
        "T34 n=3", "T34 n=5"]
    # an even, empty or too low range is a usage error with a message
    for bad in (
        ["--n", 4], ["--n-min", 4], ["--n-max", 6], ["--n-min", 7, "--n-max", 5], ["--n", 1]
    ):
        assert run(["verify", "--id", "L36"] + bad) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")


def test_verify_l36_prints_every_determinant(capsys):
    """L36 checks both circulant determinants as resultants; the lines are
    the closed forms (n-1)/2 and -1 for every odd n in 3..101."""
    assert run(["verify", "--id", "L36", "--n-min", 3, "--n-max", 101]) == 0
    assert capsys.readouterr().out == "".join(
        f"L36 n={n}: pass (det1={(n - 1) // 2} det2=-1)\n" for n in range(3, 102, 2)
    )


def test_one_parser_serves_every_call(tmp_path, capsys, monkeypatch):
    """The parser is built on the first `main` call of a process and reused:
    usage errors still exit 3, `--version` exits 0, and no option value
    leaks into the next call.  Each sub-command has its own `_Parser`, so
    one build runs `_Parser.__init__` once per parser, the top level once."""
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    cli._parser.cache_clear()
    with pytest.raises(SystemExit) as err:
        run(["verify", "--id", "L36", "--n", "x"])
    assert err.value.code == 3
    with pytest.raises(SystemExit) as err:
        run(["--version"])
    assert err.value.code == 0
    assert capsys.readouterr().out.strip() == __version__
    assert run(["verify", "--id", "L36", "--n", 5]) == 0
    assert capsys.readouterr().out.count("\n") == 1
    assert run(["verify", "--id", "L36", "--n-min", 3, "--n-max", 7]) == 0
    assert capsys.readouterr().out.count("\n") == 3
    lat_path = tmp_path / "x3.json"
    lat_path.write_text(json.dumps(serialize.lattice_to_json(build("X", 3))))
    assert run(["classify", "--in", lat_path, "--budget-draws", 200]) == 0
    assert built.count("lat") == 1 and len(built) == len(set(built)) > 1
    cli._parser.cache_clear()


def test_lat_entry_point_runs_as_a_module():
    """`python -m glattice.cli`, the `__main__` path the in-process tests skip."""
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}

    def lat(*args):
        return subprocess.run(
            [sys.executable, "-m", "glattice.cli", *args],
            capture_output=True, text=True, env=env, timeout=120,
        )

    ok = lat("verify", "--id", "L36", "--n", "3")
    assert ok.returncode == 0 and ok.stdout == "L36 n=3: pass (det1=1 det2=-1)\n"
    bad = lat("verify", "--id", "T34", "--n", "4")
    assert bad.returncode == 3 and bad.stdout == ""
    assert bad.stderr.startswith("error: ")
    version = lat("--version")
    assert version.returncode == 0 and version.stdout.strip() == __version__


def test_table_command(tmp_path, capsys):
    out = tmp_path / "table3.json"
    assert run(["table", "--p", 3, "--out", out]) == 0
    rows = serialize.load(out)["rows"]
    flags = {r["name"]: r["flabby"] for r in rows}
    assert flags == {
        "Z": True, "Zminus": False, "ZH": True, "R": False, "P": False,
        "V": True, "X": False, "Y0": True, "Y1": True, "Y2": True,
    }
    assert run(["table", "--p", 4]) == 3


def test_cohomology_command(tmp_path):
    lat_path = tmp_path / "zm.json"
    lat_path.write_text(json.dumps(serialize.lattice_to_json(sign_lattice(dihedral(3)))))
    out = tmp_path / "coh.json"
    assert run(["cohomology", "--in", lat_path, "--out", out]) == 0
    data = serialize.load(out)
    assert set(data["classes"]) == {"1", "D_1", "C_3", "D_3"}
    assert data["classes"]["D_3"]["h1"] == {"torsion": [2], "free_rank": 0}


def test_resolve_command(tmp_path):
    lat_path = tmp_path / "zm.json"
    lat_path.write_text(json.dumps(serialize.lattice_to_json(sign_lattice(dihedral(3)))))
    out = tmp_path / "res.json"
    assert run(["resolve", "--in", lat_path, "--out", out]) == 0
    data = serialize.load(out)
    assert data["flabby_check"] is True
    assert data["perm_rank"] == data["lattice_rank"] + data["flabby_part_rank"]


def test_iso_command_codes(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps(serialize.lattice_to_json(build("Nplus", 3))))
    b.write_text(json.dumps(serialize.lattice_to_json(build("Nplus", 3))))
    assert run(["iso", "--a", a, "--b", b]) == 0
    b.write_text(json.dumps(serialize.lattice_to_json(build("Nminus", 3))))
    assert run(["iso", "--a", a, "--b", b]) == 1


def test_classify_command_and_determinism(tmp_path):
    lat_path = tmp_path / "x5.json"
    lat_path.write_text(json.dumps(serialize.lattice_to_json(build("X", 5))))
    out1 = tmp_path / "v1.json"
    out2 = tmp_path / "v2.json"
    code = run(["classify", "--in", lat_path, "--seed", 7, "--budget-draws", 500, "--out", out1])
    assert code == 0
    assert serialize.load(out1)["status"] == "StablyRational"
    run(["classify", "--in", lat_path, "--seed", 7, "--budget-draws", 500, "--out", out2])
    assert out1.read_bytes() == out2.read_bytes()
    assert serialize.load(out1)["seed"] == 7


@pytest.mark.parametrize(
    "flag, value, field",
    [
        ("--budget-box", -1, "box_radius"),
        ("--budget-draws", 0, "draws"),
        ("--budget-draws", -5, "draws"),
        ("--budget-rank", -1, "padding_rank_factor"),
    ],
)
def test_out_of_range_budget_exits_3(tmp_path, capsys, flag, value, field):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps(serialize.lattice_to_json(build("R", 3))))
    b.write_text(json.dumps(serialize.lattice_to_json(build("Nplus", 3))))
    for args in (["iso", "--a", a, "--b", b], ["iso", "--a", a, "--b", a], ["classify", "--in", a]):
        assert run(args + [flag, value]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(field) in err and "Traceback" not in err


def test_classify_c23_flagged_input(tmp_path):
    b = prime_ideal_above(23, 2, factor_cyclotomic_mod(23, 2)[0])
    lat = ideal_cyclic_lattice(b)
    doc = serialize.lattice_to_json(
        lat,
        annotations={
            "non_principal_ideal": serialize.ideal_to_json(b),
            "assertion_source": "h_23 = 3; prime above 2 generates a class of order 3 (external)",
        },
    )
    lat_path = tmp_path / "c23.json"
    lat_path.write_text(json.dumps(doc))
    out = tmp_path / "v.json"
    assert run(["classify", "--in", lat_path, "--out", out]) == 2
    assert serialize.load(out)["status"] == "NotStablyRational"


def test_steinitz_command(tmp_path):
    from glattice.groups import class_by_label
    from glattice.lattices import restrict

    lat = restrict(build("Nplus", 5), class_by_label(dihedral(5), "C_5"))
    lat_path = tmp_path / "r5.json"
    lat_path.write_text(json.dumps(serialize.lattice_to_json(lat)))
    out = tmp_path / "s.json"
    assert run(["steinitz", "--in", lat_path, "--out", out]) == 0
    data = serialize.load(out)
    assert data["known_trivial"] is True and data["generator"] is not None


def test_steinitz_search_bound_below_one_exits_3(tmp_path, capsys):
    """A bound below 1 would switch the principality search off; it is refused."""
    ideal = prime_ideal_above(5, 11, factor_cyclotomic_mod(5, 11)[0])
    lat_path = tmp_path / "i5.json"
    lat_path.write_text(json.dumps(serialize.lattice_to_json(ideal_cyclic_lattice(ideal))))
    assert run(["steinitz", "--in", lat_path, "--search-bound", 3]) == 0
    capsys.readouterr()
    for bound in (0, -1):
        assert run(["steinitz", "--in", lat_path, "--search-bound", bound]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "search_bound" in err


def test_steinitz_of_a_prime_above_47_at_p23_is_inconclusive_within_5_s(tmp_path):
    """Degree 22 is above the principality search's limit, so the class is
    reported unconfirmed (exit 2), and the class itself takes no search."""
    ideal = prime_ideal_above(23, 47, factor_cyclotomic_mod(23, 47)[0])
    lat_path = tmp_path / "p47.json"
    lat_path.write_text(json.dumps(serialize.lattice_to_json(ideal_cyclic_lattice(ideal))))
    out = tmp_path / "s.json"

    def too_slow(signum, frame):
        raise TimeoutError("lat steinitz took more than 5 s")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(5)
    try:
        code = run(["steinitz", "--in", lat_path, "--out", out])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 2
    data = serialize.load(out)
    assert data["known_trivial"] is False and data["generator"] is None


def _bad_lattices():
    good = serialize.lattice_to_json(build("X", 3))
    return {
        "a list": ([good], "lattice must be a JSON object"),
        "no sigma": ({k: v for k, v in good.items() if k != "sigma"}, "lacks the field 'sigma'"),
        "no group": ({k: v for k, v in good.items() if k != "group"}, "lacks the field 'group'"),
        "rank null": (dict(good, rank=None), "field 'rank' must be an integer"),
        "sigma a number": (dict(good, sigma=5), "sigma must be a JSON list of rows"),
        "sigma null entry": (dict(good, sigma=[[None] * 3] * 3), "sigma entries must be integers"),
        "rank not the width": (dict(good, rank=5), "sigma has 3 columns where 5 were declared"),
        "ragged sigma": (
            dict(good, sigma=[[1, 0, 0], [0, 1, 0], [0, 1]]),
            "sigma row 2 has 2 columns where row 0 has 3",
        ),
        # JSON numbers that are not integers are refused, never truncated
        "fractional entry": (
            {"group": {"kind": "cyclic", "n": 2}, "rank": 1, "sigma": [[-1.5]]},
            "sigma entries must be integers, not -1.5",
        ),
        "fractional n and rank": (
            {"group": {"kind": "cyclic", "n": 2.7}, "rank": 1.2, "sigma": [[-1]]},
            "group field 'n' must be an integer, not 2.7",
        ),
        "fractional rank": (
            {"group": {"kind": "cyclic", "n": 2}, "rank": 1.2, "sigma": [[-1]]},
            "lattice field 'rank' must be an integer, not 1.2",
        ),
        "integral float n": (
            {"group": {"kind": "cyclic", "n": 2.0}, "rank": 1, "sigma": [[-1]]},
            "group field 'n' must be an integer, not 2.0",
        ),
        "string rank": (dict(good, rank="3"), "lattice field 'rank' must be an integer, not '3'"),
        # a cyclic group drops tau, but only after checking its shape
        "cyclic tau not square": (
            {"group": {"kind": "cyclic", "n": 2}, "rank": 1, "sigma": [[-1]], "tau": [[1], [1]]},
            "generator matrices must be square",
        ),
        "cyclic tau given": (
            {"group": {"kind": "cyclic", "n": 2}, "rank": 1, "sigma": [[-1]], "tau": [[7]]},
            "'tau'",
        ),
        "bool entry": (
            {"group": {"kind": "cyclic", "n": 2}, "rank": 1, "sigma": [[True]]},
            "sigma entries must be integers, not True",
        ),
        "fractional ideal p": (
            dict(good, annotations={"non_principal_ideal": {"p": 3.5, "basis": [[1]]}}),
            "ideal field 'p' must be an integer, not 3.5",
        ),
        "fractional ideal entry": (
            dict(good, annotations={"non_principal_ideal": {"p": 3, "basis": [[1.0]]}}),
            "ideal basis entries must be integers, not 1.0",
        ),
        "ragged ideal basis": (
            dict(good, annotations={"non_principal_ideal": {"p": 3, "basis": [[1, 0], [0]]}}),
            "ideal basis row 1 has 1 columns where row 0 has 2",
        ),
        # the string "false" is not the JSON boolean false
        "string real_subfield": (
            dict(good, annotations={"non_principal_ideal": {
                "p": 5, "real_subfield": "false", "basis": IntMatrix.identity(4).tolists(),
            }}),
            "ideal field 'real_subfield' must be true or false, not 'false'",
        ),
        "ideal not an object": (
            dict(good, annotations={"non_principal_ideal": [[1, 0], [0, 1]]}),
            "annotation 'non_principal_ideal' must be a JSON object",
        ),
        # only null or an absent field means no annotations; a falsy value is no object
        "annotations 0": (dict(good, annotations=0), "annotations must be a JSON object"),
        "annotations false": (dict(good, annotations=False), "annotations must be a JSON object"),
        "annotations empty string": (dict(good, annotations=""), "annotations must be a JSON object"),
        "annotations empty list": (dict(good, annotations=[]), "annotations must be a JSON object"),
    }


@pytest.mark.parametrize("case", sorted(_bad_lattices()))
def test_malformed_lattice_file_exits_3(tmp_path, capsys, case):
    doc, named = _bad_lattices()[case]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    for cmd in ("classify", "cohomology", "resolve", "steinitz"):
        assert run([cmd, "--in", path]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err and "Traceback" not in err
    assert run(["iso", "--a", path, "--b", path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err and "Traceback" not in err


def test_malformed_class_table_exits_3(tmp_path, capsys):
    lat_path = tmp_path / "x5.json"
    lat_path.write_text(json.dumps(serialize.lattice_to_json(build("X", 5))))
    table_path = tmp_path / "table.json"
    for doc, named in (
        ({"p": 5, "h": 1, "h_plus": 1}, "class table must be a JSON list"),
        ([{"p": 5, "h": 1}], "class table row 0 lacks the field 'h_plus'"),
        ([{"p": 5, "h": 1, "h_plus": 1.5}], "class table row 0 field 'h_plus' must be an integer"),
        ([{"p": 5, "h": True, "h_plus": 1}], "class table row 0 field 'h' must be an integer"),
        ([{"p": 5, "h": 1.5, "h_plus": 1}], "class table row 0 field 'h' must be an integer"),
        ([{"p": 5, "h": "1", "h_plus": 1}], "class table row 0 field 'h' must be an integer"),
    ):
        table_path.write_text(json.dumps(doc))
        for args in (["classify", "--in", lat_path], ["table", "--p", 5]):
            assert run(args + ["--table", table_path]) == 3
            err = capsys.readouterr().err
            assert err.startswith("error: ") and named in err and "Traceback" not in err


def test_json_roundtrips():
    lat = build("MminusTilde", 5)
    doc = serialize.lattice_to_json(lat)
    back, _ = serialize.lattice_from_json(json.loads(json.dumps(doc)))
    assert back == lat
    cy = serialize.lattice_to_json(ideal_cyclic_lattice(unit_ideal(5)))
    back, _ = serialize.lattice_from_json(cy)
    assert back.group == cyclic(5)
    ideal = prime_ideal_above(5, 2, factor_cyclotomic_mod(5, 2)[0])
    assert serialize.ideal_from_json(serialize.ideal_to_json(ideal)) == ideal
    rows = [
        {"p": 5, "h": 1, "h_plus": 1, "source": "Washington"},
        {"p": 23, "h": 3, "h_plus": 1, "source": "Washington"},
        {"p": 29, "h": None, "h_plus": 1},
    ]
    table = serialize.class_table_from_json(json.loads(json.dumps(rows)))
    assert table.entries == ((5, 1, 1, "Washington"), (23, 3, 1, "Washington"), (29, None, 1, ""))


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_table_matches_golden(tmp_path, p):
    import os
    from pathlib import Path

    golden = Path(__file__).parent / "golden" / f"table_p{p}.json"
    out = tmp_path / "table.json"
    assert run(["table", "--p", p, "--h1", "--out", out]) == 0
    if os.environ.get("REGEN_GOLDEN") == "1":
        golden.write_bytes(out.read_bytes())
    assert out.read_bytes() == golden.read_bytes()


def test_custom_class_table_flag(tmp_path):
    table_path = tmp_path / "table.json"
    table_path.write_text(
        json.dumps([{"p": 5, "h": 1, "h_plus": 1, "source": "test"}])
    )
    lat_path = tmp_path / "x5.json"
    lat_path.write_text(json.dumps(serialize.lattice_to_json(build("X", 5))))
    assert run(["classify", "--in", lat_path, "--table", table_path, "--budget-draws", 200]) == 0
    # a table claiming h_5^+ unknown: X@5 has an explicit witness all the same
    table_path.write_text(json.dumps([{"p": 5, "h": None, "h_plus": 2, "source": "test"}]))
    assert run(["classify", "--in", lat_path, "--table", table_path, "--budget-draws", 200]) == 0
    # Y1 + X@5 is above the cap whole, but its literal blocks Y1 and X each
    # have an explicit witness, so the table is not read
    sum_path = tmp_path / "y1x5.json"
    sum_path.write_text(json.dumps(serialize.lattice_to_json(direct_sum(build("Y1", 5), build("X", 5)))))
    assert run(["classify", "--in", sum_path, "--table", table_path, "--budget-draws", 200]) == 0
    # the pool's ext:R<Y1@5 is one block searched nowhere (M of rank 10, its
    # flabby part of rank 12, above the cap), so the table decides and forces
    # the retract floor
    ext_path = tmp_path / "r_y1_5.json"
    ext_path.write_text(json.dumps(serialize.lattice_to_json(pool_lattice("ext:R<Y1@5"))))
    code = run(["classify", "--in", ext_path, "--table", table_path, "--budget-draws", 200])
    assert code == 1  # RetractRationalOnly
