"""JSON (de)serialization for lattices, tables, ideals, and verdicts."""

from __future__ import annotations

import json
from typing import Any

from .exactla import AbelianInvariants, IntMatrix
from .groups import GroupSpec, cyclic, dihedral
from .lattices import GLattice, LatticeError
from .cohomology import CohomologyTable
from .cyclotomic import IdealHNF, ideal_from_rows
from .steinitz import ClassTable, SteinitzClassRep


def matrix_to_json(m: IntMatrix) -> list:
    return [list(row) for row in m.data]


def _object(data, what: str, *required: str) -> dict:
    """data, checked to be a JSON object holding the required fields."""
    if not isinstance(data, dict):
        raise LatticeError(f"{what} must be a JSON object, not {type(data).__name__}")
    for key in required:
        if key not in data:
            raise LatticeError(f"{what} lacks the field {key!r}")
    return data


def _is_int(x) -> bool:
    """True for a JSON integer; a float such as 2.0, a bool or a string is not one."""
    return isinstance(x, int) and not isinstance(x, bool)


def _int(data: dict, key: str, what: str) -> int:
    if not _is_int(data[key]):
        raise LatticeError(f"{what} field {key!r} must be an integer, not {data[key]!r}")
    return data[key]


def matrix_from_json(data, cols: int | None = None, what: str = "matrix") -> IntMatrix:
    if not isinstance(data, list) or not all(isinstance(row, list) for row in data):
        raise LatticeError(f"{what} must be a JSON list of rows")
    if not data and cols is None:
        raise LatticeError("empty matrix needs an explicit column count")
    if data and cols is not None and len(data[0]) != cols:
        raise LatticeError(f"{what} has {len(data[0])} columns where {cols} were declared")
    for i, row in enumerate(data):
        if len(row) != len(data[0]):
            raise LatticeError(f"{what} row {i} has {len(row)} columns where row 0 has {len(data[0])}")
        for x in row:
            if not _is_int(x):
                raise LatticeError(f"{what} entries must be integers, not {x!r}")
    return IntMatrix(data, cols=cols)


def group_to_json(g: GroupSpec) -> dict:
    return {"kind": g.kind, "n": g.n}


def group_from_json(data: dict) -> GroupSpec:
    kind = _object(data, "group", "kind", "n")["kind"]
    if kind == "dihedral":
        return dihedral(_int(data, "n", "group"))
    if kind == "cyclic":
        return cyclic(_int(data, "n", "group"))
    raise LatticeError(f"unknown group kind {kind!r}")


def lattice_to_json(m: GLattice, annotations: dict | None = None) -> dict:
    out: dict[str, Any] = {
        "group": group_to_json(m.group),
        "rank": m.rank,
        "sigma": matrix_to_json(m.sigma),
        "tau": matrix_to_json(m.tau) if m.tau is not None else None,
    }
    if annotations:
        out["annotations"] = annotations
    return out


def lattice_from_json(data: dict) -> tuple[GLattice, dict]:
    _object(data, "lattice", "group", "rank", "sigma")
    g = group_from_json(data["group"])
    rank = _int(data, "rank", "lattice")
    sigma = matrix_from_json(data["sigma"], cols=rank, what="sigma")
    tau = None
    if data.get("tau") is not None:
        tau = matrix_from_json(data["tau"], cols=rank, what="tau")
    lat = GLattice(g, sigma, tau)
    if tau is not None and lat.tau is None:
        raise LatticeError("lattice field 'tau' must be null or absent over a cyclic group")
    raw = data.get("annotations")
    annotations = {} if raw is None else dict(_object(raw, "annotations"))
    if "non_principal_ideal" in annotations:
        ideal = _object(annotations["non_principal_ideal"], "annotation 'non_principal_ideal'")
        annotations["non_principal_ideal"] = ideal_from_json(ideal)
    return lat, annotations


def map_to_json(matrix: IntMatrix, source: str, target: str) -> dict:
    return {"matrix": matrix_to_json(matrix), "source": source, "target": target}


def invariants_to_json(inv: AbelianInvariants) -> dict:
    return {"torsion": list(inv.torsion), "free_rank": inv.free_rank}


def table_to_json(t: CohomologyTable) -> dict:
    classes = {}
    for label, hm1, h0, h1v in t.entries:
        classes[label] = {
            "hminus1": invariants_to_json(hm1),
            "h0": invariants_to_json(h0),
            "h1": invariants_to_json(h1v),
        }
    return {"lattice": t.lattice_id, "classes": classes}


def ideal_to_json(i: IdealHNF) -> dict:
    return {
        "p": i.p,
        "real_subfield": i.real_subfield,
        "basis": matrix_to_json(i.basis),
    }


def ideal_from_json(data: dict) -> IdealHNF:
    _object(data, "ideal", "p", "basis")
    real = data.get("real_subfield", False)
    if not isinstance(real, bool):
        raise LatticeError(f"ideal field 'real_subfield' must be true or false, not {real!r}")
    return ideal_from_rows(
        _int(data, "p", "ideal"),
        matrix_from_json(data["basis"], what="ideal basis"),
        real,
    )


def steinitz_to_json(rep: SteinitzClassRep) -> dict:
    return {
        "ideal": ideal_to_json(rep.ideal),
        "known_trivial": rep.known_trivial,
        "generator": list(rep.generator) if rep.generator is not None else None,
    }


def class_table_from_json(data) -> ClassTable:
    if not isinstance(data, list):
        raise LatticeError(f"class table must be a JSON list of rows, not {type(data).__name__}")
    entries = []
    for i, row in enumerate(data):
        what = f"class table row {i}"
        _object(row, what, "p", "h_plus")
        h = None if row.get("h") is None else _int(row, "h", what)
        entries.append((_int(row, "p", what), h, _int(row, "h_plus", what), row.get("source", "")))
    return ClassTable(entries=tuple(entries))


def dump(obj: dict | list, path: str | None) -> str:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def load(path: str):
    with open(path) as fh:
        return json.load(fh)
