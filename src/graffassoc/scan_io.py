"""Scan file format: a human-diffable JSON document of lines and planes.

Schema (version 1)::

    {
      "schema": 1,
      "id": "scan-a",
      "objects": [
        {"kind": "line",  "line":  {"direction": [x, y, z], "point": [x, y, z]},
         "centroid": [x, y, z]},          # centroid optional
        {"kind": "plane", "plane": {"normal": [x, y, z], "d": 1.5}}
      ]
    }

Coordinates are JSON numbers (not strings), finite and at most 1e150 in
magnitude.  Directions and normals must be unit vectors; deviations up to
1e-3 are silently renormalized, anything larger is renormalized with a
warning, and zero norms are rejected.  Loader errors name the field.  Load and
save go between the document and the `Scan` arrays, building no per-object element.
"""

from __future__ import annotations

import json
import math
import warnings
from pathlib import Path

import numpy as np

from .consistency import Scan, _scan_rows
from .graff_core import _flips, _stacked_frames, _unit_rows

__all__ = ["ScanFormatError", "SCHEMA_VERSION", "load_scan", "save_scan", "scan_to_dict", "scan_from_dict"]

SCHEMA_VERSION = 1

_NORM_WARN_TOL = 1e-3

# bound on every coordinate: a squared distance between two bounded points is
# at most 12e300, so it and sums of many stay finite (1e308 squared overflows)
_MAX_ABS = 1e150


# each kind's (direction or normal, point or offset) field names
_FIELDS = {"line": ("direction", "point"), "plane": ("normal", "d")}


class ScanFormatError(ValueError):
    """Malformed scan document; the message names file, field and problem."""


def _numbers(values, name: str, not_numbers: str) -> np.ndarray:
    """JSON numbers as floats.  float() would also take numeric strings and
    bools; those are rejected, and so is any value not finite or beyond _MAX_ABS."""
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
        raise ScanFormatError(f"{name} {not_numbers}")
    if any(isinstance(v, float) and not math.isfinite(v) for v in values):
        raise ScanFormatError(f"{name} must be finite")
    if not all(abs(v) <= _MAX_ABS for v in values):  # exact for ints beyond float range too
        raise ScanFormatError(f"{name} must not exceed {_MAX_ABS:g} in magnitude")
    return np.array([float(v) for v in values])


def _vector(obj, field: str, where: str) -> np.ndarray:
    if not isinstance(obj, (list, tuple)) or len(obj) != 3:
        raise ScanFormatError(f"{where}.{field} must be a list of 3 numbers")
    return _numbers(obj, f"{where}.{field}", "must contain numbers only")


def _unit(obj, field: str, where: str) -> np.ndarray:
    vec = _vector(obj, field, where)
    norm = float(np.linalg.norm(vec))
    if norm < 1e-9:
        raise ScanFormatError(f"{where}.{field} has zero norm")
    if abs(norm - 1.0) > _NORM_WARN_TOL:
        warnings.warn(f"{where}.{field} norm {norm:.6g} deviates from 1; renormalizing", stacklevel=2)
    return vec / norm


def _object_from_dict(entry, index: int) -> tuple[int, np.ndarray, np.ndarray | float, np.ndarray | None]:
    """Validated fields of one object: (k, direction or normal, point or d, centroid)."""
    where = f"objects[{index}]"
    if not isinstance(entry, dict):
        raise ScanFormatError(f"{where} must be an object")
    kind = entry.get("kind")
    if kind is None:
        raise ScanFormatError(f"{where} is missing the kind field")
    if kind not in ("line", "plane"):
        raise ScanFormatError(f"{where}.kind must be 'line' or 'plane', got {kind!r}")
    (vec, off), block, at = _FIELDS[kind], entry.get(kind), f"{where}.{kind}"
    if not isinstance(block, dict):
        raise ScanFormatError(f"{at} must be an object with {vec} and {off}")
    if vec not in block or off not in block:
        raise ScanFormatError(f"{at} needs both {vec} and {off}")
    v = _unit(block[vec], vec, at)
    if kind == "line":
        fields = 1, v, _vector(block["point"], "point", at)
    else:
        fields = 2, v, float(_numbers([block["d"]], f"{at}.d", "must be a number")[0])
    centroid = entry.get("centroid")
    return *fields, None if centroid is None else _vector(centroid, "centroid", where)


def scan_from_dict(doc, source: str = "<scan>") -> Scan:
    if not isinstance(doc, dict):
        raise ScanFormatError(f"{source}: top level must be an object")
    schema = doc.get("schema")
    if schema is None:
        raise ScanFormatError(f"{source}: missing schema field")
    if schema != SCHEMA_VERSION:
        raise ScanFormatError(f"{source}: unsupported schema {schema!r}, expected {SCHEMA_VERSION}")
    scan_id = doc.get("id")
    if not isinstance(scan_id, str):
        raise ScanFormatError(f"{source}: id must be a string")
    raw_objects = doc.get("objects")
    if not isinstance(raw_objects, list):
        raise ScanFormatError(f"{source}: objects must be a list")
    parsed = []
    for index, entry in enumerate(raw_objects):
        try:
            parsed.append(_object_from_dict(entry, index))
        except ScanFormatError as exc:
            raise ScanFormatError(f"{source}: {exc}") from None
    centroids = [fields[3] for fields in parsed]
    has_centroids = any(c is not None for c in centroids)
    if has_centroids and not all(c is not None for c in centroids):
        raise ScanFormatError(f"{source}: either all objects carry a centroid or none do")

    def frames_of(k, idx):
        v, x = np.array([parsed[i][1] for i in idx]), np.array([parsed[i][2] for i in idx])
        return _stacked_frames(k, _unit_rows(v), x)  # as LinePD / PlaneHesse, v is normalized once more

    kinds = np.array([fields[0] for fields in parsed], dtype=int)
    rep, b0, _ = _scan_rows(kinds, frames_of)
    return Scan(scan_id, kinds, rep, b0, np.array(centroids) if has_centroids else None)


def load_scan(path) -> Scan:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ScanFormatError(f"{path}: cannot read file: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScanFormatError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    return scan_from_dict(doc, source=str(path))


def scan_to_dict(scan: Scan) -> dict:
    """The scan as a schema document, in LinePD's and PlaneHesse's arithmetic: unit
    directions or normals (normalized once more), line points b0, plane offsets
    d = |b0| with the normal turned toward b0, or at d = 0 its first nonzero
    entry made positive."""
    n_b0 = (scan.rep[:, None, :] @ scan.b0[:, :, None])[:, 0, 0]
    d = np.sqrt((scan.b0[:, None, :] @ scan.b0[:, :, None])[:, 0, 0])
    v = _unit_rows(scan.rep)
    flip = (scan.kinds == 2) & _flips(v, np.where(d > 0.0, n_b0, 0.0))
    v = np.where(flip[:, None], -v, v).tolist()
    objects = []
    for index, (k, b0) in enumerate(zip(scan.kinds.tolist(), scan.b0.tolist())):
        if k == 1:
            entry = {"kind": "line", "line": {"direction": v[index], "point": b0}}
        else:
            entry = {"kind": "plane", "plane": {"normal": v[index], "d": float(d[index])}}
        if scan.centroids is not None:
            entry["centroid"] = scan.centroids[index].tolist()
        objects.append(entry)
    return {"schema": SCHEMA_VERSION, "id": scan.id, "objects": objects}


def save_scan(path, scan: Scan) -> None:
    Path(path).write_text(json.dumps(scan_to_dict(scan), indent=2) + "\n", encoding="utf-8")
