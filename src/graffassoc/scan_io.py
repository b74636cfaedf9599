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

Directions and normals must be unit vectors; deviations up to 1e-3 are
silently renormalized, anything larger is renormalized with a warning, and
zero-norm or non-finite values are rejected.  Loader errors always name the
offending field.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path

import numpy as np

from .consistency import Scan
from .graff_core import GraffElement, _stacked_frames, _unit_rows, to_hesse, to_pd

__all__ = ["ScanFormatError", "SCHEMA_VERSION", "load_scan", "save_scan", "scan_to_dict", "scan_from_dict"]

SCHEMA_VERSION = 1

_NORM_WARN_TOL = 1e-3


class ScanFormatError(ValueError):
    """Malformed scan document; the message names file, field and problem."""


def _vector(obj, field: str, where: str) -> np.ndarray:
    if not isinstance(obj, (list, tuple)) or len(obj) != 3:
        raise ScanFormatError(f"{where}.{field} must be a list of 3 numbers")
    try:
        if any(isinstance(v, bool) for v in obj):  # float(True) would read as 1.0
            raise TypeError
        vec = np.array([float(v) for v in obj], dtype=float)
    except (TypeError, ValueError):
        raise ScanFormatError(f"{where}.{field} must contain numbers only") from None
    if not np.all(np.isfinite(vec)):
        raise ScanFormatError(f"{where}.{field} must be finite")
    return vec


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
    if kind == "line":
        block = entry.get("line")
        if not isinstance(block, dict):
            raise ScanFormatError(f"{where}.line must be an object with direction and point")
        if "direction" not in block or "point" not in block:
            raise ScanFormatError(f"{where}.line needs both direction and point")
        direction = _unit(block["direction"], "direction", f"{where}.line")
        fields = 1, direction, _vector(block["point"], "point", f"{where}.line")
    elif kind == "plane":
        block = entry.get("plane")
        if not isinstance(block, dict):
            raise ScanFormatError(f"{where}.plane must be an object with normal and d")
        if "normal" not in block or "d" not in block:
            raise ScanFormatError(f"{where}.plane needs both normal and d")
        normal = _unit(block["normal"], "normal", f"{where}.plane")
        try:
            if isinstance(block["d"], bool):
                raise TypeError
            d = float(block["d"])
        except (TypeError, ValueError):
            raise ScanFormatError(f"{where}.plane.d must be a number") from None
        if not np.isfinite(d):
            raise ScanFormatError(f"{where}.plane.d must be finite")
        fields = 2, normal, d
    elif kind is None:
        raise ScanFormatError(f"{where} is missing the kind field")
    else:
        raise ScanFormatError(f"{where}.kind must be 'line' or 'plane', got {kind!r}")
    centroid = None
    if "centroid" in entry and entry["centroid"] is not None:
        centroid = _vector(entry["centroid"], "centroid", where)
    return *fields, centroid


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
    objects = [None] * len(parsed)
    for k in (1, 2):
        idx = [i for i, fields in enumerate(parsed) if fields[0] == k]
        if idx:
            # LinePD and PlaneHesse normalize the (already unit) vectors once more
            v, x = _unit_rows(np.array([parsed[i][1] for i in idx])), np.array([parsed[i][2] for i in idx])
            for i, A, b0 in zip(idx, *_stacked_frames(k, v, x)):
                objects[i] = GraffElement(A, b0)
    return Scan(
        id=scan_id,
        objects=tuple(objects),
        centroids=tuple(centroids) if has_centroids else None,
    )


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
    objects = []
    for index, el in enumerate(scan.objects):
        if el.k == 1:
            line = to_pd(el)
            entry = {"kind": "line", "line": {"direction": list(line.a), "point": list(line.p)}}
        else:
            plane = to_hesse(el)
            entry = {"kind": "plane", "plane": {"normal": list(plane.n), "d": plane.d}}
        if scan.centroids is not None:
            entry["centroid"] = list(np.asarray(scan.centroids[index], dtype=float))
        objects.append(entry)
    return {"schema": SCHEMA_VERSION, "id": scan.id, "objects": objects}


def save_scan(path, scan: Scan) -> None:
    Path(path).write_text(json.dumps(scan_to_dict(scan), indent=2) + "\n", encoding="utf-8")
