"""JSON schemas for the CLI: measures, point sets, and grid functions.

Schemas
-------
measure::

    {"type": "uniform", "d": 2}
    {"type": "discrete", "atoms": [{"x": [0.5, 0.5], "w": 1.0}, ...]}
    {"type": "product", "axes": [{"breakpoints": [...], "values": [...],
                                  "values_left": [...]}, ...]}
    {"type": "chelson"}

point set::

    {"d": 2, "points": [[...], [...], ...]}

grid function::

    {"breakpoints": [[...axis 1...], [...axis 2...]],
     "values": [... row-major vertex values ...],
     "interp": "step" | "multilinear"}
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import DimensionMismatchError, ValidationError
from .measures import (
    AxisCdf, DiscreteMeasure, ProductMeasure, UniformMeasure, _float, _floats, _int,
)
from .discrepancy import PointSet
from .transforms import chelson_measure
from .variation import GridFunction, STEP


def load_json(path) -> object:
    """The JSON document in the file ``path``, read as UTF-8 (RFC 8259).  A
    file that is not UTF-8, not JSON, nested past Python's recursion limit,
    or holds an integer past Python's integer-string limit raises
    ``ValidationError`` naming the file."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise ValidationError(
            f"{path}: malformed JSON at line {err.lineno} column {err.colno}: {err.msg}"
        ) from err
    except (ValueError, RecursionError) as err:  # not UTF-8, an integer too long, nesting
        raise ValidationError(f"{path}: {err}") from err


def _require(obj: dict, field: str, where: str):
    if not isinstance(obj, dict):
        raise ValidationError(f"{where}: expected an object")
    if field not in obj:
        raise ValidationError(f"{where}: missing field {field!r}")
    return obj[field]


def _integer(obj: dict, field: str, where: str) -> int:
    return _int(_require(obj, field, where), f"{where}.{field}")


def _numbers(value, where: str) -> np.ndarray:
    """A (possibly nested) list of numbers as a float array: a JSON value
    that is not a list is refused here, its entries by ``_floats``."""
    if not isinstance(value, list):
        raise ValidationError(f"{where}: expected a list of numbers")
    return _floats(value, where)


def measure_from_dict(obj, where: str = "measure"):
    kind = _require(obj, "type", where)
    if kind == "uniform":
        return UniformMeasure(_integer(obj, "d", where))
    if kind == "discrete":
        atoms = _require(obj, "atoms", where)
        if not isinstance(atoms, list) or not atoms:
            raise ValidationError(f"{where}.atoms: expected a nonempty list")
        locs, ws = [], []
        for i, atom in enumerate(atoms):
            at = f"{where}.atoms[{i}]"
            locs.append(_numbers(_require(atom, "x", at), f"{at}.x"))
            ws.append(_float(_require(atom, "w", at), f"{at}.w"))
        d = locs[0].size
        for i, loc in enumerate(locs):
            if loc.size != d:
                raise DimensionMismatchError(
                    f"{where}.atoms[{i}].x has {loc.size} coordinates, expected {d}"
                )
        locations = np.array([loc.reshape(-1) for loc in locs])
        return DiscreteMeasure.from_points(d, locations, ws)
    if kind == "product":
        axes = _require(obj, "axes", where)
        if not isinstance(axes, list) or not axes:
            raise ValidationError(f"{where}.axes: expected a nonempty list")
        built = []
        for i, ax in enumerate(axes):
            at = f"{where}.axes[{i}]"
            breakpoints = _numbers(_require(ax, "breakpoints", at), f"{at}.breakpoints")
            values = _numbers(_require(ax, "values", at), f"{at}.values")
            left = ax.get("values_left")
            built.append(AxisCdf(
                breakpoints, values, None if left is None else _numbers(left, f"{at}.values_left")
            ))
        return ProductMeasure(built)
    if kind == "chelson":
        return chelson_measure()
    raise ValidationError(f"{where}.type: unknown measure type {kind!r}")


def points_from_dict(obj, where: str = "points"):
    d = _integer(obj, "d", where)
    pts = _numbers(_require(obj, "points", where), f"{where}.points")
    return PointSet(d, pts)


def points_to_dict(ps: PointSet) -> dict:
    return {"d": ps.dimension, "points": ps.points.tolist()}


def grid_function_from_dict(obj, where: str = "function") -> GridFunction:
    bps = _require(obj, "breakpoints", where)
    if not isinstance(bps, list):
        raise ValidationError(f"{where}.breakpoints: expected a list of axes")
    bps = [_numbers(b, f"{where}.breakpoints[{i}]") for i, b in enumerate(bps)]
    values = _numbers(_require(obj, "values", where), f"{where}.values")
    interp = obj.get("interp", STEP)
    return GridFunction(bps, values, interp)


def grid_function_to_dict(f: GridFunction) -> dict:
    return {
        "breakpoints": [b.tolist() for b in f.breakpoints],
        "values": f.values.reshape(-1).tolist(),
        "interp": f.interp,
    }


def load_measure(path):
    return measure_from_dict(load_json(path), where=str(path))


def load_points(path) -> PointSet:
    return points_from_dict(load_json(path), where=str(path))


def load_grid_function(path) -> GridFunction:
    return grid_function_from_dict(load_json(path), where=str(path))
