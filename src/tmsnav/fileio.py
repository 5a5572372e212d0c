"""File boundary: the one validated JSON parse path and byte-stable writers.

Identical inputs produce identical bytes, which the command-line layer
relies on for reproducibility.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import types
import typing
from enum import Enum
from functools import cache, partial
from pathlib import Path
from typing import Annotated

import numpy as np

from .errors import ValidationError
from .transforms import RigidTransform

# array annotations carry their shape; -1 is a free length
Vec3 = Annotated[np.ndarray, (3,)]
Points = Annotated[np.ndarray, (-1, 3)]


def canonical_json(obj) -> str:
    """JSON text with sorted keys and a trailing newline."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_json(path, obj) -> None:
    Path(path).write_text(canonical_json(obj))


def read_json(path):
    """Decoded JSON document; an unreadable or undecodable file is a ValidationError."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as err:
        raise ValidationError(f"cannot read JSON from {path}: {err}") from err


_hints = cache(partial(typing.get_type_hints, include_extras=True))


def _bad(where: str, expected: str, value) -> ValidationError:
    return ValidationError(f"{where} must be {expected}, got {value!r:.80}")


def _array(value, shape: tuple, where: str) -> np.ndarray:
    """Finite float array of `shape` (-1: any length) from nested JSON numbers."""
    try:
        a = np.asarray(value)
    except ValueError:  # ragged nesting
        a = np.asarray(None)
    if a.dtype.kind not in "iuf" or a.ndim != len(shape) or not np.isfinite(a).all() \
            or any(s not in (n, -1) for n, s in zip(a.shape, shape)):
        raise _bad(where, f"finite numbers of shape {shape}", value)
    return a.astype(float)


def parse(tp, value, where: str):
    """Value of annotation `tp` built from decoded JSON, checked all the way down.

    A dataclass reads one key per init field, named by the field or its
    metadata "json" (a key pair: a pose as 9-value "rotation" and
    "translation"); absent optional keys take the field defaults. A
    missing, unknown, ill-typed or non-finite value, or a ValueError from
    the dataclass's own checks, raises a ValidationError naming the key path.
    """
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is Annotated:
        return _array(value, args[1], where)
    if origin in (typing.Union, types.UnionType):  # X | None
        (inner,) = [a for a in args if a is not type(None)]
        return None if value is None else parse(inner, value, where)
    if origin is tuple:
        fixed = args[-1] is not Ellipsis
        if not isinstance(value, list) or fixed and len(value) != len(args):
            raise _bad(where, f"a list of {len(args)}" if fixed else "a list", value)
        items = args if fixed else args[:1] * len(value)
        return tuple(parse(t, v, f"{where}[{i}]") for i, (t, v) in enumerate(zip(items, value)))
    if tp is RigidTransform:
        try:
            return RigidTransform.from_matrix(_array(value, (16,), where))
        except ValidationError as err:  # "coil.matrix" reads "coil matrix ..."
            raise ValidationError(f"{where.removesuffix('.matrix')} {err}") from None
    if origin is dict or dataclasses.is_dataclass(tp):
        if not isinstance(value, dict):
            raise _bad(where, "an object", value)
        if origin is dict:
            return {k: parse(args[1], v, f"{where}.{k}") for k, v in value.items()}
        return _dataclass(tp, value, where)
    if isinstance(tp, type) and issubclass(tp, Enum):
        try:
            return tp(value)
        except (ValueError, TypeError):
            raise _bad(where, "one of " + ", ".join(m.value for m in tp), value) from None
    if tp is float:  # the bound also keeps out NaN, inf and ints too large for a float
        if type(value) in (int, float) and abs(value) <= sys.float_info.max:
            return float(value)
    elif type(value) is (str if tp is Path else tp):  # so never a bool for an int
        return tp(value)
    kinds = {float: "a finite number", int: "an integer", bool: "true or false"}
    raise _bad(where, kinds.get(tp, "a string"), value)


def _dataclass(cls, doc: dict, where: str):
    kwargs, known = {}, set()
    for f in [f for f in dataclasses.fields(cls) if f.init]:
        key = f.metadata.get("json", f.name)
        keys = key if isinstance(key, tuple) else (key,)
        known.update(keys)
        missing = [k for k in keys if k not in doc]
        if missing:
            required = f.default is f.default_factory is dataclasses.MISSING
            if not required and len(missing) == len(keys):
                continue
            raise ValidationError(f"{where}.{missing[0]} is required")
        if isinstance(key, tuple):  # [R | t] from the two keys
            r, t = (_array(doc[k], s, f"{where}.{k}") for k, s in zip(key, ((9,), (3,))))
            value = [*np.c_[r.reshape(3, 3), t].ravel(), 0.0, 0.0, 0.0, 1.0]
        else:
            value = doc[key]
        kwargs[f.name] = parse(_hints(cls)[f.name], value, f"{where}.{keys[0]}")
    unknown = sorted(set(doc) - known)
    if unknown:
        raise ValidationError(f"{where}.{unknown[0]} is not a known key; expected one of "
                              + ", ".join(sorted(known)))
    try:
        return cls(**kwargs)
    except ValueError as err:
        raise ValidationError(f"{where}: {err}") from None


def format_float(x: float) -> str:
    """Shortest round-trip decimal form (repr of a Python float)."""
    return repr(float(x))


def write_csv(path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            format_float(v) if isinstance(v, float) else str(v) for v in row
        ))
    Path(path).write_text("\n".join(lines) + "\n")


def polyline_svg(series: dict[str, list[float]], x_values: list[float],
                 title: str = "", width: int = 640, height: int = 360) -> str:
    """Plain polyline plot of named series over shared x values."""
    margin = 40.0
    xs = [float(x) for x in x_values]
    all_y = [float(v) for ys in series.values() for v in ys]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(all_y), max(all_y)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def sx(x):
        return margin + (x - x_lo) / x_span * (width - 2 * margin)

    def sy(y):
        return height - margin - (y - y_lo) / y_span * (height - 2 * margin)

    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
    ]
    for i, (name, ys) in enumerate(sorted(series.items())):
        color = palette[i % len(palette)]
        points = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>'
        )
        parts.append(
            f'<text x="{width - margin + 4}" y="{30 + 16 * i}" fill="{color}" '
            f'font-family="sans-serif" font-size="11">{name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
