"""File boundary: one JSON codec (`parse` and its inverse `dump`), the intervals input
fields declare (`bounded`, `check_bounds`), and byte-stable writers.

Identical inputs produce identical bytes, which the command-line layer
relies on for reproducibility.
"""

from __future__ import annotations

import dataclasses
import json
import math
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

INT_BOUND = 2**53  # the largest integer magnitude parse reads: a float holds every one up to it
# array annotations carry their shape; -1 is a free length
Vec3 = Annotated[np.ndarray, (3,)]
Points = Annotated[np.ndarray, (-1, 3)]


_quote = json.encoder.encode_basestring_ascii


def _json(o, line: str) -> str:
    """`o` as JSON text; `line` is the newline and indent of the line it ends on."""
    if isinstance(o, str):
        return _quote(o)
    if o is None or o is True or o is False:
        return "null" if o is None else "true" if o else "false"
    if isinstance(o, int):
        return int.__repr__(o)
    inner = line + "  "
    if isinstance(o, (float, list, tuple)):
        try:  # a float, or a list of floats only (a vector, a matrix), in one join
            text = ("," + inner).join(map(float.__repr__, [o] if isinstance(o, float) else o))
            if "n" in text:  # a float's repr holds an n only as nan or inf
                raise ValueError("Out of range float values are not JSON compliant: "
                                 + next(t for t in text.split(",") if "n" in t).strip())
        except TypeError:
            text = ("," + inner).join([_json(v, inner) for v in o])
        return text if isinstance(o, float) else f"[{inner}{text}{line}]" if o else "[]"
    if isinstance(o, dict):
        text = ("," + inner).join([f"{_quote(_key(k))}: {_json(v, inner)}"
                                   for k, v in sorted(o.items())])
        return f"{{{inner}{text}{line}}}" if o else "{}"
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _key(k) -> str:  # json's key types: a str as it is, None, bool, int or float as text
    if not (k is None or isinstance(k, (str, int, float))):
        raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")
    return k if isinstance(k, str) else _json(k, "")


def canonical_json(obj) -> str:
    """`json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)` and a newline, byte
    for byte and with its ValueError (NaN, inf) and TypeError (a type or key it cannot
    write), without the pure-Python encoder `json` takes for an indent."""
    try:
        return _json(obj, "\n") + "\n"
    except RecursionError:  # a cycle, or nesting deeper than the stack: json decides
        return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _write_text(path, text: str) -> None:
    """Write `text` to `path`; a file that cannot be written is a ValidationError."""
    try:
        Path(path).write_text(text)
    except OSError as err:
        raise ValidationError(f"cannot write {path}: {err}") from err


def write_json(path, obj) -> None:
    """`canonical_json(obj)` written to `path`; a NaN or inf in `obj` is a ValidationError
    that names the key path of the first one written."""
    try:
        text = canonical_json(obj)
    except ValueError as err:
        try:
            where = _non_finite_at(obj, "")
        except RecursionError:  # a cycle, or nesting deeper than the stack
            where = None
        at = f" at {where}" if where else ""  # a bare NaN or inf has no key path
        raise ValidationError(f"cannot write {path}: {err}{at}") from None
    _write_text(path, text)


def _non_finite_at(o, where: str) -> str | None:
    """Key path, as `stats.primary_vpp.std` or `trains[3]`, of the first NaN or inf in
    `o` in the order `canonical_json` writes it (keys sorted), or None."""
    if isinstance(o, float):
        return None if math.isfinite(o) else where
    if isinstance(o, dict):
        items = [(f"{where}.{_key(k)}" if where else _key(k), v) for k, v in sorted(o.items())]
    elif isinstance(o, (list, tuple)):
        items = [(f"{where}[{i}]", v) for i, v in enumerate(o)]
    else:
        return None
    return next((w for w in (_non_finite_at(v, key) for key, v in items) if w is not None), None)


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

    A dataclass reads one key per field, named by the field or its
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
    elif type(value) is (str if tp is Path else tp) and (tp is not int or abs(value) <= INT_BOUND):
        return tp(value)  # never a bool for an int, nor a count that no float holds exactly
    kinds = {float: "a finite number", int: "an integer in [-2**53, 2**53]", bool: "true or false"}
    raise _bad(where, kinds.get(tp, "a string"), value)


def bounded(interval: str, default=dataclasses.MISSING, **metadata):
    """A dataclass field whose value must lie in `interval`, written as the user reads it
    ("(0, 1e6]", "[0, 1)"); `check_bounds` reads it. `metadata` is the field's other
    metadata, such as its JSON key."""
    return dataclasses.field(default=default, metadata={"interval": interval, **metadata})


@cache
def _bounds(cls) -> list:
    """(field name, JSON key, interval text, closed below, floor, ceiling, closed above) of
    each `bounded` field of `cls`."""
    return [(f.name, f.metadata.get("json", f.name), text, text[0] == "[",
             *map(float, text[1:-1].split(",")), text[-1] == "]")
            for f in dataclasses.fields(cls) if (text := f.metadata.get("interval"))]


def check_bounds(obj) -> None:
    """Raise ValidationError naming the JSON key, the value and the interval of the first
    `bounded` field of the dataclass `obj` whose value lies outside its interval (NaN does)."""
    for name, key, text, closed_lo, lo, hi, closed_hi in _bounds(type(obj)):
        v = getattr(obj, name)
        if not ((lo <= v if closed_lo else lo < v) and (v <= hi if closed_hi else v < hi)):
            raise ValidationError(f"{key} must be in {text}, got {v!r}")


def _dataclass(cls, doc: dict, where: str):
    kwargs, known = {}, set()
    for f in dataclasses.fields(cls):
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


def dump(value):
    """JSON-ready form of `value`, the inverse of `parse` over the same field metadata.

    A dataclass writes one key per field, named by the field or its
    metadata "json" (a key pair: a pose as 9-value "rotation" and
    "translation"); a RigidTransform writes its 16 matrix values, an enum
    its value, an array its nested lists and a tuple each element.
    """
    if isinstance(value, RigidTransform):
        return value.to_matrix().reshape(16).tolist()
    if dataclasses.is_dataclass(value):
        doc = {}
        for f in dataclasses.fields(value):
            key, v = f.metadata.get("json", f.name), getattr(value, f.name)
            if isinstance(key, tuple):  # [R | t] as the two keys
                doc.update(zip(key, (v.rotation.reshape(9).tolist(), v.translation.tolist())))
            else:
                doc[key] = dump(v)
        return doc
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, tuple):
        return [dump(v) for v in value]
    return value


def write_csv(path, header: list[str], rows) -> None:
    """CSV with floats in their shortest round-trip form (the repr of a Python float); a NaN
    or inf is a ValidationError naming its column."""
    for row in rows:
        for name, v in zip(header, row):
            if isinstance(v, float) and not math.isfinite(v):
                raise ValidationError(f"cannot write {path}: its {name} column would hold {v}")
    lines = [",".join(header)] + [",".join(float.__repr__(v) if isinstance(v, float) else str(v)
                                           for v in row) for row in rows]
    _write_text(path, "\n".join(lines) + "\n")


def write_svg(path, series: dict[str, list[float]], x_values: list[float],
              title: str = "", width: int = 640, height: int = 360) -> None:
    """Plain polyline plot of named series over shared x values, written to `path`."""
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
    _write_text(path, "\n".join(parts) + "\n</svg>\n")
