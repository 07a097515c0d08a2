"""Deterministic JSON serialization for reports.

Floats are written with 17 significant digits (exact round-trip), nesting is
indented two spaces a level, keys keep insertion order, and complex values
are encoded as [re, im] pairs by the helpers below — so identical
configurations produce bit-identical output.
"""

from __future__ import annotations

import json

import numpy as np

__all__ = ["dumps", "complex_pair", "point_json", "matrix_json"]


def complex_pair(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def point_json(p) -> list:
    return [complex_pair(z) for z in np.asarray(p).ravel()]


def matrix_json(m) -> list:
    return [[complex_pair(z) for z in row] for row in np.asarray(m)]


def _write(obj, out, level):
    pad, pad_in = "  " * level, "  " * (level + 1)
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format(float(obj), ".17g"))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (k, v) in enumerate(obj.items()):
            out.append(f"{pad_in}{json.dumps(str(k))}: ")
            _write(v, out, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        items = list(obj)
        if not items:
            out.append("[]")
            return
        simple = all(isinstance(x, (int, float, np.integer, np.floating)) for x in items)
        if simple:
            out.append("[" + ", ".join(format(float(x), ".17g") if isinstance(x, (float, np.floating)) else str(int(x)) for x in items) + "]")
            return
        out.append("[\n")
        for i, v in enumerate(items):
            out.append(pad_in)
            _write(v, out, level + 1)
            out.append(",\n" if i < len(items) - 1 else "\n")
        out.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    out: list = []
    _write(obj, out, 0)
    return "".join(out) + "\n"
