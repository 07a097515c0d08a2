"""Deterministic JSON serialization for reports.

Floats are written with 17 significant digits (exact round-trip), nesting is
indented two spaces a level, keys keep insertion order, and a complex number
is an [re, im] pair, so identical configurations produce bit-identical
output.  Records hold numpy arrays as they are: a float or complex array is
written with one %-format of a template cached per (shape, indent level),
laid out as the nested lists it stands for (a real 1-D array, or each
[re, im] pair, inline on one line).
"""

from __future__ import annotations

import functools
import json

import numpy as np

__all__ = ["dumps"]


@functools.cache
def _template(shape: tuple, level: int) -> str:
    """%-format for a float array of this shape written at this indent level."""
    if not shape:
        return "%.17g"
    if len(shape) == 1:
        return "[" + ", ".join(["%.17g"] * shape[0]) + "]"
    if shape[0] == 0:
        return "[]"
    item = "  " * (level + 1) + _template(shape[1:], level + 1)
    return "[\n" + ",\n".join([item] * shape[0]) + "\n" + "  " * level + "]"


def _write(obj, out, level):
    pad, pad_in = "  " * level, "  " * (level + 1)
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append("%.17g" % obj)
    elif isinstance(obj, np.ndarray) and obj.dtype.kind in "fc":
        cplx = obj.dtype.kind == "c"  # written through a float view whose trailing axis holds (re, im)
        values = obj.ravel().view(obj.real.dtype) if cplx else obj.ravel()
        out.append(_template(obj.shape + (2,) * cplx, level) % tuple(values.tolist()))
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
            out.append("[" + ", ".join("%.17g" % x if isinstance(x, (float, np.floating)) else str(int(x)) for x in items) + "]")
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
