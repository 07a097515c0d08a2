"""The recursive list writer that reports were serialized with before records held arrays.

Records then held nested Python lists: each complex number became an
[re, im] list (point_json, matrix_json) and every float was formatted on
its own as the writer walked the lists.  `list_form` turns a record with
arrays into that form, and `dumps` renders it as the package once did, so
the tests can require report.dumps to match it byte for byte.
"""

import json

import numpy as np


def complex_pair(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def point_json(p) -> list:
    return [complex_pair(z) for z in np.asarray(p).ravel()]


def matrix_json(m) -> list:
    return [[complex_pair(z) for z in row] for row in np.asarray(m)]


def list_form(obj):
    """obj with every numpy array replaced by the nested lists it stands for."""
    if isinstance(obj, dict):
        return {k: list_form(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [list_form(v) for v in obj]
    if not isinstance(obj, np.ndarray):
        return obj
    if obj.dtype.kind != "c":
        return obj.tolist()
    return (complex_pair, point_json, matrix_json)[obj.ndim](obj)


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
