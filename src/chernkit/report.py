"""Deterministic JSON serialization for reports.

Floats are written with 17 significant digits (exact round-trip), nesting is
indented two spaces a level, keys keep insertion order, and a complex number
is an [re, im] pair, so identical configurations produce bit-identical
output.  Records hold numpy arrays as they are: a float or complex array is
laid out as the nested lists it stands for (a real 1-D array, or each
[re, im] pair, inline on one line), and so is a list or tuple of plain
numbers, in which a 0-d real float array counts as the number it holds.
Strings are written as json.dumps writes them.

One walk writes a document as a %-template, with a placeholder for each
number, and collects the numbers in order; one %-operation then formats
them all.  Only the template of an array, per (shape, indent), is cached.
"""

from __future__ import annotations

import functools
from json.encoder import encode_basestring_ascii as _json_str  # json.dumps of a str

import numpy as np

__all__ = ["dumps"]

_NUMBER = (int, float, np.integer, np.floating)
_FLOATS = (float, np.floating)


def _is_real_scalar(x) -> bool:
    """True for a 0-d real float array, which is written as the number it holds."""
    return isinstance(x, np.ndarray) and x.ndim == 0 and x.dtype.kind == "f"


@functools.lru_cache(maxsize=256)
def _array_template(shape: tuple, pad: str) -> str:
    """%-format for a float array of this shape written after the line break and indent pad."""
    if not shape:
        return "%.17g"
    if len(shape) == 1:
        return "[" + ", ".join(["%.17g"] * shape[0]) + "]"
    if shape[0] == 0:
        return "[]"
    pad_in = pad + "  "
    return "[" + ",".join([pad_in + _array_template(shape[1:], pad_in)] * shape[0]) + pad + "]"


def _walk(obj, out: list, values: list, pad: str) -> None:
    """Append obj's %-template to out and its numbers, in order, to values.

    pad is the line break and indent of obj's level.  The kinds are tested
    most frequent first; none is an instance of two of them, except a bool,
    which is an int and is tested first.
    """
    if isinstance(obj, _FLOATS):
        out.append("%.17g")
        values.append(obj)
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        pad_in, sep = pad + "  ", "{"
        for k, v in obj.items():
            out.append(sep + pad_in + _json_str(str(k)).replace("%", "%%") + ": ")
            _walk(v, out, values, pad_in)
            sep = ","
        out.append(pad + "}")
    elif isinstance(obj, np.ndarray) and obj.dtype.kind in "fc":
        cplx = obj.dtype.kind == "c"  # written through a float view whose trailing axis holds (re, im)
        out.append(_array_template(obj.shape + (2,) * cplx, pad))
        values += (obj.ravel().view(obj.real.dtype) if cplx else obj.ravel()).tolist()
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append("%d")
        values.append(int(obj))
    elif isinstance(obj, str):
        out.append(_json_str(obj).replace("%", "%%"))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
        elif all(isinstance(x, _NUMBER) or _is_real_scalar(x) for x in obj):  # a plain list of numbers, written inline
            nums = [x.item() if isinstance(x, np.ndarray) else x for x in obj]
            out.append("[" + ", ".join(["%.17g" if isinstance(x, _FLOATS) else "%d" for x in nums]) + "]")
            values += [x if isinstance(x, _FLOATS) else int(x) for x in nums]
        else:
            pad_in, sep = pad + "  ", "["
            for v in obj:
                out.append(sep + pad_in)
                _walk(v, out, values, pad_in)
                sep = ","
            out.append(pad + "]")
    elif obj is None:
        out.append("null")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    out, values = [], []
    _walk(obj, out, values, "\n")
    return "".join(out) % tuple(values) + "\n"
