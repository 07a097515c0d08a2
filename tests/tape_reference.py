"""The compiled program run one instruction at a time, in program order.

It is the loop expr._run used before the tape was scheduled by depth, and
serves the tests as the reference the scheduled run must match bit for bit.
Every instruction goes through expr._step on its operands' own rows.
"""

import numpy as np

from chernkit import expr as ex


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def run(prog, pts, jet=False):
    """(out, failed) as expr._run gives them for prog at the (m, n) points pts."""
    m, n = pts.shape
    vals, failed, d = [None] * len(prog.code), np.full(m, -1), n if jet else 0
    for s, (kind, a, b, payload) in enumerate(prog.code):
        if kind == "guard" or kind == "log":
            bad = np.abs(vals[a][:, 0]) < ex.DIV_EPS
            failed[bad & (failed < 0)] = s
        if kind != "guard":
            vals[s] = ex._step(kind, vals[a], vals[b], payload, pts, d)
    out = np.empty((m, 1 + 2 * d + d * d, len(prog.outputs)), dtype=complex)
    for j, s in enumerate(prog.outputs):
        out[..., j] = vals[s]
    return (out if jet else out[:, 0]), failed
