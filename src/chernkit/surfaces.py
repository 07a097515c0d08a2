"""Surface-only (n = 2) identities.

For a Hermitian surface the anti-self-dual Weyl part has, in the standard
basis of a unitary frame, the three components

    W1 = R_{1 2bar 1 2bar}
    W2 = (R_{1 2bar 2 2bar} + R_{2 2bar 1 2bar}
          - R_{1 2bar 1 1bar} - R_{1 1bar 1 2bar}) / sqrt(2)
    W3 = (R_{1 1bar 1 1bar} + R_{2 2bar 2 2bar} - R_{1 1bar 2 2bar}
          - R_{2 2bar 1 1bar} - R_{1 2bar 2 1bar} - R_{2 1bar 1 2bar}) / 6

Also implemented: the unconditional Ricci combination
rho1 + rho2 - 2 Re(rho3) = (u - v) g, and the pointwise wedge identity
rho1 ^ rho1 = (1/2) [u^2 - <rho1, rho1>] omega ^ omega behind the c_1^2
formula, with <.,.> normalized so that <omega, omega> = n.  Each identity
takes one point or a batch, like the geometry kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import ChernCurvature, RicciBundle
from .jets import HERMITIAN_TOL, _bound, _hermitian_part, _hermitian_residual, _max_abs, _real, _size

__all__ = [
    "WeylMinus",
    "OneOneForm",
    "weyl_minus",
    "ricci_combination_residual",
    "c1_squared_pointwise_residual",
    "form_inner",
    "wedge_ratio",
]


@dataclass(frozen=True)
class WeylMinus:
    """W^- components, always reported with the frame that produced them."""

    w1: complex
    w2: complex
    w3: complex
    frame: np.ndarray


@dataclass(frozen=True)
class OneOneForm:
    """Components a_{i jbar} of a real (1,1)-form, so a is Hermitian.

    size is the magnitude of the terms a was summed from, per point, or None
    where they are not tracked: max|a - a^H| may not exceed HERMITIAN_TOL *
    jets._bound(size, max|a|).
    """

    a: np.ndarray
    size: np.ndarray | float | None = None

    def __post_init__(self):
        resid = _hermitian_residual(self.a)
        bad = resid > HERMITIAN_TOL * _bound(self.size, _max_abs(self.a, 2))
        if np.any(bad):
            raise ValueError(f"real (1,1)-form has non-Hermitian matrix (residual {np.max(resid * bad):.3e})")


def _need_surface(n: int):
    if n != 2:
        raise ValueError(f"surface identity requires n = 2, got n = {n}")


def weyl_minus(Rc: ChernCurvature) -> WeylMinus:
    """Anti-self-dual Weyl components of a surface, from unitary-frame curvature."""
    _need_surface(Rc.n)
    if Rc.frame != "unitary":
        raise ValueError("Weyl components are defined in a unitary frame")
    R = np.moveaxis(Rc.tensor, (-4, -3, -2, -1), (0, 1, 2, 3))  # R[i, j, k, l] over the batch
    w1 = R[0, 1, 0, 1]
    w2 = (R[0, 1, 1, 1] + R[1, 1, 0, 1] - R[0, 1, 0, 0] - R[0, 0, 0, 1]) / np.sqrt(2)
    w3 = (
        R[0, 0, 0, 0]
        + R[1, 1, 1, 1]
        - R[0, 0, 1, 1]
        - R[1, 1, 0, 0]
        - R[0, 1, 1, 0]
        - R[1, 0, 0, 1]
    ) / 6
    frame = Rc.frame_matrix if Rc.frame_matrix is not None else np.eye(2, dtype=complex)
    return WeylMinus(w1[()], w2[()], w3[()], frame)


def ricci_combination_residual(bundle: RicciBundle) -> float:
    """max |rho1 + rho2 - 2 Re(rho3) - (u - v) g| on a surface, g the metric of the bundle's frame."""
    _need_surface(bundle.n)
    lhs = bundle.rho1 + bundle.rho2 - 2 * _hermitian_part(bundle.rho3)
    return _max_abs(lhs - np.asarray(bundle.u - bundle.v)[..., None, None] * bundle.metric, 2)


def form_inner(a: OneOneForm, b: OneOneForm, g: np.ndarray) -> float:
    """Pointwise inner product of (1,1)-forms, scaled so <omega, omega> = n.

    In a unitary frame this is the Frobenius product of the component
    matrices; the g-contracted expression below is its frame-covariant form.
    """
    gi = np.linalg.inv(np.asarray(g, dtype=complex))
    val = np.einsum("...ki,...jl,...ij,...kl->...", gi, gi, a.a, np.conj(b.a))
    return _real(val, "inner product of real forms")


def wedge_ratio(a: OneOneForm, b: OneOneForm, g: np.ndarray) -> float:
    """a ^ b divided by the volume form omega^2/2 on a surface.

    For (1,1)-forms on a surface,
    a ^ b = -(a_{1 1bar} b_{2 2bar} + a_{2 2bar} b_{1 1bar}
              - a_{1 2bar} b_{2 1bar} - a_{2 1bar} b_{1 2bar}) * Phi
    with Phi the coordinate 4-form, and omega^2/2 = -det(g) * Phi.  Its
    realness is measured against a.size * b.size / |det g|.
    """
    _need_surface(g.shape[-1])
    A, B = np.moveaxis(a.a, (-2, -1), (0, 1)), np.moveaxis(b.a, (-2, -1), (0, 1))
    num = A[0, 0] * B[1, 1] + A[1, 1] * B[0, 0] - A[0, 1] * B[1, 0] - A[1, 0] * B[0, 1]
    den = np.linalg.det(np.asarray(g, dtype=complex))
    return _real(num / den, "wedge ratio of real forms", _size(a.size, b.size, 1 / np.abs(den)))


def c1_squared_pointwise_residual(bundle: RicciBundle) -> float:
    """Residual of rho1 ^ rho1 = (1/2) [u^2 - <rho1, rho1>] omega ^ omega.

    Both sides are measured against the volume form omega^2/2, so the check
    is |wedge_ratio(rho1, rho1) - (u^2 - <rho1, rho1>)|.  With c_1
    represented by rho1/(2 pi) this is the pointwise content of the c_1^2
    surface formula.  g is the metric of the bundle's frame.
    """
    _need_surface(bundle.n)
    rho = OneOneForm(bundle.rho1, bundle.size)
    kappa = wedge_ratio(rho, rho, bundle.metric)
    inner = form_inner(rho, rho, bundle.metric)
    return np.abs(kappa - (bundle.u**2 - inner))
