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
formula, with <.,.> normalized so that <omega, omega> = n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import ChernCurvature, RicciBundle, _real

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
    """Components a_{i jbar} of a (1,1)-form; real forms have Hermitian a."""

    a: np.ndarray
    is_real: bool = False

    def __post_init__(self):
        if self.is_real:
            resid = np.max(np.abs(self.a - self.a.conj().T))
            if resid > 1e-10 * max(1.0, float(np.max(np.abs(self.a)))):
                raise ValueError(f"real (1,1)-form has non-Hermitian matrix (residual {resid:.3e})")


def _need_surface(n: int):
    if n != 2:
        raise ValueError(f"surface identity requires n = 2, got n = {n}")


def weyl_minus(Rc: ChernCurvature) -> WeylMinus:
    """Anti-self-dual Weyl components of a surface, from unitary-frame curvature."""
    _need_surface(Rc.n)
    if Rc.frame != "unitary":
        raise ValueError("Weyl components are defined in a unitary frame")
    R = Rc.tensor
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
    return WeylMinus(complex(w1), complex(w2), complex(w3), frame)


def ricci_combination_residual(bundle: RicciBundle, g: np.ndarray) -> float:
    """max |rho1 + rho2 - 2 Re(rho3) - (u - v) g| on a surface."""
    _need_surface(g.shape[0])
    re3 = 0.5 * (bundle.rho3 + bundle.rho3.conj().T)
    lhs = bundle.rho1 + bundle.rho2 - 2 * re3
    return float(np.max(np.abs(lhs - (bundle.u - bundle.v) * np.asarray(g, dtype=complex))))


def form_inner(a: OneOneForm, b: OneOneForm, g: np.ndarray) -> float:
    """Pointwise inner product of (1,1)-forms, scaled so <omega, omega> = n.

    In a unitary frame this is the Frobenius product of the component
    matrices; the g-contracted expression below is its frame-covariant form.
    """
    gi = np.linalg.inv(np.asarray(g, dtype=complex))
    val = np.einsum("ki,jl,ij,kl->", gi, gi, a.a, np.conj(b.a))
    return _real(val, "inner product of real forms")


def wedge_ratio(a: OneOneForm, b: OneOneForm, g: np.ndarray) -> float:
    """a ^ b divided by the volume form omega^2/2 on a surface.

    For (1,1)-forms on a surface,
    a ^ b = -(a_{1 1bar} b_{2 2bar} + a_{2 2bar} b_{1 1bar}
              - a_{1 2bar} b_{2 1bar} - a_{2 1bar} b_{1 2bar}) * Phi
    with Phi the coordinate 4-form, and omega^2/2 = -det(g) * Phi.
    """
    _need_surface(g.shape[0])
    A, B = a.a, b.a
    num = A[0, 0] * B[1, 1] + A[1, 1] * B[0, 0] - A[0, 1] * B[1, 0] - A[1, 0] * B[0, 1]
    den = np.linalg.det(np.asarray(g, dtype=complex))
    return _real(num / den, "wedge ratio of real forms")


def c1_squared_pointwise_residual(bundle: RicciBundle, g: np.ndarray) -> float:
    """Residual of rho1 ^ rho1 = (1/2) [u^2 - <rho1, rho1>] omega ^ omega.

    Both sides are measured against the volume form omega^2/2, so the check
    is |wedge_ratio(rho1, rho1) - (u^2 - <rho1, rho1>)|.  With c_1
    represented by rho1/(2 pi) this is the pointwise content of the c_1^2
    surface formula.
    """
    _need_surface(g.shape[0])
    rho = OneOneForm(bundle.rho1, is_real=True)
    kappa = wedge_ratio(rho, rho, g)
    inner = form_inner(rho, rho, g)
    return abs(kappa - (bundle.u**2 - inner))
