"""Chern-connection curvature and its traces at a point.

Conventions, with G[i, j] = g_{i jbar} and the inverse pairing
g^{p qbar} = G^{-1}[q, p] (so that g^{p qbar} g_{k qbar} = delta_pk):

    R_{i jbar k lbar} = -d_i dbar_j g_{k lbar}
                        + g^{p qbar} (d_i g_{k qbar}) (dbar_j g_{p lbar})

The first index pair (i, jbar) is the differentiation pair.  The four Ricci
traces and the two scalars are

    rho1_{i jbar} = g^{k lbar} R_{i jbar k lbar}     u = tr_g rho1 = tr_g rho2
    rho2_{k lbar} = g^{i jbar} R_{i jbar k lbar}
    rho3_{i lbar} = g^{k jbar} R_{i jbar k lbar}     v = tr_g rho3 = tr_g rho4
    rho4_{k jbar} = g^{i lbar} R_{i jbar k lbar}

rho1 equals -d dbar log det g, which pins the inverse pairing.  Unitary
frames come from the lower-triangular square root of g and are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .jets import MetricJet, MetricError

__all__ = [
    "ChernCurvature",
    "RicciBundle",
    "Torsion",
    "chern_curvature",
    "orthonormal_frame",
    "to_unitary_frame",
    "ricci_bundle",
    "torsion",
    "kahler_defect",
    "kahler_like_defect",
    "holomorphic_sectional",
    "metric_norm_sq",
    "hermitian_symmetry_residual",
]

REALNESS_TOL = 1e-10


@dataclass(frozen=True)
class ChernCurvature:
    """Rank-4 curvature array R[i, j, k, l] = R_{i jbar k lbar} at a point.

    In the unitary frame the metric used for traces is the identity and
    frame_matrix holds the frame columns in coordinate components.
    """

    tensor: np.ndarray
    frame: str  # "coordinate" | "unitary"
    point: np.ndarray
    frame_matrix: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.tensor.shape[0]


@dataclass(frozen=True)
class RicciBundle:
    """The four Ricci matrices plus scalar and altered scalar curvature."""

    rho1: np.ndarray
    rho2: np.ndarray
    rho3: np.ndarray
    rho4: np.ndarray
    u: float
    v: float


@dataclass(frozen=True)
class Torsion:
    """Chern torsion T[i, j, k] = T^k_ij, its trace one-form eta, and |eta|^2_g."""

    T: np.ndarray
    eta: np.ndarray
    eta_norm2: float


def _real(x, what: str) -> float:
    x = complex(x)
    if abs(x.imag) > REALNESS_TOL * max(1.0, abs(x.real)):
        raise MetricError(f"{what} should be real, got imaginary part {x.imag:.3e}")
    return x.real


def _rho1(g_inv: np.ndarray, R: np.ndarray) -> np.ndarray:
    """rho1_{i jbar} = g^{k lbar} R_{i jbar k lbar}, with g_inv = G^{-1}."""
    return np.einsum("lk,ijkl->ij", g_inv, R)


def _in_frame(R: np.ndarray, E: np.ndarray) -> np.ndarray:
    """Components of R in the frame whose columns are E."""
    return np.einsum("ijkl,ia,jb,kc,ld->abcd", R, E, np.conj(E), E, np.conj(E))


def _quartic(R: np.ndarray, X: np.ndarray) -> complex:
    """R(X, Xbar, X, Xbar), the numerator of H(X)."""
    return np.einsum("ijkl,i,j,k,l->", R, X, np.conj(X), X, np.conj(X))


def chern_curvature(jet: MetricJet) -> ChernCurvature:
    """Coordinate-frame Chern curvature tensor from a metric jet."""
    second = np.einsum("qp,ikq,jpl->ijkl", jet.g_inv, jet.dg, jet.dbar_g)
    return ChernCurvature(-jet.ddbar_g + second, "coordinate", jet.point)


def orthonormal_frame(g: np.ndarray) -> np.ndarray:
    """Deterministic unitary frame E for g: columns satisfy E^T g conj(E) = I.

    Built from the lower-triangular Cholesky factor, E = inv(L).T; raises on
    non-positive-definite input.
    """
    try:
        L = np.linalg.cholesky(np.asarray(g, dtype=complex))
    except np.linalg.LinAlgError as err:
        raise MetricError(f"matrix is not positive definite: {err}") from err
    E = np.linalg.inv(L).T
    check = np.einsum("ij,ia,jb->ab", g, E, np.conj(E))
    if np.max(np.abs(check - np.eye(g.shape[0]))) > 1e-12 * max(1.0, float(np.max(np.abs(E)))**2):
        raise MetricError("orthonormal frame residual exceeds tolerance")
    return E


def to_unitary_frame(Rc: ChernCurvature, jet: MetricJet) -> ChernCurvature:
    """Curvature components in the deterministic unitary frame of jet.g.

    Traces of the result use the identity metric; invariantly defined
    scalars (u, v, holomorphic sectional values of fixed vectors) are
    unchanged.
    """
    if Rc.frame != "coordinate":
        raise ValueError("to_unitary_frame expects a coordinate-frame tensor")
    E = orthonormal_frame(jet.g)
    return ChernCurvature(_in_frame(Rc.tensor, E), "unitary", Rc.point, frame_matrix=E)


def ricci_bundle(Rc: ChernCurvature, g: np.ndarray) -> RicciBundle:
    """Four Ricci traces of Rc with respect to g (same frame as Rc)."""
    gi = np.linalg.inv(np.asarray(g, dtype=complex))
    R = Rc.tensor
    rho1 = _rho1(gi, R)
    rho2 = np.einsum("ji,ijkl->kl", gi, R)
    rho3 = np.einsum("jk,ijkl->il", gi, R)
    rho4 = np.einsum("li,ijkl->kj", gi, R)
    u = _real(np.einsum("ji,ij->", gi, rho1), "scalar curvature u")
    v = _real(np.einsum("li,il->", gi, rho3), "altered scalar curvature v")
    return RicciBundle(rho1, rho2, rho3, rho4, u, v)


def torsion(jet: MetricJet) -> Torsion:
    """Chern torsion T^k_ij = g^{k lbar}(d_i g_{j lbar} - d_j g_{i lbar}) and eta."""
    anti = jet.dg - np.swapaxes(jet.dg, 0, 1)  # anti[i, j, l] = d_i g_{j lbar} - d_j g_{i lbar}
    T = np.einsum("lk,ijl->ijk", jet.g_inv, anti)
    eta = np.einsum("ikk->i", T)
    norm2 = _real(np.einsum("ji,i,j->", jet.g_inv, eta, np.conj(eta)), "|eta|^2")
    return Torsion(T, eta, norm2)


def kahler_defect(jet: MetricJet) -> float:
    """max |d_i g_{j lbar} - d_j g_{i lbar}|; zero iff d omega = 0 at the point."""
    return float(np.max(np.abs(jet.dg - np.swapaxes(jet.dg, 0, 1))))


def kahler_like_defect(Rc: ChernCurvature) -> float:
    """Deviation of Rc from the full Kahler symmetry set, in its own frame.

    Measures max over indices of |R_{i jbar k lbar} - R_{k jbar i lbar}| and
    |R_{i jbar k lbar} - R_{i lbar k jbar}|.
    """
    R = Rc.tensor
    swap_holo = np.max(np.abs(R - np.transpose(R, (2, 1, 0, 3))))
    swap_anti = np.max(np.abs(R - np.transpose(R, (0, 3, 2, 1))))
    return float(max(swap_holo, swap_anti))


def metric_norm_sq(g: np.ndarray, X: np.ndarray) -> float:
    """|X|^2_g = g_{i jbar} X_i conj(X_j)."""
    return _real(np.einsum("ij,i,j->", g, X, np.conj(X)), "|X|^2")


def holomorphic_sectional(Rc: ChernCurvature, g: np.ndarray, X) -> float:
    """H(X) = R(X, Xbar, X, Xbar)/|X|^4_g; scale-invariant, X != 0."""
    X = np.asarray(X, dtype=complex)
    norm2 = metric_norm_sq(g, X)
    if norm2 < 1e-300:
        raise ValueError("holomorphic sectional curvature of the zero vector")
    return _real(_quartic(Rc.tensor, X), "H(X)") / norm2**2


def hermitian_symmetry_residual(Rc: ChernCurvature) -> float:
    """max |R_{i jbar k lbar} - conj(R_{j ibar l kbar})| (should vanish)."""
    R = Rc.tensor
    return float(np.max(np.abs(R - np.conj(np.transpose(R, (1, 0, 3, 2))))))
