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

Every kernel takes one point or a batch: the per-point axes come last, and
its results carry the leading batch axes of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .jets import MetricError, MetricJet, _ldexp, _PerPoint, _max_abs, _real, _size

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


class _Framed(_PerPoint):
    """Per-point data carrying g, the metric of its frame, or None in a unitary frame (metric I)."""

    @property
    def metric(self) -> np.ndarray:
        return np.eye(self.n, dtype=complex) if self.g is None else self.g


@dataclass(frozen=True)
class ChernCurvature(_Framed):
    """Rank-4 curvature array R[i, j, k, l] = R_{i jbar k lbar} at a point or a batch.

    g is the metric of a coordinate-frame tensor; a unitary-frame one has none
    (its metric is I) and frame_matrix, its frame in coordinates.  size is
    the magnitude of the terms the tensor was summed from, per point, or
    None where they are not tracked (a tensor built by hand): R can cancel
    far below it, its round-off cannot, so realness checks of its
    contractions are measured against it (see jets._bound).
    """

    _CORE = ("tensor", 4)
    tensor: np.ndarray
    frame: str  # "coordinate" | "unitary"
    g: np.ndarray | None = None
    frame_matrix: np.ndarray | None = None
    size: np.ndarray | float | None = None

    def __post_init__(self):
        if self.frame not in ("coordinate", "unitary") or (self.g is None) != (self.frame == "unitary"):
            raise ValueError(f"frame {self.frame!r}: a coordinate-frame curvature carries g, a unitary one none")


@dataclass(frozen=True)
class RicciBundle(_Framed):
    """The four Ricci matrices plus scalar and altered scalar curvature.

    g is the curvature's, as in ChernCurvature; size is the magnitude of the
    terms the rho matrices were summed from, max|g^-1| times the curvature's.
    """

    _CORE = ("rho1", 2)
    rho1: np.ndarray
    rho2: np.ndarray
    rho3: np.ndarray
    rho4: np.ndarray
    u: float
    v: float
    g: np.ndarray | None = None
    size: np.ndarray | float | None = None


@dataclass(frozen=True)
class Torsion(_PerPoint):
    """Chern torsion T[i, j, k] = T^k_ij, its trace one-form eta, and |eta|^2_g."""

    _CORE = ("T", 3)
    T: np.ndarray
    eta: np.ndarray
    eta_norm2: float


def _rho1(g_inv: np.ndarray, R: np.ndarray) -> np.ndarray:
    """rho1_{i jbar} = g^{k lbar} R_{i jbar k lbar}, with g_inv = G^{-1}."""
    return np.einsum("...lk,...ijkl->...ij", g_inv, R)


def _d_omega(jet: MetricJet) -> np.ndarray:
    """[..., i, j, l] = d_i g_{j lbar} - d_j g_{i lbar}, the components of d omega."""
    return jet.dg - np.swapaxes(jet.dg, -3, -2)


def _in_frame(R: np.ndarray, E: np.ndarray) -> np.ndarray:
    """Components of R in the frame whose columns are E.

    Four one-index contractions, over i, j, k and l in turn, cost 4n^5 per
    point; one five-operand einsum summed all n^8 index combinations.
    """
    Ebar = np.conj(E)
    R = np.einsum("...ijkl,...ia->...ajkl", R, E)
    R = np.einsum("...ajkl,...jb->...abkl", R, Ebar)
    R = np.einsum("...abkl,...kc->...abcl", R, E)
    return np.einsum("...abcl,...ld->...abcd", R, Ebar)


def _outer(X: np.ndarray) -> np.ndarray:
    """X (x) Xbar flattened: [..., i*n + j] = X[..., i] conj(X[..., j])."""
    return (X[..., :, None] * np.conj(X)[..., None, :]).reshape(*X.shape[:-1], -1)


def _quartic(R: np.ndarray, X: np.ndarray):
    """R(X, Xbar, X, Xbar), the numerator of H(X), for one R and a vector or each row of a batch
    (one 2-D matmul), for a batch of R and a vector or one row each, or for a batch of R and a
    batch of rows each (one 2-D matmul per R).

    One matmul: sum_{kl} (A R_{(ij),(kl)})_{kl} A_{kl}, with A = X (x) Xbar.
    """
    A = _outer(X)
    Rm = R.reshape(*R.shape[:-4], A.shape[-1], -1)
    AR = A @ Rm if Rm.ndim in (2, A.ndim) else (A[..., None, :] @ Rm)[..., 0, :]
    return np.einsum("...k,...k->...", AR, A)


def chern_curvature(jet: MetricJet) -> ChernCurvature:
    """Coordinate-frame Chern curvature tensor from a metric jet."""
    gi_dg = np.einsum("...qp,...ikq->...ikp", jet.g_inv, jet.dg)
    second = np.einsum("...ikp,...jpl->...ijkl", gi_dg, jet.dbar_g)
    size = _max_abs(jet.ddbar_g, 4) + _size(_max_abs(jet.g_inv, 2), _max_abs(jet.dg, 3), _max_abs(jet.dbar_g, 3))
    return ChernCurvature(-jet.ddbar_g + second, "coordinate", jet.g, size=size)


def orthonormal_frame(g: np.ndarray) -> np.ndarray:
    """Deterministic unitary frame E for g: columns satisfy E^T g conj(E) = I.

    Built from the lower-triangular Cholesky factor, E = inv(L).T; raises on
    non-positive-definite input.  A batch of g gives a batch of frames.
    """
    g = np.asarray(g, dtype=complex)
    try:
        L = np.linalg.cholesky(g)
    except np.linalg.LinAlgError as err:
        raise MetricError(f"matrix is not positive definite: {err}") from err
    E = np.swapaxes(np.linalg.inv(L), -1, -2)
    check = np.einsum("...ij,...ia,...jb->...ab", g, E, np.conj(E))
    e = _max_abs(E, 2)
    if np.any(_max_abs(check - np.eye(g.shape[-1]), 2) > 1e-12 * _size(_max_abs(g, 2), e, e)):
        raise MetricError("orthonormal frame residual exceeds tolerance")
    return E


def to_unitary_frame(Rc: ChernCurvature, jet: MetricJet | None = None) -> ChernCurvature:
    """Curvature components in the deterministic unitary frame of Rc.g.

    Traces of the result use the identity metric; invariantly defined
    scalars (u, v, holomorphic sectional values of fixed vectors) are
    unchanged.  MetricError where they overflow (g nearly singular).  jet is unread, as Rc carries g.
    """
    if Rc.frame != "coordinate":
        raise ValueError("to_unitary_frame expects a coordinate-frame tensor")
    E = orthonormal_frame(Rc.g)
    R = _in_frame(Rc.tensor, E)
    if not np.isfinite(R).all():
        raise MetricError("curvature is not finite in the unitary frame")
    e = _max_abs(E, 2)
    return ChernCurvature(R, "unitary", frame_matrix=E, size=_size(Rc.size, e, e, e, e))


def ricci_bundle(Rc: ChernCurvature) -> RicciBundle:
    """Four Ricci traces of Rc against the metric of its frame, which the bundle carries on."""
    gi = np.linalg.inv(Rc.metric)
    R = Rc.tensor
    rho1 = _rho1(gi, R)
    rho2 = np.einsum("...ji,...ijkl->...kl", gi, R)
    rho3 = np.einsum("...jk,...ijkl->...il", gi, R)
    rho4 = np.einsum("...li,...ijkl->...kj", gi, R)
    gi_max = _max_abs(gi, 2)
    size, uv_size = _size(Rc.size, gi_max), _size(Rc.size, gi_max, gi_max)
    u = _real(np.einsum("...ji,...ij->...", gi, rho1), "scalar curvature u", uv_size)
    v = _real(np.einsum("...li,...il->...", gi, rho3), "altered scalar curvature v", uv_size)
    return RicciBundle(rho1, rho2, rho3, rho4, u, v, Rc.g, size)


def torsion(jet: MetricJet) -> Torsion:
    """Chern torsion T^k_ij = g^{k lbar}(d_i g_{j lbar} - d_j g_{i lbar}) and eta."""
    T = np.einsum("...lk,...ijl->...ijk", jet.g_inv, _d_omega(jet))
    eta = np.einsum("...ikk->...i", T)
    norm2 = _real(np.einsum("...ji,...i,...j->...", jet.g_inv, eta, np.conj(eta)), "|eta|^2")
    return Torsion(T, eta, norm2)


def kahler_defect(jet: MetricJet) -> float:
    """max |d_i g_{j lbar} - d_j g_{i lbar}|; zero iff d omega = 0 at the point."""
    return _max_abs(_d_omega(jet), 3)


def kahler_like_defect(Rc: ChernCurvature) -> float:
    """Deviation of Rc from the full Kahler symmetry set, in its own frame.

    Measures max over indices of |R_{i jbar k lbar} - R_{k jbar i lbar}| and
    |R_{i jbar k lbar} - R_{i lbar k jbar}|.
    """
    R = Rc.tensor
    swap_holo = _max_abs(R - np.swapaxes(R, -4, -2), 4)
    swap_anti = _max_abs(R - np.swapaxes(R, -3, -1), 4)
    return np.maximum(swap_holo, swap_anti)


def _over_rows(a, core: int, X: np.ndarray):
    """a, a per-point value with core per-point axes, broadcast over the rows X has at each point.

    X's axes before its last are the batch axes of a, then rows; a gets a length-1 axis after its
    batch axes for each axis of rows, so g of shape (k, n, n) meets X of shape (k, P, n).
    """
    batch = np.ndim(a) - core
    rows = X.ndim - 1 - batch
    return np.expand_dims(a, tuple(range(batch, batch + rows))) if rows > 0 else a


def metric_norm_sq(g: np.ndarray, X: np.ndarray) -> float:
    """|X|^2_g = g_{i jbar} X_i conj(X_j), for X a vector, or rows of vectors at each point of g."""
    return _real(np.einsum("...ij,...i,...j->...", _over_rows(g, 2, X), X, np.conj(X)), "|X|^2")


def holomorphic_sectional(Rc: ChernCurvature, X) -> float:
    """H(X) = R(X, Xbar, X, Xbar)/|X|^4_g, g the metric of Rc's frame; scale-invariant, X != 0.

    For one R, X is a vector or rows of them, shape (..., n), and H has X's leading shape.  For a
    batch of R, shape (k, n, n, n, n), X is one vector for all, one row each, shape (k, n), or rows
    for each, shape (k, P, n), and H has shape (k,) or (k, P): the metric and the size of each R
    are broadcast over its rows.  X, then |X|^2_g, is brought into [1/2, 1) by an exact power of
    two, so neither under- nor overflows; an H past the float range is a MetricError.
    """
    X = np.asarray(X, dtype=complex)
    top = np.max(np.abs(X), axis=-1, keepdims=True)
    if np.any(top == 0):
        raise ValueError("holomorphic sectional curvature of the zero vector")
    e = -np.frexp(top)[1]
    X = _ldexp(X, e)
    m, k = np.frexp(metric_norm_sq(Rc.metric, X))  # |X|^2_g = m 2^k
    size = Rc.size if Rc.size is None else _over_rows(Rc.size, 0, X)
    q = _real(_quartic(Rc.tensor, X), "H(X)", size)  # its terms are at most Rc.size, as max|X_i| < 1
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        H = np.ldexp(q / m**2, -2 * k)
    if not np.all(np.isfinite(H)):
        raise MetricError("holomorphic sectional curvature is not finite")
    return H


def hermitian_symmetry_residual(Rc: ChernCurvature) -> float:
    """max |R_{i jbar k lbar} - conj(R_{j ibar l kbar})| (should vanish)."""
    R = Rc.tensor
    return _max_abs(R - np.conj(np.swapaxes(np.swapaxes(R, -4, -3), -2, -1)), 4)
