"""Mixed curvature C_{alpha,beta} and its behaviour over unit directions.

    C_{alpha,beta}(X) = alpha * Ric(X, Xbar)/|X|^2_g + beta * H(X)

with Ric the first Chern Ricci rho1.  Provided here: pointwise evaluation,
the exact sphere average

    avg_{|Z|=1} C_{alpha,beta}(Z) = [((n+1) alpha + beta) u + beta v] / (n (n+1)),

a seeded Monte Carlo estimate of the same average, extremization over the
unit sphere of the g-orthonormal frame, and residuals of the two pointwise
constancy identities (the symmetrized rank-4 tensor identity and its trace).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (
    ChernCurvature,
    RicciBundle,
    _in_frame,
    _quartic,
    _rho1,
    metric_norm_sq,
    orthonormal_frame,
)

__all__ = [
    "MixedParams",
    "ExtremumReport",
    "mixed_curvature",
    "sphere_average_closed_form",
    "sphere_average_monte_carlo",
    "sphere_average_monte_carlo_many",
    "extremize",
    "constancy_tensor_residual",
    "trace_identity_residual",
]


@dataclass(frozen=True)
class MixedParams:
    """Interpolation weights; finite, and alpha and beta must not both vanish."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (np.isfinite(self.alpha) and np.isfinite(self.beta)):
            raise ValueError(f"alpha and beta must be finite, got {self.alpha} and {self.beta}")
        if abs(self.alpha) + abs(self.beta) == 0:
            raise ValueError("alpha and beta must not both be zero")


@dataclass(frozen=True)
class ExtremumReport:
    """Extrema of C_{alpha,beta} over unit directions at one point.

    argmin/argmax are unit vectors in the g-orthonormal frame; spread is
    max_value - min_value.
    """

    min_value: float
    max_value: float
    argmin: np.ndarray
    argmax: np.ndarray
    spread: float
    restarts_used: int
    converged: bool


def _unitary_data(Rc: ChernCurvature, g: np.ndarray):
    """(R, rho1) in a unitary frame, whatever frame Rc arrived in."""
    if Rc.frame == "unitary":
        R = Rc.tensor
    else:
        R = _in_frame(Rc.tensor, orthonormal_frame(g))
    rho = np.einsum("ijkk->ij", R)
    return R, rho


def mixed_curvature(Rc: ChernCurvature, g: np.ndarray, params: MixedParams, X) -> float:
    """C_{alpha,beta}(X) for a nonzero (1,0)-vector X; scale-invariant in X."""
    X = np.asarray(X, dtype=complex)
    norm2 = metric_norm_sq(g, X)
    if norm2 < 1e-300:
        raise ValueError("mixed curvature of the zero vector")
    rho1 = _rho1(np.linalg.inv(np.asarray(g, dtype=complex)), Rc.tensor)
    ric = np.einsum("ij,i,j->", rho1, X, np.conj(X)).real
    h = _quartic(Rc.tensor, X).real
    return params.alpha * ric / norm2 + params.beta * h / norm2**2


def sphere_average_closed_form(bundle: RicciBundle, params: MixedParams, n: int) -> float:
    """Exact average of C_{alpha,beta} over the unit sphere of directions."""
    a, b = params.alpha, params.beta
    return (((n + 1) * a + b) * bundle.u + b * bundle.v) / (n * (n + 1))


def sphere_average_monte_carlo(
    Rc: ChernCurvature,
    g: np.ndarray,
    params: MixedParams,
    samples: int = 100_000,
    seed: int = 0,
):
    """Monte Carlo estimate (mean, stderr) of the sphere average.

    Directions are complex-normal vectors normalized to the unit sphere in a
    g-orthonormal frame (uniform on the sphere); deterministic given seed.
    """
    return sphere_average_monte_carlo_many(Rc, g, [params], samples, seed)[0]


def _ric_hsc(R, rho, Z):
    """rho(Z, Zbar) and R(Z, Zbar, Z, Zbar) for each row of the batch Z."""
    Zc = np.conj(Z)
    ric = np.einsum("ij,bi,bj->b", rho, Z, Zc).real
    hsc = np.einsum("ijkl,bi,bj,bk,bl->b", R, Z, Zc, Z, Zc).real
    return ric, hsc


def sphere_average_monte_carlo_many(
    Rc: ChernCurvature,
    g: np.ndarray,
    params_list,
    samples: int = 100_000,
    seed: int = 0,
):
    """Monte Carlo sphere averages for several parameter pairs at once.

    Shares one direction draw across the pairs; element i is bit-identical
    to sphere_average_monte_carlo(Rc, g, params_list[i], samples, seed).
    """
    if samples < 1000:
        raise ValueError("need at least 1000 samples")
    R, rho = _unitary_data(Rc, g)
    n = R.shape[0]
    rng = np.random.default_rng(seed)
    W = rng.standard_normal((samples, n)) + 1j * rng.standard_normal((samples, n))
    ric, hsc = _ric_hsc(R, rho, W / np.linalg.norm(W, axis=1, keepdims=True))
    out = []
    for params in params_list:
        vals = params.alpha * ric + params.beta * hsc
        mean = float(np.mean(vals))
        stderr = float(np.std(vals, ddof=1) / np.sqrt(samples))
        out.append((mean, stderr))
    return out


def _axis_and_bisector_seeds(n: int) -> np.ndarray:
    """Frame axes plus, per pair, the bisectors (e_i+e_j)/sqrt2, (e_i+-i e_j)/sqrt2."""
    seeds = list(np.eye(n, dtype=complex))
    s = 1 / np.sqrt(2)
    for i in range(n):
        for j in range(i + 1, n):
            for w in (1.0, 1j, -1j):
                v = np.zeros(n, dtype=complex)
                v[i] = s
                v[j] = s * w
                seeds.append(v)
    return np.array(seeds)


def _objective(R, rho, params, Z):
    ric, hsc = _ric_hsc(R, rho, Z)
    return params.alpha * ric + params.beta * hsc


def _gradient(R, rho, params, Z):
    """Euclidean gradient 2*dF/dZbar of the (real) objective on C^n."""
    Zc = np.conj(Z)
    gr = params.alpha * np.einsum("im,bi->bm", rho, Z)
    gr = gr + params.beta * (
        np.einsum("imkl,bi,bk,bl->bm", R, Z, Z, Zc)
        + np.einsum("ijkm,bi,bj,bk->bm", R, Z, Zc, Z)
    )
    return 2.0 * gr


_LADDER = 2.0 ** (1 - np.arange(12))  # candidate step factors: 2, 1, 1/2, ..., 2^-10


def _ascend(R, rho, params, starts, tol, max_iter):
    """Projected gradient ascent on the unit sphere, one batch for all starts.

    Each iteration evaluates a dyadic ladder of candidate steps around the
    per-start step and keeps the best one passing the Armijo test; plain
    first-accept backtracking overshoots the degenerate extremizer circles
    of these quartics and stalls at a 1/t rate.  Returns (best value, best
    direction, converged) for the maximum.
    """
    Z = starts / np.linalg.norm(starts, axis=1, keepdims=True)
    f = _objective(R, rho, params, Z)
    B, n = Z.shape
    rows = np.arange(B)
    step = np.full(B, 1.0)
    alive = np.ones(B, dtype=bool)
    for _ in range(max_iter):
        G = _gradient(R, rho, params, Z)
        # tangential component: remove the real-inner-product projection on Z
        inner = np.sum(G * np.conj(Z), axis=1).real
        Gt = G - inner[:, None] * Z
        grad_norm = np.linalg.norm(Gt, axis=1)
        active = alive & (grad_norm > tol)
        if not np.any(active):
            break
        cand = step[:, None] * _LADDER[None, :]
        trial = Z[:, None, :] + cand[..., None] * Gt[:, None, :]
        trial = trial / np.linalg.norm(trial, axis=2, keepdims=True)
        ft = _objective(R, rho, params, trial.reshape(B * len(_LADDER), n))
        ft = ft.reshape(B, len(_LADDER))
        best = np.argmax(ft, axis=1)
        bt = cand[rows, best]
        bf = ft[rows, best]
        ok = active & (bf >= f + 1e-4 * bt * grad_norm**2)
        Z[ok] = trial[rows, best][ok]
        f[ok] = bf[ok]
        step[ok] = bt[ok]
        # a start whose whole ladder fails Armijo has no usable ascent left
        alive &= ~(active & ~ok)
        if not np.any(ok):
            break
    best = int(np.argmax(f))
    G = _gradient(R, rho, params, Z[best][None, :])[0]
    Gt = G - np.sum(G * np.conj(Z[best])).real * Z[best]
    return float(f[best]), Z[best], bool(np.linalg.norm(Gt) <= tol)


def extremize(
    Rc: ChernCurvature,
    g: np.ndarray,
    params: MixedParams,
    restarts: int = 16,
    tol: float = 1e-7,
    seed: int = 0,
    max_iter: int = 500,
) -> ExtremumReport:
    """Extrema of C_{alpha,beta} over the unit sphere in the g-orthonormal frame.

    On that sphere |Z|_g = |Z|_euclid, so the smooth objective is
    alpha*rho1_E(Z, Zbar) + beta*R_E(Z, Zbar, Z, Zbar).  Projected gradient
    ascent/descent with backtracking runs from the deterministic
    axis-and-bisector seeds plus `restarts` random starts; converged means
    the projected gradient norm fell below tol (relative to the curvature
    magnitude) at both extremizers.  A gradient below ~sqrt(eps) is not
    reachable in double precision, so tol should stay >= 1e-8 or so; the
    extremal values themselves are accurate to ~tol^2.
    """
    if restarts < 1:
        raise ValueError("need at least one restart")
    R, rho = _unitary_data(Rc, g)
    n = R.shape[0]
    rng = np.random.default_rng(seed)
    W = rng.standard_normal((restarts, n)) + 1j * rng.standard_normal((restarts, n))
    starts = np.concatenate([_axis_and_bisector_seeds(n), W])

    scale = max(
        1.0,
        abs(params.alpha) * float(np.max(np.abs(rho))),
        abs(params.beta) * float(np.max(np.abs(R))),
    )
    neg = MixedParams(-params.alpha, -params.beta)
    max_val, argmax, ok_max = _ascend(R, rho, params, starts.copy(), tol * scale, max_iter)
    min_neg, argmin, ok_min = _ascend(R, rho, neg, starts.copy(), tol * scale, max_iter)
    min_val = -min_neg
    return ExtremumReport(
        min_value=min_val,
        max_value=max_val,
        argmin=argmin,
        argmax=argmax,
        spread=max_val - min_val,
        restarts_used=len(starts),
        converged=ok_max and ok_min,
    )


def constancy_tensor_residual(
    Rc: ChernCurvature, g: np.ndarray, params: MixedParams, c: float
) -> float:
    """Residual of the symmetrized identity equivalent to C_{alpha,beta} == c.

    With rho the first Chern Ricci, the identity is

        alpha (rho_{i jbar} g_{k lbar} + rho_{k jbar} g_{i lbar}
               + rho_{i lbar} g_{k jbar} + rho_{k lbar} g_{i jbar})
        + beta (R_{i jbar k lbar} + R_{k jbar i lbar}
                + R_{i lbar k jbar} + R_{k lbar i jbar})
        = 2 c (g_{i jbar} g_{k lbar} + g_{i lbar} g_{k jbar})

    and the returned value is the max absolute component of LHS - RHS.
    """
    g = np.asarray(g, dtype=complex)
    return _constancy_residual(Rc.tensor, _rho1(np.linalg.inv(g), Rc.tensor), g, params, c)


def _sym(T):
    """T_{i jbar k lbar} + T_{k jbar i lbar} + T_{i lbar k jbar} + T_{k lbar i jbar}."""
    return T + T.transpose(2, 1, 0, 3) + T.transpose(0, 3, 2, 1) + T.transpose(2, 3, 0, 1)


def _constancy_residual(R, rho, g, params, c, shift=0.0):
    """The constancy identity: max |alpha sym(rho g) + beta sym(R) - shift - RHS|,
    RHS = 2 c (g_{i jbar} g_{k lbar} + g_{i lbar} g_{k jbar})."""
    lhs = params.alpha * _sym(np.einsum("ij,kl->ijkl", rho, g)) + params.beta * _sym(R) - shift
    rhs = 2 * c * (np.einsum("ij,kl->ijkl", g, g) + np.einsum("il,kj->ijkl", g, g))
    return float(np.max(np.abs(lhs - rhs)))


def trace_identity_residual(
    bundle: RicciBundle,
    params: MixedParams,
    f: float,
    n: int,
    g: np.ndarray | None = None,
) -> float:
    """Residual of the traced constancy identities for C_{alpha,beta} == f.

    Matrix identity:
        [alpha (n+2) + beta] rho1 + beta rho2 + 2 beta Re(rho3)
            = [2 (n+1) f - alpha u] g
    Scalar identity:
        [(n+1) alpha + beta] u + beta v = n (n+1) f

    g defaults to the identity (unitary-frame bundles).  Returns the max of
    the two residuals.
    """
    if g is None:
        g = np.eye(n)
    a, b = params.alpha, params.beta
    re3 = 0.5 * (bundle.rho3 + bundle.rho3.conj().T)
    lhs = (a * (n + 2) + b) * bundle.rho1 + b * bundle.rho2 + 2 * b * re3
    rhs = (2 * (n + 1) * f - a * bundle.u) * np.asarray(g, dtype=complex)
    matrix_res = float(np.max(np.abs(lhs - rhs)))
    scalar_res = abs(((n + 1) * a + b) * bundle.u + b * bundle.v - n * (n + 1) * f)
    return max(matrix_res, scalar_res)
