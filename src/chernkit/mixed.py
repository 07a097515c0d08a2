"""Mixed curvature C_{alpha,beta} and its behaviour over unit directions.

    C_{alpha,beta}(X) = alpha * Ric(X, Xbar)/|X|^2_g + beta * H(X)

with Ric the first Chern Ricci rho1.  Provided here: pointwise evaluation,
the exact sphere average

    avg_{|Z|=1} C_{alpha,beta}(Z) = [((n+1) alpha + beta) u + beta v] / (n (n+1)),

a seeded Monte Carlo estimate of the same average, extremization over the
unit sphere of the g-orthonormal frame, and residuals of the two pointwise
constancy identities (the symmetrized rank-4 tensor identity and its trace).
Pointwise evaluation and the residuals take one point or a batch, like the
geometry kernels; extremization and the averages work at one point.

C_{alpha,beta} is the holomorphic sectional curvature of the one tensor
T = alpha rho (x) g + beta R (_form), and C == c exactly when sym(T - c g (x) g)
vanishes: values, the Monte Carlo average, the extremizer and both constancy
residuals work on T alone.

Extremization is one pipeline at every n: the extreme eigenvalues of
H = sym(T)/4 on Sym^2(C^n) bound the extrema, and rank-one roundings of its
extreme eigenvectors certify them wherever they meet the bounds.  Elsewhere a
surface solves its trust-region subproblem on the Bloch sphere exactly (More
& Sorensen 1983), and at n >= 3 a projected gradient ascent from seeded
starts decides.
Quartics such as T(Z, Zbar, Z, Zbar) are one matmul of Z (x) Zbar with T
reshaped to (n^2, n^2) (geometry._quartic); the Monte Carlo average runs it
_BLOCK rows of Z at a time.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .geometry import (
    ChernCurvature,
    RicciBundle,
    _in_frame,
    _outer,
    _quartic,
    _rho1,
    holomorphic_sectional,
    orthonormal_frame,
)
from .jets import MetricError, _hermitian_part, _max_abs, _size

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
    max_value - min_value.  bound_gap is max(lam_max - max_value, min_value -
    lam_min) for the extreme eigenvalues of H = sym(T)/4 on Sym^2(C^n), which
    bound the extrema: 0 up to round-off when they are certified, the
    distance left to the bounds when a fallback decided.
    """

    min_value: float
    max_value: float
    argmin: np.ndarray
    argmax: np.ndarray
    spread: float
    restarts_used: int
    converged: bool
    bound_gap: float


def _unitary_data(Rc: ChernCurvature):
    """(R, rho1) in a unitary frame, whatever frame Rc arrived in."""
    R = Rc.tensor if Rc.frame == "unitary" else _in_frame(Rc.tensor, orthonormal_frame(Rc.g))
    return R, _rho1(np.eye(R.shape[0]), R)


def _form(R, rho, g, params: MixedParams):
    """T = alpha rho (x) g + beta R, T_{i jbar k lbar} = alpha rho_{i jbar} g_{k lbar} + beta R_{i jbar k lbar}."""
    return params.alpha * np.einsum("...ij,...kl->...ijkl", rho, g) + params.beta * R


def mixed_curvature(Rc: ChernCurvature, params: MixedParams, X) -> float:
    """C_{alpha,beta}(X) = H_T(X) for a nonzero (1,0)-vector X, scale-invariant.

    MetricError if its imaginary part exceeds HERMITIAN_TOL times the size of
    T's terms, (|alpha| max|g| max|g^-1| + |beta|) Rc.size: T may cancel far
    below that, its round-off does not (see jets._bound).
    """
    g = Rc.metric
    gi = np.linalg.inv(g)
    T = _form(Rc.tensor, _rho1(gi, Rc.tensor), g, params)
    size = _size(abs(params.alpha) * _max_abs(g, 2) * _max_abs(gi, 2) + abs(params.beta), Rc.size)
    return holomorphic_sectional(replace(Rc, tensor=T, size=size), X)


def sphere_average_closed_form(bundle: RicciBundle, params: MixedParams) -> float:
    """Exact average of C_{alpha,beta} over the unit sphere of directions, n from the bundle."""
    a, b, n = params.alpha, params.beta, bundle.n
    return (((n + 1) * a + b) * bundle.u + b * bundle.v) / (n * (n + 1))


def _sphere_design(n: int):
    """(points, weights): a signed cubature exact for every degree-(2, 2) moment on the unit sphere of C^n.

    e_i weigh (3 - n)/(n(n+1)) and (e_i + i^m e_j)/sqrt2, i < j, m = 0..3, weigh 1/(n(n+1)), the four phases
    cancelling each unbalanced moment (complex designs: Delsarte, Goethals & Seidel, Geom. Dedicata 6, 1977).
    So the weighted sum of C_{alpha,beta} over the points is the exact sphere average.
    """
    E, s = np.eye(n, dtype=complex), 1 / np.sqrt(2)
    pairs = [s * E[i] + s * 1j**m * E[j] for i in range(n) for j in range(i + 1, n) for m in range(4)]
    return np.array([*E, *pairs]), np.array([3.0 - n] * n + [1.0] * len(pairs)) / (n * (n + 1))


def sphere_average_monte_carlo(
    Rc: ChernCurvature, g: np.ndarray, params: MixedParams, samples: int = 100_000, seed: int = 0
):
    """Monte Carlo estimate (mean, stderr) of the sphere average.

    Directions are complex-normal vectors normalized to the unit sphere in a
    unitary frame (uniform on the sphere); deterministic given seed.  g is redundant, as Rc carries it.
    """
    return sphere_average_monte_carlo_many(Rc, g, [params], samples, seed)[0]


_BLOCK = 4096  # rows per block of the Monte Carlo quartic; bounds its (rows, n^2) temporaries


def sphere_average_monte_carlo_many(
    Rc: ChernCurvature, g: np.ndarray, params_list, samples: int = 100_000, seed: int = 0
):
    """Monte Carlo sphere averages for several parameter pairs at once.

    Shares one direction draw across the pairs; element i is bit-identical
    to sphere_average_monte_carlo(Rc, g, params_list[i], samples, seed).
    """
    if samples < 1000:
        raise ValueError("need at least 1000 samples")
    R, rho = _unitary_data(Rc)
    n = R.shape[0]
    rng = np.random.default_rng(seed)
    W = rng.standard_normal((samples, n)) + 1j * rng.standard_normal((samples, n))
    W /= np.linalg.norm(W, axis=1, keepdims=True)
    blocks = [W[s : s + _BLOCK] for s in range(0, samples, _BLOCK)]
    forms = (_form(R, rho, np.eye(n), params) for params in params_list)
    vals = (np.concatenate([_objective(T, z) for z in blocks]) for T in forms)
    return [(float(np.mean(v)), float(np.std(v, ddof=1) / np.sqrt(samples))) for v in vals]


def _axis_and_bisector_seeds(n: int) -> np.ndarray:
    """Frame axes plus, per pair, the bisectors (e_i+e_j)/sqrt2, (e_i+-i e_j)/sqrt2: _sphere_design's
    points without the phase -1, in their order."""
    Z = _sphere_design(n)[0]
    return np.concatenate([Z[:n], Z[n:].reshape(-1, 4, n)[:, [0, 1, 3]].reshape(-1, n)])


def _objective(S, Z):
    """C_{alpha,beta} at each unit row of Z, for S = T in a unitary frame."""
    return _quartic(S, Z).real


def _gradient(S, Z):
    """Euclidean gradient 2*dF/dZbar of F = S(Z, Zbar, Z, Zbar) on C^n.

    dF/dZbar_m = sum_i Z_i (A (S + S^T))_{im}, with A = Z (x) Zbar and S
    reshaped to (n^2, n^2) as in the quartic.  On the unit sphere its
    tangential part is that of C_{alpha,beta}.
    """
    n = S.shape[0]
    Sm = S.reshape(n * n, n * n)
    return 2.0 * np.einsum("bi,bim->bm", Z, (_outer(Z) @ (Sm + Sm.T)).reshape(len(Z), n, n))


_LADDER = 2.0 ** (1 - np.arange(12))  # candidate step factors: 2, 1, 1/2, ..., 2^-10


def _ascend(S, starts, tol, max_iter):
    """Projected gradient ascent on the unit sphere, one batch for all starts.

    Each iteration evaluates a dyadic ladder of candidate steps around the
    per-start step and keeps the best one passing the Armijo test; plain
    first-accept backtracking overshoots the degenerate extremizer circles
    of these quartics and stalls at a 1/t rate.  Returns (best value, best
    direction, converged) for the maximum.  Starts within tol^2 of the best
    value reached the same maximum, as far as its accuracy goes; of those the
    one with the smallest gradient is reported, so that which of them ends a
    round-off ahead does not decide convergence.
    """
    Z = starts / np.linalg.norm(starts, axis=1, keepdims=True)
    f = _objective(S, Z)
    B, n = Z.shape
    rows = np.arange(B)
    step = np.full(B, 1.0)
    alive = np.ones(B, dtype=bool)
    for it in range(max_iter + 1):  # the last pass only measures the final gradient
        G = _gradient(S, Z)
        # tangential component: remove the real-inner-product projection on Z
        Gt = G - np.sum(G * np.conj(Z), axis=1).real[:, None] * Z
        grad_norm = np.linalg.norm(Gt, axis=1)
        active = alive & (grad_norm > tol)
        if it == max_iter or not np.any(active):
            break
        cand = step[:, None] * _LADDER[None, :]
        trial = Z[:, None, :] + cand[..., None] * Gt[:, None, :]
        trial = trial / np.linalg.norm(trial, axis=2, keepdims=True)
        ft = _objective(S, trial.reshape(-1, n)).reshape(B, len(_LADDER))
        best = np.argmax(ft, axis=1)
        bt = cand[rows, best]
        bf = ft[rows, best]
        ok = active & (bf >= f + 1e-4 * bt * grad_norm**2)
        Z[ok] = trial[rows, best][ok]
        f[ok] = bf[ok]
        step[ok] = bt[ok]
        # a start whose whole ladder fails Armijo has no usable ascent left
        alive &= ~(active & ~ok)
        if not np.any(ok):  # nothing moved, so grad_norm is current
            break
    best = int(np.argmax(f))
    tied = np.flatnonzero(f >= f[best] - tol * tol)  # empty if f[best] is nan, which stays reported
    best = tied[np.argmin(grad_norm[tied])] if len(tied) else best
    return float(f[best]), Z[best], bool(grad_norm[best] <= tol)


# rows vec(I/2), vec(sigma_1/2), vec(sigma_2/2), vec(sigma_3/2): vec(Z Z*) = _PAULI^T (1, x)
_PAULI = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, -1j, 1j, 0], [1, 0, 0, -1]]) / 2


def _bloch_candidates(S):
    """Unit Z in C^2 among which both extrema of S(Z, Zbar, Z, Zbar) on the unit sphere lie.

    With Z Z* = (I + x.sigma)/2, x on the Bloch sphere S^2, S(Z, Zbar, Z, Zbar)
    is bilinear in Z Z*, so the objective is t^T Q t with t = (1, x): c + 2 b.x
    + x^T A x.  With A = V diag(lam) V^T and bt = V^T b, a stationary point
    solves (lam - mu) y = -bt, |y| = 1, and its multipliers mu are the real
    eigenvalues of [[lam, -I], [-bt bt^T, lam]] (Gander, Golub & von Matt
    1989).  The candidates are y = -bt/(lam - mu) for each eigenvalue's real
    part; the hard-case points at mu = lam_k, whose component in lam_k's
    eigenspace is +-bt's there (or e_k), scaled to |y| = 1; and the six
    +-axes.  Near the hard case those multipliers lose half their digits, so
    each candidate also enters after one Newton step on the stationarity
    equations.
    """
    Q = (_PAULI @ S.reshape(4, 4) @ _PAULI.T).real
    Q = (Q + Q.T) / 2
    if not np.all(np.isfinite(Q)):
        return np.full((1, 2), np.nan + 0j)  # the caller reports the non-finite value
    lam, V = np.linalg.eigh(Q[1:, 1:])
    bt = V.T @ Q[0, 1:]
    L = np.diag(lam)
    mu = np.linalg.eigvals(np.block([[L, -np.eye(3)], [-np.outer(bt, bt), L]])).real
    D = lam - lam[:, None]  # D[k, j] = lam_j - lam_k
    near = np.abs(D) <= 1e-12 * np.max(np.abs(lam))  # row k: lam_k's eigenspace, to round-off
    off = np.where(near, 0.0, -bt / D)  # row k: the hard-case point off lam_k's eigenspace
    free = np.where(near, bt, 0.0)
    free = np.where(np.any(free, axis=1, keepdims=True), free, np.eye(3))
    free *= np.sqrt(1 - np.sum(off * off, axis=1, keepdims=True)) / np.linalg.norm(free, axis=1, keepdims=True)
    y = np.vstack([-bt / (lam - mu[:, None]), off + free, off - free, V, -V])  # rows of +-V: the +-axes of x
    y = y[np.all(np.isfinite(y), axis=1)]
    y = y / np.linalg.norm(y, axis=1, keepdims=True)
    m = np.sum(y * (lam * y + bt), axis=1)  # each candidate's multiplier estimate
    J = np.zeros((len(y), 4, 4))  # Jacobian of (lam - m) y + bt = 0, (1 - y.y)/2 = 0 in (y, m)
    J[:, :3, :3] = np.eye(3) * (lam - m[:, None])[:, None, :]
    J[:, :3, 3] = J[:, 3, :3] = -y
    r = np.hstack([(lam - m[:, None]) * y + bt, np.zeros((len(y), 1))])[..., None]
    try:
        step = np.linalg.solve(J, r)
    except np.linalg.LinAlgError:  # a J exactly singular (A = 0, say): least-squares steps
        step = np.linalg.pinv(J) @ r
    x = np.vstack([y, y - step[:, :3, 0]]) @ V.T
    x = x / np.linalg.norm(x, axis=1, keepdims=True)
    x = x[np.all(np.isfinite(x), axis=1)]
    x1, x2, x3 = x.T  # Z ~ (1 + x3, x1 + i x2), or (x1 - i x2, 1 - x3) nearer x3 = -1
    Z = np.where(x3[:, None] >= 0, np.stack([1 + x3, x1 + 1j * x2], 1), np.stack([x1 - 1j * x2, 1 - x3], 1))
    return Z / np.linalg.norm(Z, axis=1, keepdims=True)


@functools.cache
def _sym2_basis(n: int) -> np.ndarray:
    """Orthonormal real basis of Sym^2(C^n) inside C^(n^2), one column per pair i <= k:
    e_i (x) e_i, and (e_i (x) e_k + e_k (x) e_i)/sqrt2 for i < k.  Read-only, built once per n."""
    pairs = [(i, k) for i in range(n) for k in range(i, n)]
    basis = np.zeros((n * n, len(pairs)))
    for c, (i, k) in enumerate(pairs):
        basis[[i * n + k, k * n + i], c] = 1 / np.sqrt(2) if i != k else 1
    basis.flags.writeable = False
    return basis


def _symmetric_square(S):
    """H = sym(S)/4 on Sym^2(C^n), in the coordinates of _sym2_basis(n).

    With Hf[(i,k), (j,l)] = sym(S)_{i jbar k lbar}/4, S(Z, Zbar, Z, Zbar) =
    w* Hf w for w = Zbar (x) Zbar, which lies in Sym^2; so on unit Z the
    extrema lie between H's extreme eigenvalues.
    """
    n = S.shape[0]
    basis = _sym2_basis(n)
    Hf = np.transpose(_sym(S) / 4, (0, 2, 1, 3)).reshape(n * n, n * n)  # rows (i, k), columns (j, l)
    return basis.T @ Hf @ basis


def _sym2_candidates(S):
    """(lam_min, lam_max, Z): the bounds of _symmetric_square and four unit candidates.

    Each extreme eigenvector of H is an n x n symmetric M; its leading left
    singular vector u is M's Takagi vector up to phase (Horn & Johnson,
    Matrix Analysis, 4.4), so M = Zbar Zbar^T makes u or conj(u) Z up to
    phase.  Z holds u and conj(u) for both ends.  Non-finite S gives nan.
    """
    n = S.shape[0]
    H = _symmetric_square(S)
    if not np.all(np.isfinite(H)):
        return np.nan, np.nan, np.full((1, n), np.nan + 0j)  # the caller reports the non-finite value
    lam, V = np.linalg.eigh(H)
    M = (_sym2_basis(n) @ V[:, [0, -1]]).T.reshape(2, n, n)
    u = np.linalg.svd(M)[0][:, :, 0]
    return lam[0], lam[-1], np.concatenate([u, np.conj(u)])


_CERTIFY = 1e-13  # the Sym^2 bounds certify the rounded extrema within this times the curvature's size
_RESTARTS, _SEED = 16, 0  # random starts of the n >= 3 ascent, after the axes and bisectors
_TOL, _MAX_ITER = 1e-7, 500  # its gradient tolerance (relative to the curvature) and iteration cap


def _scaled_form(R, rho, params: MixedParams):
    """(S, e, scale): T = 2^e S in a unitary frame, with S's magnitude
    scale = max(|alpha| max|rho1|, |beta| max|R|) / 2^e between 1/2 and 2, or 0 when T = 0.

    e is taken from the exponents of the weights and of max|rho1|, max|R|, so the
    magnitude of T may lie outside the floats while S neither over- nor
    underflows; on S the ascent's ladder of steps is relative to the curvature.
    rho1 and R are scaled by 2^-e, the weights kept: 2^-e itself need not be a
    float, when the curvature is subnormal.  A term whose weight is 0 is left
    unscaled, as only the other term's exponent bounds e.
    """
    terms = ((params.alpha, rho), (params.beta, R))
    sizes = [(w, float(np.max(np.abs(t)))) for w, t in terms]
    e = max((math.frexp(w)[1] + math.frexp(m)[1] - 1 for w, m in sizes if w and m), default=0)
    rho, R = (np.ldexp(t.real, -e) + 1j * np.ldexp(t.imag, -e) if w else t for w, t in terms)
    S = _form(R, rho, np.eye(R.shape[0]), params)
    return S, e, max(abs(params.alpha) * _max_abs(rho, 2), abs(params.beta) * _max_abs(R, 4))


def _best(S, Z):
    """(min, argmin, max, argmax) of C_{alpha,beta} over the unit candidate rows of Z."""
    f = _objective(S, Z)
    lo, hi = int(np.argmin(f)), int(np.argmax(f))
    return float(f[lo]), Z[lo], float(f[hi]), Z[hi]


def extremize(Rc: ChernCurvature, params: MixedParams) -> ExtremumReport:
    """Extrema of C_{alpha,beta} over the unit sphere of a unitary frame, at one point.

    Rc is one point's curvature in a unitary frame (geometry.to_unitary_frame;
    a coordinate-frame tensor is a ValueError), where the metric is I: on that
    sphere |Z|_g = |Z|_euclid, so the objective is T(Z, Zbar, Z, Zbar) with
    T = alpha rho1 (x) I + beta R.  The extreme eigenvalues of H = sym(T)/4
    on Sym^2(C^n) bound the extrema.  When the best rank-one rounding of
    _sym2_candidates meets both bounds within 1e-13 times the
    curvature magnitude max(|alpha| max|rho1|, |beta| max|R|) (always at
    n = 1), the extrema are certified: converged, restarts_used = 0.
    Otherwise at n = 2 the best of _bloch_candidates is exact (converged,
    restarts_used = 0), and at n >= 3 projected gradient ascent of T and of
    -T runs from the frame axes, the pair bisectors and 16 seeded random
    starts (restarts_used counts them all), at most 500 iterations;
    converged then means the projected gradient fell below 1e-7 times the
    curvature magnitude at both extremizers, so the extremal values are
    accurate to about 1e-14 of it.  bound_gap measures every path against
    the same bounds.  Every path runs on T divided by an exact power of two
    that brings that magnitude between 1/2 and 2 (_scaled_form), so both
    tolerances have no absolute floor and the result scales exactly with
    the weights and with the curvature, however large or small.
    """
    if Rc.frame != "unitary":
        raise ValueError("extremize takes a unitary-frame curvature; convert it with to_unitary_frame")
    if Rc.tensor.ndim != 4:
        raise ValueError(f"extremize takes one point, got a curvature tensor of shape {Rc.tensor.shape}")
    R = Rc.tensor
    n = R.shape[0]
    rho = _rho1(np.eye(n), R)

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # reported as MetricError below
        S, e, scale = _scaled_form(R, rho, params)
        lam_min, lam_max, Z = _sym2_candidates(S)
        min_val, argmin, max_val, argmax = _best(S, Z)
        converged, used = True, 0
        if not (lam_max - max_val <= _CERTIFY * scale and min_val - lam_min <= _CERTIFY * scale):
            if n == 2:
                min_val, argmin, max_val, argmax = _best(S, _bloch_candidates(S))
            elif n >= 3:  # n = 1 misses the bounds only when S is not finite, reported below
                rng = np.random.default_rng(_SEED)
                W = rng.standard_normal((_RESTARTS, n)) + 1j * rng.standard_normal((_RESTARTS, n))
                starts = np.concatenate([_axis_and_bisector_seeds(n), W])
                max_val, argmax, ok_max = _ascend(S, starts, _TOL * scale, _MAX_ITER)
                min_neg, argmin, ok_min = _ascend(-S, starts, _TOL * scale, _MAX_ITER)
                min_val, converged, used = -min_neg, ok_max and ok_min, len(starts)
        gap = max(lam_max - max_val, min_val - lam_min)
        min_val, max_val, gap = (float(x) for x in np.ldexp([min_val, max_val, gap], e))
    if not np.all(np.isfinite([min_val, max_val, max_val - min_val, gap])):
        raise MetricError(f"mixed curvature extrema not finite for alpha={params.alpha!r}, beta={params.beta!r}")
    return ExtremumReport(
        min_value=min_val,
        max_value=max_val,
        argmin=argmin,
        argmax=argmax,
        spread=max_val - min_val,
        restarts_used=used,
        converged=converged,
        bound_gap=gap,
    )


def constancy_tensor_residual(Rc: ChernCurvature, params: MixedParams, c: float) -> float:
    """Residual of the symmetrized identity equivalent to C_{alpha,beta} == c.

    With rho the first Chern Ricci, the identity is

        alpha (rho_{i jbar} g_{k lbar} + rho_{k jbar} g_{i lbar}
               + rho_{i lbar} g_{k jbar} + rho_{k lbar} g_{i jbar})
        + beta (R_{i jbar k lbar} + R_{k jbar i lbar}
                + R_{i lbar k jbar} + R_{k lbar i jbar})
        = 2 c (g_{i jbar} g_{k lbar} + g_{i lbar} g_{k jbar}),

    i.e. sym(T - c g (x) g) = 0 for T = alpha rho (x) g + beta R, g Rc's metric; returns max |LHS - RHS|.
    """
    g = Rc.metric
    return _constancy_residual(_form(Rc.tensor, _rho1(np.linalg.inv(g), Rc.tensor), g, params), g, c)


def _sym(T):
    """T_{i jbar k lbar} + T_{k jbar i lbar} + T_{i lbar k jbar} + T_{k lbar i jbar}."""
    swap_holo = np.swapaxes(T, -4, -2)
    return T + swap_holo + np.swapaxes(T, -3, -1) + np.swapaxes(swap_holo, -3, -1)


def _constancy_residual(T, g, c):
    """The constancy identity for T and c: max |sym(T - c g (x) g)|."""
    c = np.asarray(c)[..., None, None, None, None]
    return _max_abs(_sym(T - c * np.einsum("...ij,...kl->...ijkl", g, g)), 4)


def trace_identity_residual(bundle: RicciBundle, params: MixedParams, f: float) -> float:
    """Residual of the traced constancy identities for C_{alpha,beta} == f.

    Matrix identity:
        [alpha (n+2) + beta] rho1 + beta rho2 + 2 beta Re(rho3)
            = [2 (n+1) f - alpha u] g
    Scalar identity:
        [(n+1) alpha + beta] u + beta v = n (n+1) f

    with g the metric of the bundle's frame and n its dimension.  Returns
    the max of the two residuals.
    """
    a, b, n = params.alpha, params.beta, bundle.n
    lhs = (a * (n + 2) + b) * bundle.rho1 + b * bundle.rho2 + 2 * b * _hermitian_part(bundle.rho3)
    rhs = np.asarray(2 * (n + 1) * f - a * bundle.u)[..., None, None] * bundle.metric
    scalar_res = n * (n + 1) * np.abs(sphere_average_closed_form(bundle, params) - f)
    return np.maximum(_max_abs(lhs - rhs, 2), scalar_res)
