"""Mixed curvature C_{alpha,beta} and its behaviour over unit directions.

    C_{alpha,beta}(X) = alpha * Ric(X, Xbar)/|X|^2_g + beta * H(X)

with Ric the first Chern Ricci rho1.  Provided here: pointwise evaluation,
the exact sphere average

    avg_{|Z|=1} C_{alpha,beta}(Z) = [((n+1) alpha + beta) u + beta v] / (n (n+1)),

a seeded Monte Carlo estimate of the same average, extremization over the
unit sphere of the g-orthonormal frame, and residuals of the two pointwise
constancy identities (the symmetrized rank-4 tensor identity and its trace).
Pointwise evaluation and the residuals take one point or a batch, like the
geometry kernels, and so does extremization: extremize is the one-point view
of _extrema, which certifies a batch with one stacked eigh and svd and sends
only the points it cannot certify to a fallback, one at a time.  The averages
work at one point.

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
import sys
from dataclasses import dataclass, replace

import numpy as np

from .geometry import ChernCurvature, RicciBundle, _outer, _quartic, _rho1, holomorphic_sectional, to_unitary_frame
from .jets import MetricError, _hermitian_part, _ldexp, _max_abs, _size

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
    distance left to the bounds when a fallback decided.  path names what
    decided: "certified" (the Sym^2 bounds), "exact" (the n = 2 Bloch-sphere
    solve) or "ascent" (the n >= 3 projected gradient ascent).
    """

    min_value: float
    max_value: float
    argmin: np.ndarray
    argmax: np.ndarray
    spread: float
    restarts_used: int
    converged: bool
    bound_gap: float
    path: str


def _form(Rc: ChernCurvature, params: MixedParams) -> ChernCurvature:
    """T = alpha rho1 (x) g + beta R as a curvature in Rc's frame, g the metric of that frame:
    T_{i jbar k lbar} = alpha rho1_{i jbar} g_{k lbar} + beta R_{i jbar k lbar}.

    Its size is that of its terms, (|alpha| max|g| max|g^-1| + |beta|) Rc.size: T may cancel far
    below that, its round-off does not (see jets._bound).  MetricError when T is not finite.
    """
    g = Rc.metric
    gi = np.linalg.inv(g)
    with np.errstate(over="ignore", invalid="ignore"):  # reported as MetricError by _finite
        T = params.alpha * np.einsum("...ij,...kl->...ijkl", _rho1(gi, Rc.tensor), g) + params.beta * Rc.tensor
    _finite(T, params)
    size = _size(abs(params.alpha) * _max_abs(g, 2) * _max_abs(gi, 2) + abs(params.beta), Rc.size)
    return replace(Rc, tensor=T, size=size)


def _finite(T, params: MixedParams):
    """MetricError unless every entry of T, a tensor built from params' weights, is finite."""
    if not np.isfinite(T).all():
        raise MetricError(f"mixed curvature tensor not finite for alpha={params.alpha!r}, beta={params.beta!r}")


def mixed_curvature(Rc: ChernCurvature, params: MixedParams, X) -> float:
    """C_{alpha,beta}(X) = H_T(X) for a nonzero (1,0)-vector X, scale-invariant; X and the
    result are shaped as in holomorphic_sectional, rows of directions for each R of a batch included.

    MetricError if its imaginary part exceeds HERMITIAN_TOL times the size of T's terms (_form).
    """
    return holomorphic_sectional(_form(Rc, params), X)


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
    Ru = Rc if Rc.frame == "unitary" else to_unitary_frame(Rc)
    n = Ru.n
    rng = np.random.default_rng(seed)
    W = rng.standard_normal((samples, n)) + 1j * rng.standard_normal((samples, n))
    W /= np.linalg.norm(W, axis=1, keepdims=True)
    blocks = [W[s : s + _BLOCK] for s in range(0, samples, _BLOCK)]
    forms = (_form(Ru, params).tensor for params in params_list)
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
    equations.  S must be finite.
    """
    Q = (_PAULI @ S.reshape(4, 4) @ _PAULI.T).real
    Q = (Q + Q.T) / 2
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
def _sym2_table(n: int):
    """(index, weight, rows, coef): the gathers between Sym^2(C^n) and n x n arrays.  Read-only, built once per n.

    The coordinates are those of the orthonormal real basis of Sym^2(C^n) inside C^(n^2), one
    column per pair p = (i, k), i <= k, in np.triu_indices order: e_i (x) e_i, and
    (e_i (x) e_k + e_k (x) e_i)/sqrt2 for i < k.  Row (p, q) of index, for q = (j, l), holds the flat
    positions of S_{i jbar k lbar}, S_{k jbar i lbar}, S_{i lbar k jbar} and S_{k lbar i jbar};
    weight[(p, q)] = c_p c_q / 4, with c = 1 on the pairs i = k and sqrt2 on the others.  That is
    N^2 x 4 positions, N = n(n+1)/2, where a dense map from S to H would hold N^2 x n^4 entries.
    The basis has one nonzero per row, so basis @ v = coef * v[rows] for Sym^2 coordinates v:
    row a*n + b holds the pair of {a, b}, with 1 if a = b and 1/sqrt2 otherwise.
    """
    i, k = np.triu_indices(n)
    pair = np.empty((n, n), dtype=np.intp)
    pair[i, k] = pair[k, i] = np.arange(i.size)
    coef = np.where(np.eye(n, dtype=bool), 1.0, 1 / np.sqrt(2)).ravel()
    (i, k), (j, l) = (i[:, None], k[:, None]), (i[None, :], k[None, :])
    index = [((a * n + b) * n + c) * n + d for a, b, c, d in ((i, j, k, l), (k, j, i, l), (i, l, k, j), (k, l, i, j))]
    index = np.stack(np.broadcast_arrays(*index), axis=-1).reshape(-1, 4)
    weight = (np.sqrt(np.where(i != k, 2.0, 1.0) * np.where(j != l, 2.0, 1.0)) / 4).ravel()  # c_p c_q: 1, sqrt2 or 2
    tables = index, weight, pair.ravel(), coef
    for t in tables:
        t.flags.writeable = False
    return tables


def _symmetric_square(S):
    """H = sym(S)/4 on Sym^2(C^n), in the coordinates of _sym2_table(n), for one S or a batch.

    With Hf[(i,k), (j,l)] = sym(S)_{i jbar k lbar}/4, S(Z, Zbar, Z, Zbar) =
    w* Hf w for w = Zbar (x) Zbar, which lies in Sym^2; so on unit Z the
    extrema lie between H's extreme eigenvalues.  H = basis^T Hf basis, whose
    entry (p, q) is the four terms of sym(S) at one (i, j, k, l) times
    c_p c_q / 4: one gather through _sym2_table(n).  The gather's last axis
    holds the four terms, contiguous at every batch shape, so one S gives
    the same H bits alone and in a batch: numpy sums each four as
    (t0 + t1) + (t2 + t3) at either shape.
    """
    n, batch = S.shape[-1], S.shape[:-4]
    index, weight, _, _ = _sym2_table(n)
    return (S.reshape(*batch, -1).take(index, axis=-1).sum(axis=-1) * weight).reshape(*batch, n * (n + 1) // 2, -1)


def _sym2_candidates(S):
    """(lam, Z): the eigenvalues of _symmetric_square, ascending, and four unit candidates, for a batch of S.

    Each extreme eigenvector of H is an n x n symmetric M; its leading left
    singular vector u is M's Takagi vector up to phase (Horn & Johnson,
    Matrix Analysis, 4.4), so M = Zbar Zbar^T makes u or conj(u) Z up to
    phase.  Z[k] holds u and conj(u) for both ends of S[k]: one stacked eigh
    and svd for the batch, which must be finite.
    """
    n = S.shape[-1]
    lam, V = np.linalg.eigh(_symmetric_square(S))
    _, _, rows, coef = _sym2_table(n)
    M = (V[:, rows, [[0], [-1]]] * coef).reshape(-1, 2, n, n)  # basis @ V[:, [0, -1]], one row per end
    u = np.linalg.svd(M)[0][..., 0]
    return lam, np.concatenate([u, u.conj()], axis=1)


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
    float, when the curvature is subnormal.  Where a weight is subnormal, a
    tensor scaled by 2^-e would pass the largest float, and the weight takes
    the rest of the power of two (_shifted).  A term whose weight is 0 is left
    out, with its magnitude and exponent.  S is beta R with alpha rho1 added on
    its diagonal k = l, in C order whatever the layout of R.
    """
    alpha, beta = params.alpha, params.beta
    # (w, max|t|) as math.frexp pairs, for the terms of nonzero weight
    sizes = [(math.frexp(w), math.frexp(np.abs(t).max())) for w, t in ((alpha, rho), (beta, R)) if w]
    e = max((xw + xm - 1 for (_, xw), (fm, xm) in sizes if fm), default=0)
    scale = max(math.ldexp(abs(fw) * fm, xw + xm - e) for (fw, xw), (fm, xm) in sizes)  # xw + xm - e <= 1
    if e:
        (alpha, rho), (beta, R) = (_shifted(w, t, e) if w else (w, t) for w, t in ((alpha, rho), (beta, R)))
    n = R.shape[0]
    S = np.multiply(beta, R, dtype=complex, order="C")  # C order, so the reshape below is a view
    if alpha:
        S.reshape(n, n, n * n)[..., :: n + 1] += alpha * rho[..., None]
    return S, e, scale


def _shifted(w, t, e: int):
    """(w 2^(b - e), t 2^-b), whose product is w t 2^-e exactly.

    b is e, as long as t 2^-e is a float.  It need not be where w is
    subnormal: there b keeps max|t 2^-b| under the largest float and w takes
    the rest, which leaves it below 2^-1022, as e >= exponent(w) +
    exponent(max|t|) - 1.  Both scalings are exact, so the product is the
    same either way.
    """
    b = e
    if abs(w) < sys.float_info.min:
        b = max(e, math.frexp(np.abs(t).max())[1] - sys.float_info.max_exp)
    return math.ldexp(w, b - e), _ldexp(t, -b)


def _best(S, Z):
    """(min, argmin, max, argmax) of C_{alpha,beta} over the unit candidate rows of Z[k], for S[k]: one
    stacked objective, then one tuple per k.

    numpy's argmin and argmax, not min and max over the list: on an AVX-512
    machine, Python code run after the objective's BLAS call and no other
    vectorized numpy loop ran 30% slower, report.dumps in the CLI included.
    """
    f = _objective(S, Z)
    for fk, Zk, lo, hi in zip(f.tolist(), Z, f.argmin(axis=1).tolist(), f.argmax(axis=1).tolist()):
        yield fk[lo], Zk[lo], fk[hi], Zk[hi]


def _fallback(S, n: int, scale):
    """(min, argmin, max, argmax, converged, restarts_used, path) where the Sym^2 bounds do not certify S's
    extrema: the best of _bloch_candidates at n = 2, the ascent of S and of -S at n >= 3."""
    if n == 2:
        return *next(_best(S[None], _bloch_candidates(S)[None])), True, 0, "exact"
    rng = np.random.default_rng(_SEED)
    W = rng.standard_normal((_RESTARTS, n)) + 1j * rng.standard_normal((_RESTARTS, n))
    starts = np.concatenate([_axis_and_bisector_seeds(n), W])
    max_val, argmax, ok_max = _ascend(S, starts, _TOL * scale, _MAX_ITER)
    min_neg, argmin, ok_min = _ascend(-S, starts, _TOL * scale, _MAX_ITER)
    return -min_neg, argmin, max_val, argmax, ok_max and ok_min, len(starts), "ascent"


def _not_finite(params: MixedParams) -> MetricError:
    """The error of extrema that are not finite, the same at every point."""
    return MetricError(f"mixed curvature extrema not finite for alpha={params.alpha!r}, beta={params.beta!r}")


def _extrema(Ru: ChernCurvature, params: MixedParams) -> list[ExtremumReport]:
    """extremize at each point of Ru, a unitary-frame curvature at one point or a batch: one report per point.

    The Sym^2 bounds and their candidates are one stacked eigh, svd and
    objective over the points; only the points they do not certify go to
    the Bloch solve or the ascent, one at a time in point order.  Each report
    is bit-identical to extremize at its point.  MetricError if the extrema
    at any point are not finite: at once where T is not (its bounds would be
    nan), else at the first point whose 2^e rescale overflows.
    """
    if Ru.frame != "unitary":
        raise ValueError("extremize takes a unitary-frame curvature; convert it with to_unitary_frame")
    n = Ru.n
    R = Ru.tensor.reshape(-1, n, n, n, n)
    rho = _rho1(np.eye(n), R) if params.alpha else [None] * len(R)  # g = I; _scaled_form leaves out a 0 weight
    reports = []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # reported as MetricError below
        S, e, scale = zip(*(_scaled_form(r, p, params) for r, p in zip(R, rho)))
        S = np.array(S)
        if not np.isfinite(S).all():
            raise _not_finite(params)
        lam, Z = _sym2_candidates(S)
        points = zip(_best(S, Z), lam.tolist(), e, scale)
        for k, ((min_val, argmin, max_val, argmax), lam_k, e_k, scale_k) in enumerate(points):
            lam_lo, lam_hi = lam_k[0], lam_k[-1]
            converged, used, path = True, 0, "certified"
            if n > 1 and not (lam_hi - max_val <= _CERTIFY * scale_k and min_val - lam_lo <= _CERTIFY * scale_k):
                min_val, argmin, max_val, argmax, converged, used, path = _fallback(S[k], n, scale_k)
            gap = max(lam_hi - max_val, min_val - lam_lo)
            min_val, max_val, gap = (float(x) for x in np.ldexp([min_val, max_val, gap], e_k))
            if not all(map(math.isfinite, (min_val, max_val, max_val - min_val, gap))):
                raise _not_finite(params)
            reports.append(
                ExtremumReport(min_val, max_val, argmin, argmax, max_val - min_val, used, converged, gap, path)
            )
    return reports


def extremize(Rc: ChernCurvature, params: MixedParams) -> ExtremumReport:
    """Extrema of C_{alpha,beta} over the unit sphere of a unitary frame, at one point.

    Rc is one point's curvature in a unitary frame (geometry.to_unitary_frame;
    a coordinate-frame tensor is a ValueError), where the metric is I: on that
    sphere |Z|_g = |Z|_euclid, so the objective is T(Z, Zbar, Z, Zbar) with
    T = alpha rho1 (x) I + beta R.  The extreme eigenvalues of H = sym(T)/4
    on Sym^2(C^n) bound the extrema.  When the best rank-one rounding of
    _sym2_candidates meets both bounds within 1e-13 times the
    curvature magnitude max(|alpha| max|rho1|, |beta| max|R|) (always at
    n = 1), the extrema are certified: converged, restarts_used = 0, path
    "certified".  Otherwise at n = 2 the best of _bloch_candidates is exact
    (converged, restarts_used = 0, path "exact"), and at n >= 3 projected
    gradient ascent of T and of -T runs from the frame axes, the pair
    bisectors and 16 seeded random starts (restarts_used counts them all,
    path "ascent"), at most 500 iterations;
    converged then means the projected gradient fell below 1e-7 times the
    curvature magnitude at both extremizers, so the extremal values are
    accurate to about 1e-14 of it.  bound_gap measures every path against
    the same bounds.  Every path runs on T divided by an exact power of two
    that brings that magnitude between 1/2 and 2 (_scaled_form), so both
    tolerances have no absolute floor and the result scales exactly with
    the weights and with the curvature, however large or small.
    """
    if Rc.frame == "unitary" and Rc.tensor.ndim != 4:  # _extrema rejects any other frame
        raise ValueError(f"extremize takes one point, got a curvature tensor of shape {Rc.tensor.shape}")
    return _extrema(Rc, params)[0]


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
    return _constancy_residual(_form(Rc, params).tensor, Rc.metric, c)


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
