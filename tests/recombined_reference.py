"""C_{alpha,beta} with rho and R kept apart: the reference for the forms built on T.

chernkit.mixed builds T = alpha rho (x) g + beta R once and evaluates
everything on it.  These functions recombine rho and R with alpha and beta
term by term instead, as the formulas are written in the literature; the
tests check that both routes agree.
"""

import numpy as np

from chernkit.geometry import _quartic
from chernkit.mixed import _sym


def outer(a, b):
    """a (x) b: [..., i, j, k, l] = a[..., i, j] b[..., k, l]."""
    return np.einsum("...ij,...kl->...ijkl", a, b)


def value(R, rho, g, params, X):
    """alpha rho(X, Xbar)/|X|^2_g + beta R(X, Xbar, X, Xbar)/|X|^4_g."""
    norm2 = np.einsum("...ij,...i,...j->...", g, X, np.conj(X)).real
    ric = np.einsum("...i,...ij,...j->...", X, rho, np.conj(X)).real
    return params.alpha * ric / norm2 + params.beta * _quartic(R, X).real / norm2**2


def constancy(R, rho, g, params, c, shift=0.0):
    """max |alpha sym(rho g) + beta sym(R) - shift - 2 c (g_{i jbar} g_{k lbar} + g_{i lbar} g_{k jbar})|."""
    c = np.asarray(c)[..., None, None, None, None]
    lhs = params.alpha * _sym(outer(rho, g)) + params.beta * _sym(R) - shift
    rhs = 2 * c * (outer(g, g) + np.einsum("...il,...kj->...ijkl", g, g))
    return np.max(np.abs(lhs - rhs), axis=(-4, -3, -2, -1))


def conformal_constancy(R, rho, g, hess, params, c):
    """constancy with 2 (n alpha + beta) sym(g (x) ddbar F) as the shift; c is f e^{2F}."""
    n = g.shape[-1]
    return constancy(R, rho, g, params, c, 2 * (n * params.alpha + params.beta) * _sym(outer(g, hess)))


def gradient(R, rho, params, Z):
    """2 d/dZbar of alpha rho(Z, Zbar) + beta R(Z, Zbar, Z, Zbar) at each row of Z."""
    Zc = np.conj(Z)
    dR = np.einsum("imkl,bi,bk,bl->bm", R, Z, Z, Zc) + np.einsum("ijkm,bi,bj,bk->bm", R, Z, Zc, Z)
    return 2.0 * (params.alpha * (Z @ rho) + params.beta * dR)


def random_curvature(rng, m, n):
    """m random (g, R): g Hermitian positive definite, R with R_{i jbar k lbar} = conj(R_{j ibar l kbar})."""
    A = rng.standard_normal((m, n, n)) + 1j * rng.standard_normal((m, n, n))
    g = A @ np.conj(np.swapaxes(A, 1, 2)) + np.eye(n)
    B = rng.standard_normal((m, n, n, n, n)) + 1j * rng.standard_normal((m, n, n, n, n))
    return g, (B + np.conj(np.transpose(B, (0, 2, 1, 4, 3)))) / 2
