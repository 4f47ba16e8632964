"""Hot collision loops: Kraus application, trajectories, fixed-point iteration.

All functions take a complex128 Kraus stack of shape (m, D, D).  One
collision is two matrix products over the whole stack: ``W = K rho`` with
the operators stacked as rows, shape (m D, D), then ``W`` regrouped to
(D, m D) times the adjoints stacked the same way, which sums the m terms
``K_k rho K_k^dag`` inside the second product.  Call overhead, not
arithmetic, sets the cost of a collision at the dimensions iterated here,
so the fewer numpy calls the better.

The iterations decide convergence by the exact trace norm, but screen it
with the Frobenius norm first: ``||X||_F <= ||X||_1``, so a Frobenius norm
above the tolerance already proves the step has not converged and the
``eigvalsh`` is skipped.  Collision counts and reported residuals are those
of an exact check at every step.
"""

from __future__ import annotations

import numpy as np


def backend_name() -> str:
    """Name of the kernel implementation, recorded in CSV provenance."""
    return "numpy"


def hermitian_trace_norm(a: np.ndarray):
    """||A||_1 for Hermitian A, as the sum of |eigenvalues|.

    A stack of shape (n, D, D) gives the array of its n norms, from one
    batched ``eigvalsh`` that reproduces the one-matrix norms exactly.
    """
    norms = np.abs(np.linalg.eigvalsh(a)).sum(axis=-1)
    return norms if norms.ndim else float(norms)


def _screened_norm(diff: np.ndarray, tol: float) -> float:
    """``hermitian_trace_norm(diff)`` when it may be <= tol, else inf or NaN.

    A Frobenius norm above tol gives inf without the exact norm.  A NaN one
    gives NaN, never an ``eigvalsh``, which raises on a NaN matrix at D >= 3.
    """
    norm = np.linalg.norm(diff)
    if norm > tol:
        return np.inf
    if np.isnan(norm):
        return np.nan
    return hermitian_trace_norm(diff)


def _two_product_form(kraus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The operators and the adjoints of a Kraus stack, stacked as rows.

    A stack (m, D, D) gives two of shape (m D, D), whose row block k is
    ``K_k`` and ``K_k^dag``.
    """
    m, d, _ = kraus.shape
    rows = kraus.reshape(m * d, d)
    adjoints = kraus.conj().swapaxes(-1, -2).reshape(m * d, d)
    return rows, adjoints


def _collide(rows: np.ndarray, adjoints: np.ndarray,
             rho: np.ndarray) -> np.ndarray:
    """sum_k K_k rho K_k^dag from :func:`_two_product_form`'s stacks."""
    d = rho.shape[-1]
    w = rows @ rho                                  # block k is K_k rho
    *lead, md, _ = w.shape
    # row i of the regrouped W is (K_1 rho)[i], ..., (K_m rho)[i]
    w = w.reshape(*lead, md // d, d, d).swapaxes(-3, -2).reshape(*lead, d, md)
    return w @ adjoints


def apply_kraus(kraus: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """sum_k K_k rho K_k^dag; a stack of states (n, D, D) maps state by state."""
    return _collide(*_two_product_form(kraus), rho)


def trajectory(kraus: np.ndarray, rho0: np.ndarray, n: int) -> np.ndarray:
    """States after 0..n applications, shape (n+1, D, D)."""
    rows, adjoints = _two_product_form(kraus)
    d = rho0.shape[0]
    out = np.empty((n + 1, d, d), dtype=complex)
    out[0] = rho0
    for k in range(n):
        out[k + 1] = _collide(rows, adjoints, out[k])
    return out


def iterate_until(kraus: np.ndarray, rho0: np.ndarray, tol: float,
                  max_iter: int):
    """Iterate until the step-to-step trace-norm residual drops below tol.

    Returns (state, iterations, last residual, converged).  Without
    convergence the residual is the exact trace norm of the last step, or
    inf when no step ran; a state that turns NaN stops there, with
    iterations max_iter and residual NaN, as if it had run on.
    """
    rows, adjoints = _two_product_form(kraus)
    rho = np.array(rho0, dtype=complex)
    for k in range(1, max_iter + 1):
        nxt = _collide(rows, adjoints, rho)
        diff, rho = nxt - rho, nxt
        residual = _screened_norm(diff, tol)
        if residual <= tol:
            return rho, k, residual, True
        if np.isnan(residual):
            break
    else:
        residual = hermitian_trace_norm(diff) if max_iter > 0 else np.inf
    return rho, max_iter, residual, False


def iterate_to_target(
    kraus: np.ndarray,
    rho0: np.ndarray,
    target: np.ndarray,
    tol: float,
    max_iter: int,
) -> tuple[np.ndarray, int, float, bool]:
    """Iterate until the trace-norm distance to ``target`` drops below tol.

    Returns (state, iterations, last distance, converged); zero iterations
    when the initial state is already within tolerance.  Without
    convergence the distance is the exact trace norm for the last state; a
    NaN state stops there, as in :func:`iterate_until`.
    """
    rows, adjoints = _two_product_form(kraus)
    rho = np.array(rho0, dtype=complex)
    for k in range(max_iter + 1):
        if k:
            rho = _collide(rows, adjoints, rho)
        distance = _screened_norm(rho - target, tol)
        if distance <= tol:
            return rho, k, distance, True
        if np.isnan(distance):
            return rho, max_iter, distance, False
    return rho, max_iter, hermitian_trace_norm(rho - target), False
