"""Hot collision loops: Kraus application, trajectories, fixed-point iteration.

All functions take a complex128 Kraus stack of shape (m, D, D).  The
iterations decide convergence by the exact trace norm, but screen it with
the Frobenius norm first: ``||X||_F <= ||X||_1``, so a Frobenius norm
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
    """``hermitian_trace_norm(diff)`` when it may be <= tol, else inf.

    A NaN Frobenius norm fails the comparison and falls through to the
    exact norm, so it never counts as converged.
    """
    if np.linalg.norm(diff) > tol:
        return np.inf
    return hermitian_trace_norm(diff)


def apply_kraus(kraus: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """sum_k K_k rho K_k^dag; a stack of states (n, D, D) maps state by state."""
    if rho.ndim == 3:
        kraus = kraus[:, None]
    return (kraus @ rho @ kraus.conj().swapaxes(-1, -2)).sum(axis=0)


def trajectory(kraus: np.ndarray, rho0: np.ndarray, n: int) -> np.ndarray:
    """States after 0..n applications, shape (n+1, D, D)."""
    d = rho0.shape[0]
    out = np.empty((n + 1, d, d), dtype=complex)
    out[0] = rho0
    for k in range(n):
        out[k + 1] = apply_kraus(kraus, out[k])
    return out


def iterate_until(
    kraus: np.ndarray, rho0: np.ndarray, tol: float, max_iter: int
) -> tuple[np.ndarray, int, float, bool]:
    """Iterate until the step-to-step trace-norm residual drops below tol.

    Returns (state, iterations, last residual, converged).  Without
    convergence the residual is the exact trace norm of the last step, or
    inf when no step ran.
    """
    rho = np.array(rho0, dtype=complex)
    diff = None
    for k in range(1, max_iter + 1):
        nxt = apply_kraus(kraus, rho)
        diff, rho = nxt - rho, nxt
        residual = _screened_norm(diff, tol)
        if residual <= tol:
            return rho, k, residual, True
    residual = np.inf if diff is None else hermitian_trace_norm(diff)
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
    convergence the distance is the exact trace norm for the last state.
    """
    rho = np.array(rho0, dtype=complex)
    distance = _screened_norm(rho - target, tol)
    if distance <= tol:
        return rho, 0, distance, True
    for k in range(1, max_iter + 1):
        rho = apply_kraus(kraus, rho)
        distance = _screened_norm(rho - target, tol)
        if distance <= tol:
            return rho, k, distance, True
    return rho, max_iter, hermitian_trace_norm(rho - target), False
