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

from .qmath import _eigvalsh


def backend_name() -> str:
    """Name of the kernel implementation, recorded in CSV provenance."""
    return "numpy"


def hermitian_trace_norm(a: np.ndarray):
    """||A||_1 for Hermitian A, as the sum of |eigenvalues|.

    A stack of shape (n, D, D) gives the array of its n norms, from one
    batched ``eigvalsh`` that reproduces the one-matrix norms exactly.  A
    matrix with a NaN or infinite entry has norm NaN.
    """
    norms = np.abs(_eigvalsh(a)).sum(axis=-1)
    return norms if norms.ndim else float(norms)


def _screened_norm(diff: np.ndarray, tol: float) -> float:
    """``hermitian_trace_norm(diff)`` when it may be <= tol, else inf."""
    if np.linalg.norm(diff) > tol:
        return np.inf
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
                  max_iter: int, target: np.ndarray | None = None):
    """Collide until the trace-norm residual drops to tol.

    The residual is the step ``rho_k - rho_(k-1)``, or with ``target`` the
    distance ``rho_k - target``, which the start state (k = 0) is also
    checked for.  Returns (state, iterations, last residual, converged).
    Without convergence the residual is the exact trace norm of the last
    one measured, or inf when none was; a state that turns NaN stops
    there, with iterations max_iter and residual NaN, as if it had run on.
    """
    rows, adjoints = _two_product_form(kraus)
    rho = np.array(rho0, dtype=complex)
    diff = None if target is None else rho - target
    for k in range(max_iter + 1):
        if k:
            prev, rho = rho, _collide(rows, adjoints, rho)
            diff = rho - (prev if target is None else target)
        elif diff is None:
            continue
        residual = _screened_norm(diff, tol)
        if residual <= tol:
            return rho, k, residual, True
        if np.isnan(residual):
            return rho, max_iter, residual, False
    residual = np.inf if diff is None else hermitian_trace_norm(diff)
    return rho, max_iter, residual, False


def iterate_to_target(
    kraus: np.ndarray,
    rho0: np.ndarray,
    target: np.ndarray,
    tol: float,
    max_iter: int,
) -> tuple[np.ndarray, int, float, bool]:
    """:func:`iterate_until` with the distance to ``target`` as residual."""
    return iterate_until(kraus, rho0, tol, max_iter, target)
