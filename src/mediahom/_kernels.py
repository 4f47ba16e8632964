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


def _frobenius_norms(stack: np.ndarray) -> np.ndarray:
    """||X||_F of each matrix of a complex (P, D, D) stack, shape (P,).

    One product of each flattened matrix, as reals, with itself: cheaper in
    calls than ``np.linalg.norm`` over two axes.  Squares that underflow
    only lower a norm, which sends it on to the exact check.
    """
    flat = stack.reshape(len(stack), 1, -1).view(np.float64)
    return np.sqrt(flat @ flat.swapaxes(1, 2)).ravel()


def _screened_norm(diff: np.ndarray, tol: float) -> float:
    """``hermitian_trace_norm(diff)`` when it may be <= tol, else inf.

    A NaN Frobenius norm fails the comparison and falls through to the
    exact norm, so it never counts as converged.
    """
    if np.linalg.norm(diff) > tol:
        return np.inf
    return hermitian_trace_norm(diff)


def _two_product_form(kraus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The operators and the adjoints of a Kraus stack, stacked as rows.

    A stack (..., m, D, D) gives two of shape (..., m D, D), whose row
    block k is ``K_k`` and ``K_k^dag``.
    """
    *lead, m, d, _ = kraus.shape
    rows = kraus.reshape(*lead, m * d, d)
    adjoints = kraus.conj().swapaxes(-1, -2).reshape(*lead, m * d, d)
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

    A stack of P channels of one system dimension, ``kraus`` of shape
    (P, m, D, D) with ``rho0`` of shape (P, D, D), iterates in lockstep and
    returns the four as arrays over the P points.  Each collision is then
    one pair of products shared by the points still iterating; a point
    leaves the stack at its first collision with an exact residual <= tol.
    Every point's arithmetic is that of iterating it alone, so its state,
    count and residual are the same.  Zero Kraus operators, which pad
    stacks of lower rank, add exact zeros to its sums.
    """
    single = kraus.ndim == 3
    if single:
        kraus, rho0 = kraus[None], np.asarray(rho0)[None]
    rows, adjoints = _two_product_form(kraus)
    rho = np.array(rho0, dtype=complex)
    states = np.empty_like(rho)
    p = len(rho)
    used = np.full(p, max_iter)
    residuals = np.full(p, np.inf)
    converged = np.zeros(p, dtype=bool)
    active = np.arange(p)
    for k in range(1, max_iter + 1):
        nxt = _collide(rows, adjoints, rho)
        diff, rho = nxt - rho, nxt
        norms = _frobenius_norms(diff)
        if norms.min() > tol:  # False too when a norm is NaN
            continue
        # A NaN state stays NaN, so its point leaves here with what running
        # on to max_iter gives: unconverged, residual NaN.  Only finite
        # norms <= tol go to the exact check, whose eigvalsh raises on NaN
        # at D >= 3.
        residual = np.where(np.isnan(norms), np.nan, np.inf)
        near = np.flatnonzero(norms <= tol)
        if near.size:
            residual[near] = hermitian_trace_norm(diff[near])
        hit = residual <= tol
        done = hit | np.isnan(residual)
        if not done.any():
            continue
        points = active[done]
        states[points] = rho[done]
        used[active[hit]] = k
        residuals[points] = residual[done]
        converged[points] = hit[done]
        stay = ~done
        active, rows, adjoints, rho, diff = (
            active[stay], rows[stay], adjoints[stay], rho[stay], diff[stay]
        )
        if not active.size:
            break
    if active.size:
        states[active] = rho
        if max_iter > 0:
            residuals[active] = hermitian_trace_norm(diff)
    if single:
        return states[0], int(used[0]), float(residuals[0]), bool(converged[0])
    return states, used, residuals, converged


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
    rows, adjoints = _two_product_form(kraus)
    rho = np.array(rho0, dtype=complex)
    distance = _screened_norm(rho - target, tol)
    if distance <= tol:
        return rho, 0, distance, True
    for k in range(1, max_iter + 1):
        rho = _collide(rows, adjoints, rho)
        distance = _screened_norm(rho - target, tol)
        if distance <= tol:
            return rho, k, distance, True
    return rho, max_iter, hermitian_trace_norm(rho - target), False
