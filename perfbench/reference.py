"""Reference computations for the benchmark's correctness checks.

Written without mediahom, from the definitions: Hamiltonians are sums of
Kronecker products of Pauli matrices, the joint unitary is
``scipy.linalg.expm(-i H t)``, a collision is ``U (rho (x) omega) U^dag``
followed by a partial trace done with ``reshape``, and a fixed point is the
singular vector of ``S - I`` for its smallest singular value (no
eigensolver).  Every network factor is a qubit; factor 0 is the leftmost
Kronecker factor.  Superoperators act on row-major vectorised states,
``vec(rho)[i * d + j] = rho[i, j]``.
"""

from __future__ import annotations

from functools import reduce

import numpy as np
from scipy.linalg import expm

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)

MINUS = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)


def pauli_string(n, ops):
    """Kronecker product over ``n`` qubits with ``ops[k]`` on qubit ``k``."""
    return reduce(np.kron, [ops.get(k, I2) for k in range(n)])


def swap(n, i, j):
    """Swap of qubits ``i`` and ``j``: ``(1 + XX + YY + ZZ) / 2``."""
    total = np.eye(2 ** n, dtype=complex)
    for p in (X, Y, Z):
        total = total + pauli_string(n, {i: p, j: p})
    return total / 2.0


def xxz(n, delta, coupling=1.0):
    """Open XXZ chain ``sum (J/2)(XX + YY + delta ZZ)`` on nearest neighbours."""
    h = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for k in range(n - 1):
        for p, w in ((X, 1.0), (Y, 1.0), (Z, delta)):
            h += (coupling / 2.0) * w * pauli_string(n, {k: p, k + 1: p})
    return h


def bath_state(spec):
    """A bath state from its config form: ``"minus"`` or ``{"diag": p}``."""
    if spec == "minus":
        return MINUS.copy()
    if isinstance(spec, dict) and set(spec) == {"diag"}:
        p = float(spec["diag"])
        return np.diag([p, 1.0 - p]).astype(complex)
    raise ValueError(f"bath state {spec!r} is outside the reference's forms")


def joint_unitary(h_sys, bath_sites, t):
    """``expm(-i (H_sys (x) 1 + sum swap(ancilla_b, site_b)) t)``.

    Ancilla ``b`` is qubit ``n + b`` after the ``n`` network qubits.
    """
    n = int(round(np.log2(h_sys.shape[0])))
    m = n + len(bath_sites)
    h = np.kron(h_sys, np.eye(2 ** len(bath_sites)))
    for b, site in enumerate(bath_sites):
        h = h + swap(m, n + b, site)
    return expm(-1j * t * h)


def partial_trace_last(op, d, a):
    """Trace out the trailing factor of dimension ``a`` from a (d*a)^2 matrix."""
    return np.trace(op.reshape(d, a, d, a), axis1=1, axis2=3)


def apply_collision(u, rho, omega):
    """One collision: ``Tr_anc[U (rho (x) omega) U^dag]``."""
    d, a = rho.shape[0], omega.shape[0]
    joint = u @ np.kron(rho, omega) @ u.conj().T
    return partial_trace_last(joint, d, a)


def superoperator(u, omega, d):
    """Matrix of the collision map on row-major vectorised states.

    Column ``(i, j)`` is ``vec(apply_collision(u, |i><j|, omega))``, formed
    for all basis matrices at once:
    ``S[(x, y), (i, j)] = sum_{b, c, c'} U[x b, i c] omega[c, c'] conj(U[y b, j c'])``.
    """
    a = omega.shape[0]
    u4 = u.reshape(d, a, d, a)
    w = u4 @ omega                                  # [x, b, i, c']
    s = np.tensordot(w, u4.conj(), axes=([1, 3], [1, 3]))  # [x, i, y, j]
    return s.transpose(0, 2, 1, 3).reshape(d * d, d * d)


def fixed_point(s, d, null_tol=1e-9):
    """The unique trace-one fixed point of ``s``, from the SVD of ``s - 1``.

    Raises ``ValueError`` unless exactly one singular value is below
    ``null_tol``.
    """
    _, sv, vh = np.linalg.svd(s - np.eye(d * d))
    if not (sv[-1] < null_tol < sv[-2]):
        raise ValueError(
            f"null space of S - 1 is not one-dimensional: smallest singular "
            f"values {sv[-2]:.3e}, {sv[-1]:.3e}"
        )
    rho = vh[-1].conj().reshape(d, d)
    rho = (rho + rho.conj().T) / 2.0
    return rho / np.trace(rho).real


def reduce_to(rho, n, keep):
    """Reduced state of the qubits in ``keep`` (ascending) of an n-qubit state."""
    t = rho.reshape([2] * (2 * n))
    traced = [k for k in range(n) if k not in keep]
    for offset, k in enumerate(traced):
        width = t.ndim // 2
        t = np.trace(t, axis1=k - offset, axis2=k - offset + width)
    dim = 2 ** len(keep)
    return t.reshape(dim, dim)


def p_zero(rho, n, site):
    """Ground population ``<0|rho_site|0>`` of one qubit."""
    return float(reduce_to(rho, n, [site])[0, 0].real)


def entropy_bits(rho):
    """Von Neumann entropy in bits."""
    vals = np.clip(np.linalg.eigvalsh(rho), 0.0, 1.0)
    vals = vals[vals > 0.0]
    return float(-(vals * np.log2(vals)).sum())


def concurrence(rho):
    """Wootters concurrence of a two-qubit state."""
    yy = np.kron(Y, Y)
    r = rho @ yy @ rho.conj() @ yy
    mu = np.sort(np.sqrt(np.abs(np.linalg.eigvals(r).real)))[::-1]
    return float(max(0.0, mu[0] - mu[1] - mu[2] - mu[3]))
