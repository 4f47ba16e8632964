"""Collision channels: repeated system–ancilla interactions as CP maps.

A collision applies the joint unitary ``U = exp(-i (H_A + H_I) t)`` to
``rho (x) omega`` (system tensor fresh ancilla) and traces the ancilla out.
This module builds such channels, extracts their Kraus and superoperator
representations, and composes inhomogeneous sequences of them.

Vectorization convention: density matrices map to vectors by row-major
stacking (``vec(rho)[i*D + j] = rho[i, j]``), so a Kraus set ``{K}`` has
superoperator ``sum_K kron(K, conj(K))``.  All spectral analysis relies on
this choice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qmath
from ._kernels import apply_kraus, trajectory
from .errors import CapacityError, ShapeError
from .tolerances import (
    KRAUS_COMPLETENESS_ATOL,
    SUPEROPERATOR_DIM_LIMIT,
    TRACE_ATOL,
    UNITARITY_ATOL,
)

# Ancilla eigenvalues below this weight contribute nothing at working
# precision and are dropped from the Kraus dilation.
_KRAUS_WEIGHT_CUTOFF = 1e-12


def vectorize(rho):
    """Row-major stacking of a square matrix into a vector."""
    rho = np.asarray(rho)
    return rho.reshape(rho.shape[0] * rho.shape[1])


def unvectorize(vec, dim):
    """Inverse of :func:`vectorize`."""
    return np.asarray(vec).reshape(dim, dim)


@dataclass(frozen=True)
class Superoperator:
    """Matrix form of a channel acting on row-major vectorized states."""

    dim: int
    matrix: np.ndarray

    def apply(self, rho):
        return unvectorize(self.matrix @ vectorize(rho), self.dim)


@dataclass(frozen=True)
class ControllerSequence:
    """Per-collision ancilla preparations for an imperfect controller.

    Step ``l`` prepares ``p_l * base_state + (1 - p_l) * perturbation_l``.
    All weights must satisfy ``1 >= p_l >= p_min > 0``; ``p_min`` defaults
    to the smallest weight present.
    """

    base_state: np.ndarray
    steps: tuple[tuple[float, np.ndarray], ...]
    p_min: float | None = None

    def __post_init__(self):
        qmath.ensure_density(self.base_state)
        floor = self.p_min if self.p_min is not None else min(
            (p for p, _ in self.steps), default=1.0
        )
        if floor <= 0.0:
            raise ValueError(f"p_min must be positive, got {floor}")
        object.__setattr__(self, "p_min", float(floor))
        for idx, (p, state) in enumerate(self.steps):
            if not floor <= p <= 1.0:
                raise ValueError(
                    f"step {idx}: weight {p} outside [{floor}, 1]"
                )
            qmath.ensure_density(state)

    def __len__(self):
        return len(self.steps)

    def ancilla_states(self):
        """The mixed ancilla state actually prepared at each step."""
        omega = np.asarray(self.base_state, dtype=complex)
        return [
            p * omega + (1.0 - p) * np.asarray(state, dtype=complex)
            for p, state in self.steps
        ]


class CollisionChannel:
    """One collision: conjugate by the joint unitary, trace out the ancilla.

    The ancilla occupies the trailing tensor factors of the joint space;
    ``ancilla_dims`` lists their local dimensions.  Kraus operators are
    derived once at construction and reused by every application.
    """

    def __init__(self, joint_unitary, ancilla_state, ancilla_dims,
                 interaction_time):
        unitary = np.asarray(joint_unitary, dtype=complex)
        if unitary.ndim != 2 or unitary.shape[0] != unitary.shape[1]:
            raise ShapeError(f"joint unitary must be square, got {unitary.shape}")
        omega = qmath.ensure_density(ancilla_state)
        ancilla_dims = tuple(int(d) for d in ancilla_dims)
        anc_dim = int(np.prod(ancilla_dims))
        if omega.shape[0] != anc_dim:
            raise ShapeError(
                f"ancilla state dim {omega.shape[0]} does not match "
                f"ancilla factors {ancilla_dims}"
            )
        joint_dim = unitary.shape[0]
        if joint_dim % anc_dim:
            raise ShapeError(
                f"joint dim {joint_dim} not divisible by ancilla dim {anc_dim}"
            )
        if interaction_time < 0:
            raise ValueError(
                f"interaction time must be non-negative, got {interaction_time}"
            )
        defect = np.abs(
            unitary.conj().T @ unitary - np.eye(joint_dim)
        ).max()
        if not defect <= UNITARITY_ATOL:
            raise ValueError(
                f"joint matrix is not unitary: defect {defect:.3e} "
                f"exceeds {UNITARITY_ATOL:.0e}"
            )

        self.system_dim = joint_dim // anc_dim
        self.ancilla_dims = ancilla_dims
        self.joint_unitary = unitary
        self.ancilla_state = omega
        self.interaction_time = float(interaction_time)
        self._kraus = self._build_kraus()

        completeness = np.abs(
            np.einsum("kji,kjl->il", self._kraus.conj(), self._kraus)
            - np.eye(self.system_dim)
        ).max()
        if not completeness <= KRAUS_COMPLETENESS_ATOL:
            raise ValueError(
                f"Kraus completeness defect {completeness:.3e} exceeds "
                f"{KRAUS_COMPLETENESS_ATOL:.0e}"
            )

    def _build_kraus(self):
        d, anc = self.system_dim, self.ancilla_state.shape[0]
        weights, vecs = qmath.hermitian_eig(self.ancilla_state)
        u4 = self.joint_unitary.reshape(d, anc, d, anc)
        kraus = []
        for mu, chi in zip(weights, vecs.T):
            if mu < _KRAUS_WEIGHT_CUTOFF:
                continue
            # (I (x) <j|) U (I (x) |chi>) for every ancilla basis bra <j|
            block = np.tensordot(u4, chi, axes=([3], [0]))  # (d, anc, d)
            for j in range(anc):
                op = np.sqrt(mu) * block[:, j, :]
                # identically-zero operators (common when U maps the
                # ancilla input onto few outputs) add nothing to the sum
                if np.vdot(op, op).real < _KRAUS_WEIGHT_CUTOFF**2:
                    continue
                kraus.append(op)
        return np.ascontiguousarray(np.stack(kraus))

    def kraus_operators(self):
        """Kraus stack, shape ``(n_kraus, D, D)``; ``sum K rho K^dag`` = apply."""
        return self._kraus.copy()

    def apply(self, rho):
        """One collision.  Output is validated as a density matrix."""
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (self.system_dim, self.system_dim):
            raise ShapeError(
                f"state has shape {rho.shape}, channel expects "
                f"({self.system_dim}, {self.system_dim})"
            )
        out = apply_kraus(self._kraus, rho)
        trace_defect = abs(out.trace() - rho.trace())
        if trace_defect > TRACE_ATOL:
            raise ValueError(
                f"collision changed the trace by {trace_defect:.3e}"
            )
        report = qmath.validate_density(out, 1e-8)
        if abs(rho.trace() - 1.0) <= 1e-8 and not report.passed:
            raise ValueError(f"collision output invalid: {report.describe()}")
        return out

    def iterate(self, rho0, n):
        """States after 0..n collisions, shape ``(n+1, D, D)``."""
        rho0 = np.asarray(rho0, dtype=complex)
        if rho0.shape != (self.system_dim, self.system_dim):
            raise ShapeError(
                f"state has shape {rho0.shape}, channel expects "
                f"({self.system_dim}, {self.system_dim})"
            )
        if n < 0:
            raise ValueError(f"collision count must be >= 0, got {n}")
        return trajectory(self._kraus, rho0, int(n))

    def superoperator(self):
        """Channel as a matrix on vectorized states.

        Guarded to ``system_dim <= 64`` so the densest object stays at
        4096 x 4096.
        """
        d = self.system_dim
        if d > SUPEROPERATOR_DIM_LIMIT:
            raise CapacityError(
                f"superoperator needs a {d * d} x {d * d} matrix; refusing "
                f"beyond system dim {SUPEROPERATOR_DIM_LIMIT}"
            )
        mat = np.zeros((d * d, d * d), dtype=complex)
        for k in self._kraus:
            mat += np.kron(k, k.conj())
        return Superoperator(dim=d, matrix=mat)


def build_channel(system_hamiltonian, interaction_hamiltonian, ancilla_state,
                  t, ancilla_dims=None):
    """Channel of ``U = exp(-i (H_A + H_I) t)`` with a fresh-ancilla trace-out.

    ``system_hamiltonian`` acts on the system alone and is embedded as
    ``H_A (x) I``; ``interaction_hamiltonian`` lives on the joint space.
    ``t = 0`` is allowed and yields the identity map.
    """
    h_sys = qmath._as_square(system_hamiltonian)
    h_int = qmath._as_square(interaction_hamiltonian)
    omega = qmath.ensure_density(ancilla_state)
    d = h_sys.shape[0]
    anc = omega.shape[0]
    if h_int.shape[0] != d * anc:
        raise ShapeError(
            f"interaction term has dim {h_int.shape[0]}, expected "
            f"{d} * {anc} = {d * anc}"
        )
    if t < 0:
        raise ValueError(f"interaction time must be non-negative, got {t}")
    h_total = np.kron(h_sys, np.eye(anc)) + h_int
    unitary = qmath.unitary_from_hamiltonian(h_total, t)
    if ancilla_dims is None:
        ancilla_dims = (anc,)
    return CollisionChannel(unitary, omega, ancilla_dims, t)


def build_two_bath_channel(system_hamiltonian, interaction_b, interaction_c,
                           state_b, state_c, t, mode="simultaneous"):
    """Channel for a system driven by two independent baths at once.

    Both interaction terms must live on the full joint space
    ``system (x) B (x) C`` (B the second-to-last factor, C the last); the
    composite ancilla state is ``state_b (x) state_c``.

    ``mode="simultaneous"`` (the default) evolves under
    ``H_A + H_IB + H_IC`` for time ``t`` in a single joint collision.
    ``mode="alternating"`` instead performs two back-to-back standard
    collisions of duration ``t`` each — first with B, then with C — which
    is a different channel retained for comparison studies.
    """
    h_sys = qmath._as_square(system_hamiltonian)
    omega_b = qmath.ensure_density(state_b)
    nu_c = qmath.ensure_density(state_c)
    d = h_sys.shape[0]
    dim_b, dim_c = omega_b.shape[0], nu_c.shape[0]
    joint = d * dim_b * dim_c
    for name, term in (("B", interaction_b), ("C", interaction_c)):
        term = qmath._as_square(term)
        if term.shape[0] != joint:
            raise ShapeError(
                f"interaction term for bath {name} has dim {term.shape[0]}, "
                f"expected joint dim {joint}"
            )
    if t < 0:
        raise ValueError(f"interaction time must be non-negative, got {t}")
    h_free = np.kron(h_sys, np.eye(dim_b * dim_c))
    if mode == "simultaneous":
        unitary = qmath.unitary_from_hamiltonian(
            h_free + interaction_b + interaction_c, t
        )
    elif mode == "alternating":
        u_b = qmath.unitary_from_hamiltonian(h_free + interaction_b, t)
        u_c = qmath.unitary_from_hamiltonian(h_free + interaction_c, t)
        unitary = u_c @ u_b
    else:
        raise ValueError(
            f"mode must be 'simultaneous' or 'alternating', got {mode!r}"
        )
    ancilla = qmath.tensor([omega_b, nu_c])
    return CollisionChannel(unitary, ancilla, (dim_b, dim_c), t)


def direct_apply(joint_unitary, rho, ancilla_state):
    """Reference collision: build, conjugate, and trace — no Kraus form.

    Kept deliberately independent of :class:`CollisionChannel` so the two
    routes can be checked against each other.
    """
    unitary = np.asarray(joint_unitary, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    omega = np.asarray(ancilla_state, dtype=complex)
    d, anc = rho.shape[0], omega.shape[0]
    if unitary.shape[0] != d * anc:
        raise ShapeError(
            f"joint unitary dim {unitary.shape[0]} != {d} * {anc}"
        )
    joint = unitary @ qmath.tensor([rho, omega]) @ unitary.conj().T
    return qmath.partial_trace(joint, [d, anc], keep=[0])


def apply_sequence(channels, rho0):
    """Compose channels left to right; returns all intermediate states.

    ``result[k]`` is the state after the first ``k`` channels, so the list
    has length ``len(channels) + 1`` and starts at ``rho0``.
    """
    rho = np.asarray(rho0, dtype=complex)
    out = [rho]
    for ch in channels:
        if rho.shape[0] != ch.system_dim:
            raise ShapeError(
                f"channel expects dim {ch.system_dim}, state has {rho.shape[0]}"
            )
        rho = apply_kraus(ch._kraus, rho)
        out.append(rho)
    return out


def imperfect_controller_sequence(system_hamiltonian, interaction_hamiltonian,
                                  t, sequence):
    """One channel per controller preparation in ``sequence``.

    Channel ``l`` uses the ancilla state
    ``p_l * base + (1 - p_l) * perturbation_l``; by linearity of the
    collision in the ancilla state it acts as the same convex combination
    of the pure-``base`` and pure-``perturbation`` channels.
    """
    return [
        build_channel(system_hamiltonian, interaction_hamiltonian, state, t)
        for state in sequence.ancilla_states()
    ]
