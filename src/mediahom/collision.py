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

import numbers
from dataclasses import dataclass, field
from itertools import groupby

import numpy as np

from . import qmath
from ._kernels import _collide_into, _two_product_form, apply_kraus, trajectory
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

# How a collision with several baths runs (see :func:`joint_unitary`).
_MODES = ("simultaneous", "alternating")


def vectorize(rho):
    """Row-major stacking of a square matrix into a vector."""
    rho = np.asarray(rho)
    return rho.reshape(rho.shape[0] * rho.shape[1])


def unvectorize(vec, dim):
    """Inverse of :func:`vectorize`."""
    return np.asarray(vec).reshape(dim, dim)


@dataclass(frozen=True, eq=False)
class Superoperator:
    """Matrix form of a channel acting on row-major vectorized states."""

    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        size = self.dim * self.dim
        if np.shape(self.matrix) != (size, size):
            raise ShapeError(
                f"superoperator matrix has shape {np.shape(self.matrix)}, "
                f"expected ({size}, {size}) for dim {self.dim}"
            )

    def apply(self, rho):
        return unvectorize(self.matrix @ vectorize(rho), self.dim)


@dataclass(frozen=True, eq=False)
class ControllerSequence:
    """Per-collision ancilla preparations for an imperfect controller.

    Step ``l`` prepares ``p_l * base_state + (1 - p_l) * perturbation_l``.
    Every weight must lie in ``(0, 1]``; ``p_min`` is the smallest weight
    (1 for no steps).  The base and the perturbations are checked, and
    their mixes stacked, once, here; a mix of checked states needs no check.
    """

    base_state: np.ndarray
    steps: tuple[tuple[float, np.ndarray], ...]
    p_min: float = field(init=False)
    _states: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        base = qmath.ensure_density(self.base_state)
        weights = np.array([p for p, _ in self.steps], dtype=float)
        outside = np.flatnonzero(~((0.0 < weights) & (weights <= 1.0)))
        if outside.size:
            idx = int(outside[0])
            raise ValueError(
                f"step {idx}: weight {self.steps[idx][0]} outside (0, 1]"
            )
        object.__setattr__(self, "p_min", float(weights.min(initial=1.0)))
        states = [state for _, state in self.steps]
        try:
            perturbations = np.array(states, dtype=complex)
        except (TypeError, ValueError):     # ragged: the loop names the step
            perturbations = None
        if perturbations is None or perturbations.shape[1:] != base.shape:
            for idx, state in enumerate(states):
                if np.shape(state) != base.shape:
                    raise ShapeError(
                        f"step {idx}: state has shape {np.shape(state)}, the "
                        f"base state {base.shape}"
                    )
            # no steps, or a step numpy cannot read as complex
            perturbations = np.array(states, dtype=complex).reshape(
                len(states), *base.shape
            )
        qmath.ensure_densities(perturbations, what="step")
        weights = weights[:, None, None]
        object.__setattr__(self, "_states",
                           weights * base + (1.0 - weights) * perturbations)

    def __len__(self):
        return len(self.steps)

    def ancilla_states(self):
        """A copy of the mixed ancilla states stacked at construction."""
        return self._states.copy()


def _checked_unitary(joint_unitary):
    """``joint_unitary`` as a complex square array, refused unless unitary."""
    unitary = qmath._as_square(joint_unitary, "joint unitary")
    defect = np.abs(
        unitary.conj().T @ unitary - np.eye(unitary.shape[0])
    ).max()
    if not defect <= UNITARITY_ATOL:
        raise ValueError(
            f"joint matrix is not unitary: defect {defect:.3e} "
            f"exceeds {UNITARITY_ATOL:.0e}"
        )
    return unitary


def _build_kraus(unitary, omegas, ancilla_dims):
    """Kraus stacks of the collisions of ``n`` ancilla states on one unitary.

    ``omegas`` stacks the states, a complex ``(n, anc, anc)`` array that
    the caller has checked as densities; ``unitary`` is the joint matrix
    shared by every collision, already checked.  Each state is
    eigendecomposed as ``sum_k mu_k |chi_k><chi_k|`` and dilated into the
    operators ``sqrt(mu_k) (I (x) <j|) U (I (x) |chi_k>)``, ordered by
    ``k`` then ``j``.  Returns one contiguous ``(rank, D, D)`` stack per
    state; ranks may differ.  A state that keeps all ``anc**2`` operators
    gets a view of one shared ``(n, anc**2, D, D)`` array; only a state
    that drops one gets a copy.
    """
    n, anc = omegas.shape[0], omegas.shape[1]
    if anc != int(np.prod(ancilla_dims)):
        raise ShapeError(
            f"ancilla state dim {anc} does not match ancilla factors "
            f"{tuple(ancilla_dims)}"
        )
    joint_dim = unitary.shape[0]
    if joint_dim % anc:
        raise ShapeError(
            f"joint dim {joint_dim} not divisible by ancilla dim {anc}"
        )
    d = joint_dim // anc
    weights, vecs = np.linalg.eigh(omegas)
    # U (I (x) |chi_k>) for every state and eigenvector, as one batch of
    # matrix-vector products: the same kernel as one product at a time, so
    # the stacks do not depend on n (a matrix-matrix product rounds
    # differently).  The operators' axes are (state, k, j, out, in).
    columns = unitary.reshape(d * anc * d, anc) @ vecs.swapaxes(1, 2)[..., None]
    ops = columns.reshape(n, anc, d, anc, d).transpose(0, 1, 3, 2, 4).reshape(
        n, anc * anc, d, d
    )
    # weights below the cutoff contribute nothing at working precision
    kept = ~(weights < _KRAUS_WEIGHT_CUTOFF)
    ops *= np.repeat(np.sqrt(np.where(kept, weights, 0.0)), anc, axis=1)[
        :, :, None, None
    ]
    # identically-zero operators (common when U maps the ancilla input
    # onto few outputs) add nothing to the sum either
    norms = (np.einsum("nkij,nkij->nk", ops.real, ops.real)
             + np.einsum("nkij,nkij->nk", ops.imag, ops.imag))
    used = np.repeat(kept, anc, axis=1) & ~(norms < _KRAUS_WEIGHT_CUTOFF**2)
    ops[~used] = 0.0
    flat = ops.reshape(n, anc * anc * d, d)
    completeness = np.abs(
        flat.conj().swapaxes(1, 2) @ flat - np.eye(d)
    ).max(axis=(1, 2))
    failed = np.flatnonzero(~(completeness <= KRAUS_COMPLETENESS_ATOL))
    if failed.size:
        idx = int(failed[0])
        raise ValueError(
            f"Kraus completeness defect {completeness[idx]:.3e} exceeds "
            f"{KRAUS_COMPLETENESS_ATOL:.0e} for ancilla state {idx}"
        )
    stacks = list(ops)
    for idx in np.flatnonzero(~used.all(axis=1)):
        stacks[idx] = ops[idx, used[idx]]
    return stacks


def _count(n, what):
    """``n`` as an int, refused unless it is an integer >= 0 (not a bool)."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 0:
        raise ValueError(f"{what} must be an integer >= 0, got {n!r}")
    return int(n)


class CollisionChannel:
    """One collision: conjugate by the joint unitary, trace out the ancilla.

    The ancilla occupies the trailing tensor factors of the joint space;
    ``ancilla_dims`` lists their local dimensions.  Kraus operators are
    derived once at construction and reused by every application.
    """

    def __init__(self, joint_unitary, ancilla_state, ancilla_dims):
        unitary = _checked_unitary(joint_unitary)
        omegas = qmath.ensure_densities([ancilla_state], what="ancilla state")
        (kraus,) = _build_kraus(unitary, omegas, ancilla_dims)
        self._adopt(unitary, omegas[0], tuple(int(d) for d in ancilla_dims),
                    kraus)

    def _adopt(self, unitary, omega, ancilla_dims, kraus):
        self.system_dim = kraus.shape[-1]
        self.ancilla_dims = ancilla_dims
        self.joint_unitary = unitary
        self.ancilla_state = omega
        self._kraus = kraus

    def _in_frame(self, frame):
        """This channel in the system basis of the unitary ``frame``, W.

        Its Kraus operators are ``W^H K W`` and its joint unitary is
        ``(W (x) I)^H U (W (x) I)``, exact conjugates of checked ones, so
        the view is not built through ``__init__``.  It has this channel's
        spectrum; its fixed point ``sigma`` is this channel's ``W sigma
        W^H``.
        """
        lift = np.kron(frame, np.eye(self.ancilla_state.shape[0]))
        view = type(self).__new__(type(self))
        view._adopt(lift.conj().T @ self.joint_unitary @ lift,
                    self.ancilla_state, self.ancilla_dims,
                    frame.conj().T @ self._kraus @ frame)
        return view

    def kraus_operators(self):
        """Kraus stack, shape ``(n_kraus, D, D)``; ``sum K rho K^dag`` = apply."""
        return self._kraus.copy()

    def _state(self, rho):
        """``rho`` as a complex array, refused unless (D, D) for this channel."""
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (self.system_dim, self.system_dim):
            raise ShapeError(
                f"state has shape {rho.shape}, channel expects "
                f"({self.system_dim}, {self.system_dim})"
            )
        return rho

    def apply(self, rho):
        """One collision.  Output is validated as a density matrix."""
        rho = self._state(rho)
        out = apply_kraus(self._kraus, rho)
        trace_defect = abs(out.trace() - rho.trace())
        if not trace_defect <= TRACE_ATOL:
            raise ValueError(
                f"collision changed the trace by {trace_defect:.3e}"
            )
        # inputs off unit trace (differences of states) are not states
        report = qmath.validate_density(out, 1e-8)
        if not abs(rho.trace() - 1.0) > 1e-8 and not report.passed:
            raise ValueError(f"collision output invalid: {report.describe()}")
        return out

    def iterate(self, rho0, n):
        """States after 0..n collisions, shape ``(n+1, D, D)``."""
        rho0 = self._state(rho0)
        return trajectory(self._kraus, rho0, _count(n, "collision count"))

    def _superoperator_rows(self):
        """This channel's superoperator as a row source, built on demand.

        See :class:`_SuperoperatorRows`.  Refused above system dim
        ``SUPEROPERATOR_DIM_LIMIT``, as :meth:`superoperator` is.
        """
        d = self.system_dim
        if d > SUPEROPERATOR_DIM_LIMIT:
            raise CapacityError(
                f"superoperator needs a {d * d} x {d * d} matrix; refusing "
                f"beyond system dim {SUPEROPERATOR_DIM_LIMIT}"
            )
        return _SuperoperatorRows(self._kraus)

    def superoperator(self):
        """Channel as a matrix on vectorized states.

        Guarded to ``system_dim <= 64`` so the densest object stays at
        4096 x 4096.  It is every row of :meth:`_superoperator_rows`.
        """
        rows = self._superoperator_rows()
        return Superoperator(dim=self.system_dim,
                             matrix=rows.take(np.arange(rows.shape[0])))


class _SuperoperatorRows:
    """The rows of a Kraus stack's superoperator, computed on demand.

    ``S[(i, j), (k, l)] = sum_m K_m[i, k] conj(K_m[j, l])``, so row ``(i,
    j)`` of S, index ``i * D + j``, is row i of the stack times conjugated
    row j: one (D, m) by (m, D) product, whatever else is read with it, so
    any two reads of a row agree bitwise.  ``take`` reads rows as
    ``ndarray.take`` does along axis 0, so an array and this source serve
    one reader; ``shape`` and ``dtype`` are those of S.
    """

    dtype = np.dtype(complex)

    def __init__(self, kraus):
        d = kraus.shape[1]
        self.shape = (d * d, d * d)
        self._rows = np.ascontiguousarray(kraus.transpose(1, 2, 0))
        self._conj_rows = np.ascontiguousarray(kraus.conj().transpose(1, 0, 2))

    def take(self, indices, axis=0, out=None):
        """``S[indices]`` for an index array, written over ``out`` if given.

        ``out`` must be a C-contiguous (len(indices), D**2) complex array.
        Whole slabs of rows ``(i, 0) .. (i, D - 1)``, in order, broadcast
        the stack with no d**4 temporary; other rows gather their operands.
        """
        if axis != 0:
            raise ValueError("superoperator rows are read along axis 0")
        d = self._rows.shape[0]
        indices = np.asarray(indices)
        start = int(indices[0]) if indices.size else 0
        slabs = indices.size // d
        if (start % d == 0 and slabs * d == indices.size and np.array_equal(
                indices, np.arange(start, start + indices.size))):
            left = self._rows[start // d:start // d + slabs, None]
            right = self._conj_rows[None]
            shape = (slabs, d, d, d)
        else:
            i, j = np.divmod(indices, d)
            left, right = self._rows[i], self._conj_rows[j]
            shape = (indices.size, d, d)
        if out is not None:
            out = out.reshape(shape)
        return np.matmul(left, right, out=out).reshape(indices.size, d * d)


def joint_unitary(system_hamiltonian, interaction_terms, t,
                  mode="simultaneous"):
    """The collision unitary ``exp(-i (H_A (x) I + sum_b H_b) t)``.

    Every interaction term lives on the joint space, whose dimension sets
    the identity that ``H_A`` is tensored with.  ``mode="alternating"``
    instead composes one collision per term, ``U_last ... U_first`` with
    ``U_b = exp(-i (H_A (x) I + H_b) t)``.  Without terms the unitary is
    ``exp(-i H_A t)``.  The result is not checked for unitarity here;
    :class:`CollisionChannel` checks it once.
    """
    h_sys = qmath._as_square(system_hamiltonian, "system Hamiltonian")
    terms = [qmath._as_square(h, "interaction term") for h in interaction_terms]
    d = h_sys.shape[0]
    joint_dim = terms[0].shape[0] if terms else d
    for b, term in enumerate(terms):
        if term.shape[0] != joint_dim or joint_dim % d:
            raise ShapeError(
                f"interaction term {b} has dim {term.shape[0]}; every term "
                f"needs one joint dim that is a multiple of {d}"
            )
    if not t >= 0:
        raise ValueError(f"interaction time must be non-negative, got {t}")
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    if not terms:
        return qmath.unitary_from_hamiltonian(h_sys, t)
    h_free = np.kron(h_sys, np.eye(joint_dim // d))
    if mode == "alternating" and len(terms) > 1:
        unitary = np.eye(joint_dim, dtype=complex)
        for term in terms:
            unitary = qmath.unitary_from_hamiltonian(h_free + term, t) @ unitary
        return unitary
    return qmath.unitary_from_hamiltonian(h_free + sum(terms), t)


def _bath_unitary(system_hamiltonian, interaction_terms, bath_dims, t,
                  mode="simultaneous"):
    """:func:`joint_unitary`, once each term is ``D * prod(bath_dims)`` square.

    The error names the index of the first term that is not.
    """
    h_sys = qmath._as_square(system_hamiltonian, "system Hamiltonian")
    joint = h_sys.shape[0] * int(np.prod(bath_dims))
    terms = [qmath._as_square(h, "interaction term") for h in interaction_terms]
    for b, term in enumerate(terms):
        if term.shape[0] != joint:
            raise ShapeError(
                f"interaction term {b} has dim {term.shape[0]}, expected the "
                f"joint dim {joint} of the system and its baths"
            )
    return joint_unitary(h_sys, terms, t, mode)


def _bath_channel(system_hamiltonian, interaction_terms, bath_states, t,
                  mode="simultaneous"):
    """The channel of a system colliding with fresh ``bath_states`` at once.

    The baths are the trailing factors, in list order, prepared in the
    tensor product of ``bath_states``; without baths the channel is the
    conjugation by ``exp(-i H_A t)``.  :func:`_bath_unitary` checks the terms.
    """
    states = [qmath._as_square(s, "density matrix") for s in bath_states]
    dims = tuple(state.shape[0] for state in states)
    unitary = _bath_unitary(system_hamiltonian, interaction_terms, dims, t,
                            mode)
    ancilla = qmath.tensor(states) if states else np.eye(1)
    return CollisionChannel(unitary, ancilla, dims or (1,))


def build_channel(system_hamiltonian, interaction_hamiltonian, ancilla_state,
                  t):
    """Channel of ``U = exp(-i (H_A + H_I) t)`` with a fresh-ancilla trace-out.

    ``system_hamiltonian`` acts on the system alone and is embedded as
    ``H_A (x) I``; ``interaction_hamiltonian`` lives on the joint space.
    ``t = 0`` is allowed and yields the identity map.
    """
    return _bath_channel(system_hamiltonian, [interaction_hamiltonian],
                         [ancilla_state], t)


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
    states = [qmath.ensure_density(state) for state in (state_b, state_c)]
    return _bath_channel(system_hamiltonian, [interaction_b, interaction_c],
                         states, t, mode)


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


def _sequence_states(channels, rho0):
    """The states of :func:`apply_sequence`, as one (n+1, ..., D, D) array.

    Each run of consecutive channels whose Kraus stacks share one shape is
    collided through one batched form.  A start that is not (..., D, D)
    for every channel's D is refused before any collision.
    """
    rho = np.asarray(rho0, dtype=complex)
    if rho.ndim < 2 or rho.shape[-2] != rho.shape[-1]:
        raise ShapeError(f"start state has shape {rho.shape}, not (..., D, D)")
    runs, start = [], 0
    for (_, d, _), run in groupby(channels, key=lambda ch: ch._kraus.shape):
        if rho.shape[-1] != d:
            raise ShapeError(
                f"start state has shape {rho.shape}; channel {start} expects "
                f"(..., {d}, {d})"
            )
        run = [ch._kraus for ch in run]
        runs.append((start, run))
        start += len(run)
    out = np.empty((start + 1, *rho.shape), dtype=complex)
    out[0] = rho
    for first, run in runs:
        kraus = np.concatenate(run).reshape(len(run), *run[0].shape)
        _collide_into(*_two_product_form(kraus),
                      out[first:first + len(run) + 1])
    return out


def apply_sequence(channels, rho0):
    """Compose channels left to right; returns all intermediate states.

    ``result[k]`` is the state after the first ``k`` channels, so the list
    has length ``len(channels) + 1`` and starts at ``rho0``.  A stack of
    states, shape ``(n, D, D)``, is carried through in one pass, each state
    exactly as on its own.  The states are views of one array.
    """
    return list(_sequence_states(channels, rho0))


def imperfect_controller_sequence(system_hamiltonian, interaction_hamiltonian,
                                  t, sequence):
    """One channel per controller preparation in ``sequence``.

    Channel ``l`` uses the ancilla state
    ``p_l * base + (1 - p_l) * perturbation_l``; by linearity of the
    collision in the ancilla state it acts as the same convex combination
    of the pure-``base`` and pure-``perturbation`` channels.  Every channel
    shares one joint unitary, computed and checked once, and the Kraus
    stacks of all of them come from one batched pass.  ``sequence``
    checked the states, so the dilation does not check them again.
    """
    omegas = sequence.ancilla_states()
    dims = (omegas.shape[-1],)
    unitary = _checked_unitary(_bath_unitary(
        system_hamiltonian, [interaction_hamiltonian], dims, t
    ))
    channels = []
    for omega, kraus in zip(omegas, _build_kraus(unitary, omegas, dims)):
        channel = CollisionChannel.__new__(CollisionChannel)
        channel._adopt(unitary, omega, dims, kraus)
        channels.append(channel)
    return channels
