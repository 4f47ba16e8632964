"""Convergence analysis of collision dynamics.

A channel is *relaxing* when iterating it drives every input to one fixed
point; spectrally, eigenvalue 1 of its superoperator is simple and every
other eigenvalue lies strictly inside the unit disk.  This module decides
that verdict, extracts fixed points by eigendecomposition and by brute
iteration (two deliberately independent routes), checks the
convex-mixture closure property, quantifies how inhomogeneous collision
sequences erase initial-state information, and provides the invariance
and entropy-ratio diagnostics used by the scenario runners.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import qmath
from ._kernels import hermitian_trace_norm, iterate_until
from .collision import Superoperator, apply_sequence, unvectorize
from .errors import (
    ConvergenceError,
    DegenerateFixedPointError,
    FixedPointNumericalError,
    ShapeError,
    UndefinedRatioError,
)
from .tolerances import (
    BLOCK_SPLIT_RTOL,
    DEFAULT_ITERATE_TOL,
    DEFAULT_MAX_ITER,
    DEGENERACY_ATOL,
    EIGENSPACE_GROUP_ATOL,
    ENTROPY_FLOOR,
    FACTORIZED_WEIGHT_ATOL,
    FIXED_POINT_PSD_ATOL,
    FIXED_POINT_RESIDUAL_ATOL,
    PERIPHERAL_ATOL,
)


@dataclass(frozen=True)
class ConvergenceReport:
    """Verdict and diagnostics of a spectral relaxedness analysis.

    ``spectral_gap`` is 1 minus the second-largest eigenvalue modulus;
    ``peripheral_count`` counts eigenvalues within the peripheral tolerance
    of the unit circle.  ``fixed_point`` is present whenever the verdict is
    relaxing, in which case ``residual`` bounds its self-consistency defect
    and ``peripheral_count`` is 1.
    """

    relaxing: bool
    reason: str
    fixed_point: np.ndarray | None
    spectral_gap: float
    peripheral_count: int
    iterations_used: int
    residual: float


def _components(linked):
    """Weakly connected components of a boolean adjacency matrix.

    Returns sorted index arrays, ordered by their smallest index.
    """
    linked = linked | linked.T
    n = linked.shape[0]
    blocks = []
    unplaced = np.ones(n, dtype=bool)
    while unplaced.any():
        block = np.zeros(n, dtype=bool)
        block[np.argmax(unplaced)] = True
        frontier = block.copy()
        while frontier.any():
            frontier = linked[frontier].any(axis=0) & ~block
            block |= frontier
        unplaced &= ~block
        blocks.append(np.flatnonzero(block))
    return blocks


def _hermitian_layout(block, side):
    """A self-twin block's indices ordered (diagonal, upper, lower).

    Index ``a`` of a superoperator on ``side x side`` matrices is the
    matrix entry ``(a // side, a % side)``.  Returns ``(order, p, h)``:
    ``p`` diagonal entries ``(i, i)``, then ``h`` entries ``(i, j)`` with
    ``i < j``, then their transposes ``(j, i)`` in the same order.
    """
    rows, cols = np.divmod(block, side)
    upper = block[rows < cols]
    upper_rows, upper_cols = np.divmod(upper, side)
    order = np.concatenate(
        [block[rows == cols], upper, upper_cols * side + upper_rows]
    )
    return order, block.size - 2 * upper.size, upper.size


_HALF_ROOT = np.sqrt(0.5)


def _real_form(entries, p, h):
    """``T^H B T`` for a block laid out by :func:`_hermitian_layout`, in place.

    ``T``'s columns are the orthonormal Hermitian basis ``E_ii``,
    ``(E_ij + E_ji)/sqrt 2`` and ``i (E_ij - E_ji)/sqrt 2``, so each has at
    most two entries and the product is O(n^2) sums of column pairs, then
    of row pairs, written over ``entries``.  A Hermiticity-preserving block
    gives a real result; the imaginary part is kept, so the caller can
    bound it before dropping it.
    """
    up, lo = slice(p, p + h), slice(p + h, None)
    for first, second, phase in ((entries[:, up], entries[:, lo], 1j),
                                 (entries[up], entries[lo], -1j)):
        first += second                 # u + l
        second *= -2.0
        second += first                 # u - l
        first *= _HALF_ROOT
        second *= phase * _HALF_ROOT
    return entries


def _from_real_form(vec, p, h):
    """``T vec``: a real-form eigenvector in the block's own coordinates."""
    sym, anti = vec[p:p + h], 1j * vec[p + h:]
    return np.concatenate(
        [vec[:p], (sym + anti) * _HALF_ROOT, (sym - anti) * _HALF_ROOT]
    )


# Each block becomes a part: (eigenvalues, the matrix indices they live on,
# column(j) = eigenvector of eigenvalue j on those indices, or None).

def _complex_part(matrix, idx, side):
    """The complex eig of the block on sorted indices ``idx``.

    Eigenvectors only if the block holds a diagonal entry ``(i, i)``, which
    is index ``i * (side + 1)``.
    """
    block = matrix if idx.size == matrix.shape[0] else matrix[np.ix_(idx, idx)]
    if not (idx % (side + 1) == 0).any():
        return np.linalg.eigvals(block), idx, None
    vals, vecs = np.linalg.eig(block)
    return vals, idx, lambda j: vecs[:, j]


def _self_twin_part(matrix, block, side, tol):
    """A block the swap maps onto itself, by a real eig of its real form."""
    idx, p, h = _hermitian_layout(block, side)
    form = _real_form(matrix[np.ix_(idx, idx)].astype(complex, copy=False),
                      p, h)
    # Im(T^H B T) = T^H (B - conj(B[P, P])) T / 2i: bounding the part that
    # is dropped checks the symmetry, to within a factor 4 entrywise
    if not max(form.imag.max(), -form.imag.min()) <= tol:
        return _complex_part(matrix, block, side)
    real = form.real.copy()
    del form
    if not p:
        return np.linalg.eigvals(real), idx, None
    vals, vecs = np.linalg.eig(real)
    # one column at a time: T vecs whole would be a second complex n x n
    return vals, idx, lambda j: _from_real_form(vecs[:, j], p, h)


def _twin_parts(matrix, block, swap, tol):
    """Parts of ``block`` and its twin ``swap[block]`` from one ``eigvals``.

    ``None`` when the twin is not the conjugate of the block.
    """
    entries = matrix[np.ix_(block, block)]
    mirror = matrix[np.ix_(swap[block], swap[block])]
    if not np.abs(mirror - entries.conj()).max() <= tol:
        return None
    del mirror
    vals = np.linalg.eigvals(entries)
    return (vals, block, None), (vals.conj(), swap[block], None)


def _eig_by_blocks(matrix):
    """Eigenvalues of ``matrix`` and a lookup of its fixed-point candidates.

    A conserved charge, such as the magnetization of an XXZ or swap network
    with diagonal baths, makes a superoperator block diagonal up to a
    permutation of its basis.  The blocks are the weakly connected
    components of the graph that links ``i`` and ``j`` wherever ``|S_ij|``
    exceeds ``BLOCK_SPLIT_RTOL * max|S|``, and each block is
    eigendecomposed on its own.  Returns ``(vals, eigenvector)``: ``vals``
    concatenates the blocks' eigenvalues, the blocks ordered by their
    smallest index, and ``eigenvector(k)`` is a full-length vector, zero
    outside the block of ``vals[k]``.

    Eigenvectors are computed only for blocks that hold a diagonal entry
    ``(i, i)``, the only blocks a trace-1 fixed point can live in; there
    ``eigenvector(k)`` is the right eigenvector of ``vals[k]``.  For every
    other block it is the zero vector, whose trace, like that of any
    vector of such a block, is exactly 0.

    A channel maps Hermitian matrices to Hermitian matrices, that is
    ``S[P, P] = conj(S)`` for the swap ``P: (i, j) -> (j, i)`` of a
    superoperator on ``d x d`` matrices.  Two shortcuts follow, each taken
    for a block only where it passes a check of that symmetry within the
    split tolerance; a block that fails it gets the complex eig:

    - a block mapped onto itself by ``P`` is real in the Hermitian basis
      (:func:`_real_form`), so a real eig replaces the complex one.  The
      check bounds the imaginary part that is dropped, which is
      ``(S[b, b] - conj(S[P b, P b])) / 2i`` in that basis;
    - a block ``b`` mapped onto another block ``P b`` (its conjugate twin,
      coherence number ``-c`` for ``c``) has the conjugate eigenvalues, so
      one ``eigvals`` serves both.  Neither holds a diagonal entry.  The
      check is ``max|S[P b, P b] - conj(S[b, b])|``.
    """
    matrix = np.asarray(matrix)
    n = matrix.shape[0]
    mags = np.abs(matrix)
    scale = mags.max(initial=0.0)
    if not np.isfinite(scale):
        # a non-finite matrix is not split: it goes whole to eig, which
        # rejects it
        vals, vecs = np.linalg.eig(matrix)
        return vals, lambda k: vecs[:, k]
    tol = BLOCK_SPLIT_RTOL * scale
    blocks = _components(mags > tol)
    del mags  # not needed during the eigendecompositions
    side = math.isqrt(n)
    swap = np.arange(n).reshape(side, side).T.ravel()
    label = np.empty(n, dtype=int)
    for i, b in enumerate(blocks):
        label[b] = i

    parts = [None] * len(blocks)
    for i, b in enumerate(blocks):
        if parts[i] is not None:
            continue  # solved with its twin
        twin = label[swap[b[0]]]
        # the swap must map the block onto a whole block; a twin before i
        # failed the symmetry check when it was reached
        if twin < i or blocks[twin].size != b.size \
                or (label[swap[b]] != twin).any():
            parts[i] = _complex_part(matrix, b, side)
        elif twin == i:
            parts[i] = _self_twin_part(matrix, b, side, tol)
        else:
            pair = _twin_parts(matrix, b, swap, tol)
            if pair is None:
                parts[i] = _complex_part(matrix, b, side)
            else:
                parts[i], parts[twin] = pair

    vals = np.concatenate([part[0] for part in parts])
    sizes = [b.size for b in blocks]
    owner = np.repeat(np.arange(len(blocks)), sizes)
    start = np.cumsum([0] + sizes)

    def eigenvector(k):
        _, idx, column = parts[owner[k]]
        vec = np.zeros(n, dtype=complex)
        if column is not None:
            vec[idx] = column(k - start[owner[k]])
        return vec

    return vals, eigenvector


def _extract_fixed_point(sop, vals, eigenvector, tol=DEGENERACY_ATOL):
    """Fixed point from a precomputed superoperator spectrum.

    ``eigenvector(k)`` returns the right eigenvector of ``vals[k]``, or
    any vector of trace 0 where no trace-1 fixed point can live.  Selects the eigenvalue within ``tol`` of 1 (erroring if that cluster is
    degenerate), Hermitian-symmetrizes its eigenvector, trace-normalizes,
    and validates positivity and the self-consistency residual under the
    full superoperator.  Positivity failures are surfaced, never repaired.
    """
    near_one = np.flatnonzero(np.abs(vals - 1.0) <= tol)
    if near_one.size > 1:
        raise DegenerateFixedPointError(
            f"{near_one.size} eigenvalues lie within {tol:.0e} "
            "of 1; the fixed point is not unique"
        )
    if near_one.size == 0:
        raise FixedPointNumericalError(
            "no eigenvalue within tolerance of 1; the map does not preserve "
            "the trace"
        )
    candidate = unvectorize(eigenvector(near_one[0]), sop.dim)
    candidate = (candidate + candidate.conj().T) / 2.0
    trace = candidate.trace().real
    if abs(trace) < 1e-12:
        raise FixedPointNumericalError(
            "fixed-point eigenvector is traceless; cannot normalize"
        )
    rho = candidate / trace
    min_eig = float(np.linalg.eigvalsh(rho).min())
    if not min_eig >= -FIXED_POINT_PSD_ATOL:
        raise FixedPointNumericalError(
            f"symmetrized fixed point has eigenvalue {min_eig:.3e} below "
            f"-{FIXED_POINT_PSD_ATOL:.0e}"
        )
    residual = hermitian_trace_norm(sop.apply(rho) - rho)
    if not residual <= FIXED_POINT_RESIDUAL_ATOL:
        raise FixedPointNumericalError(
            f"fixed-point residual {residual:.3e} exceeds "
            f"{FIXED_POINT_RESIDUAL_ATOL:.0e}"
        )
    return rho, float(residual)


def spectral_fixed_point(sop):
    """The unique stationary state of a channel, by eigendecomposition."""
    rho, _ = _extract_fixed_point(sop, *_eig_by_blocks(sop.matrix))
    return rho


def is_relaxing(sop, tol=PERIPHERAL_ATOL):
    """Spectral relaxedness verdict; never raises, the report explains.

    Relaxing iff exactly one eigenvalue has modulus within ``tol`` of the
    unit circle (that one is the trace-preservation eigenvalue 1).  The
    same ``tol`` decides whether that eigenvalue is simple.  The spectrum
    is computed block by block when the superoperator splits into
    independent blocks (see :func:`_eig_by_blocks`).
    """
    vals, eigenvector = _eig_by_blocks(sop.matrix)
    mods = np.sort(np.abs(vals))[::-1]
    peripheral = int(np.count_nonzero(mods > 1.0 - tol))
    gap = float(1.0 - mods[1]) if mods.size > 1 else 1.0
    if peripheral == 0:
        reason = ("no eigenvalue reaches the unit circle; the matrix is not "
                  "a trace-preserving channel")
    elif peripheral > 1:
        reason = (f"{peripheral} eigenvalues within {tol:.0e} of the unit "
                  "circle; iterates do not forget the initial state")
    else:
        try:
            rho, residual = _extract_fixed_point(sop, vals, eigenvector, tol)
        except (DegenerateFixedPointError, FixedPointNumericalError) as exc:
            reason = ("unique peripheral eigenvalue but fixed-point "
                      f"extraction failed: {exc}")
        else:
            return ConvergenceReport(
                relaxing=True,
                reason=f"unique peripheral eigenvalue; spectral gap {gap:.3e}",
                fixed_point=rho, spectral_gap=gap, peripheral_count=1,
                iterations_used=0, residual=residual,
            )
    return ConvergenceReport(
        relaxing=False, reason=reason, fixed_point=None, spectral_gap=gap,
        peripheral_count=peripheral, iterations_used=0, residual=float("inf"),
    )


def iterative_fixed_point(channel, rho0, tol=DEFAULT_ITERATE_TOL,
                          max_iter=DEFAULT_MAX_ITER):
    """Fixed point by brute iteration: collide until the state stops moving.

    Returns ``(state, collisions used)`` once the step-to-step trace-norm
    residual drops to ``tol``.  Exceeding ``max_iter`` raises
    :class:`ConvergenceError` carrying the last residual — that outcome
    means slow mixing or non-relaxing dynamics, which :func:`is_relaxing`
    distinguishes.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (channel.system_dim, channel.system_dim):
        raise ShapeError(
            f"state has shape {rho0.shape}, channel expects "
            f"({channel.system_dim}, {channel.system_dim})"
        )
    (outcome,) = _iterated_fixed_points([channel._kraus], [rho0], tol,
                                        max_iter)
    if isinstance(outcome, ConvergenceError):
        raise outcome
    return outcome


def _iterated_fixed_points(kraus_stacks, states, tol, max_iter):
    """:func:`iterative_fixed_point` of channels of one dimension, in lockstep.

    ``kraus_stacks`` are the channels' Kraus stacks and ``states`` their
    start states.  Stacks of lower rank are padded with zero operators to
    one rank.  Returns, per channel, ``(state, collisions used)`` or the
    :class:`ConvergenceError` that :func:`iterative_fixed_point` raises for
    it; each is what iterating that channel alone gives.
    """
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    dim = states[0].shape[-1]
    padded = np.zeros(
        (len(kraus_stacks), max(len(k) for k in kraus_stacks), dim, dim),
        dtype=complex,
    )
    for stack, kraus in zip(padded, kraus_stacks):
        stack[:len(kraus)] = kraus
    states, used, residuals, converged = iterate_until(
        padded, np.stack(states), float(tol), int(max_iter)
    )
    return [
        (state, int(n)) if ok else ConvergenceError(
            f"no fixed point within {max_iter} collisions (last residual "
            f"{residual:.3e}); slow mixing or non-relaxing dynamics — "
            "consult is_relaxing",
            residual=float(residual), iterations=int(n),
        )
        for state, n, residual, ok in zip(states, used, residuals, converged)
    ]


def factorized_eigenvector_count(h_total, dims, phi):
    """How many joint eigenvectors factorize with the ancilla in ``phi``.

    The ancilla is the trailing factor of ``dims``.  For each eigenspace of
    ``h_total`` this counts the dimension of the subspace of vectors of the
    form ``|E> (x) |phi>``, and returns the total across eigenspaces.  A
    count of 1 means the only such eigenvector is the homogeneous product,
    which is the precondition for the bath state to spread through the
    network; disconnected networks give counts above 1.
    """
    dims = [int(d) for d in dims]
    phi = np.asarray(phi, dtype=complex).reshape(-1)
    norm = np.linalg.norm(phi)
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"phi must be normalized; |phi| = {norm:.6g}")
    if dims[-1] != phi.shape[0]:
        raise ShapeError(
            f"ancilla factor has dimension {dims[-1]}, phi has {phi.shape[0]}"
        )
    total = int(np.prod(dims))
    h_total = qmath._as_square(h_total)
    if h_total.shape[0] != total:
        raise ShapeError(
            f"operator dim {h_total.shape[0]} does not match factors {dims}"
        )
    rest = total // phi.shape[0]
    vals, vecs = qmath.hermitian_eig(h_total)

    count = 0
    start = 0
    for i in range(1, len(vals) + 1):
        if i < len(vals) and vals[i] - vals[i - 1] <= EIGENSPACE_GROUP_ATOL:
            continue
        block = vecs[:, start:i]
        # <phi| applied to the ancilla slot of each eigenspace column:
        # singular value 1 of the result marks an |E> (x) |phi| direction.
        overlap = block.reshape(rest, phi.shape[0], i - start)
        w = np.einsum("aps,p->as", overlap, phi.conj())
        singulars = np.linalg.svd(w, compute_uv=False)
        count += int(np.count_nonzero(
            singulars ** 2 >= 1.0 - FACTORIZED_WEIGHT_ATOL
        ))
        start = i
    return count


def haag_mixture_check(sop_relaxing, sop_other, p):
    """Analyze the convex mixture ``p * relaxing + (1-p) * other``.

    Any mixture with ``p > 0`` of a relaxing channel with another channel
    must itself be relaxing; a non-relaxing verdict here is therefore
    flagged as a numerical red flag, not returned silently.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"mixture weight must be in (0, 1], got {p}")
    if sop_relaxing.dim != sop_other.dim:
        raise ShapeError(
            f"superoperator dims differ: {sop_relaxing.dim} vs {sop_other.dim}"
        )
    mixture = Superoperator(
        dim=sop_relaxing.dim,
        matrix=p * sop_relaxing.matrix + (1.0 - p) * sop_other.matrix,
    )
    report = is_relaxing(mixture)
    if report.relaxing:
        return report
    return replace(
        report,
        reason="theorem violation: mixture containing a relaxing channel "
               f"with weight {p} reported non-relaxing ({report.reason})",
    )


def forgetting_metric(channels, rho1, rho2):
    """Trace-norm distance between two trajectories under shared collisions.

    Returns ``f_n`` for ``n = 0 .. len(channels)``, where ``f_n`` is the
    distance after the first ``n`` channels of the sequence.  The series is
    non-negative and non-increasing regardless of the sequence; it decays
    to zero whenever each collision keeps enough weight on a common
    relaxing preparation.
    """
    if len(channels) == 0:
        raise ValueError("forgetting metric needs a non-empty sequence")
    pairs = np.stack(apply_sequence(channels, np.stack([rho1, rho2])))
    return hermitian_trace_norm(pairs[:, 0] - pairs[:, 1]).tolist()


def check_invariance(joint_unitary, rho_star, omega, tol=1e-9):
    """Does the joint unitary commute with ``rho_star (x) omega``?

    Returns ``(max-entry commutator norm, verdict)``.  Commutation implies
    the collision leaves ``rho_star`` exactly stationary.
    """
    unitary = np.asarray(joint_unitary, dtype=complex)
    product = qmath.tensor([
        np.asarray(rho_star, dtype=complex), np.asarray(omega, dtype=complex)
    ])
    if unitary.shape != product.shape:
        raise ShapeError(
            f"joint unitary {unitary.shape} does not match system+ancilla "
            f"product {product.shape}"
        )
    norm = float(np.abs(unitary @ product - product @ unitary).max())
    return norm, norm <= tol


def entropy_ratio(rho_star, omega):
    """Output/input entropy ratio S(rho_star) / S(omega).

    Diverges as the bath state approaches purity, so a bath entropy below
    the floor raises :class:`UndefinedRatioError` (carrying both
    entropies) instead of returning an unstable quotient.
    """
    s_system = qmath.von_neumann_entropy(rho_star)
    s_bath = qmath.von_neumann_entropy(omega)
    if s_bath < ENTROPY_FLOOR:
        raise UndefinedRatioError(
            f"bath entropy {s_bath:.3e} is below the floor "
            f"{ENTROPY_FLOOR:.0e}; the ratio is undefined",
            system_entropy=s_system, bath_entropy=s_bath,
        )
    return s_system / s_bath
