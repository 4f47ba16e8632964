"""Convergence analysis of collision dynamics.

A channel is *relaxing* when iterating it drives every input to one fixed
point; spectrally, eigenvalue 1 of its superoperator is simple and every
other eigenvalue lies strictly inside the unit disk.  This module decides
that verdict, extracts fixed points from the spectrum's block split and by
brute iteration (two deliberately independent routes), checks the
convex-mixture closure property, quantifies how inhomogeneous collision
sequences erase initial-state information, and provides the invariance
and entropy-ratio diagnostics used by the scenario runners.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import qmath
from ._kernels import apply_kraus, hermitian_trace_norm, iterate_until
from .collision import (
    CollisionChannel,
    Superoperator,
    _count,
    _sequence_states,
    unvectorize,
)
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
    TRACE_ATOL,
)


@dataclass(frozen=True, eq=False)
class ConvergenceReport:
    """Verdict and diagnostics of a spectral relaxedness analysis.

    ``spectral_gap`` is 1 minus the second-largest eigenvalue modulus;
    ``peripheral_count`` counts eigenvalues within the peripheral tolerance
    of the unit circle.  ``fixed_point`` is present whenever the verdict is
    relaxing, in which case ``residual`` bounds its self-consistency defect
    and ``peripheral_count`` is 1.  ``_blocks`` is the superoperator's
    block split (see :func:`_split`), which the fixed-point iteration
    reuses.  Both come from :func:`is_relaxing`; the certified route of
    :func:`_certified_verdict` leaves ``spectral_gap`` NaN and keeps no
    split, so its blocks are freed when it returns.
    """

    relaxing: bool
    reason: str
    fixed_point: np.ndarray | None
    spectral_gap: float
    peripheral_count: int
    residual: float
    _blocks: list = field(default_factory=list, repr=False)


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
    """``T vec``: real-form coordinates as the block's complex entries."""
    sym, anti = vec[p:p + h], 1j * vec[p + h:]
    return np.concatenate(
        [vec[:p], (sym + anti) * _HALF_ROOT, (sym - anti) * _HALF_ROOT]
    )


@dataclass(frozen=True, eq=False)
class _Block:
    """One block of a superoperator, acting on entries ``idx`` of a state.

    With ``layout = (p, h)`` from :func:`_hermitian_layout`, ``matrix`` is
    the block's real form (:func:`_real_form`) and acts on the entries'
    real coordinates.  Without it, ``matrix`` acts on the complex entries,
    and the conjugates fill the twin entries ``mirror`` if there are any.
    """

    matrix: np.ndarray
    idx: np.ndarray
    layout: tuple | None = None
    mirror: np.ndarray | None = None

    def eigvals(self):
        """The eigenvalues of the block, and of its twin if it has one."""
        vals = np.linalg.eigvals(self.matrix)
        if self.mirror is None:
            return vals
        return np.concatenate([vals, vals.conj()])

    def coordinates(self, vec):
        """The block's coordinates of a vectorized Hermitian matrix."""
        entries = vec[self.idx]
        if self.layout is None:
            return entries
        p, h = self.layout
        upper, lower = entries[p:p + h], entries[p + h:]
        # T^H entries, real for a Hermitian matrix
        return np.concatenate([entries[:p].real,
                               (upper + lower).real * _HALF_ROOT,
                               (upper - lower).imag * _HALF_ROOT])

    def write(self, coords, vec):
        """Write coordinates back into the vectorized matrix ``vec``."""
        if self.layout is not None:
            coords = _from_real_form(coords, *self.layout)
        vec[self.idx] = coords
        if self.mirror is not None:
            vec[self.mirror] = coords.conj()


# Bytes of superoperator rows that the split holds at a time, rounded to
# whole slabs of rows (i, 0) .. (i, d - 1), which a channel's Kraus source
# reads without gathering its operands: 512 KB is one slab at d = 32.
_BAND_BYTES = 1 << 19


def _split(rows):
    """The blocks of a superoperator S, as a list of :class:`_Block`.

    ``rows`` is S as a row source: an array, or an object with S's
    ``shape`` and ``dtype`` whose ``take(r, axis=0, out=None)`` gives the
    rows ``S[r]`` as ``ndarray.take`` does, such as a channel's Kraus
    products (:meth:`CollisionChannel._superoperator_rows`).  S is read a
    band of rows at a time, into one buffer, and never held whole.

    A conserved charge, such as the magnetization of an XXZ or swap network
    with diagonal baths, makes a superoperator block diagonal up to a
    permutation of its basis.  The blocks are the weakly connected
    components of the graph that links ``i`` and ``j`` wherever ``|S_ij|``
    exceeds ``BLOCK_SPLIT_RTOL * max|S|``, ordered by their smallest index.
    Each band's links are merged into one array of ``n`` roots as the rows
    are read (:func:`_link`), so the split holds no ``n x n`` array: its
    largest arrays are the band buffer and the blocks it returns.

    A channel maps Hermitian matrices to Hermitian matrices, that is
    ``S[P, P] = conj(S)`` for the swap ``P: (i, j) -> (j, i)`` of a
    superoperator on ``d x d`` matrices.  Two shortcuts follow, each taken
    for a block only where it passes a check of that symmetry within the
    split tolerance; a block that fails it stays a complex block:

    - a block mapped onto itself by ``P`` (every block that holds a
      diagonal entry) is real in the Hermitian basis, so it is kept in its
      real form (:func:`_real_form`) with its ``layout``.  The check bounds
      the imaginary part that is dropped, which is ``(S[b, b] -
      conj(S[P b, P b])) / 2i`` in that basis;
    - a block ``b`` mapped onto another block ``P b`` (its conjugate twin,
      coherence number ``-c`` for ``c``) is kept once, with ``mirror = P
      b``: the twin acts on the conjugate entries and has the conjugate
      eigenvalues.  The check is ``max|S[P b, P b] - conj(S[b, b])|``.

    A NaN or infinite entry raises ``numpy.linalg.LinAlgError``, as
    ``eigvals`` would.
    """
    n = rows.shape[0]
    side = math.isqrt(n)
    slabs = max(1, min(side, _BAND_BYTES // (16 * n * side)))
    buffer = np.empty((slabs * side, n), dtype=rows.dtype)
    # For a completely positive map, |S[(i, j), (k, l)]| is at most the
    # geometric mean of S[(i, i), (k, k)] and S[(j, j), (l, l)]
    # (Cauchy-Schwarz over the Kraus operators), so these few entries give
    # max|S| before the one pass that links the rest.  The pass finds the
    # true maximum, and links again only where it is larger.
    pairs = np.arange(side) * (side + 1)
    scale = np.abs(_entries(rows, pairs, buffer)).max(initial=0.0)
    root = np.arange(n)
    top = _link(rows, buffer, BLOCK_SPLIT_RTOL * scale, root)
    if not np.isfinite(top):
        raise np.linalg.LinAlgError("Array must not contain infs or NaNs")
    if top > scale:
        scale = top
        root = np.arange(n)
        _link(rows, buffer, BLOCK_SPLIT_RTOL * scale, root)
    tol = BLOCK_SPLIT_RTOL * scale
    # each root is its block's smallest index, so a stable sort by root
    # gives the blocks ordered by their smallest index, each one sorted
    order = np.argsort(root, kind="stable")
    blocks = np.split(order, np.flatnonzero(np.diff(root[order])) + 1)
    sizes = np.bincount(root)
    swap = np.arange(n).reshape(side, side).T.ravel()

    split, paired = [], set()
    for b in blocks:
        if b[0] in paired:
            continue  # kept with its twin
        twin = root[swap[b[0]]]
        # the swap must map the block onto a whole block; a twin before b
        # failed the symmetry check when it was reached
        whole = sizes[twin] == b.size and (root[swap[b]] == twin).all()
        if whole and twin == b[0]:
            idx, p, h = _hermitian_layout(b, side)
            form = _real_form(
                _entries(rows, idx, buffer).astype(complex, copy=False), p, h
            )
            # Im(T^H B T) = T^H (B - conj(B[P, P])) T / 2i: bounding the
            # part that is dropped checks the symmetry, to within a factor
            # 4 entrywise
            if max(form.imag.max(), -form.imag.min()) <= tol:
                split.append(_Block(form.real.copy(), idx, (p, h)))
                continue
        entries = _entries(rows, b, buffer)
        if whole and twin > b[0]:
            mirror = swap[b]
            defect = max(
                np.abs(values - entries[start:start + len(values)].conj()).max()
                for start, values in _chunks(rows, mirror, buffer)
            )
            if defect <= tol:
                split.append(_Block(entries, b, mirror=mirror))
                paired.add(twin)
                continue
        split.append(_Block(entries, b))
    return split


def _link(rows, buffer, tol, root):
    """Join ``i`` and ``j`` in the union-find ``root`` wherever ``|S_ij| >
    tol``, reading S's rows into ``buffer`` a band at a time.

    Every root is, and stays, the smallest index of its set (``np.arange``
    to start): a band's links hook the larger root onto the smaller, then
    every index jumps to its root, until no link joins two roots (after
    Shiloach and Vishkin, J. Algorithms 3, 1982).

    Returns ``max|S|``, NaN if S holds a NaN.
    """
    n, band = rows.shape[0], buffer.shape[0]
    mags = np.empty(buffer.shape)
    top = 0.0
    for start in range(0, n, band):
        stop = min(start + band, n)
        values = rows.take(np.arange(start, stop), axis=0,
                           out=buffer[:stop - start])
        mag = np.abs(values, out=mags[:stop - start])
        top = np.maximum(top, mag.max())
        # the roots at each end of the band's links that join two roots
        links = (mag > tol) & (root[start:stop, None] != root)
        a, b = np.divmod(np.flatnonzero(links), n)
        a, b = root[start:stop][a], root[b]
        while (apart := a != b).any():
            a, b = a[apart], b[apart]
            np.minimum.at(root, np.maximum(a, b), np.minimum(a, b))
            while not np.array_equal(root[root], root):
                root[:] = root[root]
            a, b = root[a], root[b]
    return top


def _chunks(rows, idx, buffer):
    """``(start, S[np.ix_(idx[start:stop], idx)])`` chunk by chunk.

    Each chunk's rows are read into ``buffer``, as many as it holds.
    """
    for start in range(0, idx.size, buffer.shape[0]):
        chunk = idx[start:start + buffer.shape[0]]
        yield start, rows.take(chunk, axis=0, out=buffer[:chunk.size])[:, idx]


def _entries(rows, idx, buffer):
    """``S[np.ix_(idx, idx)]``, reading S's rows into ``buffer``."""
    out = np.empty((idx.size, idx.size), dtype=buffer.dtype)
    for start, values in _chunks(rows, idx, buffer):
        out[start:start + len(values)] = values
    return out


def _on_diagonal(idx, side):
    """Which of the superoperator indices ``idx`` are diagonal entries.

    Index ``a`` is the matrix entry ``(a // side, a % side)``, so the
    diagonal entry ``(i, i)`` is index ``i * (side + 1)``.
    """
    return idx % (side + 1) == 0


def _solved_fixed_point(block, side):
    """The fixed point of ``block`` with trace 1, vectorized, by one solve.

    ``t`` is the trace functional on the block's coordinates: 1 on each
    diagonal entry ``(i, i)``, index ``i * (side + 1)``, and 0 elsewhere
    (a real form keeps the diagonal entries as its first coordinates).
    With ``w = t / p`` for the ``p`` diagonal entries, ``x`` with ``(R - I
    + w t^T) x = w`` has trace ``t^T x = 1``, and where 1 is an eigenvalue
    of the block's matrix ``R`` it is the eigenvector.  By the matrix
    determinant lemma the system is nonsingular when that eigenvalue is
    simple and its eigenvector has a nonzero trace, so the caller checks
    the simplicity first.  The solution is written back over the block's
    entries of a zero vector of length ``side**2``.
    """
    trace = _on_diagonal(block.idx, side).astype(float)
    p = trace.sum()
    if not p:
        raise FixedPointNumericalError(
            "fixed-point eigenvector is traceless; cannot normalize"
        )
    w = trace / p
    # R - I + w t^T, rounded as written but with two fewer n x n temporaries
    system = block.matrix.copy()
    system[np.diag_indices(trace.size)] -= 1.0
    system += np.outer(w, trace)
    try:
        coords = np.linalg.solve(system, w)
    except np.linalg.LinAlgError as exc:
        raise FixedPointNumericalError(
            "the bordered fixed-point system is singular; eigenvalue 1 has "
            "no eigenvector of nonzero trace"
        ) from exc
    vec = np.zeros(side * side, dtype=complex)
    block.write(coords, vec)
    return vec


def _extract_fixed_point(apply, side, split, spectra, tol=DEGENERACY_ATOL):
    """Fixed point from the split of a channel and each block's eigenvalues.

    ``spectra[k]`` holds the eigenvalues of ``split[k]`` (see
    :meth:`_Block.eigvals`), and ``apply`` and ``side`` are those of
    :func:`_validated_fixed_point`.  The eigenvalue within ``tol`` of 1 is
    selected; a degenerate cluster there is an error.  Its block gives the
    fixed point by :func:`_solved_fixed_point`, which
    :func:`_validated_fixed_point` checks.
    """
    near_one = [block for block, vals in zip(split, spectra)
                for _ in np.flatnonzero(np.abs(vals - 1.0) <= tol)]
    if len(near_one) > 1:
        raise DegenerateFixedPointError(
            f"{len(near_one)} eigenvalues lie within {tol:.0e} "
            "of 1; the fixed point is not unique"
        )
    if not near_one:
        raise FixedPointNumericalError(
            "no eigenvalue within tolerance of 1; the map does not preserve "
            "the trace"
        )
    return _validated_fixed_point(apply, _solved_fixed_point(near_one[0], side))


def _validated_fixed_point(apply, vec):
    """``(rho, residual)`` of a vectorized fixed-point candidate.

    The candidate is Hermitian-symmetrized and trace-normalized.
    Positivity and the self-consistency residual ``||apply(rho) - rho||_1``
    are then validated, where ``apply`` maps a (D, D) matrix through the
    channel.  Positivity failures are surfaced, never repaired; each check
    refuses a NaN.
    """
    side = math.isqrt(vec.size)
    candidate = unvectorize(vec, side)
    candidate = (candidate + candidate.conj().T) / 2.0
    trace = candidate.trace().real
    if abs(trace) < 1e-12:
        raise FixedPointNumericalError(
            "fixed-point eigenvector is traceless; cannot normalize"
        )
    with np.errstate(invalid="ignore"):
        rho = candidate / trace  # a NaN trace fails the PSD check below
    min_eig = float(np.min(qmath._eigvalsh(rho)))
    if not min_eig >= -FIXED_POINT_PSD_ATOL:
        raise FixedPointNumericalError(
            f"symmetrized fixed point has eigenvalue {min_eig:.3e} below "
            f"-{FIXED_POINT_PSD_ATOL:.0e}"
        )
    residual = hermitian_trace_norm(apply(rho) - rho)
    if not residual <= FIXED_POINT_RESIDUAL_ATOL:
        raise FixedPointNumericalError(
            f"fixed-point residual {residual:.3e} exceeds "
            f"{FIXED_POINT_RESIDUAL_ATOL:.0e}"
        )
    return rho, float(residual)


def _operand(op):
    """``(rows, apply)`` of a :class:`Superoperator` or a channel.

    ``rows`` is the row source :func:`_split` reads: the matrix itself, or
    a :class:`CollisionChannel`'s Kraus products, which refuse a system dim
    above ``SUPEROPERATOR_DIM_LIMIT`` with :class:`CapacityError`.
    ``apply`` maps a (D, D) matrix through the map: the matrix product, or
    one Kraus collision.
    """
    if isinstance(op, CollisionChannel):
        return op._superoperator_rows(), partial(apply_kraus, op._kraus)
    return np.asarray(op.matrix), op.apply


def _tolerance(tol):
    """``tol`` as a float, refused unless it is positive and finite."""
    if not 0 < tol < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    return float(tol)


def spectral_fixed_point(sop):
    """The unique stationary state of a channel, from its spectrum.

    ``sop`` is a :class:`Superoperator` or a :class:`CollisionChannel`, as
    in :func:`is_relaxing`.
    """
    rows, apply = _operand(sop)
    split = _split(rows)
    rho, _ = _extract_fixed_point(apply, math.isqrt(rows.shape[0]), split,
                                  [block.eigvals() for block in split])
    return rho


def is_relaxing(sop, tol=PERIPHERAL_ATOL):
    """Spectral relaxedness verdict; the report explains a negative one.

    Relaxing iff exactly one eigenvalue has modulus within ``tol`` of the
    unit circle (that one is the trace-preservation eigenvalue 1).  The
    same ``tol`` decides whether that eigenvalue is simple.  The spectrum
    is computed block by block when the superoperator splits into
    independent blocks (see :func:`_split`); the report keeps the split.

    ``sop`` is a :class:`Superoperator` or a :class:`CollisionChannel`.  A
    channel's blocks are built from its Kraus operators, a band of
    superoperator rows at a time, and its fixed point is checked by one
    collision, so the dense superoperator is never formed; a channel above
    system dim ``SUPEROPERATOR_DIM_LIMIT`` raises :class:`CapacityError`.
    A superoperator or Kraus stack with a NaN or infinite entry raises
    ``numpy.linalg.LinAlgError``; a ``tol`` that is not positive and finite
    raises ``ValueError``.
    """
    tol = _tolerance(tol)
    rows, apply = _operand(sop)
    split = _split(rows)
    spectra = [block.eigvals() for block in split]
    mods = np.sort(np.abs(np.concatenate(spectra)))[::-1]
    gap = float(1.0 - mods[1]) if mods.size > 1 else 1.0
    report = _verdict(apply, math.isqrt(rows.shape[0]), split, spectra, tol,
                      gap)
    return replace(report, _blocks=split)


def _verdict(apply, side, split, spectra, tol, gap=math.nan):
    """The :class:`ConvergenceReport` of a split from its eigenvalues.

    ``spectra[k]`` holds the eigenvalues of ``split[k]`` of modulus above
    ``1 - tol``, the only ones read; it may hold the others too.  So a
    block proven inside the circle of radius ``1 - tol`` may hold none, and
    a block proven to have the simple eigenvalue 1 and no other above that
    radius may hold ``[1.0]`` (see :func:`_certified_verdict`).
    ``apply`` and ``side`` are those of :func:`_validated_fixed_point`.
    ``gap`` is the spectral gap the report carries, NaN when the spectra
    do not give it; the report keeps no split.
    """
    peripheral = sum(int(np.count_nonzero(np.abs(vals) > 1.0 - tol))
                     for vals in spectra)
    if peripheral == 0:
        reason = ("no eigenvalue reaches the unit circle; the matrix is not "
                  "a trace-preserving channel")
    elif peripheral > 1:
        reason = (f"{peripheral} eigenvalues within {tol:.0e} of the unit "
                  "circle; iterates do not forget the initial state")
    else:
        try:
            rho, residual = _extract_fixed_point(apply, side, split, spectra,
                                                 tol)
        except (DegenerateFixedPointError, FixedPointNumericalError) as exc:
            reason = ("unique peripheral eigenvalue but fixed-point "
                      f"extraction failed: {exc}")
        else:
            return ConvergenceReport(
                relaxing=True,
                reason=f"unique peripheral eigenvalue; spectral gap {gap:.3e}",
                fixed_point=rho, spectral_gap=gap, peripheral_count=1,
                residual=residual,
            )
    return ConvergenceReport(
        relaxing=False, reason=reason, fixed_point=None, spectral_gap=gap,
        peripheral_count=peripheral, residual=math.inf,
    )


# The most squarings :func:`_inside` tries before a block goes to eigvals.
# LAPACK's eigenvalues-only eig costs about 10 n^3 real flops on a real
# n x n block (40 n^3 on a complex one) and a squaring 2 n^3 (8 n^3), so
# the certificate never spends more than the eigvals it spares.
_CERTIFICATE_SQUARINGS = 5


def _inside(matrix, radius):
    """Is every eigenvalue of ``matrix`` proven of modulus below ``radius``?

    By Gelfand's formula ``rho(B)^k <= ||B^k||_F`` for the spectral radius
    ``rho(B)``, so ``||B^(2^j)||_F < radius^(2^j)`` for some ``j`` up to
    ``_CERTIFICATE_SQUARINGS`` proves ``rho(B) < radius``.  False means
    only that no power gave the proof.  A NaN or infinite entry, or a power
    that overflows, fails every comparison.  The powers are squared into
    two buffers in turn, so at most two arrays of the matrix's size are
    allocated.
    """
    if not radius > 0:
        return False
    power = matrix
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(_CERTIFICATE_SQUARINGS + 1):
            if j == 1:
                buffers = np.empty_like(matrix), np.empty_like(matrix)
            if j:
                power = np.matmul(power, power, out=buffers[j % 2])
            # ||B^(2^j)||_F^2 against radius^(2^(j+1))
            if np.vdot(power, power).real < radius ** (2 << j):
                return True
    return False


def _deflated_inside(block, side, tol):
    """Is eigenvalue 1 of a block with diagonal entries proven simple, and
    every other eigenvalue proven of modulus below ``1 - tol``?

    ``t`` and ``w = t / p`` are :func:`_solved_fixed_point`'s trace row and
    its weight.  A trace-preserving block ``B`` has ``t^T B = t^T``, and
    then ``B - w t^T`` has ``B``'s eigenvalues with one copy of 1 replaced
    by 0 (Brauer, Duke Math. J. 19, 75, 1952).  So when ``max|t^T B -
    t^T|`` is within ``TRACE_ATOL`` and within ``tol``, and :func:`_inside`
    proves ``B - w t^T`` inside the circle of radius ``1 - tol``, the only
    eigenvalue of ``B`` of modulus above ``1 - tol`` is the one at 1.
    False means only that no proof was found; a NaN or infinite entry fails
    a check, with no warning.
    """
    on = _on_diagonal(block.idx, side)
    trace = on.astype(float)
    with np.errstate(invalid="ignore"):
        defect = np.abs(trace @ block.matrix - trace).max()
    if not defect <= min(TRACE_ATOL, tol):
        return False
    # w t^T is 1 / p where both coordinates are diagonal entries, else 0
    deflated = block.matrix.copy()
    deflated[np.ix_(on, on)] -= 1.0 / trace.sum()
    return _inside(deflated, 1.0 - tol)


def _certified_verdict(sop, tol=PERIPHERAL_ATOL):
    """:func:`is_relaxing`'s report, sparing the eigenvalues of the blocks
    whose spectrum a certificate settles.

    The eigenvector of a channel's eigenvalue 1 is a Hermitian matrix of
    trace 1, so that eigenvalue lives in a block that holds a diagonal
    entry.  When exactly one block holds them, it first tries
    :func:`_deflated_inside`; a block that passes it gets the spectrum
    ``[1.0]``.  Every block without a diagonal entry first tries
    :func:`_inside`, and a block that passes it gets no eigenvalues.  A
    block whose certificate fails, and every block with diagonal entries
    when there are two or more (each may hold an eigenvalue 1, and only
    their eigenvalues count them exactly), gets its eigenvalues.  The
    eigenvalue that ``eigvals`` would give within ``tol`` of 1 has modulus
    above ``1 - tol``, and a certified block holds no other eigenvalue of
    that modulus, so the peripheral count, the block that gives the fixed
    point and its bordered solve are those of :func:`_verdict` on every
    eigenvalue, bit for bit.  Only the spectral gap is not known: the
    report's is NaN, and it keeps no split.  ``sop`` and the errors are as
    in :func:`is_relaxing`.
    """
    tol = _tolerance(tol)
    rows, apply = _operand(sop)
    split = _split(rows)
    side = math.isqrt(rows.shape[0])
    populated = [_on_diagonal(block.idx, side).any() for block in split]
    deflate = populated.count(True) == 1
    spectra = []
    for block, diagonal in zip(split, populated):
        if diagonal and deflate and _deflated_inside(block, side, tol):
            spectra.append(np.ones(1, dtype=complex))
        elif not diagonal and _inside(block.matrix, 1.0 - tol):
            spectra.append(np.empty(0, dtype=complex))
        else:
            spectra.append(block.eigvals())
    return _verdict(apply, side, split, spectra, tol)


def iterative_fixed_point(channel, rho0, tol=DEFAULT_ITERATE_TOL,
                          max_iter=DEFAULT_MAX_ITER):
    """Fixed point by brute iteration: collide until the state stops moving.

    Returns ``(state, collisions used)`` once the step-to-step trace-norm
    residual drops to ``tol``.  Exceeding ``max_iter`` raises
    :class:`ConvergenceError` carrying the last residual — that outcome
    means slow mixing or non-relaxing dynamics, which :func:`is_relaxing`
    distinguishes.
    """
    rho0 = channel._state(rho0)
    return _settled(*iterate_until(channel._kraus, rho0, _tolerance(tol),
                                   _count(max_iter, "max_iter")))


def _settled(state, used, residual, converged):
    """``(state, used)`` of a converged iteration, else its ConvergenceError.

    Takes the four values :func:`iterate_until` returns.
    """
    if not converged:
        raise ConvergenceError(
            f"no fixed point within {used} collisions (last residual "
            f"{residual:.3e}); slow mixing or non-relaxing dynamics — "
            "consult is_relaxing",
            residual=float(residual), iterations=int(used),
        )
    return state, int(used)


def _lifting_pays(blocks, rank, dim, gap, tol, max_iter):
    """Is squaring ``blocks`` cheaper than colliding a Kraus stack?

    ``blocks`` lists ``(size, real)`` of the blocks to square, and the
    stack holds ``rank`` operators on a ``dim``-dimensional system.  About
    ``k = ln(2 / tol) / -ln(1 - gap)`` collisions take a step of trace norm
    at most 2 below ``tol`` (``max_iter`` at most, and all of them for a
    gap of 0).  Finding them by lifting costs ``bit_length(k)`` squarings,
    ``n^3`` real multiply-adds for a real block of size n and ``4 n^3`` for
    a complex one; colliding costs ``k`` collisions of ``8 rank dim^3``.
    """
    if gap > 0:
        rate = -math.log1p(-gap) if gap < 1 else math.inf
        collisions = min(max_iter, max(1, math.ceil(math.log(2 / tol) / rate)))
    else:
        collisions = max_iter
    squaring = sum(n ** 3 if real else 4 * n ** 3 for n, real in blocks)
    return (collisions.bit_length() * squaring
            < collisions * 8 * rank * dim ** 3)


def _lifting_blocks(blocks, start, rank, gap, tol, max_iter):
    """The blocks of a split that ``start`` touches, or None.

    ``blocks`` is a channel superoperator's :func:`_split`, such as the one
    :func:`is_relaxing`'s report keeps.  A block is kept if ``start`` or
    its transpose has a nonzero entry there; the blocks the start does not
    touch stay zero under every power of the superoperator.  None when
    :func:`_lifting_pays` finds colliding the channel's ``rank`` Kraus
    operators cheaper, given the spectral ``gap``, ``tol`` and
    ``max_iter``.
    """
    support = ((start != 0) | (start.T != 0)).ravel()
    touched = [block for block in blocks if support[block.idx].any()]
    shapes = [(block.idx.size, block.layout is not None) for block in touched]
    if not _lifting_pays(shapes, rank, start.shape[0], gap, tol, max_iter):
        return None
    return touched


def _lifted_iteration(blocks, start, tol, max_iter):
    """:func:`iterate_until`'s outcome, found from powers of ``blocks``.

    ``blocks`` are :func:`_lifting_blocks`' blocks of a channel ``Phi``,
    and ``start`` is the start state in their basis.  The step residual
    ``r_k = ||Phi^(k-1)(rho_1 - rho_0)||_1`` never grows with k, because a
    channel contracts the trace norm.  So the first k with ``r_k <= tol``
    is found by jumps of 2^j collisions, the block powers ``Phi^(2^j)``
    squared one by one while a jump still lands on a residual above
    ``tol``, then by walking j back down with the stored powers; each probe
    costs one ``eigvalsh`` of the step.  Returns (state, iterations,
    residual, converged) as :func:`iterate_until` does (``max_iter >= 1``),
    the state in the blocks' basis.
    """
    side, vec = start.shape[0], start.ravel()
    columns = []  # per block: the state after `count` collisions, its step
    for block in blocks:
        first = block.coordinates(vec)
        moved = block.matrix @ first
        columns.append(np.stack([moved, moved - first], axis=1))

    def matrix_of(cols, which):
        vec = np.zeros(side * side, dtype=complex)
        for block, col in zip(blocks, cols):
            block.write(col[:, which], vec)
        return vec.reshape(side, side)

    def residual_of(cols):
        return hermitian_trace_norm(matrix_of(cols, 1))

    def probe(level, cols):
        moved = [power @ col for power, col in zip(powers[level], cols)]
        return moved, residual_of(moved)

    powers = [[block.matrix for block in blocks]]
    count, hit = 1, None  # hit: (columns, residual) of count + 1, once known
    residual = residual_of(columns)
    if not residual > tol:
        count, hit = 0, (columns, residual)
    level = 0
    while hit is None and count + (1 << level) <= max_iter:
        if level == len(powers):
            powers.append([power @ power for power in powers[-1]])
        moved, moved_residual = probe(level, columns)
        if not moved_residual > tol:
            hit = moved, moved_residual
            break
        count, columns, residual = count + (1 << level), moved, moved_residual
        level += 1
    for j in reversed(range(level)):
        if count + (1 << j) <= max_iter:
            moved, moved_residual = probe(j, columns)
            if moved_residual > tol:
                count, columns, residual = (count + (1 << j), moved,
                                            moved_residual)
            else:
                hit = moved, moved_residual

    converged = hit is not None and not np.isnan(hit[1])
    if hit is not None:
        columns, residual = hit
    return (matrix_of(columns, 0), count + 1 if converged else max_iter,
            residual, converged)


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
    if not abs(norm - 1.0) <= 1e-10:
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
    rho1 = np.asarray(rho1, dtype=complex)
    rho2 = np.asarray(rho2, dtype=complex)
    if rho1.shape != rho2.shape or rho1.ndim < 2:
        raise ShapeError(
            f"forgetting metric needs two states of one shape (..., D, D), "
            f"got {rho1.shape} and {rho2.shape}"
        )
    pairs = _sequence_states(channels, np.stack([rho1, rho2]))
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
