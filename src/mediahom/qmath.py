"""Dense complex linear algebra for small multi-qudit systems.

Operators are plain ``numpy.ndarray`` of complex128.  Composite systems are
described by a tuple of local dimensions; factor 0 is the leftmost tensor
factor and the most significant index block (``tensor([A, B])`` puts A on
factor 0).  That convention is fixed here and used everywhere else in the
package.

Trace norms follow the un-halved convention ||X||_1 = Tr sqrt(X^dag X), so
the distance between two density matrices ranges over [0, 2].
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import tolerances as tol
from .errors import ShapeError

__all__ = [
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "DensityReport",
    "basis_ket",
    "concurrence",
    "dag",
    "embed",
    "ensure_densities",
    "ensure_density",
    "hermitian_eig",
    "partial_trace",
    "projector",
    "random_density",
    "random_hermitian",
    "random_pure_state",
    "random_unitary",
    "tensor",
    "trace_distance",
    "trace_norm",
    "unitary_from_hamiltonian",
    "validate_density",
    "von_neumann_entropy",
]

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

_INDEX_LETTERS = string.ascii_lowercase + string.ascii_uppercase


def dag(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return a.conj().T


def _as_square(a, name="operator") -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"{name} must be a square matrix, got shape {a.shape}")
    return a


def check_shape(dims: Sequence[int], total_dim: int) -> tuple[int, ...]:
    """Validate a subsystem shape against the dimension it indexes."""
    dims = tuple(int(d) for d in dims)
    if not dims:
        raise ShapeError("subsystem shape must contain at least one factor")
    if any(d < 2 for d in dims):
        raise ShapeError(f"every local dimension must be >= 2, got {dims}")
    if int(np.prod(dims)) != total_dim:
        raise ShapeError(
            f"shape {dims} has total dimension {int(np.prod(dims))}, "
            f"but the operator dimension is {total_dim}"
        )
    return dims


def tensor(ops: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker product of the operators, in list order."""
    if len(ops) == 0:
        raise ValueError("tensor() requires at least one operator")
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        out = np.kron(out, np.asarray(op, dtype=complex))
    return out


def embed(dims: Sequence[int], ops: Mapping[int, np.ndarray]) -> np.ndarray:
    """Tensor the given per-factor operators with identity everywhere else."""
    dims = tuple(int(d) for d in dims)
    factors = []
    for k, d in enumerate(dims):
        if k in ops:
            op = _as_square(ops[k], f"factor-{k} operator")
            if op.shape[0] != d:
                raise ShapeError(
                    f"factor {k} has dimension {d}, operator is {op.shape[0]}x{op.shape[0]}"
                )
            factors.append(op)
        else:
            factors.append(np.eye(d, dtype=complex))
    return tensor(factors)


def partial_trace(
    op: np.ndarray, dims: Sequence[int], keep: Sequence[int]
) -> np.ndarray:
    """Trace out every factor not listed in ``keep``.

    The result acts on the kept factors in their original order and has the
    same trace as the input.
    """
    op = _as_square(op)
    dims = check_shape(dims, op.shape[0])
    n = len(dims)
    keep = sorted(set(int(k) for k in keep))
    if not keep:
        raise ShapeError("keep must name at least one factor")
    if keep[0] < 0 or keep[-1] >= n:
        raise ShapeError(f"keep indices {keep} out of range for {n} factors")
    if 2 * n > len(_INDEX_LETTERS):
        raise ShapeError(f"too many factors for einsum indexing ({n})")

    row = list(_INDEX_LETTERS[:n])
    col = list(_INDEX_LETTERS[n : 2 * n])
    for k in range(n):
        if k not in keep:
            col[k] = row[k]  # repeated index contracts that factor
    out_sub = "".join(row[k] for k in keep) + "".join(
        _INDEX_LETTERS[n + k] for k in keep
    )
    sub = "".join(row) + "".join(col) + "->" + out_sub
    reduced = np.einsum(sub, op.reshape(dims + dims))
    kept_dim = int(np.prod([dims[k] for k in keep]))
    return reduced.reshape(kept_dim, kept_dim)


def hermitian_eig(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns eigenvalues in ascending order and orthonormal eigenvectors as
    columns.  Rejects inputs whose Hermiticity defect exceeds the
    structural tolerance.
    """
    h = _as_square(h)
    defect = np.max(np.abs(h - dag(h)))
    if not defect <= tol.HERMITICITY_ATOL:
        raise ValueError(
            f"matrix is not Hermitian (defect {defect:.3e} > {tol.HERMITICITY_ATOL})"
        )
    return np.linalg.eigh(h)


def unitary_from_hamiltonian(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i h t) via Hermitian eigendecomposition.

    A ``t`` so large that a phase overflows gives NaN entries, silently:
    the unitarity check of the channel built on it refuses them.
    """
    vals, vecs = hermitian_eig(h)
    with np.errstate(over="ignore", invalid="ignore"):
        phases = np.exp(-1j * vals * t)
    return (vecs * phases) @ dag(vecs)


def trace_norm(a: np.ndarray) -> float:
    """Sum of singular values (un-halved trace norm)."""
    a = _as_square(a)
    return float(np.linalg.svd(a, compute_uv=False).sum())


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """||a - b||_1 without the conventional 1/2 factor."""
    return trace_norm(np.asarray(a, dtype=complex) - np.asarray(b, dtype=complex))


def _density_passes(herm, trace, min_eig, tol_):
    return (herm <= tol_) & (trace <= tol_) & (min_eig >= -tol_)


@dataclass(frozen=True)
class DensityReport:
    """Validation report for a candidate density matrix."""

    hermiticity_defect: float
    trace_defect: float
    min_eigenvalue: float
    tol: float

    @property
    def passed(self) -> bool:
        return bool(_density_passes(
            self.hermiticity_defect, self.trace_defect, self.min_eigenvalue,
            self.tol,
        ))

    def describe(self) -> str:
        state = "pass" if self.passed else "fail"
        return (
            f"{state}: hermiticity defect {self.hermiticity_defect:.3e}, "
            f"trace defect {self.trace_defect:.3e}, "
            f"min eigenvalue {self.min_eigenvalue:.3e} (tol {self.tol:.1e})"
        )


def _eigvalsh(a: np.ndarray) -> np.ndarray:
    """``eigvalsh`` of a Hermitian matrix or stack, NaN for a non-finite one.

    A matrix with a NaN or infinite entry gets a row of NaN eigenvalues; it
    never reaches ``eigvalsh``, which raises on a NaN matrix at D >= 3.
    """
    finite = np.isfinite(a).all(axis=(-2, -1))
    if finite.all():
        return np.linalg.eigvalsh(a)
    vals = np.linalg.eigvalsh(np.where(finite[..., None, None], a, 0.0))
    return np.where(finite[..., None], vals, np.nan)


def _density_defects(rhos: np.ndarray):
    """Hermiticity, trace and least-eigenvalue defects of a matrix or stack.

    A matrix with a NaN or infinite entry gets NaN defects, which fail
    every check.
    """
    adjoint = rhos.conj().swapaxes(-1, -2)
    herm = np.abs(rhos - adjoint).max(axis=(-2, -1))
    trace = np.abs(np.trace(rhos, axis1=-2, axis2=-1) - 1.0)
    min_eig = _eigvalsh((rhos + adjoint) / 2).min(axis=-1)
    return herm, trace, min_eig


def validate_density(rho: np.ndarray, tol_: float = tol.PSD_ATOL) -> DensityReport:
    """Report Hermiticity, trace and positivity defects; never raises."""
    rho = _as_square(rho, "density matrix")
    herm, trace, min_eig = _density_defects(rho)
    return DensityReport(float(herm), float(trace), float(min_eig), tol_)


def ensure_density(rho: np.ndarray, tol_: float = tol.PSD_ATOL) -> np.ndarray:
    """Return rho as a complex array, raising if it is not a valid state."""
    rho = _as_square(rho, "density matrix")
    ensure_densities(rho[None], tol_, what=None)
    return rho


def ensure_densities(
    rhos, tol_: float = tol.PSD_ATOL, what: str | None = "state"
) -> np.ndarray:
    """Return a stack of states as one complex ``(n, D, D)`` array.

    Every state is checked for Hermiticity, unit trace and positivity in
    one batched pass; the error names the index of the first invalid
    ``what`` (``what=None`` leaves the index out, for a single state).
    """
    rhos = np.asarray(rhos, dtype=complex)
    if rhos.ndim != 3 or rhos.shape[1] != rhos.shape[2]:
        raise ShapeError(
            f"{what}s must stack into shape (n, D, D), got {rhos.shape}"
        )
    if not rhos.shape[0]:
        return rhos
    defects = _density_defects(rhos)
    passed = _density_passes(*defects, tol_)
    if not passed.all():
        k = int(np.argmin(passed))
        report = DensityReport(*(float(x[k]) for x in defects), tol_)
        where = f"{what} {k}: " if what is not None else ""
        raise ValueError(
            f"{where}not a valid density matrix ({report.describe()})"
        )
    return rhos


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Entropy -sum(p log2 p) of the state's spectrum, in bits.

    Eigenvalues are clipped to [0, 1] with the 0 log 0 = 0 convention; a
    clip larger than the configured limit is an error rather than silent
    repair.
    """
    rho = ensure_density(rho)
    vals = np.linalg.eigvalsh(rho)
    clipped = np.clip(vals, 0.0, 1.0)
    clip_magnitude = float(np.max(np.abs(vals - clipped)))
    if clip_magnitude > tol.ENTROPY_CLIP_LIMIT:
        raise ValueError(
            f"eigenvalue clip {clip_magnitude:.3e} exceeds "
            f"{tol.ENTROPY_CLIP_LIMIT}; spectrum is too far from [0, 1]"
        )
    nz = clipped[clipped > 0.0]
    # + 0.0 turns the -0.0 of a pure state into 0.0 and moves no other value
    return float(-(nz * np.log2(nz)).sum() + 0.0)


def concurrence(rho: np.ndarray) -> float:
    """Two-qubit concurrence of a 4x4 density matrix.

    C = max(0, mu1 - mu2 - mu3 - mu4) with mu_i the decreasing square roots
    of the eigenvalues of rho (sy x sy) rho* (sy x sy).
    """
    rho = ensure_density(rho)
    if rho.shape[0] != 4:
        raise ShapeError(f"concurrence is defined on 2 qubits, got dim {rho.shape[0]}")
    yy = tensor([PAULI_Y, PAULI_Y])
    rho_tilde = yy @ rho.conj() @ yy
    vals = np.linalg.eigvals(rho @ rho_tilde)
    # eigenvalues are analytically real and non-negative; abs() guards
    # against tiny negative numerical noise under the square root
    mu = np.sqrt(np.abs(np.real(vals)))
    mu.sort()
    c = mu[3] - mu[2] - mu[1] - mu[0]
    return float(min(max(c, 0.0), 1.0))


def projector(vec: np.ndarray) -> np.ndarray:
    """|v><v| for a state vector."""
    v = np.asarray(vec, dtype=complex).reshape(-1)
    return np.outer(v, v.conj())


def basis_ket(dim: int, k: int) -> np.ndarray:
    """Computational basis vector |k> of the given dimension."""
    if not 0 <= k < dim:
        raise ValueError(f"basis index {k} out of range for dimension {dim}")
    v = np.zeros(dim, dtype=complex)
    v[k] = 1.0
    return v


def random_pure_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random state vector."""
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank random density matrix (normalized Ginibre G G^dag)."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ dag(g)
    return rho / rho.trace()


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random Hermitian matrix with O(1) entries."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + dag(g)) / 2


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a Ginibre matrix."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    # fix the phase ambiguity so the distribution is Haar
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))
