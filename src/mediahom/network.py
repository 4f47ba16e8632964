"""Hamiltonian builders for spin networks on weighted coupling graphs.

Supports qudit swap networks (each edge contributes ``J * S_ij`` with
``S_ij`` the two-site swap), the anisotropic Heisenberg (XXZ) model for
qubits, swap couplings between bath ancillas and chosen network sites, and
the excitation-counting observable used in the invariance analyses.

All builders return dense complex Hermitian matrices indexed with factor 0
as the leftmost (most significant) tensor slot, matching :mod:`.qmath`.
Sums over graph edges run over unordered pairs, each edge counted once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qmath
from .errors import ShapeError

_MODELS = ("swap", "xxz")


@dataclass(frozen=True)
class CouplingGraph:
    """Weighted undirected graph on ``n_sites`` vertices.

    Edges are ``(k, k', J)`` triples with ``k != k'``; at most one edge per
    unordered pair.
    """

    n_sites: int
    edges: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        if self.n_sites < 1:
            raise ValueError(f"n_sites must be >= 1, got {self.n_sites}")
        object.__setattr__(
            self,
            "edges",
            tuple((int(a), int(b), float(j)) for a, b, j in self.edges),
        )
        seen = set()
        for a, b, _ in self.edges:
            if not (0 <= a < self.n_sites and 0 <= b < self.n_sites):
                raise ValueError(
                    f"edge ({a}, {b}) out of range for {self.n_sites} sites"
                )
            if a == b:
                raise ValueError(f"self-loop at site {a}")
            pair = (min(a, b), max(a, b))
            if pair in seen:
                raise ValueError(f"duplicate edge for pair {pair}")
            seen.add(pair)


def chain_graph(n_sites, coupling=1.0):
    """Open nearest-neighbour chain: edges ``(k, k+1, coupling)``."""
    if n_sites < 1:
        raise ValueError(f"n_sites must be >= 1, got {n_sites}")
    edges = tuple((k, k + 1, float(coupling)) for k in range(n_sites - 1))
    return CouplingGraph(n_sites, edges)


@dataclass(frozen=True)
class NetworkSpec:
    """A coupling graph plus the local model realized on it.

    ``model`` is ``"swap"`` (qudit swap network, any ``local_dim``) or
    ``"xxz"`` (anisotropic Heisenberg, qubits only, anisotropy ``delta``).
    """

    graph: CouplingGraph
    local_dim: int = 2
    model: str = "swap"
    delta: float | None = None

    def __post_init__(self):
        if self.local_dim < 2:
            raise ValueError(f"local_dim must be >= 2, got {self.local_dim}")
        if self.model not in _MODELS:
            raise ValueError(
                f"unknown model {self.model!r}; expected one of {_MODELS}"
            )
        if self.model == "xxz":
            if self.local_dim != 2:
                raise ValueError(
                    f"xxz model requires local_dim = 2, got {self.local_dim}"
                )
            if self.delta is None:
                raise ValueError("xxz model requires an anisotropy delta")
        elif self.delta is not None:
            raise ValueError("delta is only meaningful for the xxz model")

    @property
    def n_sites(self):
        return self.graph.n_sites

    @property
    def dims(self):
        """Local dimensions of the network factors."""
        return [self.local_dim] * self.graph.n_sites


def swap_operator(dims, i, j):
    """Permutation matrix exchanging tensor factors ``i`` and ``j``.

    Hermitian and involutory; requires ``dims[i] == dims[j]``.
    """
    m = len(dims)
    if not (0 <= i < m and 0 <= j < m):
        raise ValueError(f"factor indices ({i}, {j}) out of range for {m} factors")
    if i == j:
        raise ValueError("swap requires two distinct factors")
    if dims[i] != dims[j]:
        raise ShapeError(
            f"cannot swap factors of unequal dimension {dims[i]} and {dims[j]}"
        )
    total = int(np.prod(dims))
    # perm[n] = linear index of the basis vector with factors i and j exchanged
    perm = np.arange(total).reshape(dims).swapaxes(i, j).ravel()
    op = np.zeros((total, total), dtype=complex)
    op[perm, np.arange(total)] = 1.0
    return op


def swap_network_hamiltonian(spec):
    """Weighted sum of embedded swaps, one term per graph edge."""
    if spec.model != "swap":
        raise ValueError(f"expected a swap-network spec, got model {spec.model!r}")
    dims = spec.dims
    total = spec.local_dim ** spec.n_sites
    ham = np.zeros((total, total), dtype=complex)
    for a, b, j in spec.graph.edges:
        ham += j * swap_operator(dims, a, b)
    return ham


def xxz_hamiltonian(spec):
    """Anisotropic Heisenberg Hamiltonian on qubits.

    Each edge ``(a, b, J)`` contributes
    ``(J/2) * (sx sx + sy sy + delta * sz sz)`` acting on sites a and b.
    ``sx sx + sy sy`` maps ``|01>`` to ``2 |10>`` and back and kills
    ``|00>`` and ``|11>``, so the edge writes ``J`` on the entries ``(x, x
    ^ mask)`` whose bits a and b differ, with ``mask`` those two bits, and
    adds ``(J/2) delta`` to the diagonal where they agree and subtracts it
    where they differ.  Each pair of sites has at most one edge, so the
    flips of two edges never meet.
    """
    if spec.model != "xxz":
        raise ValueError(f"expected an xxz spec, got model {spec.model!r}")
    n = spec.n_sites
    states = np.arange(2 ** n)
    ham = np.zeros((states.size, states.size), dtype=complex)
    diagonal = np.zeros(states.size)
    for a, b, j in spec.graph.edges:
        # site 0 is the leading tensor factor, the highest bit
        bit_a, bit_b = 1 << (n - 1 - a), 1 << (n - 1 - b)
        differ = ((states & bit_a) != 0) != ((states & bit_b) != 0)
        flipped = states[differ]
        ham[flipped, flipped ^ (bit_a | bit_b)] = j
        zz = (j / 2.0) * spec.delta
        diagonal += np.where(differ, -zz, zz)
    ham[states, states] = diagonal
    return ham


def system_hamiltonian(spec):
    """Dispatch to the builder matching ``spec.model``."""
    if spec.model == "swap":
        return swap_network_hamiltonian(spec)
    return xxz_hamiltonian(spec)


def interaction_hamiltonian(dims, pairs):
    """Sum of swap couplings between ancilla factors and system sites.

    ``dims`` describes the full system+ancilla space; ``pairs`` lists
    ``(ancilla_factor, system_site)`` index pairs into it.  An empty list
    yields the zero matrix.
    """
    total = int(np.prod(dims))
    ham = np.zeros((total, total), dtype=complex)
    for anc, site in pairs:
        ham += swap_operator(dims, anc, site)
    return ham


def excitation_observable(phi, dims):
    """Negated count of ``phi``-excitations, summed over every factor.

    Returns ``sum_k embed(-|phi><phi|, factor k)``; its eigenvalues are the
    integers ``-len(dims) .. 0``, each counting how many factors sit in
    ``phi``.  Every factor must have the dimension of ``phi``.
    """
    phi = np.asarray(phi, dtype=complex).reshape(-1)
    norm = np.linalg.norm(phi)
    if not abs(norm - 1.0) <= 1e-10:
        raise ValueError(f"phi must be normalized; |phi| = {norm:.6g}")
    d = phi.shape[0]
    for k, dim in enumerate(dims):
        if dim != d:
            raise ShapeError(
                f"factor {k} has dimension {dim}, expected {d} to match phi"
            )
    proj = -qmath.projector(phi)
    total = int(np.prod(dims))
    obs = np.zeros((total, total), dtype=complex)
    for k in range(len(dims)):
        obs += qmath.embed(dims, {k: proj})
    return obs
