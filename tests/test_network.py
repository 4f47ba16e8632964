import numpy as np
import pytest

from mediahom import network, qmath
from mediahom.errors import ShapeError


def swap_oracle(d):
    """Two-qudit swap built entry by entry: S|a b> = |b a>."""
    s = np.zeros((d * d, d * d), dtype=complex)
    for a in range(d):
        for b in range(d):
            s[b * d + a, a * d + b] = 1.0
    return s


def test_chain_graph_edges():
    g = network.chain_graph(4, coupling=2.5)
    assert g.n_sites == 4
    assert g.edges == ((0, 1, 2.5), (1, 2, 2.5), (2, 3, 2.5))
    assert network.chain_graph(1).edges == ()


def test_coupling_graph_validation():
    with pytest.raises(ValueError):
        network.CouplingGraph(0, ())
    with pytest.raises(ValueError):
        network.CouplingGraph(3, ((0, 3, 1.0),))  # site out of range
    with pytest.raises(ValueError):
        network.CouplingGraph(3, ((1, 1, 1.0),))  # self-loop
    with pytest.raises(ValueError):
        network.CouplingGraph(3, ((0, 1, 1.0), (1, 0, 2.0)))  # same pair twice


def test_network_spec_validation():
    g = network.chain_graph(3)
    with pytest.raises(ValueError):
        network.NetworkSpec(g, model="ising")
    with pytest.raises(ValueError):
        network.NetworkSpec(g, model="xxz")  # delta missing
    with pytest.raises(ValueError):
        network.NetworkSpec(g, model="xxz", local_dim=3, delta=1.0)
    with pytest.raises(ValueError):
        network.NetworkSpec(g, model="swap", delta=1.0)  # delta meaningless
    spec = network.NetworkSpec(g, local_dim=3)
    assert spec.dims == [3, 3, 3]


@pytest.mark.parametrize("d", [2, 3])
def test_swap_operator_matches_oracle(d):
    s = network.swap_operator([d, d], 0, 1)
    assert np.array_equal(s, swap_oracle(d))
    # Hermitian involution
    assert np.array_equal(s, s.conj().T)
    assert np.allclose(s @ s, np.eye(d * d))


def test_swap_operator_on_embedded_factors(rng):
    # swapping factors 0 and 2 of a 3-factor product state permutes the kets
    a, b, c = (qmath.random_pure_state(2, rng) for _ in range(3))
    s = network.swap_operator([2, 2, 2], 0, 2)
    swapped = s @ np.kron(np.kron(a, b), c)
    assert np.allclose(swapped, np.kron(np.kron(c, b), a), atol=1e-12)


def test_swap_operator_qubit_pauli_decomposition():
    # S = (I + sx sx + sy sy + sz sz) / 2 for qubits
    paulis = (np.eye(2), qmath.PAULI_X, qmath.PAULI_Y, qmath.PAULI_Z)
    expected = sum(np.kron(p, p) for p in paulis) / 2
    assert np.allclose(network.swap_operator([2, 2], 0, 1), expected,
                       atol=1e-12)


def test_swap_operator_validation():
    with pytest.raises(ShapeError):
        network.swap_operator([2, 3], 0, 1)
    with pytest.raises(ValueError):
        network.swap_operator([2, 2], 0, 0)
    with pytest.raises(ValueError):
        network.swap_operator([2, 2], 0, 5)


def test_single_edge_network_is_weighted_swap():
    g = network.CouplingGraph(2, ((0, 1, 1.7),))
    spec = network.NetworkSpec(g, local_dim=3)
    ham = network.swap_network_hamiltonian(spec)
    assert np.allclose(ham, 1.7 * swap_oracle(3), atol=1e-12)


def test_chain_network_matches_permutation_sum():
    spec = network.NetworkSpec(network.chain_graph(3, coupling=0.8))
    ham = network.swap_network_hamiltonian(spec)
    expected = 0.8 * (network.swap_operator([2, 2, 2], 0, 1)
                      + network.swap_operator([2, 2, 2], 1, 2))
    assert np.allclose(ham, expected, atol=1e-12)
    assert np.abs(ham - ham.conj().T).max() == 0.0


def test_swap_network_commutes_with_identical_locals(rng):
    # any theta^(x)N commutes with a sum of swaps, whatever the graph
    g = network.CouplingGraph(3, ((0, 1, 1.0), (0, 2, 0.5), (1, 2, 2.0)))
    ham = network.swap_network_hamiltonian(network.NetworkSpec(g, local_dim=3))
    for _ in range(5):
        theta = qmath.random_density(3, rng)
        big = qmath.tensor([theta, theta, theta])
        assert np.abs(ham @ big - big @ ham).max() < 1e-10


def test_xxz_two_site_matrix():
    # (J/2)(sx sx + sy sy + D sz sz) at J = 1, D = 0 in the standard basis
    g = network.CouplingGraph(2, ((0, 1, 1.0),))
    ham = network.xxz_hamiltonian(network.NetworkSpec(g, model="xxz", delta=0.0))
    expected = np.array(
        [[0, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 0]],
        dtype=complex,
    )
    assert np.allclose(ham, expected, atol=1e-12)


def embedded_xxz(spec):
    """The XXZ Hamiltonian as a sum of embedded Pauli products."""
    dims = spec.dims
    ham = np.zeros((2 ** spec.n_sites,) * 2, dtype=complex)
    paulis = (qmath.PAULI_X, qmath.PAULI_Y, qmath.PAULI_Z)
    for a, b, j in spec.graph.edges:
        for sigma, w in zip(paulis, (1.0, 1.0, spec.delta)):
            ham += (j / 2.0) * w * qmath.embed(dims, {a: sigma, b: sigma})
    return ham


@pytest.mark.parametrize("delta", [0.0, 0.05, 0.35, 1.0, 1.45, -0.7])
@pytest.mark.parametrize("graph", [
    *(network.chain_graph(n, coupling=0.8) for n in range(2, 7)),
    network.CouplingGraph(4, ((0, 2, 0.7), (3, 1, -1.3), (0, 3, 2.1),
                              (1, 2, 0.45))),
], ids=["chain2", "chain3", "chain4", "chain5", "chain6", "weighted"])
def test_xxz_matches_embedded_pauli_sum(graph, delta):
    spec = network.NetworkSpec(graph, model="xxz", delta=delta)
    assert np.array_equal(network.xxz_hamiltonian(spec), embedded_xxz(spec))


def test_xxz_isotropic_point_matches_swap_network():
    # at delta = 1 each edge term is J * (S - I/2): the two models differ
    # only by a multiple of the identity
    g = network.chain_graph(4, coupling=1.3)
    swap_ham = network.swap_network_hamiltonian(network.NetworkSpec(g))
    xxz_ham = network.xxz_hamiltonian(
        network.NetworkSpec(g, model="xxz", delta=1.0)
    )
    n_edges = len(g.edges)
    offset = (1.3 / 2.0) * n_edges * np.eye(16)
    assert np.abs(swap_ham - (xxz_ham + offset)).max() < 1e-12


def test_xxz_conserves_total_z_magnetization():
    g = network.CouplingGraph(3, ((0, 1, 1.0), (1, 2, 0.7)))
    ham = network.xxz_hamiltonian(network.NetworkSpec(g, model="xxz", delta=0.4))
    dims = [2, 2, 2]
    total_z = sum(qmath.embed(dims, {k: qmath.PAULI_Z}) for k in range(3))
    assert np.abs(ham @ total_z - total_z @ ham).max() < 1e-12


def test_system_hamiltonian_dispatch():
    g = network.chain_graph(2)
    swap_spec = network.NetworkSpec(g)
    xxz_spec = network.NetworkSpec(g, model="xxz", delta=0.5)
    assert np.array_equal(network.system_hamiltonian(swap_spec),
                          network.swap_network_hamiltonian(swap_spec))
    assert np.array_equal(network.system_hamiltonian(xxz_spec),
                          network.xxz_hamiltonian(xxz_spec))
    with pytest.raises(ValueError):
        network.swap_network_hamiltonian(xxz_spec)
    with pytest.raises(ValueError):
        network.xxz_hamiltonian(swap_spec)


def test_interaction_hamiltonian_single_pair():
    got = network.interaction_hamiltonian([2, 2], [(1, 0)])
    assert np.allclose(got, swap_oracle(2), atol=1e-12)
    # empty pair list gives the zero matrix of the joint dimension
    zero = network.interaction_hamiltonian([2, 2, 2], [])
    assert zero.shape == (8, 8)
    assert np.abs(zero).max() == 0.0


def test_interaction_hamiltonian_two_pairs_additive():
    dims = [2, 2, 2, 2]
    got = network.interaction_hamiltonian(dims, [(3, 0), (2, 1)])
    expected = (network.swap_operator(dims, 3, 0)
                + network.swap_operator(dims, 2, 1))
    assert np.allclose(got, expected, atol=1e-12)


def test_excitation_observable_two_qubits():
    obs = network.excitation_observable([0, 1], [2, 2])
    # in the basis |00>,|01>,|10>,|11>: counts of |1> factors, negated
    assert np.allclose(obs, np.diag([0, -1, -1, -2]), atol=1e-12)
    vals = np.linalg.eigvalsh(obs)
    assert np.isclose(vals.min(), -2.0)
    assert np.isclose(vals.max(), 0.0)


def test_excitation_observable_commutes_with_swaps(rng):
    phi = qmath.random_pure_state(3, rng)
    dims = [3, 3, 3]
    obs = network.excitation_observable(phi, dims)
    for i, j in [(0, 1), (0, 2), (1, 2)]:
        s = network.swap_operator(dims, i, j)
        assert np.abs(obs @ s - s @ obs).max() < 1e-12


def test_excitation_observable_validation():
    with pytest.raises(ValueError):
        network.excitation_observable([1, 1], [2, 2])  # not normalized
    with pytest.raises(ValueError):
        network.excitation_observable([np.nan, 0], [2, 2])
    with pytest.raises(ShapeError):
        network.excitation_observable([0, 1], [2, 3])  # wrong factor dim


def test_network_relabeling_is_a_conjugation():
    # exchanging two site labels conjugates the Hamiltonian by that swap
    g = network.CouplingGraph(3, ((0, 1, 1.0), (1, 2, 0.3)))
    relabeled = network.CouplingGraph(3, ((2, 1, 1.0), (1, 0, 0.3)))
    dims = [2, 2, 2]
    h = network.swap_network_hamiltonian(network.NetworkSpec(g))
    h_rel = network.swap_network_hamiltonian(network.NetworkSpec(relabeled))
    perm = network.swap_operator(dims, 0, 2)
    assert np.abs(perm @ h @ perm - h_rel).max() < 1e-12
