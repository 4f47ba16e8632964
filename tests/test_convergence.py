import math

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment
from scipy.sparse.csgraph import connected_components

from mediahom import collision, convergence, network, qmath
from mediahom._kernels import apply_kraus, hermitian_trace_norm, iterate_until
from mediahom.collision import CollisionChannel, Superoperator, build_channel
from mediahom.config import parse_config
from mediahom.convergence import (
    check_invariance,
    entropy_ratio,
    factorized_eigenvector_count,
    forgetting_metric,
    haag_mixture_check,
    is_relaxing,
    iterative_fixed_point,
    spectral_fixed_point,
)
from mediahom.errors import (
    ConvergenceError,
    DegenerateFixedPointError,
    FixedPointNumericalError,
    ShapeError,
    UndefinedRatioError,
)
from mediahom.scenario import build_scenario_channel
from mediahom.tolerances import BLOCK_SPLIT_RTOL, PERIPHERAL_ATOL

SWAP2 = network.swap_operator([2, 2], 0, 1)


def partial_swap_channel(omega, t):
    return build_channel(np.zeros((2, 2)), SWAP2, omega, t)


def unitary_conjugation_sop(u):
    """rho -> u rho u^dag as a superoperator; every eigenvalue peripheral."""
    return Superoperator(dim=u.shape[0], matrix=np.kron(u, u.conj()))


def test_spectral_fixed_point_of_partial_swap(rng):
    # the ancilla preparation is always stationary for swap collisions
    omega = qmath.random_density(2, rng)
    sop = partial_swap_channel(omega, 0.5).superoperator()
    assert np.abs(spectral_fixed_point(sop) - omega).max() < 1e-10


def test_spectral_fixed_point_error_cases():
    with pytest.raises(DegenerateFixedPointError):
        spectral_fixed_point(Superoperator(dim=2, matrix=np.eye(4)))
    with pytest.raises(FixedPointNumericalError):
        spectral_fixed_point(Superoperator(dim=2, matrix=0.5 * np.eye(4)))


def test_spectral_and_iterative_routes_agree(rng):
    # two independent solvers on a generic network collision channel
    spec = network.NetworkSpec(network.chain_graph(2))
    h_sys = network.system_hamiltonian(spec)
    h_int = network.interaction_hamiltonian([2, 2, 2], [(2, 1)])
    omega = np.diag([0.75, 0.25]).astype(complex)
    ch = build_channel(h_sys, h_int, omega, 0.8)
    rho_spec = spectral_fixed_point(ch.superoperator())
    rho_iter, used = iterative_fixed_point(ch, np.eye(4, dtype=complex) / 4)
    assert qmath.trace_distance(rho_spec, rho_iter) < 1e-8
    assert used > 0
    # both are genuine fixed points
    assert qmath.trace_distance(ch.apply(rho_spec), rho_spec) < 1e-9


def test_is_relaxing_identity_channel(rng):
    report = is_relaxing(
        partial_swap_channel(qmath.random_density(2, rng), 0.0).superoperator()
    )
    assert not report.relaxing
    assert report.peripheral_count == 4
    assert report.fixed_point is None
    assert report.spectral_gap < 1e-12


def test_is_relaxing_constant_channel(rng):
    omega = qmath.random_density(2, rng)
    report = is_relaxing(
        CollisionChannel(SWAP2, omega, (2,)).superoperator()
    )
    assert report.relaxing
    assert report.peripheral_count == 1
    assert np.isclose(report.spectral_gap, 1.0, atol=1e-10)
    assert np.abs(report.fixed_point - omega).max() < 1e-10
    assert report.residual < 1e-10


def test_is_relaxing_unitary_conjugation(rng):
    report = is_relaxing(unitary_conjugation_sop(qmath.random_unitary(2, rng)))
    assert not report.relaxing
    assert report.peripheral_count == 4


def test_is_relaxing_non_channel_matrix():
    report = is_relaxing(Superoperator(dim=2, matrix=0.5 * np.eye(4)))
    assert not report.relaxing
    assert report.peripheral_count == 0
    assert "not a trace-preserving channel" in report.reason


def test_peripheral_tol_reaches_the_degeneracy_check():
    # 1 - 1e-10 is inside the default 1e-8 but outside tol=1e-12, so the
    # fixed point is unique at that tolerance
    sop = Superoperator(dim=2, matrix=np.diag([1.0, 0.5, 0.5, 1.0 - 1e-10]))
    report = is_relaxing(sop, tol=1e-12)
    assert report.relaxing, report.reason
    assert report.peripheral_count == 1
    assert np.abs(report.fixed_point - np.diag([1.0, 0.0])).max() < 1e-15
    assert is_relaxing(sop).peripheral_count == 2


def scenario_sop(**raw):
    raw = {"couplings": {"chain": 1.0}, "t": 0.5, "initial_state": "ground",
           "analysis": "fixed_point", **raw}
    return build_scenario_channel(parse_config(raw)).superoperator()


# Magnetization is conserved by the first two (XXZ or swap couplings with
# diagonal baths), so their superoperators split; the coherent "minus" bath
# couples every coherence number, leaving one block.
BLOCK_CASES = {
    "xxz_two_diagonal_baths": (dict(
        model="xxz", sites=4, delta=0.7,
        baths=[{"site": 3, "state": {"diag": 0.9}},
               {"site": 0, "state": {"diag": 0.4}}],
    ), True),
    "swap_chain": (dict(
        model="swap", sites=3, baths=[{"site": 2, "state": {"diag": 0.7}}],
    ), True),
    "xxz_minus_bath": (dict(
        model="xxz", sites=4, delta=1.0, baths=[{"site": 3, "state": "minus"}],
    ), False),
}


@pytest.mark.parametrize("case", BLOCK_CASES)
def test_blocked_spectrum_matches_dense_oracle(case):
    raw, splits = BLOCK_CASES[case]
    sop = scenario_sop(**raw)
    vals, eigenvector = convergence._eig_by_blocks(sop.matrix)
    dense_vals, dense_vecs = np.linalg.eig(sop.matrix)

    # the same eigenvalue multiset, paired by a minimum-distance matching
    dist = np.abs(vals[:, None] - dense_vals[None, :])
    rows, cols = linear_sum_assignment(dist)
    assert vals.shape == dense_vals.shape
    assert dist[rows, cols].max() < 1e-12

    # block structure, found independently of the code under test
    linked = np.abs(sop.matrix) > BLOCK_SPLIT_RTOL * np.abs(sop.matrix).max()
    n_blocks, labels = connected_components(
        linked, directed=True, connection="weak"
    )
    assert (n_blocks > 1) == splits
    owner = eigenvalue_owner(labels)
    diagonal = diagonal_blocks(labels, sop.dim)
    for k in range(vals.size):
        support = np.unique(labels[np.flatnonzero(eigenvector(k))])
        # a vector only for blocks that hold a diagonal entry, on that block
        expected = [owner[k]] if owner[k] in diagonal else []
        assert support.tolist() == expected

    report = is_relaxing(sop)
    assert report.relaxing
    dense_mods = np.sort(np.abs(dense_vals))[::-1]
    assert report.peripheral_count == np.count_nonzero(
        dense_mods > 1.0 - PERIPHERAL_ATOL
    )
    assert abs(report.spectral_gap - (1.0 - dense_mods[1])) < 1e-12
    dense_rho, _ = convergence._extract_fixed_point(
        sop, dense_vals, lambda k: dense_vecs[:, k]
    )
    assert np.abs(report.fixed_point - dense_rho).max() < 1e-12
    assert np.abs(spectral_fixed_point(sop) - dense_rho).max() < 1e-12


def eigenvalue_owner(labels):
    """Block label of each eigenvalue that ``_eig_by_blocks`` returns.

    The blocks' eigenvalues are concatenated with the blocks ordered by
    their smallest index.
    """
    first = {label: np.flatnonzero(labels == label)[0]
             for label in np.unique(labels)}
    order = sorted(first, key=first.get)
    return np.concatenate(
        [np.full(np.count_nonzero(labels == label), label) for label in order]
    )


def diagonal_blocks(labels, side):
    """Labels of the blocks that hold a diagonal entry ``(i, i)``."""
    return set(labels[np.arange(side) * (side + 1)].tolist())


def swap_permutation(side):
    """Index of (j, i) for each row-major index of (i, j)."""
    return np.arange(side * side).reshape(side, side).T.ravel()


# (superoperator, whether it has conjugate-twin blocks); conjugation by X
# swaps (0, 1) with (1, 0), a self-twin block without a diagonal entry
REAL_FORM_CASES = {
    "xxz_two_diagonal_baths": (
        lambda: scenario_sop(**BLOCK_CASES["xxz_two_diagonal_baths"][0]), True),
    "xxz_minus_bath": (
        lambda: scenario_sop(**BLOCK_CASES["xxz_minus_bath"][0]), False),
    "x_conjugation": (lambda: unitary_conjugation_sop(qmath.PAULI_X), False),
}


@pytest.mark.parametrize("case", REAL_FORM_CASES)
def test_real_form_and_twins_against_dense_oracle(case):
    build, has_twins = REAL_FORM_CASES[case]
    sop = build()
    matrix, side = sop.matrix, sop.dim
    swap = swap_permutation(side)
    _, labels = connected_components(
        np.abs(matrix) > BLOCK_SPLIT_RTOL * np.abs(matrix).max(),
        directed=True, connection="weak",
    )

    # the real form of every self-twin block: T^H B T with T built densely,
    # and an imaginary part far below the split tolerance before it is dropped
    for label in np.unique(labels):
        block = np.flatnonzero(labels == label)
        if labels[swap[block[0]]] != label:
            continue
        order, p, h = convergence._hermitian_layout(block, side)
        assert np.array_equal(np.sort(order), block)
        assert np.array_equal(swap[order[p:p + h]], order[p + h:])
        t = np.zeros((order.size, order.size), dtype=complex)
        t[np.arange(p), np.arange(p)] = 1.0
        up = np.arange(p, p + h)
        t[up, up] = t[up + h, up] = np.sqrt(0.5)
        t[up, up + h], t[up + h, up + h] = 1j * np.sqrt(0.5), -1j * np.sqrt(0.5)
        b = matrix[np.ix_(order, order)]
        real = convergence._real_form(b.copy(), p, h)
        assert np.abs(real - t.conj().T @ b @ t).max() < 1e-15
        assert np.abs(real.imag).max() <= 1e-15

    # every eigenvector of a block that holds a diagonal entry, and none
    # of any other block
    vals, eigenvector = convergence._eig_by_blocks(matrix)
    norm = np.linalg.norm(matrix, 2)
    owner = eigenvalue_owner(labels)
    diagonal = diagonal_blocks(labels, side)
    for k in range(vals.size):
        vec = eigenvector(k)
        support = np.unique(labels[np.flatnonzero(vec)])
        if owner[k] not in diagonal:
            assert support.size == 0
            continue
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-12
        assert np.linalg.norm(matrix @ vec - vals[k] * vec) <= 1e-12 * norm
        assert support.tolist() == [owner[k]]
    for label in np.unique(labels):
        block = np.flatnonzero(labels == label)
        assert_same_multiset(vals[owner == label],
                             np.linalg.eigvals(matrix[np.ix_(block, block)]))

    # twins: block P b holds exactly the conjugates of block b's eigenvalues
    twins = 0
    for label in np.unique(labels):
        mirror = labels[swap[np.flatnonzero(labels == label)[0]]]
        if mirror != label:
            twins += 1
            assert np.array_equal(np.sort_complex(vals[owner == mirror]),
                                  np.sort_complex(vals[owner == label].conj()))
    assert (twins > 0) == has_twins

    assert_same_multiset(vals, np.linalg.eigvals(matrix))


def assert_same_multiset(vals, oracle):
    """Equal eigenvalue multisets, paired by a minimum-distance matching."""
    assert vals.shape == oracle.shape
    dist = np.abs(vals[:, None] - oracle[None, :])
    rows, cols = linear_sum_assignment(dist)
    assert dist[rows, cols].max() < 1e-12


@pytest.mark.parametrize("mirrored_blocks", [False, True])
def test_non_hermiticity_preserving_matrix_matches_dense_eig(mirrored_blocks):
    # a random matrix fails the check and takes the complex eig; so does a
    # matrix whose blocks mirror each other but whose entries do not
    rng = np.random.default_rng(7)
    if mirrored_blocks:
        sop = scenario_sop(**BLOCK_CASES["xxz_two_diagonal_baths"][0])
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, sop.matrix.shape))
        matrix = sop.matrix * phases
    else:
        matrix = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    swap = swap_permutation(math.isqrt(matrix.shape[0]))
    assert np.abs(matrix[np.ix_(swap, swap)] - matrix.conj()).max() > 1e-3
    vals, eigenvector = convergence._eig_by_blocks(matrix)
    dense = np.linalg.eigvals(matrix)
    dist = np.abs(vals[:, None] - dense[None, :])
    rows, cols = linear_sum_assignment(dist)
    assert vals.shape == dense.shape
    assert dist[rows, cols].max() < 1e-12
    norm = np.linalg.norm(matrix, 2)
    for k in range(vals.size):
        vec = eigenvector(k)
        assert np.linalg.norm(matrix @ vec - vals[k] * vec) <= 1e-12 * norm


def test_complex_route_serves_diagonal_block_vectors():
    # a random matrix fails the symmetry check and is one block holding
    # every diagonal entry, so its complex eig serves every eigenvector
    rng = np.random.default_rng(7)
    matrix = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    vals, eigenvector = convergence._eig_by_blocks(matrix)
    norm = np.linalg.norm(matrix, 2)
    for k in range(vals.size):
        vec = eigenvector(k)
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-12
        assert np.linalg.norm(matrix @ vec - vals[k] * vec) <= 1e-12 * norm


@pytest.mark.parametrize("dim", [2, 8])
def test_identity_channel_counts_every_singleton_block(dim):
    sop = Superoperator(dim=dim, matrix=np.eye(dim * dim, dtype=complex))
    vals, eigenvector = convergence._eig_by_blocks(sop.matrix)
    assert np.array_equal(vals, np.ones(dim * dim))
    # index dim + 1 is the diagonal entry (1, 1), index dim is (1, 0)
    assert np.count_nonzero(eigenvector(dim + 1)) == 1
    assert not eigenvector(dim).any()
    report = is_relaxing(sop)
    assert not report.relaxing
    assert report.peripheral_count == dim * dim


@pytest.mark.parametrize("coherences", [
    [[0.5, 0.5], [0.5, 0.5]],   # a self-twin block, real form
    [[1.0, 0.0], [0.0, 0.5]],   # twins that fail the check, complex eig
], ids=["self_twin", "failed_twins"])
def test_eigenvalue_one_without_diagonal_entry_is_traceless(coherences):
    # eigenvalue 1 in the block of the coherences (0, 1) and (1, 0): its
    # eigenvector has trace 0, so there is no fixed point to extract
    matrix = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
    matrix[1:3, 1:3] = coherences
    sop = Superoperator(dim=2, matrix=matrix)
    # eigenvalues 1 and 2 are those of the coherences; no vector is served
    _, eigenvector = convergence._eig_by_blocks(matrix)
    assert not eigenvector(1).any() and not eigenvector(2).any()
    report = is_relaxing(sop)
    assert not report.relaxing and report.peripheral_count == 1
    assert "fixed-point eigenvector is traceless" in report.reason
    with pytest.raises(FixedPointNumericalError, match="traceless"):
        spectral_fixed_point(sop)


def test_superoperator_shape_checked_at_construction():
    # a 9 x 9 matrix is a channel on 3 x 3 states, not on 2 x 2 ones
    with pytest.raises(ShapeError, match=r"\(9, 9\).*\(4, 4\)"):
        Superoperator(dim=2, matrix=np.eye(9))
    with pytest.raises(ShapeError):
        Superoperator(dim=2, matrix=np.eye(4)[:3])


def test_non_finite_superoperator_raises():
    # a NaN off the diagonal would leave only finite singleton blocks if it
    # were split like a finite matrix; it must reach eig and be refused
    off_diagonal = np.eye(4, dtype=complex)
    off_diagonal[0, 3] = np.nan
    for matrix in (off_diagonal, np.full((4, 4), np.inf, dtype=complex)):
        sop = Superoperator(dim=2, matrix=matrix)
        with pytest.raises(np.linalg.LinAlgError):
            is_relaxing(sop)
        with pytest.raises(np.linalg.LinAlgError):
            spectral_fixed_point(sop)


def test_iteration_count_matches_decay_rate():
    # diagonal case: residual after n steps is cos^(2(n-1)) t (1-cos^2 t) d0,
    # so the convergence step is predictable in closed form
    t, tol = 0.6, 1e-10
    omega = np.diag([0.8, 0.2]).astype(complex)
    rho0 = np.diag([0.2, 0.8]).astype(complex)
    ch = partial_swap_channel(omega, t)
    c2 = np.cos(t) ** 2
    d0 = qmath.trace_distance(rho0, omega)
    predicted = math.ceil(math.log(tol / ((1 - c2) * d0)) / math.log(c2)) + 1
    rho, used = iterative_fixed_point(ch, rho0, tol=tol)
    assert abs(used - predicted) <= 2
    assert used == 59  # frozen for this exact parameter set
    assert np.abs(rho - omega).max() < 1e-9


def test_iterative_fixed_point_on_constant_channel(rng):
    # one collision lands exactly on the fixed point; detection needs at
    # most one more step to see a zero residual
    omega = qmath.random_density(2, rng)
    ch = CollisionChannel(SWAP2, omega, (2,))
    rho, used = iterative_fixed_point(ch, qmath.random_density(2, rng))
    assert used <= 2
    assert np.abs(rho - omega).max() < 1e-12


def test_iterative_fixed_point_failure_payload():
    # pure system precession never settles
    ch = build_channel(qmath.PAULI_Z, np.zeros((4, 4)),
                       np.eye(2, dtype=complex) / 2, 1.0)
    plus = qmath.projector(np.array([1, 1]) / np.sqrt(2))
    with pytest.raises(ConvergenceError) as info:
        iterative_fixed_point(ch, plus, tol=1e-12, max_iter=40)
    assert info.value.iterations == 40
    assert info.value.residual > 1e-12
    assert "is_relaxing" in str(info.value)


def test_iterative_fixed_point_input_validation(rng):
    ch = partial_swap_channel(qmath.random_density(2, rng), 0.5)
    with pytest.raises(ValueError):
        iterative_fixed_point(ch, np.eye(2) / 2, tol=0.0)
    with pytest.raises(ShapeError):
        iterative_fixed_point(ch, np.eye(4) / 4)


@pytest.mark.parametrize("dim", [2, 4, 8])
def test_nan_point_ends_alone_in_its_lockstep_group(dim, rng):
    # eigvalsh raises on a NaN matrix above dim 2: a NaN point must end as
    # its own ConvergenceError and leave its neighbour's outcome as it is
    kraus = CollisionChannel(qmath.random_unitary(2 * dim, rng),
                             qmath.random_density(2, rng), (2,))._kraus
    rho0 = qmath.random_density(dim, rng)
    nan_state = np.full((dim, dim), np.nan, dtype=complex)
    want = iterate_until(kraus, rho0, 1e-9, 5000)
    assert want[3], "the random channel should relax within 5000 collisions"
    got = iterate_until(np.stack([kraus, kraus]), np.stack([rho0, nan_state]),
                        1e-9, 5000)
    assert np.array_equal(got[0][0], want[0])
    assert (got[1][0], got[2][0], got[3][0]) == want[1:]
    good, lost = convergence._iterated_fixed_points(
        [kraus, kraus], [rho0, nan_state], 1e-9, 5000
    )
    assert np.array_equal(good[0], want[0]) and good[1] == want[1]
    assert isinstance(lost, ConvergenceError) and math.isnan(lost.residual)


def test_factorized_count_connected_chain():
    # two coupled sites plus an ancilla on the end: only the homogeneous
    # product eigenvector survives
    dims = [2, 2, 2]
    h = network.swap_operator(dims, 0, 1) + network.swap_operator(dims, 1, 2)
    assert factorized_eigenvector_count(h, dims, [1, 0]) == 1


def test_factorized_count_disconnected_network():
    # site 0 uncoupled: each of its basis states tensors into a factorized
    # eigenvector, so the count exceeds 1
    dims = [2, 2, 2]
    h = network.swap_operator(dims, 1, 2)
    assert factorized_eigenvector_count(h, dims, [1, 0]) == 2


def test_factorized_count_minimal_case_exhaustive():
    # single site + ancilla under a full swap: the +1 eigenspace holds
    # |00> and the -1 eigenspace holds nothing of the form |E> (x) |0>
    assert factorized_eigenvector_count(SWAP2, [2, 2], [1, 0]) == 1


def test_factorized_count_xxz_chain():
    spec = network.NetworkSpec(network.chain_graph(2), model="xxz", delta=0.7)
    dims = [2, 2, 2]
    h = (qmath.tensor([network.system_hamiltonian(spec), np.eye(2)])
         + network.swap_operator(dims, 1, 2))
    assert factorized_eigenvector_count(h, dims, [1, 0]) == 1


def test_factorized_count_validation():
    with pytest.raises(ValueError):
        factorized_eigenvector_count(SWAP2, [2, 2], [1, 1])  # not normalized
    with pytest.raises(ShapeError):
        factorized_eigenvector_count(SWAP2, [2, 3], [1, 0])
    with pytest.raises(ShapeError):
        factorized_eigenvector_count(np.eye(8), [2, 2], [1, 0])


def test_haag_mixture_preserves_relaxing(rng):
    omega = qmath.random_density(2, rng)
    base = partial_swap_channel(omega, 0.5).superoperator()
    other = unitary_conjugation_sop(qmath.random_unitary(2, rng))
    for p in (1.0, 0.5, 0.1):
        report = haag_mixture_check(base, other, p)
        assert report.relaxing, f"p={p}: {report.reason}"
        assert report.spectral_gap > 0.0
    # mixing with another relaxing channel also stays relaxing
    other_relaxing = partial_swap_channel(qmath.random_density(2, rng),
                                          0.9).superoperator()
    assert haag_mixture_check(base, other_relaxing, 0.3).relaxing


def test_haag_mixture_validation(rng):
    base = partial_swap_channel(qmath.random_density(2, rng),
                                0.5).superoperator()
    other = unitary_conjugation_sop(qmath.random_unitary(2, rng))
    with pytest.raises(ValueError):
        haag_mixture_check(base, other, 0.0)
    with pytest.raises(ValueError):
        haag_mixture_check(base, other, 1.5)
    with pytest.raises(ShapeError):
        haag_mixture_check(base, unitary_conjugation_sop(np.eye(3)), 0.5)


def test_forgetting_metric_identical_inputs(rng):
    chans = [partial_swap_channel(qmath.random_density(2, rng), 0.4)
             for _ in range(3)]
    rho = qmath.random_density(2, rng)
    assert forgetting_metric(chans, rho, rho) == [0.0, 0.0, 0.0, 0.0]


def test_forgetting_metric_decays_and_is_monotone(rng):
    omega = qmath.random_density(2, rng)
    chans = [partial_swap_channel(omega, 0.6)] * 40
    rho1, rho2 = (qmath.random_density(2, rng) for _ in range(2))
    series = forgetting_metric(chans, rho1, rho2)
    assert len(series) == 41
    assert np.isclose(series[0], qmath.trace_distance(rho1, rho2), atol=1e-10)
    for a, b in zip(series, series[1:]):
        assert b <= a + 1e-10
    assert series[-1] < 1e-6
    with pytest.raises(ValueError):
        forgetting_metric([], rho1, rho2)


def test_forgetting_metric_equals_per_step_trace_norms(rng):
    # the batched trace norms reproduce one hermitian_trace_norm per step
    pert = [qmath.random_density(2, rng) for _ in range(200)]
    seq = collision.ControllerSequence(
        np.diag([0.8, 0.2]),
        tuple((float(rng.uniform(0.5, 1.0)), p) for p in pert),
    )
    chans = collision.imperfect_controller_sequence(
        qmath.random_hermitian(2, rng), SWAP2, 0.5, seq
    )
    rho1, rho2 = (qmath.random_density(2, rng) for _ in range(2))
    traj1 = collision.apply_sequence(chans, rho1)
    traj2 = collision.apply_sequence(chans, rho2)
    expected = [hermitian_trace_norm(a - b) for a, b in zip(traj1, traj2)]
    series = forgetting_metric(chans, rho1, rho2)
    assert series == expected
    assert all(type(v) is float for v in series)


@pytest.mark.parametrize("dim", [2, 4])
def test_stacked_states_follow_the_per_state_loop(rng, dim):
    # one pass over a stacked pair of states gives, bit for bit, the states
    # and the forgetting series of one kernel call per state and channel
    chans = [CollisionChannel(qmath.random_unitary(2 * dim, rng),
                              qmath.random_density(2, rng), (2,))
             for _ in range(30)]
    rho1, rho2 = (qmath.random_density(dim, rng) for _ in range(2))
    loops = []
    for rho in (rho1, rho2):
        states = [rho]
        for ch in chans:
            states.append(apply_kraus(ch.kraus_operators(), states[-1]))
        loops.append(states)
    stacked = collision.apply_sequence(chans, np.stack([rho1, rho2]))
    for pair, one, two in zip(stacked, *loops):
        assert np.array_equal(pair, np.stack([one, two]))
    expected = [hermitian_trace_norm(a - b) for a, b in zip(*loops)]
    assert forgetting_metric(chans, rho1, rho2) == expected


def test_fixed_point_guards_refuse_nan():
    # a NaN coherence passes no PSD check, and a NaN superoperator no
    # residual check; neither may return a state
    ident = Superoperator(dim=2, matrix=np.eye(4, dtype=complex))
    vals = np.array([1.0])
    with pytest.raises(FixedPointNumericalError, match="eigenvalue nan"):
        convergence._extract_fixed_point(
            ident, vals, lambda k: np.array([1.0, np.nan, np.nan, 0.0])
        )
    nan_sop = Superoperator(dim=2, matrix=np.full((4, 4), np.nan))
    with pytest.raises(FixedPointNumericalError, match="residual nan"):
        convergence._extract_fixed_point(
            nan_sop, vals, lambda k: np.array([0.5, 0.0, 0.0, 0.5])
        )


def test_check_invariance_swap_network(rng):
    # U built from swaps commutes with omega (x) omega
    omega = qmath.random_density(2, rng)
    u = qmath.unitary_from_hamiltonian(SWAP2, 0.7)
    norm, ok = check_invariance(u, omega, omega)
    assert ok and norm < 1e-9


def test_check_invariance_xxz_diagonal_bath():
    # the anisotropic chain conserves total excitation number, and a
    # product of identical diagonal states is a function of that number
    dims = [2, 2, 2]
    spec = network.NetworkSpec(network.chain_graph(2), model="xxz", delta=0.3)
    h = (qmath.tensor([network.system_hamiltonian(spec), np.eye(2)])
         + network.swap_operator(dims, 1, 2))
    u = qmath.unitary_from_hamiltonian(h, 0.5)
    omega = np.diag([0.7, 0.3]).astype(complex)
    norm, ok = check_invariance(u, qmath.tensor([omega, omega]), omega)
    assert ok and norm < 1e-9


def test_check_invariance_detects_violation():
    # same chain at delta = 0 with a coherence-carrying bath state: the
    # homogeneous product is not stationary under the joint unitary
    dims = [2, 2, 2]
    spec = network.NetworkSpec(network.chain_graph(2), model="xxz", delta=0.0)
    h = (qmath.tensor([network.system_hamiltonian(spec), np.eye(2)])
         + network.swap_operator(dims, 1, 2))
    u = qmath.unitary_from_hamiltonian(h, 0.5)
    minus = qmath.projector(np.array([1, -1]) / np.sqrt(2))
    norm, ok = check_invariance(u, qmath.tensor([minus, minus]), minus)
    assert not ok and norm > 1e-3
    with pytest.raises(ShapeError):
        check_invariance(np.eye(4), minus, np.eye(4) / 4)


def test_entropy_ratio_counts_copies():
    omega = np.diag([0.7, 0.3]).astype(complex)
    homogeneous = qmath.tensor([omega, omega, omega])
    assert np.isclose(entropy_ratio(homogeneous, omega), 3.0, atol=1e-12)
    # pure system over mixed bath: ratio collapses to zero
    assert entropy_ratio(qmath.projector([1, 0]), omega) == 0.0


def test_entropy_ratio_undefined_for_pure_bath():
    mixed = np.diag([0.6, 0.4]).astype(complex)
    with pytest.raises(UndefinedRatioError) as info:
        entropy_ratio(mixed, qmath.projector([1, 0]))
    assert info.value.bath_entropy < 1e-12
    assert np.isclose(info.value.system_entropy,
                      qmath.von_neumann_entropy(mixed), atol=1e-12)
