import json
import math
import pathlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment
from scipy.sparse.csgraph import connected_components

from mediahom import collision, convergence, network, qmath, scenario
from mediahom._kernels import (
    apply_kraus,
    hermitian_trace_norm,
    iterate_to_target,
    iterate_until,
)
from mediahom.collision import CollisionChannel, Superoperator, build_channel
from mediahom.config import parse_config, set_by_path
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
    CapacityError,
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


def split_vals(split):
    """The eigenvalues of a split's blocks, concatenated in split order."""
    return np.concatenate([block.eigvals() for block in split])


def dense_fixed_point(matrix, side):
    """The oracle: dense eig's eigenvector of the eigenvalue nearest 1.

    Returns the vector scaled to trace 1, and the state it gives once
    Hermitian-symmetrized and normalized.
    """
    vals, vecs = np.linalg.eig(matrix)
    vec = vecs[:, np.argmin(np.abs(vals - 1.0))]
    vec = vec / vec.reshape(side, side).trace()
    rho = vec.reshape(side, side)
    rho = (rho + rho.conj().T) / 2.0
    return vec, rho / rho.trace().real


def eigenvalue_one_block(matrix):
    """The one block of the split with an eigenvalue within tol of 1."""
    (block,) = [b for b in convergence._split(matrix)
                if (np.abs(b.eigvals() - 1.0) <= PERIPHERAL_ATOL).any()]
    return block


def solved_vector(matrix, side):
    """The bordered solve on the block that holds eigenvalue 1."""
    return convergence._solved_fixed_point(eigenvalue_one_block(matrix), side)


def never_solve(monkeypatch):
    """Make any bordered solve fail the test."""
    def refuse(*args):
        raise AssertionError("the bordered solve ran")
    monkeypatch.setattr(convergence, "_solved_fixed_point", refuse)


@pytest.mark.parametrize("case", BLOCK_CASES)
def test_blocked_spectrum_matches_dense_oracle(case):
    raw, splits = BLOCK_CASES[case]
    sop = scenario_sop(**raw)
    split = convergence._split(sop.matrix)
    vals = split_vals(split)
    dense_vals = np.linalg.eigvals(sop.matrix)
    assert_same_multiset(vals, dense_vals)

    # block structure, found independently of the code under test: each
    # block of the split, and each twin it stands for, is one component
    linked = np.abs(sop.matrix) > BLOCK_SPLIT_RTOL * np.abs(sop.matrix).max()
    n_blocks, labels = connected_components(
        linked, directed=True, connection="weak"
    )
    assert (n_blocks > 1) == splits
    components = sorted(np.flatnonzero(labels == label).tolist()
                        for label in range(n_blocks))
    covered = sorted(sorted(idx.tolist()) for block in split
                     for idx in (block.idx, block.mirror) if idx is not None)
    assert covered == components

    # the solve on the block of eigenvalue 1 is the dense eigenvector
    oracle_vec, oracle_rho = dense_fixed_point(sop.matrix, sop.dim)
    assert np.abs(solved_vector(sop.matrix, sop.dim) - oracle_vec).max() \
        < 1e-12

    report = is_relaxing(sop)
    assert report.relaxing
    dense_mods = np.sort(np.abs(dense_vals))[::-1]
    assert report.peripheral_count == np.count_nonzero(
        dense_mods > 1.0 - PERIPHERAL_ATOL
    )
    assert abs(report.spectral_gap - (1.0 - dense_mods[1])) < 1e-12
    assert np.abs(report.fixed_point - oracle_rho).max() < 1e-12
    assert np.abs(spectral_fixed_point(sop) - oracle_rho).max() < 1e-12


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
def test_real_form_and_twins_against_dense_oracle(case, monkeypatch):
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

    # every self-twin block is kept in its real form, every twin pair as
    # one block with its mirror; each block's eigenvalues, and its twin's,
    # are those of the dense blocks: the twin's the conjugates
    split = convergence._split(matrix)
    twins = 0
    for block in split:
        assert (block.layout is not None) == (labels[swap[block.idx[0]]]
                                              == labels[block.idx[0]])
        dense = np.linalg.eigvals(matrix[np.ix_(block.idx, block.idx)])
        if block.mirror is not None:
            twins += 1
            mirrored = np.linalg.eigvals(
                matrix[np.ix_(block.mirror, block.mirror)]
            )
            assert_same_multiset(mirrored, dense.conj())
            dense = np.concatenate([dense, mirrored])
        assert_same_multiset(block.eigvals(), dense)
    assert (twins > 0) == has_twins
    assert_same_multiset(split_vals(split), np.linalg.eigvals(matrix))

    # the solve against the dense eigenvector where the channel relaxes;
    # X-conjugation is refused before any solve
    if case == "x_conjugation":
        never_solve(monkeypatch)
        assert not is_relaxing(sop).relaxing
        with pytest.raises(DegenerateFixedPointError):
            spectral_fixed_point(sop)
        return
    oracle_vec, oracle_rho = dense_fixed_point(matrix, side)
    vec = solved_vector(matrix, side)
    assert np.abs(vec - oracle_vec).max() < 1e-12
    assert np.linalg.norm(matrix @ vec - vec) <= 1e-12
    assert np.abs(is_relaxing(sop).fixed_point - oracle_rho).max() < 1e-12


def assert_same_multiset(vals, oracle):
    """Equal eigenvalue multisets, paired by a minimum-distance matching."""
    assert vals.shape == oracle.shape
    dist = np.abs(vals[:, None] - oracle[None, :])
    rows, cols = linear_sum_assignment(dist)
    assert dist[rows, cols].max() < 1e-12


@pytest.mark.parametrize("mirrored_blocks", [False, True])
def test_non_hermiticity_preserving_matrix_matches_dense_eig(mirrored_blocks):
    # a random matrix fails the check and stays a complex block; so does
    # every block of a matrix whose blocks mirror each other but whose
    # entries do not
    rng = np.random.default_rng(7)
    if mirrored_blocks:
        sop = scenario_sop(**BLOCK_CASES["xxz_two_diagonal_baths"][0])
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, sop.matrix.shape))
        matrix = sop.matrix * phases
    else:
        matrix = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    swap = swap_permutation(math.isqrt(matrix.shape[0]))
    assert np.abs(matrix[np.ix_(swap, swap)] - matrix.conj()).max() > 1e-3
    split = convergence._split(matrix)
    assert all(block.layout is None and block.mirror is None
               for block in split)
    n_blocks, _ = connected_components(
        np.abs(matrix) > BLOCK_SPLIT_RTOL * np.abs(matrix).max(),
        directed=True, connection="weak",
    )
    assert len(split) == n_blocks and (n_blocks > 1) == mirrored_blocks
    for block in split:
        assert np.array_equal(block.matrix,
                              matrix[np.ix_(block.idx, block.idx)])
    assert_same_multiset(split_vals(split), np.linalg.eigvals(matrix))


def test_complex_route_serves_diagonal_block_vectors():
    # a random matrix fails the symmetry check and is one complex block
    # holding every diagonal entry
    rng = np.random.default_rng(7)
    matrix = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    (block,) = convergence._split(matrix)
    assert block.layout is None and block.mirror is None
    assert np.array_equal(block.idx, np.arange(16))
    # a random channel is one self-twin block; 1e-9j on the diagonal entry
    # (0, 0) fails its symmetry check, so the block stays complex and the
    # solve runs in complex coordinates.  The oracle is eig of the
    # perturbed matrix.  The bordered system pins the eigenvalue at exactly
    # 1 where the perturbed one is 1 + 5e-10j, so the two agree to first
    # order in the perturbation.
    kraus = isometry_kraus(2, 2, np.random.default_rng(5))
    matrix = kraus_superoperator(kraus)
    matrix[0, 0] += 1e-9j
    (block,) = convergence._split(matrix)
    assert block.layout is None and block.mirror is None
    assert np.abs(block.eigvals() - 1.0).min() > 1e-10
    oracle_vec, oracle_rho = dense_fixed_point(matrix, 2)
    assert np.abs(convergence._solved_fixed_point(block, 2)
                  - oracle_vec).max() < 1e-9
    report = is_relaxing(Superoperator(dim=2, matrix=matrix))
    assert report.relaxing, report.reason
    assert np.abs(report.fixed_point - oracle_rho).max() < 1e-9


@pytest.mark.parametrize("dim", [2, 8])
def test_identity_channel_counts_every_singleton_block(dim, monkeypatch):
    sop = Superoperator(dim=dim, matrix=np.eye(dim * dim, dtype=complex))
    split = convergence._split(sop.matrix)
    assert np.array_equal(split_vals(split), np.ones(dim * dim))
    # a real singleton per diagonal entry (i, i), one twin pair per (i, j)
    # with i < j
    assert sorted((b.idx.size, b.layout is not None, b.mirror is not None)
                  for b in split) == (
        [(1, False, True)] * (dim * (dim - 1) // 2) + [(1, True, False)] * dim
    )
    never_solve(monkeypatch)
    report = is_relaxing(sop)
    assert not report.relaxing
    assert report.peripheral_count == dim * dim


@pytest.mark.parametrize("coherences", [
    [[0.5, 0.5], [0.5, 0.5]],   # a self-twin block, real form
    [[1.0, 0.0], [0.0, 0.5]],   # twins that fail the check, complex blocks
], ids=["self_twin", "failed_twins"])
def test_eigenvalue_one_without_diagonal_entry_is_traceless(coherences):
    # eigenvalue 1 in the block of the coherences (0, 1) and (1, 0): every
    # vector there has trace 0, so there is no fixed point to extract
    matrix = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
    matrix[1:3, 1:3] = coherences
    sop = Superoperator(dim=2, matrix=matrix)
    block = eigenvalue_one_block(matrix)
    assert 0 not in block.idx and 3 not in block.idx
    with pytest.raises(FixedPointNumericalError, match="traceless"):
        convergence._solved_fixed_point(block, 2)
    report = is_relaxing(sop)
    assert not report.relaxing and report.peripheral_count == 1
    assert "fixed-point eigenvector is traceless" in report.reason
    with pytest.raises(FixedPointNumericalError, match="traceless"):
        spectral_fixed_point(sop)


def test_singular_bordered_system_is_a_numerical_error():
    # the diagonal entries' block has the simple eigenvalue 1 with the
    # traceless eigenvector (1, -1), and 0.5 with (1, 1): the bordered
    # system is exactly singular, and refused as a numerical failure
    matrix = np.diag([0.75, 0.5, 0.5, 0.75]).astype(complex)
    matrix[0, 3] = matrix[3, 0] = -0.25
    sop = Superoperator(dim=2, matrix=matrix)
    report = is_relaxing(sop)
    assert not report.relaxing and report.peripheral_count == 1
    assert "bordered fixed-point system is singular" in report.reason
    with pytest.raises(FixedPointNumericalError, match="singular"):
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
    # a Kraus stack with one NaN entry builds no such matrix, but the
    # split reads the same entries from it
    channel = partial_swap_channel(np.diag([0.7, 0.3]), 0.5)
    channel._kraus = channel._kraus.copy()
    channel._kraus[0, 0, 1] = np.nan
    for sop in (Superoperator(dim=2, matrix=off_diagonal),
                Superoperator(dim=2, matrix=np.full((4, 4), np.inf,
                                                    dtype=complex)),
                channel):
        with pytest.raises(np.linalg.LinAlgError):
            is_relaxing(sop)
        with pytest.raises(np.linalg.LinAlgError):
            spectral_fixed_point(sop)


def assert_same_split(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a.idx, b.idx)
        assert a.layout == b.layout
        assert (a.mirror is None) == (b.mirror is None)
        assert a.mirror is None or np.array_equal(a.mirror, b.mirror)
        assert a.matrix.dtype == b.matrix.dtype
        assert np.array_equal(a.matrix, b.matrix)


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40),
       density=st.floats(0.0, 0.15))
def test_components_are_the_weak_components_of_a_directed_graph(
        seed, n, density):
    # sparse one-way links, so a component is often joined only against
    # the direction of some of its links; _link reads them three rows at a
    # time, so links also cross bands
    directed = np.random.default_rng(seed).random((n, n)) < density
    _, labels = connected_components(directed, directed=True,
                                     connection="weak")
    root = np.arange(n)
    convergence._link(directed.astype(complex), np.empty((3, n), complex),
                      0.5, root)
    # every index ends at the smallest index of its component
    smallest = np.array([np.argmax(labels == label) for label in labels],
                        dtype=int)
    assert np.array_equal(root, smallest)


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([2, 4, 8]),
       rank=st.integers(1, 4))
def test_kraus_split_equals_dense_split_on_random_channels(seed, dim, rank):
    # an ancilla of dim `rank` in |0> gives `rank` Kraus operators
    rng = np.random.default_rng(seed)
    channel = CollisionChannel(qmath.random_unitary(dim * rank, rng),
                               qmath.projector(np.eye(rank)[0]), (rank,))
    assert_same_split(convergence._split(channel._superoperator_rows()),
                      convergence._split(channel.superoperator().matrix))


def bundled_points():
    """Every point of the bundled configs: 2 single runs and 71 sweep points."""
    for name in sorted(CONFIGS.glob("*.json")):
        raw = json.loads(name.read_text())
        sweep = raw.get("sweep")
        if sweep is None:
            yield raw
            continue
        for value in parse_config(raw).sweep.values:
            yield set_by_path(raw, sweep["param"], value)


def test_kraus_split_equals_dense_split_on_bundled_points(monkeypatch):
    # the entries S[(i, i), (k, k)] hold max|S| on every bundled point, so
    # each split links its rows in one pass
    passes = []

    def counting(*args, _run=convergence._link):
        passes.append(args[0])
        return _run(*args)

    monkeypatch.setattr(convergence, "_link", counting)
    count = 0
    for raw in bundled_points():
        cfg = parse_config(raw)
        framed, _ = scenario._framed_channel(cfg, build_scenario_channel(cfg))
        rows = framed._superoperator_rows()
        assert_same_split(convergence._split(rows),
                          convergence._split(framed.superoperator().matrix))
        assert sum(source is rows for source in passes) == 1
        count += 1
    assert count == 73


def test_split_tolerance_follows_the_largest_entry():
    # not completely positive: the largest entry is off the diagonal pairs
    # S[(i, i), (k, k)], so the split must link its rows again at the
    # tolerance of the true maximum, where S[0, 3] is no link
    matrix = np.diag([1e-3, 1.0, 1.0, 1e-3]).astype(complex)
    matrix[0, 3] = 1e-16
    assert 1e-16 > BLOCK_SPLIT_RTOL * 1e-3
    covered = sorted(idx.tolist() for block in convergence._split(matrix)
                     for idx in (block.idx, block.mirror) if idx is not None)
    assert covered == [[0], [1], [2], [3]]


def test_split_pairs_a_block_only_with_a_twin_of_its_size():
    # the swap maps block {1} onto index 2 of the larger block {2, 3}, and
    # S[2, 2] = conj(S[1, 1]) passes the conjugate check; {1} must stay a
    # block of its own, or index 3 drops out of the split
    a = 0.3 + 0.2j
    matrix = np.diag([1.0, a, a.conjugate(), 0.5])
    matrix[2, 3] = matrix[3, 2] = 0.1
    split = convergence._split(matrix)
    covered = sorted(i for block in split for idx in (block.idx, block.mirror)
                     if idx is not None for i in idx.tolist())
    assert covered == [0, 1, 2, 3]
    assert_same_multiset(split_vals(split), np.linalg.eigvals(matrix))


def test_split_holds_no_n_by_n_array():
    # conjugation by a diagonal unitary has a diagonal S, so each entry
    # (i, j) of a d = 32 state is a block, kept once with its twin (j, i)
    phases = np.exp(2j * np.pi * np.random.default_rng(7).random(32))
    channel = CollisionChannel(np.kron(np.diag(phases), np.eye(2)),
                               qmath.projector([1, 0]), (2,))
    rows = channel._superoperator_rows()
    n = rows.shape[0]
    tracemalloc.start()
    try:
        split = convergence._split(rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(split) == 32 + 32 * 31 // 2
    # a boolean n x n link graph alone would take n**2 bytes, 1 MiB
    assert peak < n * n


def test_channel_route_refuses_large_systems_before_allocating():
    # the dense superoperator would be 128**4 complex entries, 4.3 GB; the
    # limit is checked before it or any row of the split is allocated
    channel = CollisionChannel(np.eye(2 * 128), qmath.projector([1, 0]), (2,))
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="system dim 64"):
            is_relaxing(channel)
        with pytest.raises(CapacityError):
            spectral_fixed_point(channel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


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


def random_chain_channel(rng, family):
    """A framed scenario channel of a random 2-4 site chain.

    ``"unitary"`` chains have no bath, so their coherence blocks hold
    eigenvalues on the unit circle; ``"weak"`` chains couple their baths
    for ``t <= 0.05``, so every block has eigenvalues near it; ``"mixed"``
    chains have one or two baths, coupled for longer.
    """
    sites = int(rng.integers(2, 5))
    baths = []
    if family != "unitary":
        count = int(rng.integers(1, 3))
        for site in rng.choice(sites, size=count, replace=False):
            state = ({"diag": float(rng.uniform(0.05, 0.95))}
                     if rng.random() < 0.8 else "plus")
            baths.append({"site": int(site), "state": state})
    t = rng.uniform(0.001, 0.05) if family == "weak" else rng.uniform(0.1, 3.0)
    raw = {"model": "swap", "sites": sites, "couplings": {"chain": 1.0},
           "t": float(t), "baths": baths, "initial_state": "ground",
           "analysis": "site_populations"}
    if rng.random() < 0.5:
        raw.update(model="xxz", delta=float(rng.uniform(0.0, 2.0)))
    cfg = parse_config(raw)
    framed, _ = scenario._framed_channel(cfg, build_scenario_channel(cfg))
    return framed


@pytest.mark.parametrize("family", ["unitary", "weak", "mixed"])
def test_certified_verdict_is_the_full_verdict(family, monkeypatch):
    # the site-populations verdict spares the eigenvalues of blocks that
    # _inside certifies; the count, the reason and the fixed point must
    # be is_relaxing's, bit for bit, at every tolerance (1.5 leaves no
    # radius to certify below)
    outcomes = []

    def spy(matrix, radius, _run=convergence._inside):
        outcomes.append(_run(matrix, radius))
        return outcomes[-1]

    monkeypatch.setattr(convergence, "_inside", spy)
    rng = np.random.default_rng(["unitary", "weak", "mixed"].index(family))
    relaxing = 0
    for _ in range(12):
        channel = random_chain_channel(rng, family)
        for tol in (1e-12, PERIPHERAL_ATOL, 1e-3, 0.5, 1.5):
            peripheral, fixed, reason = convergence._certified_verdict(
                channel, tol)
            report = is_relaxing(channel, tol)
            assert peripheral == report.peripheral_count
            assert (fixed is not None) == report.relaxing
            if fixed is None:
                assert reason == report.reason
                continue
            relaxing += 1
            assert reason is None
            rho, residual = fixed
            assert np.array_equal(rho, report.fixed_point)
            assert residual == report.residual
    # a unitary chain's coherence blocks keep their eigenvalues on the
    # circle, so none is certified; with a bath coupled, some are, and the
    # chain relaxes at some tolerance
    assert False in outcomes
    assert (True in outcomes) == (family != "unitary")
    assert (relaxing > 0) == (family != "unitary")


def test_certificate_refuses_what_it_cannot_prove():
    small = np.full((3, 3), 0.1, dtype=complex)
    assert convergence._inside(small, 0.5)
    # a nilpotent block passes after one squaring, though its norm is 2
    nilpotent = np.array([[0.0, 2.0], [0.0, 0.0]])
    assert convergence._inside(nilpotent, 1e-3)
    # the bound is strict: |lambda| = 0.5 is not below 0.5, and each
    # power of [[0.5]] is exact
    assert not convergence._inside(np.array([[0.5]]), 0.5)
    assert not convergence._inside(np.array([[0.5]]), 0.0)
    assert not convergence._inside(np.array([[0.0]]), -0.5)
    # a NaN or infinite entry, or a power that overflows, is never
    # certified, and no warning is raised
    with np.errstate(all="raise"):
        for bad in (np.nan, np.inf, -np.inf, complex(np.inf, 1.0)):
            matrix = small.copy()
            matrix[1, 2] = bad
            assert not convergence._inside(matrix, 0.99)
        assert not convergence._inside(np.full((2, 2), 1e200), 0.99)


def test_certificate_squares_into_two_buffers(monkeypatch):
    # ||(I / 2)^(2^j)||_F = 8 / 2^(2^j) < 0.55^(2^j) first holds at j = 5
    # for n = 64, as 1.1^16 < 8 < 1.1^32: the certificate squares five
    # times, into two n x n powers, never a third
    n = 64
    matrix = 0.5 * np.eye(n, dtype=complex)
    tracemalloc.start()
    try:
        assert convergence._inside(matrix, 0.55)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert matrix.nbytes * 2 <= peak < matrix.nbytes * 3
    monkeypatch.setattr(convergence, "_CERTIFICATE_SQUARINGS", 4)
    assert not convergence._inside(matrix, 0.55)


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
    for tol in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            iterative_fixed_point(ch, np.eye(2) / 2, tol=tol)
    for max_iter in (-1, 2.5, True):
        with pytest.raises(ValueError, match="max_iter"):
            iterative_fixed_point(ch, np.eye(2) / 2, max_iter=max_iter)
    with pytest.raises(ShapeError):
        iterative_fixed_point(ch, np.eye(4) / 4)


def isometry_kraus(dim, rank, rng):
    """A random channel: the first block column of a Haar unitary."""
    u = qmath.random_unitary(dim * rank, rng)
    return np.ascontiguousarray(u[:, :dim].reshape(rank, dim, dim))


def kraus_superoperator(kraus):
    return sum(np.kron(k, k.conj()) for k in kraus)


def assert_lifting_matches_kraus(matrix, frame, kraus, rho0, tol, max_iter):
    """The lifted outcome against the one-channel Kraus loop's.

    Same count and flag, the residual within 1e-9 relative and the state
    within ``tol`` in trace norm.  The Kraus residual is the difference of
    two unit-trace states, so it carries an absolute round-off near 1e-15,
    which the 1e-14 allows for.
    """
    start = rho0 if frame is None else frame.conj().T @ rho0 @ frame
    # planned for 10**9 collisions, lifting always pays
    blocks = convergence._lifting_blocks(convergence._split(matrix), start,
                                         len(kraus), 0.0, tol, 10 ** 9)
    got = convergence._lifted_iteration(blocks, start, tol, max_iter)
    if frame is not None:
        got = (frame @ got[0] @ frame.conj().T,) + got[1:]
    want = iterate_until(kraus, rho0, tol, max_iter)
    assert (got[1], got[3]) == (want[1], want[3])
    assert got[2] == pytest.approx(want[2], rel=1e-9, abs=1e-14)
    assert hermitian_trace_norm(got[0] - want[0]) <= tol
    return got


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([2, 4, 8]),
       rank=st.integers(1, 4), log_tol=st.floats(-12, -6),
       max_iter=st.integers(1, 5000))
def test_lifted_iteration_matches_kraus_on_random_channels(
        seed, dim, rank, log_tol, max_iter):
    # rank 1 is a unitary channel, which runs to max_iter
    rng = np.random.default_rng(seed)
    kraus = isometry_kraus(dim, rank, rng)
    assert_lifting_matches_kraus(
        kraus_superoperator(kraus), None, kraus,
        qmath.random_density(dim, rng), 10.0 ** log_tol, max_iter,
    )


CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.parametrize("name,param,value", [
    # two parity blocks of 128, in real form
    ("anisotropy_entanglement_sweep", "delta", 0.5),
    # nine blocks: four conjugate-twin pairs and a real one
    ("anisotropy_entanglement_sweep", "delta", 1.0),
    # a frame that splits nothing: one block of 256
    ("entropy_ratio_sweep", "baths.0.state.mix.0", 0.5),
    # no frame; the ground state touches one block of 20
    ("swap_chain_homogenization", "t", 0.5),
])
def test_lifted_iteration_matches_kraus_on_bundled_points(name, param, value):
    raw = json.loads((CONFIGS / f"{name}.json").read_text())
    cfg = parse_config(set_by_path(raw, param, value))
    channel = build_scenario_channel(cfg)
    framed, frame = scenario._framed_channel(cfg, channel)
    rho0 = scenario._initial_state(cfg, channel.system_dim)
    got = assert_lifting_matches_kraus(framed.superoperator().matrix, frame,
                                       channel._kraus,
                                       np.asarray(rho0, dtype=complex),
                                       cfg.iterate_tol, cfg.max_iter)
    assert got[3]


def test_lifted_iteration_never_converges_on_a_unitary_channel(rng):
    # every step keeps the first step's trace norm
    kraus = qmath.random_unitary(4, rng)[None]
    rho0 = qmath.random_density(4, rng)
    _, used, residual, converged = assert_lifting_matches_kraus(
        kraus_superoperator(kraus), None, kraus, rho0, 1e-10, 300
    )
    assert (used, converged) == (300, False)
    first = hermitian_trace_norm(apply_kraus(kraus, rho0) - rho0)
    assert residual == pytest.approx(first, rel=1e-9)


DAMPING = np.array([[[1, 0], [0, 0.6]], [[0, 0.8], [0, 0]]], dtype=complex)


@pytest.mark.parametrize("kraus,entry", [
    # a random channel is one self-twin block
    (isometry_kraus(2, 2, np.random.default_rng(5)), 0),
    # amplitude damping: the coherences (0, 1) and (1, 0) are twin blocks
    (DAMPING, 1),
], ids=["self_twin", "twin_pair"])
def test_lifting_keeps_a_block_that_fails_its_symmetry_check_complex(
        kraus, entry, rng):
    matrix = kraus_superoperator(kraus)
    # no longer maps Hermitian matrices to Hermitian ones
    matrix[entry, entry] += 1e-9j
    rho0 = qmath.random_density(2, rng)
    blocks = convergence._lifting_blocks(convergence._split(matrix), rho0, 2,
                                         0.0, 1e-9, 10 ** 9)
    (block,) = [b for b in blocks if entry in b.idx]
    assert block.layout is None and block.mirror is None
    state, used, residual, converged = convergence._lifted_iteration(
        blocks, rho0, 1e-9, 500
    )
    # the map is no longer a channel, so the first count is not promised;
    # the state and step at the count found are the dense powers'
    assert converged
    before = np.linalg.matrix_power(matrix, used - 1) @ rho0.ravel()
    after = matrix @ before
    assert np.abs(state - after.reshape(2, 2)).max() <= 1e-12
    step = hermitian_trace_norm((after - before).reshape(2, 2))
    assert residual == pytest.approx(step, rel=1e-9, abs=1e-14)


@pytest.mark.parametrize("dim", [2, 4, 8])
def test_nan_start_never_converges_on_any_route(dim, rng):
    # eigvalsh raises on a NaN matrix above dim 2: each route must stop on
    # a NaN residual instead, with what running on to max_iter gives
    kraus = isometry_kraus(dim, 2, rng)
    nan_state = np.full((dim, dim), np.nan, dtype=complex)
    blocks = convergence._lifting_blocks(
        convergence._split(kraus_superoperator(kraus)), nan_state, 2, 0.0,
        1e-9, 10 ** 9,
    )
    lifted = convergence._lifted_iteration(blocks, nan_state, 1e-9, 5)
    target = np.eye(dim, dtype=complex) / dim
    for _, used, residual, converged in (
        iterate_until(kraus, nan_state, 1e-9, 5),
        iterate_to_target(kraus, nan_state, target, 1e-9, 5),
        lifted,
    ):
        assert (used, converged) == (5, False) and math.isnan(residual)
    with pytest.raises(ConvergenceError) as info:
        convergence._settled(*lifted)
    assert info.value.iterations == 5 and math.isnan(info.value.residual)


def test_lifting_cost_rule_from_block_shapes():
    # the anisotropy sweep's parity blocks at delta = 0.5, with its gap
    parity = [(128, True)] * 2
    assert convergence._lifting_pays(parity, 2, 16, 0.0137520884089, 1e-10,
                                     20000)
    # a gap of 0 plans max_iter collisions
    assert not convergence._lifting_pays(parity, 2, 16, 0.0, 1e-10, 5)
    assert convergence._lifting_pays(parity, 2, 16, 0.0, 1e-10, 20000)
    # the 6-site two-bath chain (d = 64, 16 Kraus operators): a start on
    # every block collides, one on the diagonal block alone lifts
    blocks = [(924, True)] + [(n, False) for n in (792, 495, 220, 66, 12, 1)]
    assert not convergence._lifting_pays(blocks, 16, 64, 0.0441, 1e-10, 20000)
    assert convergence._lifting_pays(blocks[:1], 16, 64, 0.0441, 1e-10, 20000)


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
    with pytest.raises(ValueError, match="normalized"):
        factorized_eigenvector_count(SWAP2, [2, 2], [np.nan, 0])
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


@pytest.mark.filterwarnings("error")
def test_fixed_point_guards_refuse_nan():
    # a NaN coherence passes no PSD check, and a NaN superoperator no
    # residual check; neither may return a state
    ident = Superoperator(dim=2, matrix=np.eye(4, dtype=complex))
    with pytest.raises(FixedPointNumericalError, match="eigenvalue nan"):
        convergence._validated_fixed_point(
            ident.apply, np.array([1.0, np.nan, np.nan, 0.0])
        )
    nan_sop = Superoperator(dim=2, matrix=np.full((4, 4), np.nan))
    with pytest.raises(FixedPointNumericalError, match="residual nan"):
        convergence._validated_fixed_point(
            nan_sop.apply, np.array([0.5, 0.0, 0.0, 0.5])
        )
    # above D = 2, eigvalsh raises on a NaN matrix instead of returning NaN;
    # a NaN trace passes the traceless check and makes every entry NaN
    candidate = np.eye(4, dtype=complex).ravel() / 4
    candidate[0] = np.nan
    with pytest.raises(FixedPointNumericalError, match="eigenvalue nan"):
        convergence._validated_fixed_point(lambda rho: rho, candidate)
    with pytest.raises(FixedPointNumericalError, match="residual nan"):
        convergence._validated_fixed_point(
            lambda rho: np.full_like(rho, np.nan), np.eye(4).ravel() / 4
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
