import numpy as np
import pytest

from mediahom import convergence, qmath
from mediahom._kernels import _two_product_form, apply_kraus, backend_name
from mediahom._kernels import hermitian_trace_norm, iterate_to_target
from mediahom._kernels import iterate_until, trajectory


def damping_kraus(gamma):
    """Amplitude damping channel, a convenient non-unitary test map."""
    k0 = np.array([[1, 0], [0, np.sqrt(1 - gamma)]], dtype=complex)
    k1 = np.array([[0, np.sqrt(gamma)], [0, 0]], dtype=complex)
    return np.ascontiguousarray(np.stack([k0, k1]))


def random_kraus(dim, n_ops, rng):
    """Random channel from the first block column of a Haar unitary."""
    u = qmath.random_unitary(dim * n_ops, rng)
    ops = [u[k * dim:(k + 1) * dim, :dim] for k in range(n_ops)]
    return np.ascontiguousarray(np.stack(ops))


def test_backend_name_is_declared():
    assert backend_name() == "numpy"


def test_apply_kraus_closed_form():
    kraus = damping_kraus(0.36)
    rho = np.array([[0.25, 0.3j], [-0.3j, 0.75]], dtype=complex)
    out = apply_kraus(kraus, rho)
    # amplitude damping: p00 -> p00 + g p11, coherence scales by sqrt(1-g)
    expected = np.array(
        [[0.25 + 0.36 * 0.75, 0.3j * 0.8], [-0.3j * 0.8, 0.75 * 0.64]]
    )
    assert np.abs(out - expected).max() < 1e-12


@pytest.mark.parametrize("dim", [2, 4, 16, 64])
def test_two_product_step_matches_sum_of_conjugations(dim, rng):
    states = np.stack([qmath.random_density(dim, rng) for _ in range(3)])
    for rank in (1, 2, 4, 16):
        kraus = random_kraus(dim, rank, rng)
        rows, adjoints = _two_product_form(kraus)
        assert np.array_equal(rows, np.concatenate(list(kraus)))
        assert np.array_equal(adjoints,
                              np.concatenate([k.conj().T for k in kraus]))
        want = np.stack([sum(k @ rho @ k.conj().T for k in kraus)
                         for rho in states])
        assert np.abs(apply_kraus(kraus, states) - want).max() <= 1e-15
        for rho, expected in zip(states, want):
            assert np.abs(apply_kraus(kraus, rho) - expected).max() <= 1e-15


def test_trace_norm_matches_svd_route(rng):
    h = qmath.random_hermitian(6, rng)
    assert np.isclose(hermitian_trace_norm(h), qmath.trace_norm(h), atol=1e-10)
    assert hermitian_trace_norm(np.zeros((3, 3), dtype=complex)) == 0.0


@pytest.mark.parametrize("dim", [2, 4, 8])
def test_trace_norm_is_nan_exactly_where_a_matrix_is_not_finite(dim, rng):
    # eigvalsh raises on a NaN matrix at D >= 3; the norm never calls it on one
    stack = np.stack([qmath.random_hermitian(dim, rng) for _ in range(4)])
    stack[1, 0, dim - 1] = np.nan
    stack[3, dim - 1, dim - 1] = np.inf
    norms = hermitian_trace_norm(stack)
    assert np.flatnonzero(np.isnan(norms)).tolist() == [1, 3]
    for k in (0, 2):
        assert norms[k] == hermitian_trace_norm(stack[k])
    assert np.isnan(hermitian_trace_norm(stack[3]))


def test_trajectory_shape_and_start(rng):
    kraus = damping_kraus(0.5)
    rho = qmath.random_density(2, rng)
    traj = trajectory(kraus, rho, 4)
    assert traj.shape == (5, 2, 2)
    assert np.array_equal(traj[0], rho)
    # each step must equal a fresh single application
    for k in range(4):
        assert np.abs(traj[k + 1] - apply_kraus(kraus, traj[k])).max() < 1e-13
    # n = 0 returns only the input
    assert trajectory(kraus, rho, 0).shape == (1, 2, 2)


def test_iterate_until_converges_to_fixed_point():
    kraus = damping_kraus(0.4)
    rho0 = np.eye(2, dtype=complex) / 2
    rho, used, residual, converged = iterate_until(kraus, rho0, 1e-12, 500)
    assert converged
    assert residual <= 1e-12
    # amplitude damping relaxes onto |0><0|
    assert np.abs(rho - np.diag([1.0, 0.0])).max() < 1e-10
    # predicted residual after k steps: |p11| decays by (1-g) per step,
    # contributing twice to the trace norm of the step difference
    assert 0 < used < 500


def test_iterate_until_reports_failure(rng):
    # a unitary channel never settles from a non-fixed state
    u = qmath.random_unitary(2, rng)
    kraus = np.ascontiguousarray(u[None, :, :])
    rho, used, residual, converged = iterate_until(
        kraus, qmath.projector([1, 0]), 1e-14, 50
    )
    assert not converged
    assert used == 50
    assert residual > 1e-14


def test_iterate_to_target_zero_iterations():
    kraus = damping_kraus(0.3)
    target = np.diag([1.0, 0.0]).astype(complex)
    rho, used, dist, converged = iterate_to_target(
        kraus, target, target, 1e-12, 100
    )
    assert converged and used == 0 and dist <= 1e-12


def test_iterate_to_target_counts_steps():
    gamma = 0.5
    kraus = damping_kraus(gamma)
    rho0 = np.diag([0.0, 1.0]).astype(complex)
    target = np.diag([1.0, 0.0]).astype(complex)
    rho, used, dist, converged = iterate_to_target(
        kraus, rho0, target, 1e-3, 100
    )
    # distance after k steps is exactly 2 * (1-gamma)^k = 2^(1-k); the first
    # k with 2^(1-k) <= 1e-3 is k = 11 (2^-10 = 9.77e-4)
    assert converged and used == 11
    assert np.isclose(dist, 2.0 * 0.5**11, atol=1e-15)


def exact_loop(kraus, rho0, tol, max_iter, target=None):
    """Reference iteration: the exact eigvalsh trace norm at every step.

    Measures the step-to-step residual, or the distance to ``target`` when
    one is given (then a state already within tol takes zero steps).
    """
    def norm(x):
        return float(np.abs(np.linalg.eigvalsh(x)).sum())

    rho = np.array(rho0, dtype=complex)
    value = np.inf
    if target is not None:
        value = norm(rho - target)
        if value <= tol:
            return rho, 0, value, True
    for k in range(1, max_iter + 1):
        nxt = apply_kraus(kraus, rho)
        value = norm(nxt - (rho if target is None else target))
        rho = nxt
        if value <= tol:
            return rho, k, value, True
    return rho, max_iter, value, False


def assert_same_outcome(got, want):
    """Same state, collision count and flag; residuals within 1e-15."""
    assert (got[1], got[3]) == (want[1], want[3])
    assert got[2] == pytest.approx(want[2], abs=1e-15)
    assert np.array_equal(got[0], want[0])


@pytest.mark.parametrize("dim,n_ops", [(2, 2), (4, 3), (8, 4), (16, 2)])
def test_screened_iteration_matches_exact_loop(dim, n_ops, rng):
    kraus = random_kraus(dim, n_ops, rng)
    rho0 = qmath.random_density(dim, rng)
    for max_iter in (0, 3, 5000):
        want = exact_loop(kraus, rho0, 1e-9, max_iter)
        assert_same_outcome(iterate_until(kraus, rho0, 1e-9, max_iter), want)
    assert want[3], "the random channel should relax within 5000 collisions"
    target = want[0]
    for tol, max_iter in ((1e-6, 5000), (1e-6, 2), (1e-12, 0)):
        want = exact_loop(kraus, rho0, tol, max_iter, target)
        got = iterate_to_target(kraus, rho0, target, tol, max_iter)
        assert_same_outcome(got, want)


def test_screened_iteration_matches_exact_loop_without_convergence(rng):
    # a unitary channel never settles: every step is screened out and the
    # reported residual is still the exact trace norm of the last step
    kraus = np.ascontiguousarray(qmath.random_unitary(2, rng)[None, :, :])
    rho0 = qmath.projector([1, 0])
    want = exact_loop(kraus, rho0, 1e-14, 50)
    assert not want[3]
    assert_same_outcome(iterate_until(kraus, rho0, 1e-14, 50), want)
    target = np.eye(2, dtype=complex) / 2
    want = exact_loop(kraus, rho0, 1e-3, 50, target)
    assert not want[3]
    assert_same_outcome(iterate_to_target(kraus, rho0, target, 1e-3, 50), want)


@pytest.mark.parametrize("dim,ranks", [(2, (2, 4, 1, 2)), (16, (4, 16, 1)),
                                       (32, (1, 8))])
def test_lockstep_iteration_matches_one_channel_at_a_time(dim, ranks, rng):
    # The lifting route moves every block of a channel's superoperator in
    # lockstep, by jumps of 2^j collisions; each channel must get the Kraus
    # loop's count and flag, its residual within 1e-9 relative and its
    # state within tol.  Rank 1 is a unitary channel, which runs to
    # max_iter from a random state; at dim 2 the last channel starts from
    # a NaN state.
    kraus = [random_kraus(dim, rank, rng) for rank in ranks]
    states = [qmath.random_density(dim, rng) for _ in ranks]
    if dim == 2:
        states[-1] = np.full((dim, dim), np.nan, dtype=complex)
    tol, max_iter = 1e-9, 400
    outcomes = set()
    for ops, rho0 in zip(kraus, states):
        matrix = sum(np.kron(k, k.conj()) for k in ops)
        # planned for 10**9 collisions, lifting always pays
        blocks = convergence._lifting_blocks(convergence._split(matrix), rho0,
                                             len(ops), 0.0, tol, 10 ** 9)
        got = convergence._lifted_iteration(blocks, rho0, tol, max_iter)
        want = iterate_until(ops, rho0, tol, max_iter)
        assert (got[1], got[3]) == (want[1], want[3])
        outcomes.add(want[3])
        if np.isnan(want[2]):
            assert np.isnan(got[2])
            continue
        assert got[2] == pytest.approx(want[2], rel=1e-9, abs=1e-14)
        assert hermitian_trace_norm(got[0] - want[0]) <= tol
    assert outcomes == {True, False}, "expected both outcomes"


def test_nan_state_never_converges():
    # a NaN residual stops the loop under either stopping rule
    kraus = damping_kraus(0.4)
    nan_state = np.full((2, 2), np.nan, dtype=complex)
    _, used, residual, converged = iterate_until(kraus, nan_state, 1e-9, 4)
    assert (used, converged) == (4, False) and np.isnan(residual)
    target = np.eye(2, dtype=complex) / 2
    _, used, dist, converged = iterate_to_target(kraus, nan_state, target,
                                                 1e-9, 4)
    assert (used, converged) == (4, False) and np.isnan(dist)


def test_kernels_preserve_trace_and_positivity(rng):
    kraus = random_kraus(4, 3, rng)
    rho = qmath.random_density(4, rng)
    out = apply_kraus(kraus, rho)
    assert np.isclose(out.trace(), 1.0, atol=1e-12)
    assert qmath.validate_density(out).passed
