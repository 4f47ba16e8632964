import numpy as np
import pytest

from mediahom import qmath
from mediahom.errors import ShapeError


# Independent reference implementations; deliberately brute-force so they
# share no code with the library routines they check.

def kron_oracle(a, b):
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k, j * cb + l] = a[i, j] * b[k, l]
    return out


def partial_trace_oracle(op, dims, keep):
    keep = sorted(keep)
    traced = [i for i in range(len(dims)) if i not in keep]
    dk = int(np.prod([dims[i] for i in keep]))
    out = np.zeros((dk, dk), dtype=complex)
    shaped = op.reshape(list(dims) + list(dims))
    for row in np.ndindex(*[dims[i] for i in keep]):
        for col in np.ndindex(*[dims[i] for i in keep]):
            acc = 0.0 + 0.0j
            for tr in np.ndindex(*[dims[i] for i in traced]):
                left, right = [0] * len(dims), [0] * len(dims)
                for pos, i in enumerate(keep):
                    left[i], right[i] = row[pos], col[pos]
                for pos, i in enumerate(traced):
                    left[i] = right[i] = tr[pos]
                acc += shaped[tuple(left) + tuple(right)]
            r = sum(row[pos] * int(np.prod([dims[i] for i in keep[pos + 1:]]))
                    for pos in range(len(keep)))
            c = sum(col[pos] * int(np.prod([dims[i] for i in keep[pos + 1:]]))
                    for pos in range(len(keep)))
            out[r, c] = acc
    return out


def expm_taylor(h, t, terms=30):
    a = -1j * t * h
    out = np.eye(h.shape[0], dtype=complex)
    term = np.eye(h.shape[0], dtype=complex)
    for k in range(1, terms):
        term = term @ a / k
        out = out + term
    return out


def test_tensor_identities():
    eye2 = np.eye(2)
    assert np.array_equal(qmath.tensor([eye2, eye2]), np.eye(4))
    assert np.allclose(
        qmath.tensor([qmath.PAULI_Z, qmath.PAULI_Z]), np.diag([1, -1, -1, 1])
    )


def test_tensor_matches_index_oracle(rng):
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    assert np.allclose(qmath.tensor([a, b]), kron_oracle(a, b), atol=1e-12)


def test_tensor_is_associative(rng):
    mats = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            for _ in range(3)]
    left = qmath.tensor([qmath.tensor(mats[:2]), mats[2]])
    right = qmath.tensor([mats[0], qmath.tensor(mats[1:])])
    assert np.allclose(left, right, atol=1e-12)


def test_tensor_rejects_empty_list():
    with pytest.raises(ValueError):
        qmath.tensor([])


def test_partial_trace_product_state(rng):
    rho = qmath.random_density(2, rng)
    sigma = qmath.random_density(3, rng)
    reduced = qmath.partial_trace(qmath.tensor([rho, sigma]), [2, 3], keep=[0])
    assert np.allclose(reduced, rho, atol=1e-12)


def test_partial_trace_bell_marginal():
    bell = np.zeros((4, 4), dtype=complex)
    bell[0, 0] = bell[0, 3] = bell[3, 0] = bell[3, 3] = 0.5
    reduced = qmath.partial_trace(bell, [2, 2], keep=[0])
    assert np.allclose(reduced, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_matches_brute_force(rng):
    op = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    got = qmath.partial_trace(op, [2, 2, 2], keep=[0, 2])
    assert np.allclose(got, partial_trace_oracle(op, [2, 2, 2], [0, 2]),
                       atol=1e-12)
    # trace preserved for arbitrary keep sets
    assert np.isclose(qmath.partial_trace(op, [2, 2, 2], keep=[1]).trace(),
                      op.trace(), atol=1e-12)


def test_partial_trace_product_rule(rng):
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    y = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    got = qmath.partial_trace(qmath.tensor([x, y]), [3, 2], keep=[0])
    assert np.allclose(got, np.trace(y) * x, atol=1e-12)


def test_partial_trace_shape_mismatch():
    with pytest.raises(ShapeError):
        qmath.partial_trace(np.eye(6), [2, 2], keep=[0])
    with pytest.raises(ShapeError, match="^operator must be a square matrix"):
        qmath.partial_trace(np.ones((2, 3)), [2], keep=[0])
    with pytest.raises(ShapeError, match="^subsystem shape must contain"):
        qmath.partial_trace(np.eye(2), [], keep=[0])
    with pytest.raises(ShapeError, match="^every local dimension must be >= 2"):
        qmath.partial_trace(np.eye(2), [1, 2], keep=[0])
    with pytest.raises(ShapeError, match="^keep must name at least one"):
        qmath.partial_trace(np.eye(4), [2, 2], keep=[])
    with pytest.raises(ShapeError, match=r"^keep indices \[2\] out of range"):
        qmath.partial_trace(np.eye(4), [2, 2], keep=[2])


def test_hermitian_eig_pauli_spectra():
    vals, _ = qmath.hermitian_eig(qmath.PAULI_Z)
    assert np.allclose(vals, [-1, 1])
    vals, vecs = qmath.hermitian_eig(qmath.PAULI_X)
    assert np.allclose(vals, [-1, 1])
    # eigenvectors are (|0> -+ |1>)/sqrt(2) up to phase
    for col, sign in zip(vecs.T, (-1, 1)):
        expected = np.array([1, sign]) / np.sqrt(2)
        overlap = abs(np.vdot(expected, col))
        assert np.isclose(overlap, 1.0, atol=1e-12)


def test_hermitian_eig_reconstructs(rng):
    h = qmath.random_hermitian(8, rng)
    vals, vecs = qmath.hermitian_eig(h)
    rebuilt = (vecs * vals) @ vecs.conj().T
    assert np.abs(rebuilt - h).max() < 1e-9
    assert np.abs(vecs.conj().T @ vecs - np.eye(8)).max() < 1e-9


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(ValueError):
        qmath.hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="defect nan"):
        qmath.hermitian_eig(np.full((2, 2), np.nan))


def test_ensure_densities_checks_every_state(rng):
    states = [qmath.random_density(3, rng) for _ in range(4)]
    stack = qmath.ensure_densities(states)
    assert stack.shape == (4, 3, 3) and stack.dtype == complex
    assert np.array_equal(stack, np.array(states))
    assert qmath.ensure_densities(np.zeros((0, 2, 2))).shape == (0, 2, 2)
    for bad in (np.diag([1.5, -0.5, 0.0]), np.eye(3), np.full((3, 3), np.nan)):
        states[2] = bad
        with pytest.raises(ValueError, match="^step 2: not a valid density"):
            qmath.ensure_densities(states, what="step")
    with pytest.raises(ShapeError):
        qmath.ensure_densities(np.eye(2) / 2)


def test_unitary_from_hamiltonian_closed_forms(rng):
    h = qmath.random_hermitian(3, rng)
    assert np.allclose(qmath.unitary_from_hamiltonian(h, 0.0), np.eye(3),
                       atol=1e-12)
    u = qmath.unitary_from_hamiltonian(qmath.PAULI_Z, np.pi / 2)
    assert np.allclose(u, -1j * np.diag([1, -1]), atol=1e-12)


def test_unitary_matches_power_series(rng):
    h = qmath.random_hermitian(4, rng)
    u = qmath.unitary_from_hamiltonian(h, 0.3)
    assert np.abs(u - expm_taylor(h, 0.3)).max() < 1e-8
    assert np.abs(u.conj().T @ u - np.eye(4)).max() < 1e-9


def test_unitary_group_property(rng):
    h = qmath.random_hermitian(4, rng)
    ut = qmath.unitary_from_hamiltonian(h, 0.4)
    us = qmath.unitary_from_hamiltonian(h, 0.9)
    uts = qmath.unitary_from_hamiltonian(h, 1.3)
    assert np.abs(ut @ us - uts).max() < 1e-8


def test_trace_norm_values(rng):
    assert np.isclose(qmath.trace_norm(qmath.random_density(3, rng)), 1.0)
    assert np.isclose(qmath.trace_norm(qmath.PAULI_Z), 2.0)
    # independent route: eigenvalues of A^dag A
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    expected = np.sqrt(np.linalg.eigvalsh(a.conj().T @ a)).sum()
    assert np.isclose(qmath.trace_norm(a), expected, atol=1e-10)


def test_trace_norm_unitary_invariance(rng):
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    u = qmath.random_unitary(4, rng)
    v = qmath.random_unitary(4, rng)
    assert np.isclose(qmath.trace_norm(u @ a @ v), qmath.trace_norm(a),
                      atol=1e-9)


def test_trace_distance_spans_zero_to_two():
    # orthogonal pure states sit at the top of the un-halved range
    d = qmath.trace_distance(qmath.projector([1, 0]), qmath.projector([0, 1]))
    assert np.isclose(d, 2.0)


def test_entropy_values():
    assert qmath.von_neumann_entropy(qmath.projector([1, 0])) == 0.0
    assert np.isclose(qmath.von_neumann_entropy(np.eye(2) / 2), 1.0)
    # binary entropy h(0.25)
    h = -(0.25 * np.log2(0.25) + 0.75 * np.log2(0.75))
    assert np.isclose(qmath.von_neumann_entropy(np.diag([0.25, 0.75])), h,
                      atol=1e-12)


def test_pure_state_entropy_is_positive_zero():
    # -0.0 would print as "-0" in a CSV cell
    for rho in (qmath.projector([1, 0]), np.diag([0.0, 1.0, 0.0])):
        entropy = qmath.von_neumann_entropy(rho)
        assert entropy == 0.0 and np.copysign(1.0, entropy) == 1.0


def test_entropy_additive_on_products(rng):
    rho = qmath.random_density(2, rng)
    sigma = qmath.random_density(3, rng)
    total = qmath.von_neumann_entropy(qmath.tensor([rho, sigma]))
    assert np.isclose(
        total,
        qmath.von_neumann_entropy(rho) + qmath.von_neumann_entropy(sigma),
        atol=1e-9,
    )


def test_entropy_rejects_non_state():
    with pytest.raises(ValueError):
        qmath.von_neumann_entropy(np.diag([1.5, -0.5]))


def test_concurrence_known_states(rng):
    bell = qmath.projector(np.array([1, 0, 0, 1]) / np.sqrt(2))
    assert np.isclose(qmath.concurrence(bell), 1.0)
    product = qmath.tensor([qmath.random_density(2, rng),
                            qmath.random_density(2, rng)])
    assert qmath.concurrence(product) < 1e-8
    # Werner mixture: C = max(0, (3p-1)/2) gives 0.7 at p = 0.8
    werner = 0.8 * bell + 0.2 * np.eye(4) / 4
    assert np.isclose(qmath.concurrence(werner), 0.7, atol=1e-12)


def test_concurrence_needs_two_qubits():
    with pytest.raises(ShapeError):
        qmath.concurrence(np.eye(8) / 8)


def test_validate_density_reports():
    assert qmath.validate_density(np.eye(2) / 2).passed
    report = qmath.validate_density(np.diag([1.5, -0.5]))
    assert not report.passed
    assert report.min_eigenvalue < -0.4


def test_validate_density_tolerates_tiny_noise(rng):
    rho = qmath.random_density(4, rng)
    noise = 1e-12 * qmath.random_hermitian(4, rng)
    assert qmath.validate_density(rho + noise, 1e-10).passed


def test_embed_acts_as_identity_elsewhere(rng):
    op = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    embedded = qmath.embed([2, 2, 2], {1: op})
    assert np.allclose(embedded, qmath.tensor([np.eye(2), op, np.eye(2)]),
                       atol=1e-12)
    with pytest.raises(ShapeError, match="^factor 1 has dimension 2, "
                                         "operator is 3x3"):
        qmath.embed([2, 2, 2], {1: np.eye(3)})


def test_basis_and_projector():
    ket = qmath.basis_ket(3, 1)
    assert np.array_equal(ket, [0, 1, 0])
    assert np.allclose(qmath.projector(ket), np.diag([0, 1, 0]))
    with pytest.raises(ValueError):
        qmath.basis_ket(2, 5)


def test_state_helpers_reexported_at_package_root():
    import mediahom

    # downstream code analyses returned states through the root namespace
    for name in ("tensor", "partial_trace", "trace_norm", "trace_distance",
                 "von_neumann_entropy", "concurrence", "validate_density",
                 "ensure_density"):
        assert getattr(mediahom, name) is getattr(qmath, name)
        assert name in mediahom.__all__
