"""Checks of the benchmark's reference module against closed forms.

Run:  python3 -m pytest perfbench/test_reference.py
"""

import numpy as np
import pytest

import inputs
import reference as ref


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def test_swap_exchanges_qubits():
    ket01 = np.zeros(4)
    ket01[1] = 1.0
    assert np.allclose(ref.swap(2, 0, 1) @ ket01, np.eye(4)[2])
    s = ref.swap(3, 0, 2)
    assert np.allclose(s @ s, np.eye(8))


def test_full_swap_hands_the_qubit_the_bath_state(rng):
    omega, rho = inputs.random_densities(rng, (2,), 2)
    u = ref.joint_unitary(np.zeros((2, 2)), [0], np.pi / 2)
    assert np.allclose(ref.apply_collision(u, rho, omega), omega, atol=1e-12)


def test_swapped_qubit_relaxes_to_its_bath(rng):
    omega = inputs.random_densities(rng, (), 2)
    u = ref.joint_unitary(np.zeros((2, 2)), [0], 0.5)
    rho = ref.fixed_point(ref.superoperator(u, omega, 2), 2)
    assert np.allclose(rho, omega, atol=1e-10)


def test_superoperator_matches_explicit_collision(rng):
    omega = inputs.random_densities(rng, (), 2)
    u = ref.joint_unitary(ref.xxz(2, 0.3), [1], 0.7)
    s = ref.superoperator(u, omega, 4)
    for rho in inputs.random_densities(rng, (3,), 4):
        direct = ref.apply_collision(u, rho, omega)
        assert np.allclose((s @ rho.reshape(16)).reshape(4, 4), direct, atol=1e-12)


def test_fixed_point_refuses_a_degenerate_map():
    with pytest.raises(ValueError):
        ref.fixed_point(np.eye(4, dtype=complex), 2)


def test_reduce_to_inverts_kron(rng):
    a, b, c = inputs.random_densities(rng, (3,), 2)
    joint = np.kron(np.kron(a, b), c)
    assert np.allclose(ref.reduce_to(joint, 3, [0, 2]), np.kron(a, c))
    assert ref.p_zero(joint, 3, 1) == pytest.approx(b[0, 0].real)


def test_entropy_and_concurrence_closed_forms():
    bell = np.zeros(4)
    bell[[0, 3]] = 1 / np.sqrt(2)
    pure = np.outer(bell, bell).astype(complex)
    assert ref.concurrence(pure) == pytest.approx(1.0)
    assert ref.entropy_bits(ref.reduce_to(pure, 2, [0])) == pytest.approx(1.0)
    assert ref.concurrence(np.eye(4, dtype=complex) / 4) == 0.0
