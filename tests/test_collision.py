import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mediahom import collision, network, qmath, scenario
from mediahom.collision import (
    CollisionChannel,
    ControllerSequence,
    Superoperator,
    apply_sequence,
    build_channel,
    build_two_bath_channel,
    direct_apply,
    imperfect_controller_sequence,
    joint_unitary,
    unvectorize,
    vectorize,
)
from mediahom.config import parse_config
from mediahom.errors import CapacityError, ShapeError
from mediahom.scenario import build_scenario_channel

SWAP2 = network.swap_operator([2, 2], 0, 1)
ZERO = qmath.projector([1, 0])


def partial_swap_channel(omega, t):
    """exp(-i S t) collision with a qubit ancilla; closed form is known."""
    return build_channel(np.zeros((2, 2)), SWAP2, omega, t)


def test_vectorize_row_major():
    rho = np.array([[1, 2], [3, 4]], dtype=complex)
    v = vectorize(rho)
    assert np.array_equal(v, [1, 2, 3, 4])  # vec[i*D + j] = rho[i, j]
    assert np.array_equal(unvectorize(v, 2), rho)


def test_zero_time_channel_is_identity(rng):
    ch = partial_swap_channel(qmath.random_density(2, rng), 0.0)
    rho = qmath.random_density(2, rng)
    assert np.abs(ch.apply(rho) - rho).max() < 1e-12
    # a pure ancilla at t = 0 needs exactly one Kraus operator: the identity
    ch_pure = partial_swap_channel(ZERO, 0.0)
    kraus = ch_pure.kraus_operators()
    assert kraus.shape == (1, 2, 2)
    assert np.abs(kraus[0] - np.eye(2)).max() < 1e-12


def test_full_swap_replaces_state(rng):
    # the swap unitary itself as the collision: output is always omega
    omega = qmath.random_density(2, rng)
    ch = CollisionChannel(SWAP2, omega, (2,))
    for _ in range(3):
        rho = qmath.random_density(2, rng)
        assert np.abs(ch.apply(rho) - omega).max() < 1e-12


def test_full_swap_ground_ancilla_kraus_set():
    ch = CollisionChannel(SWAP2, ZERO, (2,))
    kraus = ch.kraus_operators()
    assert kraus.shape == (2, 2, 2)
    # {|0><0|, |0><1|} up to order
    mods = sorted(tuple(np.flatnonzero(np.abs(k) > 1e-12)) for k in kraus)
    assert mods == [(0,), (1,)]


def test_partial_swap_closed_form(rng):
    # E(rho) = cos^2 t rho + sin^2 t omega + i cos t sin t [rho, omega]
    omega = qmath.random_density(2, rng)
    rho = qmath.random_density(2, rng)
    t = 0.7
    c, s = np.cos(t), np.sin(t)
    expected = (c * c * rho + s * s * omega
                + 1j * c * s * (rho @ omega - omega @ rho))
    got = partial_swap_channel(omega, t).apply(rho)
    assert np.abs(got - expected).max() < 1e-12


def test_partial_swap_population_decay():
    # with omega = |0><0| and rho0 = |1><1| the excited population is
    # exactly cos^(2n) t after n collisions
    t = 0.7
    ch = partial_swap_channel(ZERO, t)
    traj = ch.iterate(np.diag([0.0, 1.0]).astype(complex), 6)
    for n in range(7):
        assert np.isclose(traj[n][1, 1].real, np.cos(t) ** (2 * n),
                          atol=1e-12)


def test_channel_matches_direct_route(rng):
    # Kraus application against conjugate-and-trace on the same unitary
    spec = network.NetworkSpec(network.chain_graph(3))
    h_sys = network.system_hamiltonian(spec)
    h_int = network.interaction_hamiltonian([2, 2, 2, 2], [(3, 2)])
    omega = qmath.random_density(2, rng)
    ch = build_channel(h_sys, h_int, omega, 0.9)
    for _ in range(5):
        rho = qmath.random_density(8, rng)
        ref = direct_apply(ch.joint_unitary, rho, omega)
        assert np.abs(ch.apply(rho) - ref).max() < 1e-10


def test_kraus_completeness_and_count(rng):
    omega = qmath.random_density(2, rng)
    ch = partial_swap_channel(omega, 0.4)
    kraus = ch.kraus_operators()
    # full-rank qubit ancilla: 2 eigenvectors x 2 output basis states
    assert kraus.shape == (4, 2, 2)
    total = sum(k.conj().T @ k for k in kraus)
    assert np.abs(total - np.eye(2)).max() < 1e-10
    # returned stack is a copy; mutating it must not corrupt the channel
    kraus[0][0, 0] = 99.0
    rho = qmath.random_density(2, rng)
    assert np.isclose(ch.apply(rho).trace(), 1.0, atol=1e-12)


def test_superoperator_identity_and_constant_maps(rng):
    ident = partial_swap_channel(qmath.random_density(2, rng), 0.0)
    assert np.abs(ident.superoperator().matrix - np.eye(4)).max() < 1e-12

    omega = qmath.random_density(2, rng)
    vals = np.linalg.eigvals(
        CollisionChannel(SWAP2, omega, (2,)).superoperator().matrix
    )
    vals = vals[np.argsort(-np.abs(vals))]
    # a constant map has spectrum {1, 0, 0, 0}
    assert np.isclose(vals[0], 1.0, atol=1e-12)
    assert np.abs(vals[1:]).max() < 1e-12


def test_superoperator_agrees_with_apply(rng):
    omega = qmath.random_density(2, rng)
    ch = partial_swap_channel(omega, 1.1)
    sop = ch.superoperator()
    assert isinstance(sop, Superoperator)
    for _ in range(20):
        rho = qmath.random_density(2, rng)
        assert np.abs(sop.apply(rho) - ch.apply(rho)).max() < 1e-12


@pytest.mark.parametrize("dim", [2, 4, 8])
def test_superoperator_equals_kron_sum(rng, dim):
    # the batched build against the defining sum of kron(K, conj(K))
    ch = CollisionChannel(qmath.random_unitary(3 * dim, rng),
                          qmath.random_density(3, rng), (3,))
    expected = sum(np.kron(k, k.conj()) for k in ch.kraus_operators())
    assert np.abs(ch.superoperator().matrix - expected).max() < 1e-15


def test_superoperator_spectrum_in_unit_disk(rng):
    omega = qmath.random_density(2, rng)
    ch = partial_swap_channel(omega, 0.8)
    vals = np.linalg.eigvals(ch.superoperator().matrix)
    assert np.abs(vals).max() <= 1.0 + 1e-10


def test_channel_is_affine_and_nonexpansive(rng):
    omega = qmath.random_density(2, rng)
    ch = partial_swap_channel(omega, 0.6)
    rho1, rho2 = (qmath.random_density(2, rng) for _ in range(2))
    mix = 0.3 * rho1 + 0.7 * rho2
    assert np.abs(
        ch.apply(mix) - 0.3 * ch.apply(rho1) - 0.7 * ch.apply(rho2)
    ).max() < 1e-12
    assert (qmath.trace_distance(ch.apply(rho1), ch.apply(rho2))
            <= qmath.trace_distance(rho1, rho2) + 1e-10)


def test_iterate_matches_repeated_apply(rng):
    omega = qmath.random_density(2, rng)
    ch = partial_swap_channel(omega, 0.5)
    rho = qmath.random_density(2, rng)
    traj = ch.iterate(rho, 3)
    assert traj.shape == (4, 2, 2)
    step = rho
    for k in range(3):
        step = ch.apply(step)
        assert np.abs(traj[k + 1] - step).max() < 1e-12


def test_apply_sequence_composes_in_order(rng):
    chans = [partial_swap_channel(qmath.random_density(2, rng), t)
             for t in (0.3, 0.9, 0.2)]
    rho = qmath.random_density(2, rng)
    states = apply_sequence(chans, rho)
    assert len(states) == 4
    assert np.array_equal(states[0], rho)
    manual = chans[2].apply(chans[1].apply(chans[0].apply(rho)))
    assert np.abs(states[3] - manual).max() < 1e-12


def test_controller_sequence_states_and_validation(rng):
    omega = ZERO
    pert = qmath.random_density(2, rng)
    seq = ControllerSequence(omega, ((0.9, pert), (0.6, pert)))
    assert len(seq) == 2
    assert seq.p_min == 0.6  # the smallest weight
    states = seq.ancilla_states()
    assert np.abs(states[0] - (0.9 * omega + 0.1 * pert)).max() < 1e-12
    assert np.abs(states[1] - (0.6 * omega + 0.4 * pert)).max() < 1e-12

    assert ControllerSequence(omega, ()).p_min == 1.0
    for weight in (1.2, 0.0, -0.4, float("nan")):  # outside (0, 1]
        with pytest.raises(ValueError, match="^step 1: weight "):
            ControllerSequence(omega, ((0.9, pert), (weight, pert)))


def test_imperfect_channels_are_convex_combinations(rng):
    # linearity in the ancilla state: the perturbed channel acts as the
    # convex mixture of the two pure-preparation channels
    pert = qmath.random_density(2, rng)
    seq = ControllerSequence(ZERO, ((0.7, pert),))
    (mixed,) = imperfect_controller_sequence(np.zeros((2, 2)), SWAP2, 0.8, seq)
    base = partial_swap_channel(ZERO, 0.8)
    other = partial_swap_channel(pert, 0.8)
    rho = qmath.random_density(2, rng)
    expected = 0.7 * base.apply(rho) + 0.3 * other.apply(rho)
    assert np.abs(mixed.apply(rho) - expected).max() < 1e-12


def drifting_sequence(rng, base, n, dim=2):
    steps = tuple(
        (float(rng.uniform(0.5, 1.0)), qmath.random_density(dim, rng))
        for _ in range(n)
    )
    return ControllerSequence(base, steps)


@pytest.mark.parametrize("sites", [1, 2])
def test_sequence_kraus_equal_per_step_build_channel(rng, sites):
    # the batched build over a shared unitary reproduces, bit for bit, one
    # build_channel per step on that step's mixed ancilla state
    h_sys = qmath.random_hermitian(2 ** sites, rng)
    h_int = network.interaction_hamiltonian([2] * (sites + 1), [(sites, 0)])
    base = qmath.random_density(2, rng)
    seq = drifting_sequence(rng, base, 30)
    channels = imperfect_controller_sequence(h_sys, h_int, 0.7, seq)
    assert len(channels) == 30
    for channel, (p, pert) in zip(channels, seq.steps):
        single = build_channel(h_sys, h_int, p * base + (1.0 - p) * pert, 0.7)
        assert np.array_equal(channel.kraus_operators(),
                              single.kraus_operators())
        assert np.array_equal(channel.ancilla_state, single.ancilla_state)
        assert np.array_equal(channel.joint_unitary, single.joint_unitary)
    # one joint unitary serves the whole sequence
    assert all(ch.joint_unitary is channels[0].joint_unitary for ch in channels)


def test_sequence_kraus_ranks_may_differ_between_steps(rng):
    # a pure base at weight 1 keeps one ancilla eigenvector, a mixed step
    # keeps both, so the stacks have different ranks in one batched build
    pert = qmath.random_density(2, rng)
    seq = ControllerSequence(ZERO, ((1.0, pert), (0.6, pert), (1.0, pert)))
    channels = imperfect_controller_sequence(np.zeros((2, 2)), SWAP2, 0.5, seq)
    ranks = [ch.kraus_operators().shape[0] for ch in channels]
    assert ranks == [2, 4, 2]
    for channel, state in zip(channels, seq.ancilla_states()):
        single = partial_swap_channel(state, 0.5)
        assert np.array_equal(channel.kraus_operators(),
                              single.kraus_operators())


def test_invalid_controller_step_is_named(rng):
    steps = [(0.9, qmath.random_density(2, rng)) for _ in range(5)]
    steps[3] = (0.9, np.diag([1.5, -0.5]))
    with pytest.raises(ValueError, match="^step 3: not a valid density"):
        ControllerSequence(ZERO, tuple(steps))
    steps[3] = (0.9, np.eye(3) / 3)
    with pytest.raises(ShapeError, match="^step 3: "):
        ControllerSequence(ZERO, tuple(steps))
    steps[3] = (-0.2, ZERO)
    with pytest.raises(ValueError, match="^step 3: weight -0.2"):
        ControllerSequence(ZERO, tuple(steps))


def test_joint_unitary_forms(rng):
    h_sys = qmath.random_hermitian(2, rng)
    h_b = network.swap_operator([2, 2, 2], 0, 1)
    h_c = network.swap_operator([2, 2, 2], 0, 2)
    h_free = np.kron(h_sys, np.eye(4))
    assert np.array_equal(joint_unitary(h_sys, [], 0.4),
                          qmath.unitary_from_hamiltonian(h_sys, 0.4))
    assert np.array_equal(
        joint_unitary(h_sys, [h_b, h_c], 0.4),
        qmath.unitary_from_hamiltonian(h_free + (h_b + h_c), 0.4),
    )
    u_b = qmath.unitary_from_hamiltonian(h_free + h_b, 0.4)
    u_c = qmath.unitary_from_hamiltonian(h_free + h_c, 0.4)
    assert np.abs(joint_unitary(h_sys, [h_b, h_c], 0.4, "alternating")
                  - u_c @ u_b).max() < 1e-12
    with pytest.raises(ShapeError):
        joint_unitary(h_sys, [h_b, SWAP2], 0.4)
    with pytest.raises(ShapeError):
        joint_unitary(h_sys, [np.eye(3)], 0.4)
    with pytest.raises(ValueError):
        joint_unitary(h_sys, [h_b], -0.1)
    with pytest.raises(ValueError):
        joint_unitary(h_sys, [h_b], 0.4, mode="parallel")
    # the unitary is checked where a channel is built on it, once
    seq = ControllerSequence(ZERO, ((0.9, np.eye(2) / 2),))
    with np.errstate(over="ignore", invalid="ignore"):
        overflowed = joint_unitary(h_sys, [h_b], 1e308)
        with pytest.raises(ValueError, match="not unitary: defect nan"):
            CollisionChannel(overflowed, np.eye(4) / 4, (2, 2))
        with pytest.raises(ValueError, match="not unitary: defect nan"):
            imperfect_controller_sequence(h_sys, SWAP2, 1e308, seq)


def two_bath_setup(state_b, state_c, t, mode="simultaneous"):
    dims = [2, 2, 2, 2]  # two system qubits, then baths B and C
    h_sys = network.swap_operator([2, 2], 0, 1)
    h_b = network.swap_operator(dims, 2, 1)
    h_c = network.swap_operator(dims, 3, 0)
    return build_two_bath_channel(h_sys, h_b, h_c, state_b, state_c, t,
                                  mode=mode)


def test_two_bath_channel_shapes_and_ancilla():
    p, q = 0.8, 0.3
    ch = two_bath_setup(np.diag([p, 1 - p]), np.diag([q, 1 - q]), 0.5)
    assert ch.system_dim == 4
    assert ch.ancilla_dims == (2, 2)
    expected = qmath.tensor([np.diag([p, 1 - p]), np.diag([q, 1 - q])])
    assert np.abs(ch.ancilla_state - expected).max() < 1e-12
    # the composite splits as pq |00><00| + (1 - pq) * (a valid state)
    ground = qmath.projector([1, 0, 0, 0])
    rest = (ch.ancilla_state - p * q * ground) / (1 - p * q)
    assert qmath.validate_density(rest).passed


def test_two_bath_cooling_to_ground():
    # both baths pumping |0>: the chain relaxes onto |00>
    ch = two_bath_setup(ZERO, ZERO, 0.5)
    rho = np.eye(4, dtype=complex) / 4
    final = ch.iterate(rho, 200)[-1]
    assert qmath.trace_distance(final, qmath.projector([1, 0, 0, 0])) < 1e-10


def test_two_bath_alternating_mode_unitary():
    dims = [2, 2, 2, 2]
    h_sys = network.swap_operator([2, 2], 0, 1)
    h_b = network.swap_operator(dims, 2, 1)
    h_c = network.swap_operator(dims, 3, 0)
    t = 0.4
    ch = two_bath_setup(ZERO, ZERO, t, mode="alternating")
    h_free = np.kron(h_sys, np.eye(4))
    u_b = qmath.unitary_from_hamiltonian(h_free + h_b, t)
    u_c = qmath.unitary_from_hamiltonian(h_free + h_c, t)
    assert np.abs(ch.joint_unitary - u_c @ u_b).max() < 1e-12
    with pytest.raises(ValueError):
        two_bath_setup(ZERO, ZERO, t, mode="parallel")


def test_two_bath_simultaneous_differs_from_alternating():
    both = two_bath_setup(ZERO, ZERO, 0.4)
    alt = two_bath_setup(ZERO, ZERO, 0.4, mode="alternating")
    assert np.abs(both.joint_unitary - alt.joint_unitary).max() > 1e-3


def test_capacity_guard_on_superoperator():
    # system dim 128 > 64: building the channel is fine, the dense
    # superoperator is refused
    dim = 128
    ch = CollisionChannel(np.eye(2 * dim), ZERO, (2,))
    assert ch.system_dim == dim
    with pytest.raises(CapacityError):
        ch.superoperator()


BUILDERS = ["build_channel", "two_bath_simultaneous", "two_bath_alternating",
            "scenario_0_baths", "scenario_1_bath", "scenario_2_baths",
            "controller_sequence"]


def builder_case(name, monkeypatch):
    """``(build, h_sys, terms, per-channel bath states, mode)`` of a builder.

    ``build(terms)`` gives the builder's channels with ``terms`` as their
    interaction terms, in bath order; a 2-site swap chain with baths at
    sites 1 and then 0 throughout.
    """
    baths = int(name[9]) if name.startswith("scenario") else (
        2 if name.startswith("two_bath") else 1)
    raw = {"model": "swap", "sites": 2, "couplings": {"chain": 1.0},
           "t": 0.4, "initial_state": "ground", "analysis": "fixed_point",
           "baths": [{"site": 1, "state": {"diag": 0.7}},
                     {"site": 0, "state": "plus"}][:baths],
           "two_bath_mode": ("alternating" if name.endswith("alternating")
                             else "simultaneous")}
    cfg = parse_config(raw)
    h_sys = network.system_hamiltonian(cfg.network_spec())
    dims = [2] * (2 + baths)
    terms = [network.interaction_hamiltonian(dims, [(2 + i, bath.site)])
             for i, bath in enumerate(cfg.baths)]
    states = [[bath.state for bath in cfg.baths]]
    if name == "build_channel":
        def build(terms):
            return [build_channel(h_sys, terms[0], states[0][0], cfg.t)]
    elif name.startswith("two_bath"):
        def build(terms):
            return [build_two_bath_channel(h_sys, *terms, *states[0], cfg.t,
                                           cfg.two_bath_mode)]
    elif name.startswith("scenario"):
        def build(terms):
            # the runner builds its terms through its own module globals
            supplied = iter(terms)
            monkeypatch.setattr(scenario, "interaction_hamiltonian",
                                lambda dims, pairs: next(supplied))
            return [build_scenario_channel(cfg)]
    else:
        sequence = ControllerSequence(states[0][0], ((0.9, ZERO), (0.6, ZERO),
                                                     (1.0, ZERO)))
        states = [[omega] for omega in sequence.ancilla_states()]

        def build(terms):
            return imperfect_controller_sequence(h_sys, terms[0], cfg.t,
                                                 sequence)
    return build, h_sys, terms, states, cfg.two_bath_mode


@pytest.mark.parametrize("name", BUILDERS)
def test_every_builder_builds_the_channel_of_its_baths(name, monkeypatch):
    build, h_sys, terms, states, mode = builder_case(name, monkeypatch)
    channels = build(terms)
    assert len(channels) == len(states)
    for channel, baths in zip(channels, states):
        want = CollisionChannel(
            joint_unitary(h_sys, terms, 0.4, mode),
            qmath.tensor(baths) if baths else np.eye(1),
            tuple(state.shape[0] for state in baths) or (1,),
        )
        assert np.array_equal(channel.kraus_operators(),
                              want.kraus_operators())
    # one shape check serves every builder, and names the term it refuses
    for b, term in enumerate(terms):
        wrong = terms[:b] + [np.eye(term.shape[0] // 2)] + terms[b + 1:]
        with pytest.raises(ShapeError, match=f"^interaction term {b} has"):
            build(wrong)


def test_channel_construction_errors(rng):
    with pytest.raises(ValueError):
        CollisionChannel(np.eye(4) * 2.0, ZERO, (2,))  # not unitary
    with pytest.raises(ValueError):
        CollisionChannel(np.full((4, 4), np.nan), ZERO, (2,))  # NaN defect
    with pytest.raises(ValueError):
        CollisionChannel(SWAP2, np.diag([2.0, -1.0]), (2,))  # bad state
    with pytest.raises(ShapeError):
        CollisionChannel(SWAP2, ZERO, (3,))  # dims mismatch the state
    with pytest.raises(ShapeError):
        CollisionChannel(np.eye(6), ZERO, (4,))  # 6 not divisible by 4
    with pytest.raises(ValueError):
        build_channel(np.zeros((2, 2)), SWAP2, ZERO, -1.0)
    with pytest.raises(ShapeError):
        build_channel(np.zeros((2, 2)), np.zeros((6, 6)), ZERO, 1.0)

    ch = partial_swap_channel(qmath.random_density(2, rng), 0.3)
    with pytest.raises(ShapeError):
        ch.apply(np.eye(3) / 3)
    with pytest.raises(ValueError, match="trace by nan"):
        ch.apply(np.full((2, 2), np.nan))
    for n in (-1, 2.5):
        with pytest.raises(ValueError, match="collision count"):
            ch.iterate(np.eye(2) / 2, n)
    with pytest.raises(ShapeError):
        direct_apply(SWAP2, np.eye(3) / 3, ZERO)
    with pytest.raises(ShapeError):
        apply_sequence([ch], np.eye(3) / 3)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.sampled_from([2, 3, 4]),
    anc=st.sampled_from([1, 2, 3]),
    pure=st.booleans(),
    steps=st.integers(0, 6),
)
def test_random_channels_stay_cptp(seed, dim, anc, pure, steps):
    rng = np.random.default_rng(seed)
    omega = (qmath.projector(qmath.random_pure_state(anc, rng)) if pure
             else qmath.random_density(anc, rng))
    channel = CollisionChannel(
        qmath.random_unitary(dim * anc, rng), omega, (anc,)
    )
    # completely positive: the Choi matrix, reshuffled from the
    # superoperator rather than read off the Kraus stack, is PSD
    sop = channel.superoperator().matrix
    choi = sop.reshape(dim, dim, dim, dim).transpose(0, 2, 1, 3).reshape(
        dim * dim, dim * dim
    )
    assert np.abs(choi - choi.conj().T).max() < 1e-12
    assert np.linalg.eigvalsh(choi).min() >= -1e-10
    # trace preserving and state to state, under apply and under iterate
    rho = qmath.random_density(dim, rng)
    assert qmath.validate_density(channel.apply(rho)).passed
    trajectory = channel.iterate(rho, steps)
    assert trajectory.shape == (steps + 1, dim, dim)
    assert np.array_equal(trajectory[0], rho)
    for state in trajectory:
        assert qmath.validate_density(state).passed
