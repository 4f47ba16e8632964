import io
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

from mediahom import convergence, qmath, scenario
from mediahom.collision import ControllerSequence
from mediahom.config import parse_config, set_by_path
from mediahom.errors import ConfigError
from mediahom.scenario import (
    ResultTable,
    build_scenario_channel,
    emit_csv,
    run_scenario,
    sweep,
)

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


def bundled_raw(name, **overrides):
    raw = json.loads((CONFIGS / f"{name}.json").read_text())
    raw.update(overrides)
    return raw


def swap_chain_raw(**overrides):
    raw = {
        "model": "swap",
        "sites": 3,
        "couplings": {"chain": 1.0},
        "t": 0.5,
        "baths": [{"site": 2, "state": {"diag": 0.7}}],
        "initial_state": "ground",
        "analysis": "fixed_point",
    }
    raw.update(overrides)
    return raw


def test_result_table_enforces_width():
    table = ResultTable(columns=("a", "b"))
    table.append((1, 2))
    with pytest.raises(ValueError):
        table.append((1, 2, 3))
    assert table.column("b") == [2]
    with pytest.raises(ValueError):
        ResultTable(columns=("a",), rows=[(1, 2)])


def relaxing_report():
    report = convergence.is_relaxing(build_scenario_channel(
        parse_config(bundled_raw("swap_chain_homogenization"))))
    assert report.relaxing
    return report


@pytest.mark.parametrize("build", [
    relaxing_report,
    lambda: relaxing_report()._blocks[0],
    lambda: build_scenario_channel(
        parse_config(swap_chain_raw())).superoperator(),
    lambda: ControllerSequence(np.diag([1.0, 0.0]),
                               ((0.9, np.diag([0.0, 1.0])),)),
    lambda: parse_config(bundled_raw("two_bath_equilibrium")).baths[0],
    lambda: parse_config(bundled_raw("two_bath_equilibrium")),
], ids=["ConvergenceReport", "_Block", "Superoperator", "ControllerSequence",
        "BathSpec", "ScenarioConfig"])
def test_array_holding_dataclasses_compare_by_identity(build):
    # equal fields would mean comparing arrays, whose truth is ambiguous
    a, b = build(), build()
    assert (a == b) is False
    assert (a == a) is True


def test_build_scenario_channel_shapes():
    ch = build_scenario_channel(parse_config(swap_chain_raw()))
    assert ch.system_dim == 8
    assert ch.ancilla_dims == (2,)
    # no baths: trivial ancilla, channel is unitary conjugation
    ch0 = build_scenario_channel(parse_config(swap_chain_raw(baths=[])))
    assert ch0.system_dim == 8
    assert ch0.ancilla_dims == (1,)


def test_fixed_point_run_homogenizes_chain():
    # mixed bath pumped through a connected chain: the stationary state is
    # the bath state on every site, so entropies scale with site count
    table = run_scenario(parse_config(swap_chain_raw()))
    assert table.columns[-1] == "status"
    assert len(table.rows) == 1
    row = dict(zip(table.columns, table.rows[0]))
    assert row["status"] == "ok"
    assert row["relaxing"] == 1
    assert row["peripheral_count"] == 1
    assert np.isclose(row["entropy_ratio"], 3.0, atol=1e-6)
    assert np.isclose(row["s_bath"], qmath.von_neumann_entropy(
        np.diag([0.7, 0.3])), atol=1e-12)
    assert np.isclose(row["s_system"], 3.0 * row["s_bath"], atol=1e-6)
    assert row["spectral_gap"] > 0.0
    assert row["collisions"] > 0
    assert row["residual"] < 1e-8
    assert table.metadata["analysis"] == "fixed_point"
    assert len(table.metadata["config_digest"]) == 64


def test_fixed_point_run_pure_bath_annotates_ratio():
    # the isotropic chain with a pure coherent bath relaxes onto a pure
    # product, so the system entropy collapses and the ratio is undefined
    raw = {
        "model": "xxz", "sites": 3, "delta": 1.0,
        "couplings": {"chain": 1.0}, "t": 0.5,
        "baths": [{"site": 2, "state": "minus"}],
        "initial_state": "ground", "analysis": "fixed_point",
    }
    table = run_scenario(parse_config(raw))
    row = dict(zip(table.columns, table.rows[0]))
    assert row["status"] == "undefined entropy ratio: bath state is pure"
    assert row["relaxing"] == 1
    assert row["s_system"] < 1e-6
    assert row["concurrence_12"] < 1e-6
    assert math.isnan(row["entropy_ratio"])
    assert row["s_bath"] < 1e-12


def test_fixed_point_no_baths_is_not_relaxing():
    table = run_scenario(parse_config(swap_chain_raw(baths=[])))
    row = dict(zip(table.columns, table.rows[0]))
    assert row["relaxing"] == 0
    assert row["peripheral_count"] > 1
    assert row["status"] != "ok"


def test_trajectory_rows():
    table = run_scenario(parse_config(
        swap_chain_raw(analysis={"trajectory": 5})
    ))
    assert table.columns == ("step", "s_system", "concurrence_12",
                             "step_residual", "status")
    assert len(table.rows) == 6
    assert table.column("step") == list(range(6))
    # the first step has no predecessor to difference against
    assert math.isnan(table.rows[0][3])
    assert all(r[3] >= 0 for r in table.rows[1:])
    # ground start: zero entropy at step 0, rising as the bath mixes in
    assert table.rows[0][1] == 0.0
    assert table.rows[-1][1] > 0.0

    single = run_scenario(parse_config(
        swap_chain_raw(analysis={"trajectory": 0})
    ))
    assert len(single.rows) == 1


def test_spectrum_rows_sorted_and_bounded():
    table = run_scenario(parse_config(swap_chain_raw(analysis="spectrum")))
    assert len(table.rows) == 64  # D^2 rows at D = 8
    mods = table.column("modulus")
    assert np.isclose(mods[0], 1.0, atol=1e-9)
    assert all(a >= b - 1e-12 for a, b in zip(mods, mods[1:]))
    assert mods[-1] <= 1.0 + 1e-10
    assert table.column("index") == list(range(64))


@pytest.mark.parametrize("raw", [
    swap_chain_raw(analysis="spectrum"),
    swap_chain_raw(model="xxz", sites=4, delta=1.0, analysis="spectrum",
                   baths=[{"site": 3, "state": "minus"}]),
    swap_chain_raw(model="xxz", sites=4, delta=0.5, analysis="spectrum",
                   baths=[{"site": 3, "state": "minus"}]),
    swap_chain_raw(model="xxz", sites=3, delta=0.3, analysis="spectrum",
                   baths=[{"site": 2, "state": "plus"}]),
], ids=["swap_chain", "xxz_minus_bath", "xxz_minus_bath_delta_half",
        "xxz_plus_bath"])
def test_spectrum_rows_match_dense_oracle(raw):
    cfg = parse_config(raw)
    table = run_scenario(cfg)
    kraus = build_scenario_channel(cfg).kraus_operators()
    dense = np.linalg.eigvals(sum(np.kron(k, k.conj()) for k in kraus))
    mods = np.array(table.column("modulus"))
    assert np.abs(mods - np.sort(np.abs(dense))[::-1]).max() < 1e-12
    vals = np.array(table.column("eig_real")) + 1j * np.array(
        table.column("eig_imag")
    )
    dist = np.abs(vals[:, None] - dense[None, :])
    rows, cols = linear_sum_assignment(dist)
    assert dist[rows, cols].max() < 1e-12


@pytest.mark.parametrize("raw", [
    swap_chain_raw(analysis="spectrum"),
    bundled_raw("anisotropy_entanglement_sweep", delta=1.0,
                analysis="spectrum"),
], ids=["swap_chain", "anisotropy_nine_blocks"])
def test_spectrum_rows_do_not_depend_on_block_order(raw, monkeypatch):
    # rows of equal modulus follow the real, then the imaginary part
    cfg = parse_config(raw)
    table = run_scenario(cfg)
    keys = [(-m, re, im) for re, im, m in zip(table.column("eig_real"),
                                              table.column("eig_imag"),
                                              table.column("modulus"))]
    assert keys == sorted(keys)
    split = convergence._split
    monkeypatch.setattr(convergence, "_split",
                        lambda rows: split(rows)[::-1])
    assert run_scenario(cfg).rows == table.rows


def test_spectrum_rows_break_modulus_ties_by_real_then_imaginary_part(
        monkeypatch):
    class Block:
        def __init__(self, *vals):
            self.vals = np.array(vals, dtype=complex)

        def eigvals(self):
            return self.vals

    monkeypatch.setattr(convergence, "_split", lambda rows: [
        Block(1j, 0.5, 1.0), Block(-1.0, -1j, 0.5j),
    ])
    rows = run_scenario(parse_config(swap_chain_raw(analysis="spectrum"))).rows
    assert [complex(re, im) for _, re, im, _, _ in rows] == [
        -1.0, -1j, 1j, 1.0, 0.5j, 0.5,
    ]


def test_two_bath_run_never_holds_a_dense_superoperator():
    # one dense d = 32 superoperator alone is 16 MB
    cfg = parse_config(bundled_raw("two_bath_equilibrium"))
    tracemalloc.start()
    try:
        run_scenario(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20


def xxz_raw(baths, sites=3, delta=0.5, **overrides):
    return swap_chain_raw(model="xxz", sites=sites, delta=delta, baths=baths,
                          **overrides)


QUTRIT_STATE = {"matrix": [[0.5, 0.1, 0.0], [0.1, 0.3, 0.05],
                           [0.0, 0.05, 0.2]]}


@pytest.mark.parametrize("raw,framed", [
    (xxz_raw([{"site": 2, "state": "plus"}]), True),
    (xxz_raw([{"site": 2, "state": "minus"}]), True),
    (xxz_raw([{"site": 2, "state":
               {"mix": [0.3, {"diag": 1.0}, "minus"]}}]), True),
    (swap_chain_raw(sites=2, local_dim=3,
                    baths=[{"site": 1, "state": QUTRIT_STATE}]), True),
    (xxz_raw([{"site": 0, "state": "plus"},
              {"site": 2, "state": {"mix": [0.8, "minus", "plus"]}}]), True),
    (xxz_raw([{"site": 0, "state": {"diag": 0.7}},
              {"site": 2, "state": "minus"}]), False),
    (xxz_raw([{"site": 3, "state": "minus"}], sites=4, delta=1.0), True),
], ids=["plus", "minus", "mix", "qutrit", "commuting_pair",
        "non_commuting_pair", "minus_delta_one"])
def test_bath_frame_report_matches_computational_frame(raw, framed):
    cfg = parse_config(raw)
    channel = build_scenario_channel(cfg)
    assert (scenario._bath_frame(cfg) is not None) == framed
    in_frame, frame = scenario._framed_channel(cfg, channel)
    got = convergence.is_relaxing(in_frame, tol=cfg.peripheral_tol)
    want = convergence.is_relaxing(channel.superoperator(),
                                   tol=cfg.peripheral_tol)
    assert got.relaxing and want.relaxing
    assert got.peripheral_count == want.peripheral_count
    assert abs(got.spectral_gap - want.spectral_gap) <= 1e-12
    rho = scenario._unframed(got.fixed_point, frame)
    assert np.array_equal(rho, rho.conj().T)
    assert qmath.trace_distance(rho, want.fixed_point) <= 1e-10


def largest_block(superoperator):
    mags = np.abs(superoperator.matrix)
    linked = mags > convergence.BLOCK_SPLIT_RTOL * mags.max()
    _, labels = connected_components(linked, directed=True, connection="weak")
    return np.bincount(labels).max()


@pytest.mark.parametrize("delta", [0.5, 1.0])
def test_bath_frame_splits_the_anisotropy_sweep(delta):
    # the "minus" bath hides the chain's X-parity (and, at delta = 1, its
    # X-magnetization) from the computational basis: one 256 block there
    cfg = parse_config(bundled_raw("anisotropy_entanglement_sweep",
                                   delta=delta))
    channel = build_scenario_channel(cfg)
    assert largest_block(channel.superoperator()) == 256
    framed, frame = scenario._framed_channel(cfg, channel)
    assert frame is not None and framed.system_dim == 16
    assert largest_block(framed.superoperator()) <= 128


@pytest.mark.parametrize("raw", [
    bundled_raw("two_bath_equilibrium"),
    bundled_raw("swap_chain_homogenization"),
    swap_chain_raw(baths=[]),
], ids=["two_bath_equilibrium", "swap_chain_homogenization", "no_baths"])
def test_diagonal_or_absent_baths_get_no_frame(raw):
    cfg = parse_config(raw)
    channel = build_scenario_channel(cfg)
    framed, frame = scenario._framed_channel(cfg, channel)
    assert frame is None
    assert np.array_equal(framed.superoperator().matrix,
                          channel.superoperator().matrix)


def test_site_populations_input_vs_post_collision():
    raw = {
        "model": "swap", "sites": 2, "couplings": {"chain": 1.0}, "t": 0.5,
        "baths": [{"site": 1, "state": {"diag": 0.9}},
                  {"site": 0, "state": {"diag": 0.4}}],
        "initial_state": "ground", "analysis": "site_populations",
    }
    table = run_scenario(parse_config(raw))
    rows = dict(((r[0], r[1]), r[2]) for r in table.rows)
    # bath rows echo the prepared states exactly
    assert np.isclose(rows[("bath", 1)], 0.9, atol=1e-12)
    assert np.isclose(rows[("bath", 0)], 0.4, atol=1e-12)
    # the chain settles between the two drives, warmer near the cold bath
    assert 0.4 < rows[("site", 0)] < rows[("site", 1)] < 0.9

    post = run_scenario(parse_config(dict(raw, bath_report="post_collision")))
    post_rows = dict(((r[0], r[1]), r[2]) for r in post.rows)
    # reflected ancillas move toward the chain: hot bath cools, cold warms
    assert post_rows[("bath", 1)] < 0.9
    assert post_rows[("bath", 0)] > 0.4
    # the site populations are the same stationary state either way
    assert np.isclose(post_rows[("site", 0)], rows[("site", 0)], atol=1e-9)


def test_site_populations_spare_the_coherence_blocks(monkeypatch):
    # the verdict takes no eigenvalues: the d = 32 chain splits by
    # coherence number into the 252 block of coherence 0 and the twin
    # pairs of coherence 1 to 5; the twins are certified inside the unit
    # circle, and the 252 block, with eigenvalue 1 deflated, too; the rows
    # are those of is_relaxing's fixed point
    cfg = parse_config(bundled_raw("two_bath_equilibrium"))
    side = 2 ** cfg.sites
    blocks, solved, certified = [], [], []

    def splitting(rows, _run=convergence._split):
        blocks.extend(_run(rows))
        return list(blocks)

    def counting(block, _run=convergence._Block.eigvals):
        solved.append(block.idx)
        return _run(block)

    def certifying(matrix, radius, _run=convergence._inside):
        certified.append((matrix.shape[0], _run(matrix, radius)))
        return certified[-1][1]

    monkeypatch.setattr(convergence, "_split", splitting)
    monkeypatch.setattr(convergence._Block, "eigvals", counting)
    monkeypatch.setattr(convergence, "_inside", certifying)
    table = run_scenario(cfg)
    monkeypatch.undo()
    diagonal = [b for b in blocks if convergence._on_diagonal(b.idx, side).any()]
    assert solved == [] and len(diagonal) == 1 and len(blocks) == 6
    # the certificate is tried on every block, the 252 one included, and
    # passes each
    assert certified == [(b.idx.size, True) for b in blocks]
    assert diagonal[0].idx.size == 252

    channel = build_scenario_channel(cfg)
    framed, frame = scenario._framed_channel(cfg, channel)
    report = convergence.is_relaxing(framed, tol=cfg.peripheral_tol)
    assert report.relaxing
    assert table.rows == scenario._population_rows(
        cfg, channel, scenario._unframed(report.fixed_point, frame), "ok"
    )


def test_site_populations_of_a_chain_that_does_not_relax():
    # a bath-free chain keeps every magnetization sector, so the verdict
    # refuses it and the rows report the state the Kraus loop reaches from
    # the start: the ground state, which the chain keeps
    table = run_scenario(parse_config(xxz_raw([], delta=0.7,
                                              analysis="site_populations")))
    assert [row[:2] for row in table.rows] == [("site", k) for k in range(3)]
    assert np.allclose(table.column("p_zero"), 1.0, rtol=0.0, atol=1e-12)
    assert set(table.column("status")) == {
        "64 eigenvalues within 1e-08 of the unit circle; iterates do not "
        "forget the initial state"
    }


def test_site_populations_that_do_not_converge_read_nan():
    # neither relaxing nor settled within max_iter: every row, the bath's
    # too, holds NaN and the iteration's message
    raw = swap_chain_raw(sites=2, t=math.pi,
                         baths=[{"site": 0, "state": "zero"}],
                         initial_state={"random_seed": 3},
                         tolerances={"max_iter": 5},
                         analysis="site_populations")
    table = run_scenario(parse_config(raw))
    assert [row[:2] for row in table.rows] == [
        ("site", 0), ("site", 1), ("bath", 0)]
    assert all(math.isnan(p) for p in table.column("p_zero"))
    assert all(status.startswith("no fixed point within 5 collisions")
               for status in table.column("status"))


def test_matrix_start_runs_as_the_state_it_writes_out():
    raw = bundled_raw("swap_chain_homogenization")
    ground = np.zeros((8, 8))
    ground[0, 0] = 1.0
    matrix = dict(raw, initial_state={"matrix": ground.tolist()})
    assert csv_body(run_scenario(parse_config(matrix))) == csv_body(
        run_scenario(parse_config(raw)))


@pytest.mark.parametrize("raw", [
    swap_chain_raw(sites=2, local_dim=3,
                   baths=[{"site": 1, "state": QUTRIT_STATE}]),
    swap_chain_raw(sites=1, baths=[{"site": 0, "state": {"diag": 0.7}}]),
], ids=["qutrit", "one_site"])
def test_concurrence_needs_a_pair_of_qubits(raw):
    (row,) = run_scenario(parse_config(raw)).rows
    row = dict(zip(scenario._ANALYSIS_COLUMNS["fixed_point"], row))
    assert math.isnan(row["concurrence_12"])
    assert row["status"] == "ok"


def test_random_initial_state_reproducible():
    def rows(seed):
        raw = swap_chain_raw(initial_state={"random_seed": seed},
                             analysis={"trajectory": 2})
        return run_scenario(parse_config(raw)).rows

    assert rows(11) == rows(11)
    assert rows(11) != rows(12)


def test_initial_state_matrix_dimension_checked():
    raw = swap_chain_raw(initial_state={"matrix": [[1.0, 0.0], [0.0, 0.0]]})
    with pytest.raises(ConfigError) as info:
        run_scenario(parse_config(raw))
    assert "initial_state.matrix" in str(info.value)


def test_sweep_refuses_bad_overrides_before_any_point(monkeypatch):
    def no_points(raw, param, width, value):
        raise AssertionError("a sweep point ran")

    monkeypatch.setattr(scenario, "_sweep_rows", no_points)
    seeded = dict(tolerances={"iterate_tol": 1e-10, "max_iter": 9},
                  initial_state={"random_seed": 3})
    # a NaN is refused when the sweep section is parsed
    for param in ("tolerances.iterate_tol", "tolerances.max_iter"):
        with pytest.raises(ConfigError, match=r"^sweep\.values\[0\]: "):
            sweep(parse_config(swap_chain_raw(
                sweep={"param": param, "values": [float("nan"), 5]},
                **seeded)))
    # any other swept value is checked as if written in the config
    for param, value in (("tolerances.max_iter", 2.5),
                         ("initial_state.random_seed", -1),
                         ("initial_state.random_seed", 1.5)):
        cfg = parse_config(swap_chain_raw(
            sweep={"param": param, "values": [value, 5]}, **seeded))
        with pytest.raises(ConfigError, match=f"^{param}: "):
            sweep(cfg)
    cfg = parse_config(swap_chain_raw(sweep={"param": "t",
                                             "values": [0.5, 0.7]}))
    for value in (2.5, True, float("nan"), "2", 0):
        with pytest.raises(ConfigError, match="^jobs: "):
            sweep(cfg, jobs=value)


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_refuses_a_bad_later_point_before_any_point(jobs, monkeypatch):
    # every point's config, the last one's too, is checked before any
    # point runs; with two jobs, no point is sent to a worker
    ran = []
    monkeypatch.setattr(scenario, "_point_rows",
                        lambda cfg: ran.append(cfg) or [])
    if jobs == 2:
        def no_points(raw, param, width, value):
            raise AssertionError("a sweep point ran")

        monkeypatch.setattr(scenario, "_sweep_rows", no_points)
    cfg = parse_config(bundled_raw(
        "swap_chain_homogenization",
        sweep={"param": "baths.0.state.diag", "values": [0.7, 0.8, 1.5]}))
    with pytest.raises(ConfigError) as info:
        sweep(cfg, jobs=jobs)
    assert str(info.value) == (
        "baths[0].state.diag: must lie in [0.0, 1.0], got 1.5")
    assert ran == []


def test_sweep_preserves_value_order():
    values = [0.7, 0.3, 0.5]
    table = sweep(parse_config(swap_chain_raw(
        sweep={"param": "t", "values": values})))
    assert table.columns[0] == "t"
    assert table.column("t") == values
    assert table.metadata["sweep_param"] == "t"
    assert table.metadata["points"] == "3"
    assert all(r[-1] == "ok" for r in table.rows)


def test_sweep_parallel_matches_serial():
    cfg = parse_config(swap_chain_raw(
        sweep={"param": "baths.0.state.diag", "values": [0.6, 0.7, 0.8, 0.9]}
    ))
    serial = sweep(cfg, jobs=1)
    # one point per worker, two chunks of two, and more jobs than a float
    # holds
    for jobs in (4, 3, 10**400):
        parallel = sweep(cfg, jobs=jobs)
        assert serial.rows == parallel.rows
        assert parallel.metadata["jobs"] == str(jobs)


def test_sweep_defaults_from_config_section():
    cfg = parse_config(swap_chain_raw(
        sweep={"param": "t", "values": [0.2, 0.4]}
    ))
    table = sweep(cfg)
    assert table.column("t") == [0.2, 0.4]
    plain = parse_config(swap_chain_raw())
    with pytest.raises(ConfigError, match="^sweep: config has no sweep"):
        sweep(plain)


@settings(max_examples=5, deadline=None, database=None, derandomize=True)
@given(param=st.sampled_from(["t", "baths.0.state.diag"]),
       values=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=4))
def test_sweep_body_same_serial_and_parallel(param, values):
    # jobs=2 starts at most 2 worker processes per sweep
    cfg = parse_config(swap_chain_raw(
        sweep={"param": param, "values": values}))
    bodies = []
    for jobs in (1, 2):
        buf = io.StringIO()
        emit_csv(sweep(cfg, jobs=jobs), buf)
        bodies.append([line for line in buf.getvalue().splitlines()
                       if not line.startswith("# ")])
    assert bodies[0] == bodies[1]


def test_sweep_bad_path_aborts():
    cfg = parse_config(swap_chain_raw(
        sweep={"param": "nonexistent.path", "values": [1.0]}))
    with pytest.raises(ConfigError, match="^sweep.param: "):
        sweep(cfg)
    with pytest.raises(ConfigError, match="^sweep.values: "):
        sweep(parse_config(swap_chain_raw(
            sweep={"param": "t", "values": []})))


def test_sweep_point_failures_become_status_rows():
    # 7- and 8-site chains exceed the superoperator's capacity limit, so
    # every point is refused but the sweep still returns full-width rows
    raw = {
        "model": "swap", "sites": 6, "couplings": {"chain": 1.0}, "t": 0.5,
        "baths": [{"site": 5, "state": {"diag": 0.7}}],
        "initial_state": "ground", "analysis": "spectrum",
        "sweep": {"param": "sites", "values": [7, 8]},
    }
    table = sweep(parse_config(raw))
    assert len(table.rows) == 2
    for row, value in zip(table.rows, [7, 8]):
        assert row[0] == value
        assert len(row) == len(table.columns)
        assert all(math.isnan(v) for v in row[1:-1])
        assert "CapacityError" in row[-1]


def test_emit_csv_round_trip(tmp_path):
    table = run_scenario(parse_config(swap_chain_raw()))
    path = tmp_path / "out.csv"
    emit_csv(table, path)
    lines = path.read_text().splitlines()
    comments = [l for l in lines if l.startswith("# ")]
    body = [l for l in lines if not l.startswith("# ")]
    assert any(l.startswith("# config_digest: ") for l in comments)
    assert any(l.startswith("# backend: ") for l in comments)
    assert body[0] == ",".join(table.columns)
    cells = body[1].split(",")
    assert len(cells) == len(table.columns)
    # 12-significant-digit reals parse back to the original values
    ratio_idx = table.columns.index("entropy_ratio")
    assert np.isclose(float(cells[ratio_idx]),
                      table.rows[0][ratio_idx], rtol=1e-11)
    assert cells[-1] == "ok"


def test_emit_csv_formats_and_targets():
    table = ResultTable(
        columns=("a", "b", "c", "d"),
        rows=[(1, 0.1 + 0.2, True, "note")],
        metadata={"k": "v"},
    )
    buf = io.StringIO()
    emit_csv(table, buf)
    lines = buf.getvalue().splitlines()
    assert lines[1] == "# k: v"
    assert lines[2] == "a,b,c,d"
    # floats use 12 significant digits; bools become integers
    assert lines[3] == "1,0.3,1,note"

    empty = ResultTable(columns=("x",))
    buf = io.StringIO()
    emit_csv(empty, buf)
    assert buf.getvalue().splitlines()[-1] == "x"

    bad = ResultTable(columns=("z",), rows=[(1j,)])
    with pytest.raises(TypeError):
        emit_csv(bad, io.StringIO())


def test_emit_csv_deterministic_body(tmp_path):
    table = run_scenario(parse_config(swap_chain_raw()))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(table, a)
    emit_csv(table, b)
    strip = lambda p: [l for l in p.read_text().splitlines()
                       if not l.startswith("# created:")
                       and not l.startswith("# wall_time_s:")]
    assert strip(a) == strip(b)


def csv_body(table):
    buf = io.StringIO()
    emit_csv(table, buf)
    return [l for l in buf.getvalue().splitlines() if not l.startswith("# ")]


SWAP_TOLERANCES = {"iterate_tol": 1e-10, "max_iter": 20000}


@pytest.mark.parametrize("raw,param,values,jobs", [
    # Kraus ranks 4 and 2, iterated together
    (bundled_raw("entropy_ratio_sweep"), "baths.0.state.mix.0", [0.5, 1.0], 1),
    (bundled_raw("swap_chain_homogenization"), "sites", [3, 4], 1),
    # the first point stops at max_iter without converging
    (bundled_raw("swap_chain_homogenization", tolerances=SWAP_TOLERANCES),
     "tolerances.max_iter", [5, 20000], 1),
    (bundled_raw("swap_chain_homogenization", tolerances=SWAP_TOLERANCES),
     "tolerances.iterate_tol", [1e-6, 1e-10], 1),
    # t = 1e308 fails in the channel build: an error row, not iterated,
    # serially and built in a worker process
    (bundled_raw("swap_chain_homogenization", tolerances=SWAP_TOLERANCES),
     "t", [0.5, 1e308], 1),
    (bundled_raw("swap_chain_homogenization", tolerances=SWAP_TOLERANCES),
     "t", [0.5, 1e308], 2),
    # 18 points, serially and in two chunks
    (bundled_raw("swap_chain_homogenization"), "t",
     np.linspace(0.2, 1.1, 18).tolist(), 1),
    (bundled_raw("swap_chain_homogenization"), "t",
     np.linspace(0.2, 1.1, 18).tolist(), 2),
], ids=["kraus_ranks", "sites", "max_iter", "iterate_tol", "error_row",
        "error_row_jobs2", "groups", "groups_jobs2"])
def test_sweep_rows_equal_per_point_runs(raw, param, values, jobs):
    # rows hold NaN, so the CSV text is compared, not the row tuples
    raw = dict(raw, sweep={"param": param, "values": values})
    table = sweep(parse_config(raw), jobs=jobs)
    width = len(table.columns)
    rows = []
    for value in values:
        try:
            point = run_scenario(parse_config(set_by_path(raw, param, value)))
        except ValueError as exc:
            rows.append((value,) + (math.nan,) * (width - 2)
                        + (f"{type(exc).__name__}: {exc}",))
        else:
            rows += [(value,) + row for row in point.rows]
    assert csv_body(table) == csv_body(ResultTable(table.columns, rows))


def test_sweep_iterates_each_point_after_its_spectral_step(monkeypatch):
    # each point's iteration, lifted or Kraus, follows its own spectral
    # step, so a sweep holds one point's blocks or Kraus stack at a time
    events = []
    for name in ("is_relaxing", "_lifted_iteration", "iterative_fixed_point"):
        def recording(*args, _name=name, _run=getattr(convergence, name),
                      **kwargs):
            events.append(_name)
            return _run(*args, **kwargs)
        monkeypatch.setattr(convergence, name, recording)
    raw = bundled_raw("anisotropy_entanglement_sweep",
                      tolerances=SWAP_TOLERANCES)
    # at delta = 1, 5 collisions cost less to collide than to lift, the
    # 3076 that 20000 allow do not
    values = [5, 20000, 20000, 5]
    raw["sweep"] = {"param": "tolerances.max_iter", "values": values}
    sweep(parse_config(raw))
    assert events == [
        step for v in values for step in (
            "is_relaxing",
            "iterative_fixed_point" if v == 5 else "_lifted_iteration",
        )
    ]


@pytest.mark.parametrize("delta", [0.5, 1.0])
def test_lifted_rows_in_the_bath_frame_equal_the_kraus_rows(delta,
                                                              monkeypatch):
    # the point lifts its blocks in the baths' frame; the runner rotates
    # the lifted state back out, so its one-collision residual is the
    # Kraus loop's, at most iterate_tol
    cfg = parse_config(bundled_raw("anisotropy_entanglement_sweep",
                                   delta=delta))
    assert scenario._bath_frame(cfg) is not None
    lifting = []

    def spy(*args, _run=convergence._lifting_blocks):
        lifting.append(_run(*args))
        return lifting[-1]

    monkeypatch.setattr(convergence, "_lifting_blocks", spy)
    lifted = run_scenario(cfg)
    assert lifting[0] is not None
    monkeypatch.setattr(convergence, "_lifting_blocks", lambda *args: None)
    kraus = run_scenario(cfg)
    assert lifted.column("collisions") == kraus.column("collisions")
    (got,), (want,) = lifted.column("residual"), kraus.column("residual")
    assert got <= cfg.iterate_tol
    assert got == pytest.approx(want, rel=1e-6, abs=1e-15)


@pytest.mark.parametrize("name,overrides", [
    ("anisotropy_entanglement_sweep", {"delta": 0.5}),
    ("two_bath_equilibrium", {}),
], ids=["fixed_point", "site_populations"])
def test_each_point_splits_its_superoperator_once(name, overrides,
                                                   monkeypatch):
    # the verdict, the fixed point and the lifting share one block split
    calls = []

    def counting(rows, _run=convergence._split):
        calls.append(rows.shape)
        return _run(rows)

    monkeypatch.setattr(convergence, "_split", counting)
    run_scenario(parse_config(bundled_raw(name, **overrides)))
    assert len(calls) == 1
