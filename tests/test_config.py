import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mediahom import config, qmath
from mediahom.config import (
    config_digest,
    load_config,
    parse_bath_state,
    parse_config,
    parse_matrix,
    set_by_path,
)
from mediahom.errors import ConfigError
from mediahom.tolerances import TRAJECTORY_ENTRIES_LIMIT


def base_raw(**overrides):
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


def test_parse_config_round_trip():
    cfg = parse_config(base_raw())
    assert cfg.model == "swap"
    assert cfg.sites == 3
    assert cfg.local_dim == 2
    assert cfg.delta is None
    assert cfg.graph.edges == ((0, 1, 1.0), (1, 2, 1.0))
    assert cfg.t == 0.5
    assert len(cfg.baths) == 1
    assert cfg.baths[0].site == 2
    assert np.allclose(cfg.baths[0].state, np.diag([0.7, 0.3]))
    assert cfg.analysis == "fixed_point"
    assert cfg.analysis_arg is None
    assert cfg.sweep is None
    assert cfg.two_bath_mode == "simultaneous"
    assert cfg.bath_report == "input"
    # derived spec reuses the validated pieces
    spec = cfg.network_spec()
    assert spec.n_sites == 3


def test_digest_is_stable_and_order_insensitive():
    raw = base_raw()
    reordered = json.loads(json.dumps(raw))
    reordered = dict(reversed(list(reordered.items())))
    assert config_digest(raw) == config_digest(reordered)
    assert len(config_digest(raw)) == 64
    changed = base_raw(t=0.6)
    assert config_digest(changed) != config_digest(raw)
    assert parse_config(raw).digest == config_digest(raw)


def test_named_bath_states():
    zero = parse_bath_state("zero", 2, "s")
    assert np.allclose(zero, np.diag([1, 0]))
    # "zero" generalizes to qudits
    assert np.allclose(parse_bath_state("zero", 3, "s"),
                       np.diag([1, 0, 0]))
    plus = parse_bath_state("plus", 2, "s")
    assert np.allclose(plus, np.full((2, 2), 0.5))
    minus = parse_bath_state("minus", 2, "s")
    assert np.allclose(minus, np.array([[0.5, -0.5], [-0.5, 0.5]]))
    with pytest.raises(ConfigError):
        parse_bath_state("plus", 3, "s")
    with pytest.raises(ConfigError):
        parse_bath_state("up", 2, "s")


def test_parametric_bath_states():
    diag = parse_bath_state({"diag": 0.8}, 2, "s")
    assert np.allclose(diag, np.diag([0.8, 0.2]))
    mixed = parse_bath_state({"mix": [0.5, {"diag": 1.0}, "minus"]}, 2, "s")
    expected = 0.5 * np.diag([1.0, 0.0]) + 0.5 * np.array(
        [[0.5, -0.5], [-0.5, 0.5]]
    )
    assert np.allclose(mixed, expected)
    # mixes nest
    nested = parse_bath_state(
        {"mix": [0.25, "zero", {"mix": [0.5, "plus", "minus"]}]}, 2, "s"
    )
    assert qmath.validate_density(nested).passed
    with pytest.raises(ConfigError):
        parse_bath_state({"diag": 1.5}, 2, "s")
    with pytest.raises(ConfigError):
        parse_bath_state({"mix": [0.5, "zero"]}, 2, "s")


def test_matrix_bath_state():
    state = parse_bath_state(
        {"matrix": [[0.5, [0, 0.1]], [[0, -0.1], 0.5]]}, 2, "s"
    )
    assert np.allclose(state, [[0.5, 0.1j], [-0.1j, 0.5]])
    with pytest.raises(ConfigError):
        # trace 2: not a density matrix
        parse_bath_state({"matrix": [[1.0, 0.0], [0.0, 1.0]]}, 2, "s")
    with pytest.raises(ConfigError):
        parse_bath_state({"matrix": [[1.0]]}, 2, "s")  # wrong dimension
    with pytest.raises(ConfigError):
        parse_matrix([[1.0, 0.0]], "s")  # not square
    with pytest.raises(ConfigError):
        parse_matrix([["x"]], "s")


def test_error_messages_name_the_field():
    nan, inf = float("nan"), float("inf")
    cases = [
        (base_raw(model="ising"), "model"),
        (base_raw(sites=0), "sites"),
        (base_raw(local_dim=1), "local_dim"),
        (base_raw(delta=1.0), "delta"),
        (base_raw(t=-1.0), "t"),
        (base_raw(couplings={"ring": 1.0}), "couplings"),
        (base_raw(couplings={"edges": [[0, 9, 1.0]]}), "couplings.edges"),
        (base_raw(baths=[{"site": 9, "state": "zero"}]), "baths[0].site"),
        (base_raw(baths=[{"site": 2, "state": "odd"}]), "baths[0].state"),
        (base_raw(initial_state="warm"), "initial_state"),
        (base_raw(analysis="everything"), "analysis"),
        (base_raw(tolerances={"iterate_tol": -1}), "tolerances.iterate_tol"),
        (base_raw(tolerances={"budget": 3}), "tolerances"),
        (base_raw(two_bath_mode="parallel"), "two_bath_mode"),
        (base_raw(bath_report="verbose"), "bath_report"),
        (base_raw(nonsense=1), "unknown fields"),
        # NaN and +-Infinity, which Python's json reads
        (base_raw(t=nan), "config.t"),
        (base_raw(t=-inf), "config.t"),
        (base_raw(model="xxz", delta=nan), "config.delta"),
        (base_raw(couplings={"chain": inf}), "couplings.chain"),
        (base_raw(couplings={"edges": [[0, 1, nan]]}), "couplings.edges[0]"),
        (base_raw(couplings={"edges": [[nan, 1, 1.0]]}), "couplings.edges[0]"),
        # sites are integers: no truncation of 0.9 / 1.7, no bool as 1
        (base_raw(couplings={"edges": [[0.9, 1.7, 1.0]]}), "couplings.edges[0]"),
        (base_raw(couplings={"edges": [[0, True, 1.0]]}), "couplings.edges[0]"),
        (base_raw(baths=[{"site": 2, "state": {"diag": True}}]),
         "baths[0].state.diag"),
        (base_raw(baths=[{"site": 2, "state": {"mix": [True, "zero", "plus"]}}]),
         "baths[0].state.mix"),
        (base_raw(tolerances={"iterate_tol": inf}), "tolerances.iterate_tol"),
        (base_raw(tolerances={"iterate_tol": nan}), "tolerances.iterate_tol"),
        (base_raw(tolerances={"max_iter": inf}), "tolerances.max_iter"),
        (base_raw(tolerances={"max_iter": True}), "tolerances.max_iter"),
        (base_raw(tolerances={"max_iter": nan}), "tolerances.max_iter"),
        (base_raw(tolerances={"max_iter": 2.5}), "tolerances.max_iter"),
        (base_raw(tolerances={"max_iter": 0}), "tolerances.max_iter"),
        (base_raw(tolerances={"peripheral_tol": nan}), "tolerances.peripheral_tol"),
        # finer than the block split resolves, or every eigenvalue peripheral
        (base_raw(tolerances={"peripheral_tol": 1e-15}), "tolerances.peripheral_tol"),
        (base_raw(tolerances={"peripheral_tol": 1.0}), "tolerances.peripheral_tol"),
        (base_raw(sweep={"param": "t", "values": [0.1, nan]}), "sweep.values"),
        (base_raw(sweep={"param": "t", "linspace": [0, 1, nan]}), "sweep.linspace"),
        (base_raw(sweep={"param": "t", "linspace": [0, inf, 3]}), "sweep.linspace"),
        # integers beyond the float range, which Python's json reads exactly
        (base_raw(t=10**400), "config.t"),
        (base_raw(baths=[{"site": 2, "state": {"matrix": [[10**400, 0], [0, 0]]}}]),
         "baths[0].state.matrix[0][0]"),
        # sizes refused before anything of that size is allocated
        (base_raw(sites=10**12), "sites"),
        (base_raw(sites=13), "sites"),
        (base_raw(local_dim=10**12, baths=[{"site": 2, "state": "zero"}]),
         "sites"),
        (base_raw(sites=12), "baths"),
        (base_raw(sweep={"param": "t", "linspace": [0, 1, 10**12]}),
         "sweep.linspace"),
        # malformed structure, each named at the field that holds it
        (base_raw(baths=[{"site": 2, "state": {"matrix": [[0.5, 0.0], 0.5]}}]),
         "baths[0].state.matrix[1]: "),
        (base_raw(local_dim=3), "baths[0].state.diag: "),
        (base_raw(couplings={"edges": 5}), "couplings.edges: "),
        (base_raw(couplings={"edges": [[0, 1]]}), "couplings.edges[0]: "),
        (base_raw(analysis="trajectory"), "analysis: "),
        ([base_raw()], "config: "),
        (base_raw(model="xxz", delta=1.0, local_dim=3), "local_dim: "),
        (base_raw(baths=[{"site": 2, "state": "zero", "colour": 1}]),
         "baths[0]: "),
    ]
    for raw, fragment in cases:
        with pytest.raises(ConfigError) as info:
            parse_config(raw)
        assert fragment in str(info.value), (fragment, str(info.value))


def test_missing_required_fields():
    for key in ("model", "sites", "couplings", "t", "baths",
                "initial_state", "analysis"):
        raw = base_raw()
        del raw[key]
        with pytest.raises(ConfigError) as info:
            parse_config(raw)
        assert key in str(info.value)


def test_xxz_requires_delta():
    raw = base_raw(model="xxz")
    with pytest.raises(ConfigError):
        parse_config(raw)
    raw["delta"] = 0.5
    cfg = parse_config(raw)
    assert cfg.delta == 0.5


def test_duplicate_bath_sites_rejected():
    raw = base_raw(baths=[{"site": 2, "state": "zero"},
                          {"site": 2, "state": "plus"}])
    with pytest.raises(ConfigError) as info:
        parse_config(raw)
    assert "site 2" in str(info.value)


def test_analysis_forms():
    cfg = parse_config(base_raw(analysis={"trajectory": 25}))
    assert cfg.analysis == "trajectory"
    assert cfg.analysis_arg == 25
    for name in ("spectrum", "site_populations"):
        assert parse_config(base_raw(analysis=name)).analysis == name
    with pytest.raises(ConfigError):
        parse_config(base_raw(analysis={"trajectory": -1}))


def test_initial_state_forms():
    # a random start names its seed; the bare "random" is refused
    with pytest.raises(ConfigError, match="^initial_state: "):
        parse_config(base_raw(initial_state="random"))
    cfg = parse_config(base_raw(initial_state={"random_seed": 7}))
    assert cfg.initial_state == {"random_seed": 7}
    # parsed against the 3-site chain's dimension 8
    ground = np.zeros((8, 8))
    ground[0, 0] = 1.0
    cfg = parse_config(base_raw(initial_state={"matrix": ground.tolist()}))
    assert np.array_equal(cfg.initial_state["matrix"], ground)
    with pytest.raises(ConfigError):
        parse_config(base_raw(initial_state={"random_seed": "x"}))


@pytest.mark.parametrize("seed", [-1, 2.0, True, None])
def test_random_seed_must_be_an_integer_at_least_zero(seed):
    # numpy's generator refuses a negative seed only when a run draws
    with pytest.raises(ConfigError, match="^initial_state.random_seed: "):
        parse_config(base_raw(initial_state={"random_seed": seed}))


def test_trajectory_storage_limit():
    # the 3-site chain stores 64 entries per state
    steps = TRAJECTORY_ENTRIES_LIMIT // 64 - 1
    assert parse_config(base_raw(analysis={"trajectory": steps})).analysis_arg \
        == steps
    for too_many in (steps + 1, 10**12):
        with pytest.raises(ConfigError, match="analysis.trajectory"):
            parse_config(base_raw(analysis={"trajectory": too_many}))


def test_tolerance_overrides():
    cfg = parse_config(base_raw(
        tolerances={"iterate_tol": 1e-8, "max_iter": 100, "peripheral_tol": 1e-6}
    ))
    assert cfg.iterate_tol == 1e-8
    assert cfg.max_iter == 100
    assert cfg.peripheral_tol == 1e-6


def test_sweep_values_and_linspace():
    cfg = parse_config(base_raw(
        sweep={"param": "t", "values": [0.1, 0.2, 0.5]}
    ))
    assert cfg.sweep.param == "t"
    assert cfg.sweep.values == (0.1, 0.2, 0.5)
    cfg = parse_config(base_raw(
        sweep={"param": "t", "linspace": [0.0, 1.0, 5]}
    ))
    assert cfg.sweep.values == (0.0, 0.25, 0.5, 0.75, 1.0)
    for bad in (
        {"param": "t"},                                  # neither form
        {"param": "t", "values": [], },                  # empty grid
        {"param": "t", "values": [1], "linspace": [0, 1, 2]},  # both forms
        {"param": "", "values": [1.0]},                  # empty path
        {"param": "t", "linspace": [0, 1]},              # malformed linspace
    ):
        with pytest.raises(ConfigError):
            parse_config(base_raw(sweep=bad))


def test_sweep_values_keep_integers():
    cfg = parse_config(base_raw(sweep={"param": "sites", "values": [2, 3.5]}))
    assert cfg.sweep.values == (2, 3.5)
    assert [type(v) for v in cfg.sweep.values] == [int, float]
    # a linspace count is an integer field like any other
    with pytest.raises(ConfigError, match=r"^sweep.linspace\[2\]: "):
        parse_config(base_raw(sweep={"param": "t", "linspace": [0, 1, 5.0]}))


def test_set_by_path_substitution():
    raw = base_raw(sweep={"param": "t", "values": [0.1]})
    updated = set_by_path(raw, "t", 0.9)
    assert updated["t"] == 0.9
    assert raw["t"] == 0.5  # input untouched
    updated = set_by_path(raw, "baths.0.state.diag", 0.25)
    assert updated["baths"][0]["state"]["diag"] == 0.25
    updated = set_by_path(raw, "couplings.chain", 2.0)
    assert updated["couplings"]["chain"] == 2.0
    for bad in ("delta", "baths.5.state", "baths.0.flavor", "t.deep",
                "baths.-1.site", "baths.+0.site", "baths. 0.site"):
        with pytest.raises(ConfigError, match="^sweep.param: "):
            set_by_path(raw, bad, 1.0)


def test_load_config_from_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(base_raw()))
    cfg = load_config(path)
    assert cfg.sites == 3
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(bad)


# Every key and named value the config format knows, so random documents
# reach the nested validators instead of stopping at the first lookup.
CONFIG_KEYS = sorted(config._KNOWN_KEYS | set(config._TOLERANCE_KEYS) | {
    "chain", "edges", "site", "state", "diag", "mix", "matrix",
    "random_seed", "trajectory", "param", "values", "linspace",
})
CONFIG_WORDS = [
    "swap", "xxz", "ground", "zero", "plus", "minus",
    *config._ANALYSES, "simultaneous", "alternating", "input",
    "post_collision", "t", "delta", "baths.0.state.mix.0",
]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.sampled_from(CONFIG_WORDS) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(CONFIG_KEYS) | st.text(max_size=3),
                      inner, max_size=4),
    max_leaves=10,
)
# A valid config that uses every section; each of its paths, inner or
# leaf, is a place to put a random value.
FULL_RAW = base_raw(
    local_dim=2, two_bath_mode="alternating", bath_report="post_collision",
    baths=[{"site": 2, "state": {"mix": [0.5, "zero", {"diag": 0.3}]}}],
    initial_state={"random_seed": 3}, analysis={"trajectory": 4},
    tolerances={"iterate_tol": 1e-9, "max_iter": 50, "peripheral_tol": 1e-8},
    sweep={"param": "t", "linspace": [0.1, 0.5, 3]},
)


def _paths(node, prefix=""):
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        path = f"{prefix}{key}"
        yield path
        yield from _paths(child, path + ".")


def test_full_raw_is_valid():
    assert len(parse_config(FULL_RAW).sweep.values) == 3


@settings(max_examples=120, deadline=None, database=None, derandomize=True)
@given(
    document=st.dictionaries(st.sampled_from(CONFIG_KEYS), JSON_VALUES,
                             max_size=8),
    path=st.sampled_from(sorted(_paths(FULL_RAW))),
    value=JSON_VALUES,
)
def test_any_json_value_parses_or_raises_config_error(document, path, value):
    # a random document, and the full config with one value replaced
    for raw in (document, set_by_path(FULL_RAW, path, value)):
        try:
            cfg = parse_config(json.loads(json.dumps(raw)))
        except ConfigError as exc:
            # the message starts with the field it refuses
            assert re.match(r"^[A-Za-z_][\w.\[\]]*: ", str(exc)), str(exc)
            continue
        assert isinstance(cfg, config.ScenarioConfig)
