"""Declarative scenario configs: JSON in, validated objects out.

A scenario names a network model, a coupling graph, bath attachments with
their prepared states, an initial system state, and one analysis to run.
Every validation failure raises :class:`ConfigError` naming the offending
field.  Configs carry a content digest so emitted tables are traceable to
the exact inputs that produced them.

Named bath states (qubits): ``"zero"`` = |0><0|, ``"plus"`` / ``"minus"``
= |+><+| / |-><-|, ``{"diag": p}`` = p|0><0| + (1-p)|1><1|, and
``{"mix": [p, s1, s2]}`` = p*s1 + (1-p)*s2 with s1, s2 again state specs.
Explicit matrices use ``{"matrix": [[...]]}`` with entries either reals or
``[re, im]`` pairs.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from . import qmath
from .collision import _MODES
from .errors import ConfigCapacityError, ConfigError
from .network import _MODELS, CouplingGraph, NetworkSpec, chain_graph
from .tolerances import (
    BLOCK_SPLIT_RTOL,
    DEFAULT_ITERATE_TOL,
    DEFAULT_MAX_ITER,
    JOINT_DIM_LIMIT,
    PERIPHERAL_ATOL,
    SUPEROPERATOR_DIM_LIMIT,
    SWEEP_POINTS_LIMIT,
    TRAJECTORY_ENTRIES_LIMIT,
)

_ANALYSES = ("fixed_point", "trajectory", "spectrum", "site_populations")
_TOLERANCE_KEYS = ("iterate_tol", "max_iter", "peripheral_tol")


@dataclass(frozen=True, eq=False)
class BathSpec:
    """One bath attachment: where it couples and what it prepares."""

    site: int
    state: np.ndarray


@dataclass(frozen=True)
class SweepSpec:
    """Parameter path plus the values to substitute at it."""

    param: str
    values: tuple[float | int, ...]


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    model: str
    sites: int
    local_dim: int
    delta: float | None
    graph: CouplingGraph
    t: float
    baths: tuple[BathSpec, ...]
    initial_state: str | dict
    analysis: str
    analysis_arg: int | None
    iterate_tol: float
    max_iter: int
    peripheral_tol: float
    two_bath_mode: str
    bath_report: str
    sweep: SweepSpec | None
    digest: str
    raw: dict

    def network_spec(self):
        return NetworkSpec(
            graph=self.graph,
            local_dim=self.local_dim,
            model=self.model,
            delta=self.delta,
        )


def config_digest(raw):
    """Stable content hash of the raw config mapping."""
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _is_real(value):
    """A JSON number that converts to a float (booleans excluded).

    An integer beyond the float range does not: ``float`` overflows on it.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    return (not isinstance(value, numbers.Integral)
            or abs(value) <= sys.float_info.max)


def _is_finite_number(value):
    """A JSON number other than NaN or +-Infinity (booleans excluded)."""
    return _is_real(value) and math.isfinite(value)


def _is_index(value):
    """A JSON integer (booleans excluded)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _number(where, value, low=-math.inf, high=math.inf):
    """``value`` as a float, refused (naming ``where``) unless a finite
    number in ``[low, high]``: the check of every real a config gives.
    """
    if not _is_finite_number(value):
        raise ConfigError(f"{where}: expected a finite number, got {value!r}")
    if not low <= value <= high:
        raise ConfigError(
            f"{where}: must lie in [{low}, {high}], got {value!r}"
        )
    return float(value)


def _integer(where, value, least):
    """``value`` as an int, refused (naming ``where``) unless an integer >=
    ``least``: the check of every integer a config gives, and of a sweep's
    ``jobs``.
    """
    if not _is_index(value) or value < least:
        raise ConfigError(
            f"{where}: must be an integer >= {least}, got {value!r}"
        )
    return int(value)


def _tolerance(key, value):
    """``tolerances.<key>`` as a config gives it, checked.

    ``max_iter`` must be an integer >= 1, and the tolerances positive
    finite numbers; a boolean is neither.  ``peripheral_tol`` lies in
    ``[BLOCK_SPLIT_RTOL, 1)``: finer is below what the block split keeps,
    and at 1 every eigenvalue is peripheral.  Returns an int or a float.
    """
    if key == "max_iter":
        return _integer("tolerances.max_iter", value, 1)
    if not _is_finite_number(value) or value <= 0:
        raise ConfigError(
            f"tolerances.{key}: must be positive and finite, got {value!r}"
        )
    if key == "peripheral_tol" and not BLOCK_SPLIT_RTOL <= value < 1:
        raise ConfigError(f"tolerances.peripheral_tol: must lie in "
                          f"[{BLOCK_SPLIT_RTOL}, 1), got {value!r}")
    return float(value)


def _within_joint_limit(local_dim, factors):
    """Whether ``local_dim ** factors`` is at most ``JOINT_DIM_LIMIT``.

    ``local_dim >= 2``, so the factor count is checked first and the power
    is only taken when it is small.
    """
    return (factors <= JOINT_DIM_LIMIT.bit_length()
            and local_dim ** factors <= JOINT_DIM_LIMIT)


def _within_superoperator_limit(dim, analysis):
    """Whether ``analysis`` can run at system dim ``dim``.

    A trajectory collides the Kraus stack and needs no superoperator.  The
    other analyses split it, which a channel refuses above system dim
    ``SUPEROPERATOR_DIM_LIMIT`` (:class:`CapacityError`).
    """
    return analysis == "trajectory" or dim <= SUPEROPERATOR_DIM_LIMIT


def _one_of(where, value, choices):
    """``value``, refused (naming ``where``) unless one of ``choices``."""
    if value not in choices:
        raise ConfigError(f"{where}: expected one of {choices}, got {value!r}")
    return value


def _form(where, spec, forms):
    """``(form, value)`` of a one-key object ``{form: value}``, refused
    (naming ``where``) unless ``form`` is one of ``forms``.
    """
    if isinstance(spec, dict) and len(spec) == 1:
        (form, value), = spec.items()
        if form in forms:
            return form, value
    raise ConfigError(
        f"{where}: expected an object with one key of {forms}, got {spec!r}"
    )


def _require(raw, key, kind=object, where="config"):
    """``raw[key]``, refused (naming ``where``) if missing or not a ``kind``.

    A number or an integer is then checked by :func:`_number` or
    :func:`_integer`.
    """
    if key not in raw:
        raise ConfigError(f"{where}: missing required field {key!r}")
    value = raw[key]
    if not isinstance(value, kind):
        raise ConfigError(
            f"{where}.{key}: expected {kind.__name__}, got {type(value).__name__}"
        )
    return value


def _parse_complex_entry(value, where):
    if _is_real(value):
        return complex(value)
    if isinstance(value, list) and len(value) == 2 and all(map(_is_real, value)):
        return complex(value[0], value[1])
    raise ConfigError(
        f"{where}: matrix entries must be reals or [re, im] pairs, got {value!r}"
    )


def parse_matrix(entries, where):
    """Nested lists of reals or ``[re, im]`` pairs into a complex array."""
    if not isinstance(entries, list) or not entries:
        raise ConfigError(f"{where}: expected a non-empty list of rows")
    rows = []
    for i, row in enumerate(entries):
        if not isinstance(row, list):
            raise ConfigError(f"{where}[{i}]: expected a list")
        rows.append([
            _parse_complex_entry(v, f"{where}[{i}][{j}]")
            for j, v in enumerate(row)
        ])
    if any(len(r) != len(rows) for r in rows):
        raise ConfigError(f"{where}: matrix must be square")
    return np.array(rows, dtype=complex)


def parse_bath_state(spec, local_dim, where):
    """A bath-state spec (named, parametric, or explicit) into a matrix."""
    if not isinstance(spec, dict):
        name = _one_of(where, spec, ("zero", "plus", "minus"))
        if name == "zero":
            return qmath.projector(qmath.basis_ket(local_dim, 0))
        if local_dim != 2:
            raise ConfigError(f"{where}: {name!r} requires local_dim 2")
        sign = 1.0 if name == "plus" else -1.0
        return qmath.projector(np.array([1.0, sign]) / np.sqrt(2.0))
    form, value = _form(where, spec, ("diag", "mix", "matrix"))
    if form == "diag":
        if local_dim != 2:
            raise ConfigError(f"{where}.diag: requires local_dim 2")
        p = _number(f"{where}.diag", value, 0.0, 1.0)
        return np.diag([p, 1.0 - p]).astype(complex)
    if form == "mix":
        if not isinstance(value, list) or len(value) != 3:
            raise ConfigError(f"{where}.mix: expected [weight, state, state]")
        p = _number(f"{where}.mix[0]", value[0], 0.0, 1.0)
        first = parse_bath_state(value[1], local_dim, f"{where}.mix[1]")
        second = parse_bath_state(value[2], local_dim, f"{where}.mix[2]")
        return p * first + (1.0 - p) * second
    return _parse_density(value, local_dim, "local_dim", f"{where}.matrix")


def _parse_density(entries, dim, dim_name, where):
    """An explicit ``{"matrix": ...}`` state, checked to be ``dim x dim``."""
    matrix = parse_matrix(entries, where)
    if matrix.shape[0] != dim:
        raise ConfigError(
            f"{where}: dimension {matrix.shape[0]} does not match "
            f"{dim_name} {dim}"
        )
    try:
        return qmath.ensure_density(matrix)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_couplings(spec, sites):
    form, value = _form("couplings", spec, ("chain", "edges"))
    if form == "chain":
        return chain_graph(sites, _number("couplings.chain", value))
    if not isinstance(value, list):
        raise ConfigError("couplings.edges: expected a list of [a, b, J]")
    edges = []
    for i, edge in enumerate(value):
        where = f"couplings.edges[{i}]"
        if not isinstance(edge, list) or len(edge) != 3:
            raise ConfigError(
                f"{where}: expected [site, site, coupling], got {edge!r}"
            )
        edges.append((_integer(where, edge[0], 0), _integer(where, edge[1], 0),
                      _number(where, edge[2])))
    try:
        return CouplingGraph(sites, tuple(edges))
    except ValueError as exc:
        raise ConfigError(f"couplings.edges: {exc}") from exc


def _parse_initial_state(spec, dim):
    if not isinstance(spec, dict):
        return _one_of("initial_state", spec, ("ground",))
    form, value = _form("initial_state", spec, ("random_seed", "matrix"))
    if form == "random_seed":
        return {"random_seed": _integer("initial_state.random_seed", value, 0)}
    return {"matrix": _parse_density(value, dim, "system dimension",
                                     "initial_state.matrix")}


def _parse_analysis(spec, dim):
    """``(analysis, step count)``: a name from ``_ANALYSES``, or
    ``{"trajectory": steps}``, the one analysis that takes a count.
    """
    if not isinstance(spec, dict):
        analysis = _one_of("analysis", spec, _ANALYSES)
        if analysis == "trajectory":
            raise ConfigError(
                "analysis: trajectory takes a step count, as {'trajectory': n}"
            )
        return analysis, None
    _, steps = _form("analysis", spec, ("trajectory",))
    steps = _integer("analysis.trajectory", steps, 0)
    if (steps + 1) * dim * dim > TRAJECTORY_ENTRIES_LIMIT:
        raise ConfigError(
            f"analysis.trajectory: {steps} steps store {steps + 1} states "
            f"of dimension {dim}, more than the limit of "
            f"{TRAJECTORY_ENTRIES_LIMIT} matrix entries"
        )
    return "trajectory", steps


def _parse_sweep(raw):
    if "sweep" not in raw:
        return None
    spec = raw["sweep"]
    if not isinstance(spec, dict):
        raise ConfigError("sweep: expected an object")
    param = spec.get("param")
    if not isinstance(param, str) or not param:
        raise ConfigError("sweep.param: expected a non-empty parameter path")
    if ("values" in spec) == ("linspace" in spec):
        raise ConfigError("sweep: expected exactly one of 'values' or 'linspace'")
    if "values" in spec:
        values = spec["values"]
        if not isinstance(values, list) or not values:
            raise ConfigError("sweep.values: expected a non-empty list")
        # a JSON integer stays one, so an integer field can be swept; the
        # field it lands in checks its range
        return SweepSpec(param, tuple(
            v if _is_index(v) else _number(f"sweep.values[{i}]", v)
            for i, v in enumerate(values)))
    grid = spec["linspace"]
    if not isinstance(grid, list) or len(grid) != 3:
        raise ConfigError("sweep.linspace: expected [start, stop, count]")
    start = _number("sweep.linspace[0]", grid[0])
    stop = _number("sweep.linspace[1]", grid[1])
    count = _integer("sweep.linspace[2]", grid[2], 1)
    if count > SWEEP_POINTS_LIMIT:
        raise ConfigError(
            f"sweep.linspace: {count} points exceed the limit of "
            f"{SWEEP_POINTS_LIMIT}"
        )
    return SweepSpec(param, tuple(np.linspace(start, stop, count).tolist()))


_KNOWN_KEYS = {
    "model", "sites", "local_dim", "delta", "couplings", "t", "baths",
    "initial_state", "analysis", "tolerances", "two_bath_mode",
    "bath_report", "sweep",
}


def parse_config(raw):
    """Validate a raw mapping into a :class:`ScenarioConfig`."""
    if not isinstance(raw, dict):
        raise ConfigError(f"config: expected an object, got {type(raw).__name__}")
    unknown = set(raw) - _KNOWN_KEYS
    if unknown:
        raise ConfigError(f"config: unknown fields {sorted(unknown)}")

    model = _one_of("model", _require(raw, "model"), _MODELS)
    sites = _integer("sites", _require(raw, "sites"), 1)
    local_dim = _integer("local_dim", raw.get("local_dim", 2), 2)
    if not _within_joint_limit(local_dim, sites):
        raise ConfigError(
            f"sites: {sites} sites of local_dim {local_dim} exceed the joint "
            f"dimension limit {JOINT_DIM_LIMIT}"
        )
    delta = None
    if model == "xxz":
        delta = _number("config.delta", _require(raw, "delta"))
        if local_dim != 2:
            raise ConfigError("local_dim: xxz model requires 2")
    elif "delta" in raw:
        raise ConfigError("delta: only meaningful for the xxz model")

    graph = _parse_couplings(_require(raw, "couplings"), sites)
    t = _number("config.t", _require(raw, "t"), 0.0)

    baths_raw = _require(raw, "baths", list)
    if not _within_joint_limit(local_dim, sites + len(baths_raw)):
        raise ConfigError(
            f"baths: {sites} sites and {len(baths_raw)} baths of local_dim "
            f"{local_dim} exceed the joint dimension limit {JOINT_DIM_LIMIT}"
        )
    baths = []
    seen_sites = set()
    for i, entry in enumerate(baths_raw):
        where = f"baths[{i}]"
        if not isinstance(entry, dict):
            raise ConfigError(f"{where}: expected an object")
        site = _integer(f"{where}.site", _require(entry, "site", where=where), 0)
        if site >= sites:
            raise ConfigError(f"{where}.site: {site} out of range for {sites} sites")
        if site in seen_sites:
            raise ConfigError(f"{where}.site: more than one bath at site {site}")
        seen_sites.add(site)
        state = parse_bath_state(_require(entry, "state", where=where),
                                 local_dim, f"{where}.state")
        extra = set(entry) - {"site", "state"}
        if extra:
            raise ConfigError(f"{where}: unknown fields {sorted(extra)}")
        baths.append(BathSpec(site=site, state=state))

    dim = local_dim ** sites
    initial_state = _parse_initial_state(_require(raw, "initial_state"), dim)
    analysis, analysis_arg = _parse_analysis(_require(raw, "analysis"), dim)
    if not _within_superoperator_limit(dim, analysis):
        raise ConfigCapacityError(
            f"sites: {sites} sites of local_dim {local_dim} make system dim "
            f"{dim}; the {analysis} analysis splits the superoperator, "
            f"refused beyond system dim {SUPEROPERATOR_DIM_LIMIT}"
        )

    tolerances = raw.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise ConfigError("tolerances: expected an object")
    unknown = set(tolerances) - set(_TOLERANCE_KEYS)
    if unknown:
        raise ConfigError(f"tolerances: unknown fields {sorted(unknown)}")
    iterate_tol = _tolerance(
        "iterate_tol", tolerances.get("iterate_tol", DEFAULT_ITERATE_TOL))
    max_iter = _tolerance("max_iter",
                          tolerances.get("max_iter", DEFAULT_MAX_ITER))
    peripheral_tol = _tolerance(
        "peripheral_tol", tolerances.get("peripheral_tol", PERIPHERAL_ATOL))

    two_bath_mode = _one_of(
        "two_bath_mode", raw.get("two_bath_mode", "simultaneous"), _MODES)
    bath_report = _one_of("bath_report", raw.get("bath_report", "input"),
                          ("input", "post_collision"))

    return ScenarioConfig(
        model=model, sites=sites, local_dim=local_dim, delta=delta,
        graph=graph, t=t, baths=tuple(baths), initial_state=initial_state,
        analysis=analysis, analysis_arg=analysis_arg,
        iterate_tol=iterate_tol, max_iter=max_iter,
        peripheral_tol=peripheral_tol, two_bath_mode=two_bath_mode,
        bath_report=bath_report, sweep=_parse_sweep(raw),
        digest=config_digest(raw), raw=raw,
    )


def load_config(path):
    """Read and validate a JSON scenario config file."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    # decoding fails with a ValueError, or a RecursionError on deep nesting
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(raw)


def set_by_path(raw, path, value):
    """Substitute ``value`` at a dotted ``path`` into a raw config mapping.

    Path segments index objects by key and lists by non-negative integer
    position, e.g. ``"baths.0.state.mix.0"``.  Returns a deep copy; the
    input is untouched.
    """
    updated = json.loads(json.dumps(raw))
    node = updated
    parts = path.split(".")

    def position(seg):
        if not (seg.isascii() and seg.isdigit()):
            raise ConfigError(
                f"sweep.param: path {path!r} indexes a list with {seg!r}; "
                "list positions are non-negative integers"
            )
        return int(seg)

    try:
        for seg in parts[:-1]:
            node = node[position(seg)] if isinstance(node, list) else node[seg]
        last = parts[-1]
        if isinstance(node, list):
            node[position(last)] = value
        else:
            if last not in node:
                raise KeyError(last)
            node[last] = value
    except ConfigError:
        raise
    except (KeyError, IndexError, ValueError, TypeError) as exc:
        raise ConfigError(f"sweep.param: path {path!r} not found in config") from exc
    return updated
