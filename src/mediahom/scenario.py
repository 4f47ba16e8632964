"""Scenario runners: config in, result table out.

``run_scenario`` orchestrates the network builders, channel construction,
and convergence analyses behind a single declarative config;  ``sweep``
repeats it across a parameter grid, optionally in parallel, with rows
always assembled in input order.  Each point runs on its own: a
fixed-point analysis builds the channel, then its spectral report, then
iterates the fixed point and forms the rows.  The config is the one
source of a run's settings: its start state (with its random seed) and
its tolerances, all of which its digest covers.  ``emit_csv`` serializes
tables deterministically (12 significant digits, metadata in comment
lines) so an identical config reproduces byte-identical output.
"""

from __future__ import annotations

import csv
import datetime
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__, convergence, qmath
from ._kernels import backend_name, hermitian_trace_norm
from .collision import _bath_channel
from .config import _integer, parse_config, set_by_path
from .errors import (
    ConfigError,
    ConvergenceError,
    ShapeError,
    UndefinedRatioError,
)
from .network import interaction_hamiltonian, system_hamiltonian
from .tolerances import BLOCK_SPLIT_RTOL

_ANALYSIS_COLUMNS = {
    "fixed_point": (
        "s_system", "s_bath", "entropy_ratio", "concurrence_12",
        "spectral_gap", "peripheral_count", "collisions", "residual",
        "relaxing", "status",
    ),
    "trajectory": ("step", "s_system", "concurrence_12", "step_residual",
                   "status"),
    "spectrum": ("index", "eig_real", "eig_imag", "modulus", "status"),
    "site_populations": ("role", "site", "p_zero", "status"),
}


@dataclass
class ResultTable:
    """Uniform-width rows plus provenance metadata.

    Failed points never drop cells: numeric columns hold ``nan`` and the
    trailing ``status`` column says what happened.
    """

    columns: tuple[str, ...]
    rows: list[tuple] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.columns = tuple(self.columns)
        rows, self.rows = self.rows, []
        for row in rows:
            self.append(row)

    def append(self, row):
        row = tuple(row)
        if len(row) != len(self.columns):
            raise ValueError(
                f"row of width {len(row)} in a table with "
                f"{len(self.columns)} columns"
            )
        self.rows.append(row)

    def column(self, name):
        """All values of one column, by name."""
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]


def _initial_state(cfg, dim):
    spec = cfg.initial_state
    if spec == "ground":
        return qmath.projector(qmath.basis_ket(dim, 0))
    if "matrix" in spec:
        return spec["matrix"]  # parsed and checked by parse_config
    return qmath.random_density(
        dim, np.random.default_rng(spec["random_seed"]))


def build_scenario_channel(cfg):
    """The collision channel a config describes.

    Bath ancillas occupy trailing tensor factors in config order.  With no
    baths the channel degenerates to unitary conjugation (trivial ancilla).
    """
    h_sys = system_hamiltonian(cfg.network_spec())
    dims = [cfg.local_dim] * (cfg.sites + len(cfg.baths))
    terms = [
        interaction_hamiltonian(dims, [(cfg.sites + i, bath.site)])
        for i, bath in enumerate(cfg.baths)
    ]
    return _bath_channel(h_sys, terms, [b.state for b in cfg.baths], cfg.t,
                         cfg.two_bath_mode)


def _is_diagonal(matrix):
    """Off-diagonal entries within the block split's relative tolerance."""
    off = matrix - np.diag(np.diagonal(matrix))
    return np.abs(off).max() <= BLOCK_SPLIT_RTOL * np.abs(matrix).max()


def _bath_frame(cfg):
    """``W = V^(x)sites`` for the baths' common eigenbasis ``V``, or None.

    ``V`` holds the eigenvectors of the first bath state that is not
    diagonal and serves only if it diagonalizes every bath state.  Without
    such a state (no baths, or all diagonal) or such a ``V`` there is no
    frame.  A symmetry that the bath states share with the network, such as
    the global X-parity of an XXZ chain with ``"minus"`` baths, is then
    diagonal in the frame, where it splits the superoperator into blocks.
    """
    states = [bath.state for bath in cfg.baths]
    skewed = [state for state in states if not _is_diagonal(state)]
    if not skewed:
        return None
    _, basis = np.linalg.eigh(skewed[0])
    if not all(_is_diagonal(basis.conj().T @ s @ basis) for s in states):
        return None
    return qmath.tensor([basis] * cfg.sites)


def _framed_channel(cfg, channel):
    """``(channel in W, W)`` for its baths' eigenbasis ``W``.

    ``W`` is :func:`_bath_frame`'s unitary; without a frame it is None and
    the channel is returned as it is.  The two have one spectrum.
    """
    frame = _bath_frame(cfg)
    if frame is None:
        return channel, None
    return channel._in_frame(frame), frame


def _relaxing_report(cfg, framed, frame):
    """:func:`convergence.is_relaxing` of a channel in its baths' frame.

    ``(framed, frame)`` is :func:`_framed_channel`'s pair.  The fixed point
    is found and checked in the frame, then rotated back and made exactly
    Hermitian.
    """
    report = convergence.is_relaxing(framed, tol=cfg.peripheral_tol)
    if frame is None or report.fixed_point is None:
        return report
    return replace(report, fixed_point=_unframed(report.fixed_point, frame))


def _unframed(rho, frame):
    """A state found in the frame ``W``, rotated back and made exactly
    Hermitian; ``rho`` itself when there is no frame."""
    if frame is None:
        return rho
    rho = frame @ rho @ frame.conj().T
    return (rho + rho.conj().T) / 2.0


def _concurrence_12(state, cfg):
    if cfg.local_dim != 2 or cfg.sites < 2:
        return math.nan
    pair = qmath.partial_trace(state, [2] * cfg.sites, keep=[0, 1])
    return qmath.concurrence(pair)


def _fixed_point_rows(cfg, channel, rho0):
    """The spectral report, then the iterated fixed point, of one point.

    The framed channel's superoperator is split into blocks once, from its
    Kraus operators: the report's eigenvalues, its fixed point (a bordered
    solve on the block of eigenvalue 1) and the iteration all use that
    split.  The iteration lifts powers of the blocks the start state
    touches where :func:`convergence._lifting_blocks` finds that cheaper,
    and collides the Kraus stack otherwise; both give the Kraus loop's
    collision count.  The start state is rotated into the baths' frame for
    the lifting, and its iterated state back out of it.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    framed, frame = _framed_channel(cfg, channel)
    report = _relaxing_report(cfg, framed, frame)
    start = rho0 if frame is None else frame.conj().T @ rho0 @ frame
    blocks = convergence._lifting_blocks(
        report._blocks, start, len(channel._kraus), report.spectral_gap,
        cfg.iterate_tol, cfg.max_iter,
    )
    status = "ok"
    state = report.fixed_point
    try:
        if blocks is None:
            iterated, collisions = convergence.iterative_fixed_point(
                channel, rho0, tol=cfg.iterate_tol, max_iter=cfg.max_iter
            )
        else:
            iterated, collisions = convergence._settled(
                *convergence._lifted_iteration(
                    blocks, start, cfg.iterate_tol, cfg.max_iter
                )
            )
            if frame is not None:
                iterated = frame @ iterated @ frame.conj().T
    except ConvergenceError as exc:
        residual = exc.residual
        collisions = exc.iterations
        status = f"no convergence: {exc}"
    else:
        residual = float(hermitian_trace_norm(
            channel.apply(iterated) - iterated
        ))
        if state is None:
            state = iterated
    if not report.relaxing:
        status = report.reason if status == "ok" else f"{report.reason}; {status}"

    s_system = s_bath = ratio = math.nan
    conc = math.nan
    if state is not None:
        s_system = qmath.von_neumann_entropy(state)
        conc = _concurrence_12(state, cfg)
        if len(cfg.baths) == 1:
            try:
                ratio = convergence.entropy_ratio(state, cfg.baths[0].state)
                s_bath = qmath.von_neumann_entropy(cfg.baths[0].state)
            except UndefinedRatioError as exc:
                s_bath = exc.bath_entropy
                status = "undefined entropy ratio: bath state is pure" \
                    if status == "ok" else status
    return [(
        s_system, s_bath, ratio, conc, report.spectral_gap,
        report.peripheral_count, collisions, residual,
        int(report.relaxing), status,
    )]


def _trajectory_rows(cfg, channel, rho0):
    states = channel.iterate(rho0, cfg.analysis_arg)
    residuals = [math.nan] + hermitian_trace_norm(
        states[1:] - states[:-1]).tolist()
    return [
        (step, qmath.von_neumann_entropy(state), _concurrence_12(state, cfg),
         residual, "ok")
        for step, (state, residual) in enumerate(zip(states, residuals))
    ]


def _spectrum_rows(cfg, channel, rho0):
    """Every eigenvalue of the framed channel, in one canonical order.

    Rows run by modulus (descending), then real part, then imaginary part,
    so rows of equal modulus do not follow the order of the split's blocks.
    """
    framed, _ = _framed_channel(cfg, channel)
    vals = np.concatenate([
        block.eigvals()
        for block in convergence._split(framed._superoperator_rows())
    ])
    order = np.lexsort((vals.imag, vals.real, -np.abs(vals)))
    return [
        (i, float(vals[j].real), float(vals[j].imag), float(abs(vals[j])), "ok")
        for i, j in enumerate(order)
    ]


def _site_populations_rows(cfg, channel, rho0):
    """The populations of the stationary state, site by site and bath by bath.

    The verdict is :func:`convergence._certified_verdict`'s in the baths'
    frame: it reads only the relaxing verdict and the fixed point, so it
    spares the eigenvalues of blocks proven inside the unit circle, and the
    spectral gap is not known.  A channel that does not relax reports the
    state that the Kraus loop reaches from ``rho0``.
    """
    framed, frame = _framed_channel(cfg, channel)
    _, fixed, reason = convergence._certified_verdict(framed,
                                                      cfg.peripheral_tol)
    if fixed is not None:
        state, status = _unframed(fixed[0], frame), "ok"
    else:
        try:
            state, _ = convergence.iterative_fixed_point(
                channel, rho0, tol=cfg.iterate_tol, max_iter=cfg.max_iter
            )
            status = reason
        except ConvergenceError as exc:
            rows = [("site", k, math.nan, str(exc)) for k in range(cfg.sites)]
            rows += [("bath", b.site, math.nan, str(exc)) for b in cfg.baths]
            return rows
    return _population_rows(cfg, channel, state, status)


def _population_rows(cfg, channel, state, status):
    """One ``site`` row per site of ``state`` and one ``bath`` row per bath,
    each with ``status``."""
    dims = [cfg.local_dim] * cfg.sites
    ground = qmath.projector(qmath.basis_ket(cfg.local_dim, 0))
    rows = []
    for k in range(cfg.sites):
        marginal = qmath.partial_trace(state, dims, keep=[k])
        rows.append((
            "site", k, float(np.real(np.trace(ground @ marginal))), status,
        ))
    post = None
    if cfg.bath_report == "post_collision" and cfg.baths:
        joint = channel.joint_unitary @ qmath.tensor(
            [state] + [b.state for b in cfg.baths]
        ) @ channel.joint_unitary.conj().T
        joint_dims = [cfg.local_dim ** cfg.sites] + list(channel.ancilla_dims)
        post = [
            qmath.partial_trace(joint, joint_dims, keep=[1 + i])
            for i in range(len(cfg.baths))
        ]
    for i, bath in enumerate(cfg.baths):
        marginal = post[i] if post is not None else bath.state
        rows.append((
            "bath", bath.site, float(np.real(np.trace(ground @ marginal))),
            status,
        ))
    return rows


_ANALYSIS_RUNNERS = {
    "fixed_point": _fixed_point_rows,
    "trajectory": _trajectory_rows,
    "spectrum": _spectrum_rows,
    "site_populations": _site_populations_rows,
}


def _point_rows(cfg):
    """The rows of one point's configured analysis."""
    channel = build_scenario_channel(cfg)
    rho0 = _initial_state(cfg, channel.system_dim)
    return _ANALYSIS_RUNNERS[cfg.analysis](cfg, channel, rho0)


def run_scenario(cfg):
    """Execute one scenario, as its config gives it."""
    started = time.perf_counter()
    rows = _point_rows(cfg)
    elapsed = time.perf_counter() - started
    return ResultTable(
        columns=_ANALYSIS_COLUMNS[cfg.analysis],
        rows=rows,
        metadata={
            "config_digest": cfg.digest,
            "version": __version__,
            "backend": backend_name(),
            "analysis": cfg.analysis,
            "wall_time_s": f"{elapsed:.3f}",
        },
    )


def _guarded(fn, *args):
    """``fn(*args)``, or a point's error row for any failure but ConfigError."""
    try:
        return fn(*args)
    except ConfigError:
        raise
    except Exception as exc:  # per-point failures land in the status column
        return [("error", f"{type(exc).__name__}: {exc}")]


def _sweep_chunk(args):
    """One block of rows per sweep point of a contiguous chunk, in order."""
    raw, param, values = args

    def rows(value):
        return _point_rows(parse_config(set_by_path(raw, param, value)))

    return [_guarded(rows, value) for value in values]


def sweep(cfg, param=None, values=None, jobs=1):
    """Rerun a scenario across parameter values; one block of rows each.

    ``param``/``values`` default to the config's own sweep section.  When
    ``jobs`` exceeds 1, the values split into that many contiguous chunks
    that run in parallel, one worker each; the output rows always follow
    the input value order and do not depend on ``jobs``.  Per-point
    failures are recorded in the status column; only config errors abort.
    """
    if param is None or values is None:
        if cfg.sweep is None:
            raise ConfigError(
                "sweep: config has no sweep section and no parameter was given"
            )
        param = cfg.sweep.param if param is None else param
        values = cfg.sweep.values if values is None else values
    values = list(values)
    if not values:
        raise ConfigError("sweep.values: expected a non-empty list")
    # The path and the substituted config must validate before any
    # workers start; per-point numerical failures are tolerated later, bad
    # configs are not.
    parse_config(set_by_path(cfg.raw, param, values[0]))
    jobs = _integer("jobs", jobs, 1)
    started = time.perf_counter()
    workers = min(jobs, len(values))
    cuts = [len(values) * k // workers for k in range(workers + 1)]
    tasks = [(cfg.raw, param, values[a:b]) for a, b in zip(cuts, cuts[1:])]
    if workers == 1:
        chunks = [_sweep_chunk(tasks[0])]
    else:
        # imported here: it loads multiprocessing, which a serial run and
        # ``import mediahom`` do without
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_sweep_chunk, tasks))
    blocks = [block for chunk in chunks for block in chunk]
    elapsed = time.perf_counter() - started

    columns = (param,) + _ANALYSIS_COLUMNS[cfg.analysis]
    width = len(columns)
    table = ResultTable(
        columns=columns,
        metadata={
            "config_digest": cfg.digest,
            "version": __version__,
            "backend": backend_name(),
            "analysis": cfg.analysis,
            "sweep_param": param,
            "points": str(len(values)),
            "jobs": str(jobs),
            "wall_time_s": f"{elapsed:.3f}",
        },
    )
    for value, block in zip(values, blocks):
        for row in block:
            if row and row[0] == "error":
                padded = (value,) + (math.nan,) * (width - 2) + (row[1],)
            else:
                padded = (value,) + tuple(row)
            table.append(padded)
    return table


def _format_cell(value):
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.12g}"
    raise TypeError(f"cannot format cell of type {type(value).__name__}")


def emit_csv(table, destination):
    """Write a table as CSV: comment-line metadata, header, then rows.

    Reals carry 12 significant digits with a ``.`` decimal separator
    regardless of locale; strings are quoted only when needed.
    """
    def _write(fh):
        fh.write(f"# created: {datetime.datetime.now().isoformat()}\n")
        for key in sorted(table.metadata):
            fh.write(f"# {key}: {table.metadata[key]}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(table.columns)
        for row in table.rows:
            writer.writerow([_format_cell(v) for v in row])

    if hasattr(destination, "write"):
        _write(destination)
        return
    try:
        with open(destination, "w", encoding="utf-8", newline="") as fh:
            _write(fh)
    except OSError as exc:
        raise OSError(f"cannot write CSV to {destination}: {exc}") from exc
