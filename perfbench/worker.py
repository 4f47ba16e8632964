"""One benchmark worker: set up a workload, run its operations, record them.

Started by ``run.py`` in a fresh interpreter with BLAS held to one thread.
With ``--probe`` it stops after set-up (imports and input generation), so
``run.py`` can time set-up on its own.  Otherwise it runs whole operations
until ``--seconds`` have passed, writes each operation's output to a file
in ``--workdir`` and their timings to ``--out``.  The checks against the
reference happen in ``run.py``, so that this process's peak memory is
mediahom's alone and does not grow with the number of operations.  With ``--trace 1`` the
first half of the time runs untraced, the second half under the tracer,
and the kernel micro-layer runs last.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib.metadata
import json
import os
import platform
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)
sys.path.insert(1, HERE)

import numpy as np  # noqa: E402

import inputs  # noqa: E402
from tracer import Tracer  # noqa: E402

from mediahom import (  # noqa: E402
    _kernels, backend_name, cli, collision, config, convergence, network,
    qmath, scenario,
)

MICRO_SITES = (2, 3, 4, 5, 6)     # end-coupled swap chains of d = 4 .. 64
MICRO_BATCH_S = 0.02
MICRO_BATCHES = 7


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, or -1."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return -1


def peak_rss_mb():
    """This process's peak resident set (VmHWM).

    ``ru_maxrss`` is not used: Linux carries the spawning parent's peak
    across ``exec`` into it.
    """
    with open("/proc/self/status", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def machine_facts():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "backend": backend_name(),
    }


# -- workloads ---------------------------------------------------------------


class CliWorkload:
    """``mediahom run`` or ``mediahom sweep --jobs 1`` through ``cli.main``."""

    def __init__(self, workdir, seed, command):
        self.workdir = workdir
        self.command = command
        raw = (inputs.relax_config(seed) if command == "run"
               else inputs.sweep_config(seed))
        self.config = inputs.write_json(raw, os.path.join(workdir, "config.json"))

    def op(self, index):
        out = os.path.join(self.workdir, f"op{index:04d}.csv")
        argv = [self.command, "--config", self.config, "--out", out]
        if self.command == "sweep":
            argv += ["--jobs", "1"]
        return cli.main(argv) == 0, out

    def outputs(self, index, result):
        return result


class ControllerWorkload:
    """Criterion-08-style imperfect controllers at d = 2, one sequence per op."""

    def __init__(self, workdir, seed):
        self.workdir = workdir
        self.data = inputs.controller_inputs(seed)
        self.steps = [
            tuple(zip(w.tolist(), list(p)))
            for w, p in zip(self.data["weights"], self.data["perturbations"])
        ]

    def op(self, index):
        k = index % inputs.CONTROLLER_POOL
        spec = network.NetworkSpec(network.chain_graph(1))
        h_sys = network.system_hamiltonian(spec)
        h_int = network.interaction_hamiltonian([2, 2], [(1, 0)])
        seq = collision.ControllerSequence(inputs.CONTROLLER_BASE, self.steps[k])
        channels = collision.imperfect_controller_sequence(
            h_sys, h_int, inputs.CONTROLLER_T, seq
        )
        series = convergence.forgetting_metric(
            channels, self.data["rho1"][k], self.data["rho2"][k]
        )
        return len(series) == inputs.CONTROLLER_STEPS + 1, (k, channels, series)

    def outputs(self, index, result):
        k, channels, series = result
        rho1 = self.data["rho1"][k]
        applied = [channels[int(l)].apply(rho1) for l in self.data["samples"][k]]
        return inputs.write_json({
            "pool": k,
            "series": [float(v) for v in series],
            "applied_re": [a.real.tolist() for a in applied],
            "applied_im": [a.imag.tolist() for a in applied],
        }, os.path.join(self.workdir, f"op{index:04d}.json"))


def make_workload(name, workdir, seed):
    if name == "relax_d32":
        return CliWorkload(workdir, seed, "run")
    if name == "sweep_d16":
        return CliWorkload(workdir, seed, "sweep")
    if name == "controller_sequence":
        return ControllerWorkload(workdir, seed)
    raise ValueError(f"unknown workload {name!r}")


# -- tracing -----------------------------------------------------------------


def kraus_flops(kraus):
    """Computed flops of one Kraus application to a D x D state.

    K rho then (K rho) K^dag: two complex D x D products per Kraus
    operator, 8 real flops per complex multiply-add.
    """
    m, d, _ = kraus.shape
    return 16.0 * m * d ** 3


def install_tracer(tracer):
    """Wrap each layer's public entry points; ``tracer.uninstall`` undoes it."""
    c = tracer.counters
    wrap, patch = tracer.wrap, tracer.patch

    def on_channel(args, kwargs, result):
        c["channels_built"] += 1
        c["kraus_ops"] += args[0].kraus_operators().shape[0]

    def on_superoperator(args, kwargs, result):
        c["superoperator_dim"] = max(c["superoperator_dim"], result.matrix.shape[0])

    def on_iterative(args, kwargs, result):
        used = result[1]
        c["collisions"] += used
        c["conv_collisions"] += used
        c["conv_flops"] += used * kraus_flops(args[0].kraus_operators())

    def on_apply(args, kwargs, result):
        c["collisions"] += 1
        if tracer.in_span("convergence.forgetting_metric"):
            c["conv_collisions"] += 1
            c["conv_flops"] += kraus_flops(args[0])

    parse = config.parse_config
    patch(config, "parse_config",
          wrap(parse, "config.parse_config", "config.parse_s"))
    patch(scenario, "parse_config",
          wrap(parse, "config.parse_config", "config.parse_s"))
    patch(cli, "load_config",
          wrap(config.load_config, "config.load_config", "config.parse_s"))
    patch(scenario, "set_by_path",
          wrap(config.set_by_path, "config.set_by_path", "config.parse_s"))

    for owner in (network, scenario):
        for attr in ("system_hamiltonian", "interaction_hamiltonian"):
            patch(owner, attr, wrap(getattr(owner, attr), f"network.{attr}",
                                    "network.hamiltonian_s"))

    patch(qmath, "unitary_from_hamiltonian",
          wrap(qmath.unitary_from_hamiltonian,
               "qmath.unitary_from_hamiltonian", "qmath.unitary_s"))

    channel_cls = collision.CollisionChannel
    patch(channel_cls, "__init__",
          wrap(channel_cls.__init__, "collision.CollisionChannel",
               "collision.channel_build_s", on_channel))
    patch(channel_cls, "superoperator",
          wrap(channel_cls.superoperator, "collision.superoperator",
               "collision.superoperator_s", on_superoperator))
    for attr in ("build_channel", "imperfect_controller_sequence"):
        patch(collision, attr, wrap(getattr(collision, attr),
                                    f"collision.{attr}",
                                    "collision.channel_build_s"))
    seq_cls = collision.ControllerSequence
    patch(seq_cls, "__post_init__",
          wrap(seq_cls.__post_init__, "collision.ControllerSequence",
               "collision.sequence_s"))
    patch(collision, "apply_kraus", tracer.count(collision.apply_kraus, on_apply))

    patch(convergence, "is_relaxing",
          wrap(convergence.is_relaxing, "convergence.is_relaxing",
               "convergence.spectral_s"))
    patch(convergence, "iterative_fixed_point",
          wrap(convergence.iterative_fixed_point,
               "convergence.iterative_fixed_point", "convergence.iterative_s",
               on_iterative))
    patch(convergence, "forgetting_metric",
          wrap(convergence.forgetting_metric, "convergence.forgetting_metric",
               "convergence.forgetting_s"))

    for name in ("run_scenario", "sweep", "emit_csv"):
        fn = getattr(scenario, name)
        span = wrap(fn, f"scenario.{name}", "scenario.self_s")
        patch(cli, name, span)
        if name == "run_scenario":
            patch(scenario, name, span)


LAYER_TIMES = (
    "config.parse_s", "network.hamiltonian_s", "qmath.unitary_s",
    "collision.channel_build_s", "collision.sequence_s",
    "collision.superoperator_s", "convergence.spectral_s",
    "convergence.iterative_s", "convergence.forgetting_s", "scenario.self_s",
)


def layer_metrics(tracer, traced_ops):
    """Per-op means of every layer's self time and counters."""
    n = len(traced_ops)
    totals, wall = tracer.self_times(set(traced_ops))
    out = {name: totals.get(name, 0.0) / n for name in LAYER_TIMES}
    c = tracer.counters
    conv_s = out["convergence.iterative_s"] + out["convergence.forgetting_s"]
    conv_collisions = c["conv_collisions"] / n
    out.update({
        "collision.channels_built": c["channels_built"] / n,
        "collision.kraus_rank": (c["kraus_ops"] / c["channels_built"]
                                 if c["channels_built"] else 0.0),
        "collision.superoperator_dim": c["superoperator_dim"],
        "kernels.collisions": c["collisions"] / n,
        "kernels.us_per_collision": (conv_s / conv_collisions * 1e6
                                     if conv_collisions else 0.0),
        "kernels.gflops_computed": (c["conv_flops"] / n / conv_s / 1e9
                                    if conv_collisions else 0.0),
        "trace.unattributed_s": totals.get("op", 0.0) / n,
        "trace.coverage": 1.0 - totals.get("op", 0.0) / wall,
        "trace.spans": len(tracer.spans) / n,
    })
    return out


def _per_call_us(fn):
    """Median per-call time over batches of about MICRO_BATCH_S each."""
    calls = 1
    while True:
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        if time.perf_counter() - start >= MICRO_BATCH_S:
            break
        calls *= 2
    batches = []
    for _ in range(MICRO_BATCHES):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        batches.append((time.perf_counter() - start) / calls)
    return statistics.median(batches) * 1e6


def kernel_micro_layer(seed):
    """``apply_kraus`` and ``hermitian_trace_norm`` on end-coupled swap chains."""
    rng = np.random.default_rng(seed)
    out = {}
    for n in MICRO_SITES:
        d = 2 ** n
        spec = network.NetworkSpec(network.chain_graph(n))
        h_int = network.interaction_hamiltonian([2] * (n + 1), [(n, n - 1)])
        omega = inputs.random_densities(rng, (), 2)
        channel = collision.build_channel(
            network.system_hamiltonian(spec), h_int, omega, 0.5
        )
        kraus = channel.kraus_operators()
        rho, sigma = inputs.random_densities(rng, (2,), d)
        diff = rho - sigma
        m = kraus.shape[0]
        apply_us = _per_call_us(lambda: _kernels.apply_kraus(kraus, rho))
        flops = kraus_flops(kraus)
        out[f"kernels.apply_us.d{d}"] = apply_us
        out[f"kernels.trace_norm_us.d{d}"] = _per_call_us(
            lambda: _kernels.hermitian_trace_norm(diff)
        )
        out[f"kernels.apply_flops_computed.d{d}"] = flops
        # Kraus stack and input read once, output written once.
        out[f"kernels.apply_bytes_computed.d{d}"] = 16.0 * (m + 2) * d * d
        out[f"kernels.apply_gflops_computed.d{d}"] = flops / apply_us / 1e3
    return out


# -- main --------------------------------------------------------------------


def run_ops(workload, seconds, first_index, tracer=None):
    """Whole operations until ``seconds`` pass (at least one)."""
    records = []
    started = time.perf_counter()
    index = first_index
    while not records or time.perf_counter() - started < seconds:
        token = tracer.begin_op(index) if tracer else None
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            ok, result = workload.op(index)
            error = None
        except Exception as exc:  # an operation that raises counts as failed
            ok, result, error = False, None, f"{type(exc).__name__}: {exc}"
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        if tracer:
            tracer.end_op(token)
            tracer.active = False
        record = {"index": index, "wall_s": wall, "cpu_s": cpu, "ok": ok,
                  "traced": tracer is not None, "error": error}
        if ok:
            record["output"] = workload.outputs(index, result)
        if tracer:
            tracer.active = True
        records.append(record)
        index += 1
    return records


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out")
    parser.add_argument("--spans")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.abspath(sys.modules["mediahom"].__file__).startswith(SRC):
        raise SystemExit(f"mediahom imported from outside {SRC}")
    workload = make_workload(args.workload, args.workdir, args.seed)
    if args.probe:
        return 0

    result = {"facts": machine_facts()}
    if args.trace:
        ops = run_ops(workload, args.seconds / 2.0, 0)
        tracer = Tracer()
        install_tracer(tracer)
        traced = run_ops(workload, args.seconds / 2.0, len(ops), tracer)
        tracer.uninstall()
        result["layers"] = layer_metrics(
            tracer, [r["index"] for r in traced]
        )
        result["micro"] = kernel_micro_layer(args.seed)
        with open(args.spans, "w", encoding="utf-8") as fh:
            json.dump(tracer.records(), fh)
        ops += traced
    else:
        ops = run_ops(workload, args.seconds, 0)
    result["ops"] = ops
    result["peak_rss_mb"] = peak_rss_mb()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
