"""mediahom benchmark: three workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload relax_d32 --seed 1 --seconds 38 --trace 0

Workloads: ``relax_d32`` (``mediahom run`` on the five-site two-bath
chain, dominated by the dense superoperator eigendecomposition),
``sweep_d16`` (``mediahom sweep --jobs 1`` over 4 anisotropies of a
four-site chain, dominated by fixed-point iteration) and
``controller_sequence`` (thousands of tiny d = 2 channels, each built once
and applied once).  See ``perfbench/README.md``.

The set-up is timed by starting a fresh worker interpreter that imports
mediahom, makes the inputs and exits, several times; the operations then
run in one more worker.  Every worker holds BLAS to one thread.  This
process checks the worker's outputs against ``reference.py`` and prints,
as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import os

# Before numpy loads, in this process and (through the environment) in
# every worker: one BLAS thread, so that cpu_s is the work done.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import csv  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from functools import reduce  # noqa: E402

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import reference as ref  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".perfbench")

SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
WORKER_TIMEOUT_S = 150

# Work units per operation, for work_per_s: scenarios, sweep points,
# collisions (two trajectories of one controller sequence).
WORK_PER_OP = {"relax_d32": 1, "sweep_d16": inputs.SWEEP_POINTS,
               "controller_sequence": 1000}

FP_ATOL = 1e-8          # relax_d32 site populations vs reference
SWEEP_ATOL = 1e-6       # sweep_d16 entropy and concurrence vs reference
COLLISION_ATOL = 1e-10  # controller_sequence sampled collisions vs reference
MONOTONE_SLACK = 1e-10
FORGET_FINAL = 1e-3


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def required_sources():
    return [os.path.join(ROOT, "src", "mediahom", "__init__.py"),
            os.path.join(ROOT, inputs.RELAX_CONFIG),
            os.path.join(ROOT, inputs.SWEEP_CONFIG)]


def worker_cmd(args, workdir, *extra):
    return [sys.executable, WORKER, "--workload", args.workload,
            "--seed", str(args.seed), "--workdir", workdir, *extra]


def time_setup(args, workdir):
    """Wall time of fresh worker start-ups that stop after set-up."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.run(worker_cmd(args, workdir, "--probe"),
                              cwd=ROOT, timeout=PROBE_TIMEOUT_S,
                              capture_output=True, text=True)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            fail(f"set-up probe failed:\n{proc.stderr}")
    return times


def run_worker(args, workdir, out, spans):
    cmd = worker_cmd(args, workdir, "--seconds", str(args.seconds),
                     "--trace", str(args.trace), "--out", out, "--spans", spans)
    proc = subprocess.run(cmd, cwd=ROOT, timeout=WORKER_TIMEOUT_S,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        fail(f"worker failed:\n{proc.stderr}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


# -- checks against the reference --------------------------------------------


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def check_relax(ops, seed, problems):
    raw = inputs.relax_config(seed)
    if raw.get("two_bath_mode", "simultaneous") != "simultaneous":
        fail("reference models simultaneous baths only")
    n, baths = raw["sites"], raw["baths"]
    u = ref.joint_unitary(ref.xxz(n, raw["delta"], raw["couplings"]["chain"]),
                          [b["site"] for b in baths], raw["t"])
    omega = reduce(np.kron, [ref.bath_state(b["state"]) for b in baths])
    rho = ref.fixed_point(ref.superoperator(u, omega, 2 ** n), 2 ** n)
    expected = {("site", k): ref.p_zero(rho, n, k) for k in range(n)}
    expected.update({("bath", b["site"]): ref.bath_state(b["state"])[0, 0].real
                     for b in baths})
    for op in ops:
        rows = read_csv(op["output"])
        got = {(r["role"], int(r["site"])): float(r["p_zero"]) for r in rows}
        if set(got) != set(expected) or len(rows) != len(expected):
            problems.append(f"op {op['index']}: rows {sorted(got)}")
            continue
        for key, want in expected.items():
            tol = FP_ATOL if key[0] == "site" else 1e-12
            if not abs(got[key] - want) <= tol:
                problems.append(f"op {op['index']}: {key} p_zero {got[key]!r} "
                                f"vs reference {want!r}")
        if any(r["status"] != "ok" for r in rows):
            problems.append(f"op {op['index']}: status not ok")


SWEEP_STATUSES = ("ok", "undefined entropy ratio: bath state is pure")


def check_sweep(ops, seed, problems):
    raw = inputs.sweep_config(seed)
    n, site = raw["sites"], raw["baths"][0]["site"]
    omega = ref.bath_state(raw["baths"][0]["state"])
    max_iter = raw.get("tolerances", {}).get("max_iter", 20000)
    if 1.0 not in raw["sweep"]["values"]:
        problems.append("sweep has no isotropic point delta = 1")
    expected = []
    for delta in raw["sweep"]["values"]:
        u = ref.joint_unitary(ref.xxz(n, delta, raw["couplings"]["chain"]),
                              [site], raw["t"])
        rho = ref.fixed_point(ref.superoperator(u, omega, 2 ** n), 2 ** n)
        expected.append((delta, ref.entropy_bits(rho),
                         ref.concurrence(ref.reduce_to(rho, n, [0, 1]))))
    for op in ops:
        rows = read_csv(op["output"])
        if len(rows) != len(expected):
            problems.append(f"op {op['index']}: {len(rows)} rows")
            continue
        for row, (delta, s_ref, c_ref) in zip(rows, expected):
            where = f"op {op['index']} delta {delta:.4f}"
            s, c = float(row["s_system"]), float(row["concurrence_12"])
            if not abs(float(row["delta"]) - delta) <= 1e-11:
                problems.append(f"{where}: row order")
            if row["relaxing"] != "1" or row["status"] not in SWEEP_STATUSES:
                problems.append(f"{where}: status {row['status']!r}")
            if not 0 < int(row["collisions"]) < max_iter:
                problems.append(f"{where}: collisions {row['collisions']}")
            if not (abs(s - s_ref) <= SWEEP_ATOL and abs(c - c_ref) <= SWEEP_ATOL):
                problems.append(f"{where}: s {s!r} c {c!r} vs reference "
                                f"{s_ref!r} {c_ref!r}")
            if delta == 1.0 and not (s <= 1e-6 and c <= 1e-6):
                problems.append(f"{where}: isotropic point not a pure product")
        if not any(float(r["concurrence_12"]) > 0.01 for r in rows):
            problems.append(f"op {op['index']}: no entangled point")


def check_controller(ops, seed, problems):
    data = inputs.controller_inputs(seed)
    u = ref.joint_unitary(np.zeros((2, 2), dtype=complex), [0],
                          inputs.CONTROLLER_T)
    for op in ops:
        with open(op["output"], encoding="utf-8") as fh:
            out = json.load(fh)
        where = f"op {op['index']}"
        k, series = out["pool"], out["series"]
        rho1, rho2 = data["rho1"][k], data["rho2"][k]
        start = np.linalg.svd(rho1 - rho2, compute_uv=False).sum()
        if not abs(series[0] - start) <= COLLISION_ATOL:
            problems.append(f"{where}: initial distance {series[0]!r}")
        if not all(b <= a + MONOTONE_SLACK for a, b in zip(series, series[1:])):
            problems.append(f"{where}: forgetting series increases")
        if not series[-1] < FORGET_FINAL:
            problems.append(f"{where}: final distance {series[-1]!r}")
        applied = np.array(out["applied_re"]) + 1j * np.array(out["applied_im"])
        for got, step in zip(applied, data["samples"][k]):
            w = data["weights"][k][step]
            omega = w * inputs.CONTROLLER_BASE + (1 - w) * data["perturbations"][k][step]
            err = np.abs(got - ref.apply_collision(u, rho1, omega)).max()
            if not err <= COLLISION_ATOL:
                problems.append(f"{where}: step {step} differs by {err:.2e}")


CHECKS = {"relax_d32": check_relax, "sweep_d16": check_sweep,
          "controller_sequence": check_controller}


# -- metrics -------------------------------------------------------------------


def middle_mean(values):
    """Interquartile mean: the mean of the middle half of ``values``.

    Operation times are summarised this way, not by the fastest operation
    or the median: on a shared host the speed drifts within a run, and the
    middle half spread least between runs (README.md, "Steadiness").
    """
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def end_to_end(workload, ops, setup_times, peak_rss_mb):
    timed = [op for op in ops if op["ok"]] or ops
    wall = middle_mean(op["wall_s"] for op in timed)
    return {
        "wall_s": wall,
        "work_per_s": WORK_PER_OP[workload] / wall,
        "cpu_s": middle_mean(op["cpu_s"] for op in timed),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup_times),
    }


def per_layer(result):
    ops = result["ops"]
    plain = middle_mean(op["wall_s"] for op in ops if not op["traced"])
    traced = middle_mean(op["wall_s"] for op in ops if op["traced"])
    values = dict(result["layers"], **result["micro"])
    values["trace.overhead_s"] = traced - plain
    return values


def declared(values, section):
    """The metrics BENCHMARK.json declares in ``section``, with their units."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)[section]
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing:
        fail(f"metrics not produced: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(CHECKS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in required_sources() if not os.path.isfile(p)]
    if missing:
        print(f"perfbench: not a mediahom checkout, missing {missing}",
              file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT_DIR, f"work-{tag}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        setup_times = time_setup(args, workdir)
        result = run_worker(args, workdir, os.path.join(workdir, "result.json"),
                            os.path.join(OUT_DIR, f"spans-{tag}.json"))
        ops = result["ops"]
        done = [op for op in ops if op["ok"]]
        problems = []
        CHECKS[args.workload](done, args.seed, problems)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = declared(per_layer(result), "per_layer")
    else:
        metrics = declared(end_to_end(args.workload, ops, setup_times,
                                      result["peak_rss_mb"]), "end_to_end")
    summary = {"correct": not problems, "attempted": len(ops),
               "failed": len(ops) - len(done), "metrics": metrics}
    record = dict(summary, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  facts=result["facts"], setup_times_s=setup_times,
                  ops=[{k: v for k, v in op.items() if k != "output"}
                       for op in ops],
                  problems=problems[:50])
    with open(os.path.join(OUT_DIR, f"run-{tag}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for line in problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps({"facts": result["facts"]}))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
