"""Seeded inputs of the three workloads.

Only numpy and the bundled JSON configs are used here, so the benchmark's
worker (which hands these inputs to mediahom) and its checker (which
recomputes the expected results without mediahom) derive identical inputs
from the same seed.  The seed varies what a workload is given but never how
much work it asks for: the relaxing channel of ``relax_d32`` ignores its
start state, the permuted sweep of ``sweep_d16`` visits the same points,
and every controller sequence has the same length.
"""

from __future__ import annotations

import json
import os

import numpy as np

RELAX_CONFIG = os.path.join("configs", "two_bath_equilibrium.json")
SWEEP_CONFIG = os.path.join("configs", "anisotropy_entanglement_sweep.json")

# The config's anisotropy range at every tenth of its 31 points: delta =
# 0, 0.5, 1, 1.5.  The whole 31-point sweep takes 16-19 s on a 2-vCPU
# Sapphire Rapids guest, too long for a run to repeat it; four points take
# about 2.5 s there and still hold the isotropic point delta = 1 and
# entangled points.
SWEEP_POINTS = 4

# Acceptance criterion 08's controller: base preparation diag(0.8, 0.2),
# weights in [0.5, 1], 500 collisions per sequence, swap coupling for t=0.5.
CONTROLLER_BASE = np.diag([0.8, 0.2]).astype(complex)
CONTROLLER_T = 0.5
CONTROLLER_STEPS = 500
CONTROLLER_POOL = 16
CONTROLLER_SAMPLES = 3


def random_densities(rng, shape, d):
    """Full-rank random states ``G G^dag / Tr`` with complex Ginibre ``G``."""
    g = rng.standard_normal(shape + (d, d)) + 1j * rng.standard_normal(shape + (d, d))
    rho = g @ np.swapaxes(g.conj(), -1, -2)
    return rho / np.trace(rho, axis1=-2, axis2=-1)[..., None, None]


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def relax_config(seed):
    """The two-bath config with a seeded random start state."""
    raw = _load(RELAX_CONFIG)
    raw["initial_state"] = {"random_seed": int(seed)}
    return raw


def sweep_config(seed):
    """The anisotropy sweep at SWEEP_POINTS points, in a seeded order."""
    raw = _load(SWEEP_CONFIG)
    lo, hi, _ = raw["sweep"]["linspace"]
    values = np.linspace(float(lo), float(hi), SWEEP_POINTS)
    order = np.random.default_rng(seed).permutation(len(values))
    raw["sweep"] = {"param": raw["sweep"]["param"],
                    "values": [float(values[k]) for k in order]}
    return raw


def controller_inputs(seed):
    """A pool of seeded controller sequences and their start states.

    Returns a dict of arrays: ``weights`` (pool, steps), ``perturbations``
    (pool, steps, 2, 2), ``rho1`` and ``rho2`` (pool, 2, 2), and
    ``samples`` (pool, CONTROLLER_SAMPLES) step indices whose collisions
    are checked against the reference.
    """
    rng = np.random.default_rng(seed)
    shape = (CONTROLLER_POOL, CONTROLLER_STEPS)
    return {
        "weights": rng.uniform(0.5, 1.0, size=shape),
        "perturbations": random_densities(rng, shape, 2),
        "rho1": random_densities(rng, (CONTROLLER_POOL,), 2),
        "rho2": random_densities(rng, (CONTROLLER_POOL,), 2),
        "samples": rng.integers(0, CONTROLLER_STEPS,
                                size=(CONTROLLER_POOL, CONTROLLER_SAMPLES)),
    }


def write_json(raw, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(raw, fh)
    return path
