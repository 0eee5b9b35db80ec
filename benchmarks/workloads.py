"""The four benchmark workloads: seeded inputs and the layers each one uses.

Everything here is standard library only, so run.py can build the inputs
without importing numpy.  The program under test sees only the
config file and argv produced by `build`.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

NAMES = ("stream", "chain", "large", "identities")

# Layers each workload is expected to reach.  A layer not listed for a
# workload must record no span there (checked by the tiny-size self-test).
EXPECTED_LAYERS = {
    "stream": {
        "cli.write", "cli.run_simulation", "config.load_run_config",
        "grid.dft_operator", "systems.spectral_kinetic_matrix",
        "grid.wavefunction_records", "numerics.exact_evolution",
        "numerics.spectral_norm_upper_bound",
    },
    "chain": {
        "cli.write", "config.load_run_config", "grid.kinetic_operator",
        "evolve.evolve_euler", "evolve.step_network", "evolve.whole_network",
        "numerics.exact_evolution", "numerics.spectral_norm_upper_bound",
        "qcpu.compose_product", "qcpu.build_network", "qcpu.compose_sum",
    },
    "large": {
        "cli.write", "cli.run_simulation", "config.load_run_config",
        "grid.kinetic_operator", "grid.wavefunction_records",
        "numerics.exact_evolution", "numerics.spectral_norm_upper_bound",
    },
    "identities": {
        "cli.write", "cli.identity_suite", "qcpu.compose_product",
        "qcpu.dense_from_factors", "qcpu.build_network", "qcpu.compose_sum",
    },
}

_FREE = {"kind": "free_particle", "mu": 1.0}
_QUADRATIC = {"kind": "grid_schrodinger", "mu": 1.0,
              "potential": {"form": "quadratic", "coefficient": 0.05}}
_TINY_GRID = {"L": 8.0, "k": 4, "sigma": 1.0}

# Per config workload: (subcommand and its flags, system, full size, tiny size).
# Full sizes keep one invocation near 0.5-2.5 s on a 2-vCPU host, so that a
# 25-second run holds ten or more invocations for its median.
# `snapshot_every` above the step count leaves only the first and last snapshot.
_SIZES = {
    "stream": (["simulate"], _FREE,
               dict(L=32.0, k=8, sigma=1.5, snapshot_every=1,
                    evolution={"dt": 1 / 128, "total_time": 2.0}),
               dict(_TINY_GRID, snapshot_every=1, evolution={"dt": 1 / 16, "total_time": 0.25})),
    "chain": (["compare", "--ladder", "3"], _QUADRATIC,
              dict(L=32.0, k=8, sigma=1.5, snapshot_every=1,
                   evolution={"dt": 1 / 64, "total_time": 0.125}),
              dict(_TINY_GRID, snapshot_every=1, evolution={"dt": 1 / 16, "total_time": 0.25})),
    "large": (["simulate"], _QUADRATIC,
              dict(L=64.0, k=10, sigma=3.0, snapshot_every=1_000_000,
                   evolution={"auto_epsilon": 0.05, "total_time": 0.25}),
              dict(_TINY_GRID, snapshot_every=1_000_000,
                   evolution={"auto_epsilon": 0.05, "total_time": 0.0625})),
}
_IDENTITY_DIM = {False: 40, True: 4}


def build(name: str, seed: int, work_dir: Path, tiny: bool = False) -> dict:
    """Write the workload's config under work_dir and return its inputs.

    The seed picks the packet's x0 in [-2, 2] and p0 in [0.5, 1.5], and the
    identity-suite seed; sizes are fixed.  `tiny` shrinks every workload to
    N = 16 (dim 4 for identities) for the span-coverage self-test.
    """
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    rng = random.Random(seed)
    x0, p0 = rng.uniform(-2.0, 2.0), rng.uniform(0.5, 1.5)
    suite_seed = rng.randrange(1_000_000)
    out_dir = work_dir / "out"
    workload = {"name": name, "seed": seed, "out_dir": str(out_dir),
                "config": None, "config_path": None}
    if name == "identities":
        dim = _IDENTITY_DIM[tiny]
        workload["argv"] = ["verify-identities", "--seed", str(suite_seed), "--dim", str(dim),
                            "--out", str(out_dir / "report.json")]
        workload["inputs"] = {"suite_seed": suite_seed, "dim": dim}
        return workload

    (command, *flags), system, full, small = _SIZES[name]
    size = small if tiny else full
    config = {
        "system": system,
        "grid": {"L": size["L"], "k": size["k"], "centered": True},
        "evolution": size["evolution"],
        "initial_state": {"gaussian": {"x0": x0, "p0": p0, "sigma": size["sigma"]}},
        "outputs": {"directory": str(out_dir), "snapshot_every": size["snapshot_every"]},
    }
    config_path = work_dir / "config.json"
    config_path.write_text(json.dumps(config, indent=2) + "\n")
    workload.update(config=config, config_path=str(config_path),
                    argv=[command, "--config", str(config_path)] + flags,
                    inputs={"x0": x0, "p0": p0, "N": 2 ** size["k"]})
    return workload
