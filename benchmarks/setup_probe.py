"""Time one workload's set-up in a fresh interpreter and print the seconds.

Set-up is what every CLI invocation pays before it samples: importing the
package, resolving each step's config, and building its map, measure and
partition context through their public constructors (an EmpiricalOrbit
runs its whole orbit here).  The clock starts before the first import.

    python3 benchmarks/setup_probe.py <repo root> <seed> <experiment>=<config> ...
"""

import time

START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

# config keys holding the depths a driver builds its partition context for
_CTX_DEPTHS = {
    "evl-cylinders": "evl.n_list",
    "smb": "smb.depth_list",
    "rotation-subseq": "hts.depth_list",
    "conditions": "cylinders.max_depth",
}


def _context_depth(cfg):
    key = _CTX_DEPTHS.get(cfg.experiment)
    if key is None and cfg.experiment in ("kac", "hts", "rts") \
            and cfg["hts.target"] == "cylinder":
        key = "hts.depth_list"
    if key is None:
        return None
    depths = cfg[key]
    depths = depths if isinstance(depths, tuple) else (depths,)
    return max(cfg["cylinders.max_depth"], *(d + 2 for d in depths))


def main(argv) -> int:
    root, seed, specs = argv[1], int(argv[2]), argv[3:]
    sys.path.insert(0, os.path.join(root, "src"))
    from evlhts import cli, systems  # noqa: F401  (a CLI run imports it all)
    from evlhts.config import ExperimentConfig
    from evlhts.cylinders import PartitionContext
    from evlhts.measures import BernoulliDoubling, EmpiricalOrbit, Lebesgue1D

    for spec in specs:
        experiment, path = spec.split("=", 1)
        cfg = ExperimentConfig.from_file(experiment, path, seed=seed)
        kind = cfg["system.kind"]
        if kind == "full_tent":
            system = systems.full_tent()
        elif kind == "doubling":
            system = systems.doubling()
        elif kind == "rotation":
            system = systems.rotation(cfg["system.alpha"])
        else:
            system = systems.manneville_pomeau(cfg["system.s"])
        kind = cfg["measure.kind"]
        if kind == "lebesgue":
            measure = Lebesgue1D(system.metric)
        elif kind == "bernoulli":
            measure = BernoulliDoubling(cfg["measure.p"])
        else:
            measure = EmpiricalOrbit(
                system, master_seed=cfg["master_seed"],
                orbit_len=cfg["measure.orbit_len"],
                burn_in=cfg["measure.burn_in"])
        depth = _context_depth(cfg)
        if depth is not None:
            PartitionContext(system, measure, max_depth=depth)
    print(time.perf_counter() - START)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
