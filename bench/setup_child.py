"""Set-up probe, run as its own process: import the package, load one
workload's data and build the sampler's initial state (for cli-tbill: import
the CLI module), then print "ready". The parent times it from process start,
so the time covers interpreter start, imports, data loading and init_state.

    python3 bench/setup_child.py SRC WORKLOAD [DATA.npz]
"""

import sys


def main(argv) -> int:
    src, workload = argv[1], argv[2]
    sys.path.insert(0, src)
    if workload == "cli-tbill":
        import timechange_sv.cli  # noqa: F401  (every command pays this import)
    else:
        import numpy as np
        from timechange_sv import mcmc, models

        from workloads import SAMPLERS

        spec = SAMPLERS[workload]
        with np.load(argv[3]) as data:
            times, values = data["times"], data["values"]
        model = models.get_model(spec["model"])
        prior = mcmc.PriorSpec.from_model(model, spec["box"])
        mcmc.init_state(model, model.make_params(), times, values, spec["m"], prior)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
