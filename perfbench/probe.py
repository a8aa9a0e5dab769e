"""Set-up probe, run as a fresh process by run.py.

Usage: probe.py <workload> <seed> <src dir>

Imports contactopt, parses the workload's command line and builds its
experiment spec, then prints ``ready``: the point at which the first search
trial or check would start.  The parent times the process from its spawn to
that line.
"""

import sys


def main() -> int:
    name, seed, src = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    sys.path.insert(0, src)
    from contactopt import cli
    from workloads import WORKLOADS, check_argv, config_doc, search_argv

    wl = WORKLOADS[name]
    if wl.tune:
        cli.build_parser().parse_args(search_argv("config.json", seed, "bands.csv", "traces.csv"))
        cli.parse_experiment(config_doc(cli, wl, seed))
    else:
        cli.build_parser().parse_args(check_argv(seed))
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
