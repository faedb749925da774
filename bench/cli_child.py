"""Runs one CLI command with every layer wrapped, then writes the spans.

    python3 bench/cli_child.py SRC STATS.json COMMAND [ARGS...]

Exits with the command's own exit code.
"""

import json
import sys
import time


def main(argv) -> int:
    src, stats_file, cli_argv = argv[1], argv[2], argv[3:]
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import timechange_sv.cli  # noqa: F401
    import_s = time.perf_counter() - t0
    import timechange_sv as pkg

    from tracing import Tracer, install_layers

    tracer = Tracer()
    missing = install_layers(tracer, pkg)
    try:
        code = pkg.cli.main(cli_argv)
    finally:
        tracer.restore()
    dump = tracer.dump()
    dump["import_s"] = import_s
    dump["missing"] = sorted(missing)
    with open(stats_file, "w") as fh:
        json.dump(dump, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
