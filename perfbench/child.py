"""Traced entry point for one `symcart` command-line call.

    python child.py STATS_JSON SPAWN_TIME [symcart arguments...]

Behaves like `python -m symcart.cli ARGS` (same stdout, same exit code)
with the benchmark's tracer installed around the call. The layer metrics
go to STATS_JSON, together with `cli.import_s`: wall-clock seconds from
SPAWN_TIME (the parent's `time.time()` just before it started this
process) to the end of `import symcart.cli`.
"""

import json
import sys
import time


def main():
    stats_path, spawned = sys.argv[1], float(sys.argv[2])
    import symcart.cli

    import_s = time.time() - spawned
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        code = symcart.cli.main(sys.argv[3:])
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    metrics = tracer.metrics()
    metrics["cli.import_s"] = import_s
    with open(stats_path, "w") as fh:
        json.dump(metrics, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
