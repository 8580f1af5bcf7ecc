"""Set-up probe, run in a fresh interpreter by run.py.

Times what every CLI invocation pays before any compute: importing the
package and turning the workload's first config into domain objects.
Prints one JSON object: {"import_s", "build_s"}.

    python3 perfbench/probe.py <src dir> <config.yaml>
"""

import json
import sys
import time


def main() -> int:
    src, config = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    from shockline import cli

    t1 = time.perf_counter()
    cli.build_scenario(cli.load_config(config))
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "build_s": t2 - t1}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
