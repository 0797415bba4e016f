"""One set-up sample: import ``ucp2d`` from ``SRC`` and load and validate
each scenario file, then print the elapsed seconds.

    python3 bench/setup_probe.py SRC SCENARIO.json [SCENARIO.json ...]

``run.py`` starts this in a fresh interpreter for each sample, so every
sample pays the whole import, as a user's first command does.
"""

import sys
import time


def main(argv):
    start = time.perf_counter()
    sys.path.insert(0, argv[0])
    from ucp2d import cli

    for path in argv[1:]:
        cli.load_scenario(path)
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main(sys.argv[1:])
