"""Set-up of one workload, timed in a fresh interpreter.

    python3 perfbench/setup_probe.py SRC_DIR ITEMS_JSON

ITEMS_JSON is a list of [metric, conformal factor or null, point], a point
being a list of [re, im] pairs.  Prints the time taken to import chernkit,
parse every metric (and factor) and evaluate one jet of each, in
reference-speed seconds (see speed.py), then in wall seconds.  The first
jet of a metric builds its lazy derivative tables.
"""

import json
import sys

from speed import SpeedClock


def set_up(items):
    """Parse every metric of the workload and evaluate one jet of each."""
    import chernkit

    for metric, factor, point in items:
        spec = chernkit.builtin(metric).spec
        if factor is not None:
            spec = chernkit.conformal_metric(spec, chernkit.parse_expression(factor, spec.n))
        chernkit.metric_jet(spec, [complex(re, im) for re, im in point])


def main(argv):
    src, items = argv[1], json.loads(argv[2])
    sys.path.insert(0, src)
    with SpeedClock() as clock:
        set_up(items)
    print(repr(clock.scaled), repr(clock.wall))


if __name__ == "__main__":
    main(sys.argv)
