"""Rewrite the reference reports in perfbench/reference/.

    python3 perfbench/regen_reference.py [WORKLOAD ...]

Runs one report per workload (all when none is named) and stores it in the
form the benchmark compares against.  Use it only after an intended change to
the reports; the golden reports under src/ are a separate set.
"""

import sys

import run


def main(argv: list) -> int:
    for name in argv or sorted(run.WORKLOADS):
        print(run.write_reference(name))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
