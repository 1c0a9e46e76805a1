"""Set-up probe for ``congest_exact``: import, build the graphs and their networks.

Usage: ``python3 perfbench/congest_setup.py SEED`` with ``src`` on
``PYTHONPATH``.  The benchmark times this whole process.
"""

import sys

from inputs import congest_set


def main() -> int:
    from repro.api import Engine  # noqa: F401  (the import is part of set-up)
    from repro.congest.network import CongestNetwork

    for _label, graph in congest_set(int(sys.argv[1])):
        CongestNetwork(graph)
    return 0


if __name__ == "__main__":
    sys.exit(main())
