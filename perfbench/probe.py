"""Set-up probe: interpreter start, ``import convexwave`` and input generation, then exit.

``run.py`` times this script in fresh processes to measure ``setup_s``.
Usage: python3 perfbench/probe.py WORKLOAD SEED SIZE
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (imports convexwave, which builds its Airy anchor table)

workloads.make_inputs(sys.argv[1], int(sys.argv[2]), sys.argv[3])
