"""Set-up probe: import semigroup_lab, write a workload's configs, then
print the CLOCK_MONOTONIC instant at which the process was ready.

    python3 bench/ready.py <workload> <config directory>
"""

import sys
import time
from pathlib import Path

from workloads import WORKLOADS, import_package, write_configs

import_package()
write_configs(WORKLOADS[sys.argv[1]], Path(sys.argv[2]))
print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
