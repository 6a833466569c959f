"""Set-up probe: import the package and do its one-time builds, then report.

The benchmark times this script from process start to the line it prints,
which is the set-up a user pays before the first op can run. The line also
gives the in-process time of each one-time build.
"""

import json
import sys
from time import perf_counter

t0 = perf_counter()
import qkostant  # noqa: E402
import qkostant.cli  # noqa: E402,F401
from qkostant.rootsys import weyl_group  # noqa: E402
from qkostant.sp4 import fundamental_weights_c2, weyl_group_c2  # noqa: E402

t1 = perf_counter()
weyl_group()
t2 = perf_counter()
weyl_group_c2()
t3 = perf_counter()
fundamental_weights_c2()
t4 = perf_counter()
sys.stdout.write(json.dumps({
    "import_ms": (t1 - t0) * 1e3,
    "rootsys.weyl_group.first_ms": (t2 - t1) * 1e3,
    "sp4.weyl_group_c2.first_ms": (t3 - t2) * 1e3,
    "sp4.fundamental_weights_c2.first_ms": (t4 - t3) * 1e3,
}) + "\n")
sys.stdout.flush()
