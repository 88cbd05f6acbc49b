"""Two-CPU probe: how long two CPU-bound processes take at once against one alone.

Usage: python3 tools/cpu_probe.py

A host whose second CPU is shared may, for seconds to minutes, run two busy
processes each at half speed, and so any parallel code too. The probe starts
one child that spins ``LOOPS`` empty loop iterations and times them, then two
such children at once, and prints one JSON line: ``one_s``, the child's loop
time alone; ``two_s``, the slower of the two children's; and ``ratio``,
``two_s / one_s``. About 1 means both CPUs were there, about 2 that the two
processes shared one. Run it before and after any measurement of parallel
code, and report it with the measurement. It starts three processes in all
and imports nothing beyond the standard library, so that a child's start-up
stays short next to its loop.
"""

from __future__ import annotations

import json
import subprocess
import sys

LOOPS = 10_000_000  # empty loop iterations per child
# the child times its own loop, so its start-up is not counted
CHILD = ("import time\n"
         "start = time.perf_counter()\n"
         "for _ in range({loops}):\n"
         "    pass\n"
         "print(time.perf_counter() - start)\n")


def spin(k: int) -> float:
    """The longest loop time of ``k`` children started together."""
    children = [subprocess.Popen([sys.executable, "-c", CHILD.format(loops=LOOPS)],
                                 stdout=subprocess.PIPE, text=True) for _ in range(k)]
    times = []
    for child in children:
        out, _ = child.communicate()
        if child.returncode != 0:
            raise RuntimeError(f"probe child exited with {child.returncode}")
        times.append(float(out))
    return max(times)


def main() -> int:
    one = spin(1)
    two = spin(2)
    print(json.dumps({"one_s": one, "two_s": two, "ratio": round(two / one, 2)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
