#!/usr/bin/env python3
"""Pic and Cl of Cn x Cn at scale, one fresh process per n.

    python3 tests/scale_report.py 16 24 32

Each n runs in a child process of its own, so that its peak RSS is its
own: the child builds Cn x Cn under the standard policy, times
``build_product`` then ``pic`` and ``cl``, and prints one line with n,
the seconds of Pic + Cl after the build, the peak RSS of the process,
Pic and Cl.  The library is imported from ``src/`` next to this
directory.  No time is checked; the lines are for reading.  pytest does
not collect this file.
"""

from __future__ import annotations

import os
import resource
import subprocess
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def child(n: int) -> None:
    sys.path.insert(0, SRC)
    from tropic_pic.divisor_theory import cl, pic
    from tropic_pic.multigraph import cycle_graph
    from tropic_pic.product_complex import build_product

    tp = build_product(cycle_graph(n), cycle_graph(n))
    t0 = time.perf_counter()
    pic_group, cl_group = pic(tp), cl(tp)
    seconds = time.perf_counter() - t0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    print(f"C{n}xC{n}: {seconds:.3f} s, peak RSS {rss_mb:.0f} MB, "
          f"Pic {pic_group}, Cl {cl_group}", flush=True)


def main(argv: list) -> int:
    if argv[:1] == ["--child"]:
        child(int(argv[1]))
        return 0
    if not argv or not all(a.isdigit() and int(a) >= 3 for a in argv):
        print("usage: scale_report.py N [N ...]   (each N >= 3)", file=sys.stderr)
        return 2
    for n in argv:
        done = subprocess.run([sys.executable, os.path.abspath(__file__), "--child", n])
        if done.returncode:
            return done.returncode
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
