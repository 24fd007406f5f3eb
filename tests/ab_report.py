#!/usr/bin/env python3
"""The torus_ladder op timed in one process against another checkout.

    python3 tests/ab_report.py OTHER_CHECKOUT [ROUNDS]

Imports ``src/tropic_pic`` of this checkout and of OTHER_CHECKOUT (a
directory holding ``src/tropic_pic``, such as a ``git worktree`` or
``git archive`` of the parent commit) under two package names in one
process.  A pass is the benchmark's torus_ladder op on C3..C6 under
the standard policy: parse the text of both factors, ``build_product``,
then ``pic`` and ``cl``, which must both be Z^3 + Z/n + Z/n.  After one
untimed pass per side, each of ROUNDS rounds (60 by default) times one
pass per side, the side that goes first alternating.

It prints, per side, the fewest seconds of a pass over the rounds; then
the paired ratio, this checkout's pass over the other's in the same
round, as a change in percent: its median and quartiles, and the
number of rounds in which this checkout's pass was lower.  Pairs in one
process share the host's slow phases: on a shared host, the medians of
child processes swung by up to half from one run to the next, and the
in-process pairs did not.

No time is checked; the lines are for reading.  pytest does not collect
this file.
"""

from __future__ import annotations

import gc
import importlib
import importlib.util
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNGS = (3, 4, 5, 6)


def load(name: str, checkout: str):
    """The package ``src/tropic_pic`` of checkout, imported as name:
    (multigraph, product_complex, divisor_theory, exact_lattice)."""
    package = os.path.join(checkout, "src", "tropic_pic")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(package, "__init__.py"), submodule_search_locations=[package])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return tuple(importlib.import_module(f"{name}.{m}") for m in
                 ("multigraph", "product_complex", "divisor_theory", "exact_lattice"))


def cycle_text(n: int) -> str:
    """Cn in the ``v``/``e`` line format, as the benchmark writes it."""
    return "".join([f"v {i}\n" for i in range(n)]
                   + [f"e e{i} {i} {(i + 1) % n}\n" for i in range(n)])


def one_pass(modules, texts) -> float:
    """Seconds of one torus_ladder pass; SystemExit on a wrong group."""
    mg, pc, dt, el = modules
    t0 = time.perf_counter()
    groups = []
    for text in texts:
        tp = pc.build_product(mg.parse_graph_text(text), mg.parse_graph_text(text))
        groups.append((dt.pic(tp), dt.cl(tp)))
    elapsed = time.perf_counter() - t0
    for n, (pic, cl) in zip(RUNGS, groups):
        if not pic == cl == el.AbGroup(3, (n, n)):
            sys.exit(f"C{n}xC{n}: Pic {pic}, Cl {cl}, not Z^3 + Z/{n} + Z/{n}")
    return elapsed


def main(argv: list) -> int:
    if not 1 <= len(argv) <= 2 or not os.path.isdir(os.path.join(argv[0], "src", "tropic_pic")) \
            or not (len(argv) == 1 or argv[1].isdigit() and int(argv[1]) >= 4):
        print("usage: ab_report.py OTHER_CHECKOUT [ROUNDS]   (ROUNDS >= 4, default 60)",
              file=sys.stderr)
        return 2
    rounds = int(argv[1]) if len(argv) == 2 else 60
    sides = {"this": load("tropic_pic_this", ROOT), "other": load("tropic_pic_other", argv[0])}
    texts = [cycle_text(n) for n in RUNGS]
    times = {side: [] for side in sides}
    for modules in sides.values():
        one_pass(modules, texts)
    for r in range(rounds):
        for side in (("this", "other") if r % 2 else ("other", "this")):
            gc.collect()
            times[side].append(one_pass(sides[side], texts))
    ratios = [100 * (a / b - 1) for a, b in zip(times["this"], times["other"])]
    q1, median, q3 = statistics.quantiles(ratios, n=4)
    print(f"torus_ladder pass (C3..C6), {rounds} alternated rounds in one process")
    print(f"  other: {argv[0]}")
    for side in sides:
        print(f"  {side}: fewest {min(times[side]) * 1e3:.3f} ms, "
              f"median {statistics.median(times[side]) * 1e3:.3f} ms")
    print(f"  this / other - 1: median {median:+.1f}%, quartiles {q1:+.1f}% and {q3:+.1f}%; "
          f"this lower in {sum(a < b for a, b in zip(times['this'], times['other']))} "
          f"of {rounds} rounds")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
