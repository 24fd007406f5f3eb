#!/usr/bin/env python3
"""Pic and Cl of Cn x Cn and of theta2 x Cn at scale, three fresh
processes per product.

    python3 tests/scale_report.py 16 24 32

Each product runs in three child processes of its own, so that each
peak RSS is its own and one slow phase of a shared host shows as spread
rather than as a slower n: each child builds the product under the
standard policy, times ``build_product`` then ``pic`` and ``cl``, and
reports the seconds of the build, the peak RSS of the process right
after it, the seconds of Pic + Cl after the build, the peak RSS after
them, then, on Cn x Cn, the seconds of the first ``is_principal``
after Pic + Cl, on the divisor of the PL function with vertex values
0, 1, 2, ..., which must be principal, and the peak RSS at the end,
and Pic and Cl.  One line per product gives the fewest and most build
seconds of the three and their largest peak RSS after the build, then
the same for Pic + Cl, and for the first ``is_principal`` on Cn x Cn,
and Pic and Cl, which the three must agree on.  Each n prints its
Cn x Cn line, then its theta2 x Cn line.

Cn x Cn is locally saturated, so Cart is QCart and Pic and Cl share one
quotient.  The first ``is_principal`` writes the congruences that cut
Prin out of QCart, off P's rows at QCart's coordinates, and reads the
QCart kernel that Cl built.  theta2 x Cn is not locally saturated:
Cart is the kernel of every star's congruences, which is the route the
theta2 x Cn line times.  Its Cl is the quotient of the balancing
equations' kernel, which is larger than the saturation of Cart on this
product, so the Cl it prints is not the class group until that defect
(ROADMAP item 1) is fixed.

Then it prints the query costs of the benchmark's divisor_queries
workload (``perfbench/workloads.py``, seed 1), in this process: K4 x C4
under its seeded policy, with the lattices built.  One cold line times
the first pass, in which the first ``is_principal`` writes Prin's
congruences and every condition set is read by ``satisfies``' loop.
Then passes of the workload's ops run until every condition set in the
product's memo has been read often enough to be compiled (at most
``_COMPILE_AFTER`` passes), so that no hot timing straddles a compile.
Per divisor kind (P phi, Cartier combinations, Q-Cartier combinations
and random vectors, 50 each), one hot line gives the median
microseconds per call of ``is_principal``, ``is_cartier``,
``is_q_cartier`` and the JSON round trip, over each divisor timed
QUERY_ROUNDS times; the cold line gives the same medians over the
first pass, once per divisor.  A principal divisor meets every
condition, so each predicate reads all of its conditions, and the
principal line shows where the workload's p90 latency comes from.

The library is imported from ``src/`` next to this directory.  No time
is checked; the lines are for reading.  pytest does not collect this
file.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time

RUNS = 3
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PRODUCTS = ("C{n}xC{n}", "theta2xC{n}")  # per n, in the order printed
QUERY_ROUNDS = 20
KINDS = {"principal": "P phi", "cartier": "Cartier", "qcartier": "Q-Cartier", "random": "random"}


def child(label: str, n: int) -> None:
    sys.path.insert(0, SRC)
    from tropic_pic.divisor_theory import cl, div, is_principal, pic
    from tropic_pic.multigraph import cycle_graph, theta_graph
    from tropic_pic.product_complex import build_product

    first = theta_graph(2) if label.startswith("theta2") else cycle_graph(n)
    second = cycle_graph(n)
    t0 = time.perf_counter()
    tp = build_product(first, second)
    t1 = time.perf_counter()
    build_mb = peak_rss_mb()
    pic_group, cl_group = pic(tp), cl(tp)
    t2 = time.perf_counter()
    query = []
    if not label.startswith("theta2"):
        d = div(tp, list(range(tp.n_vertices)))
        t3 = time.perf_counter()
        if not is_principal(tp, d):
            sys.exit(f"{label}: is_principal refused a principal divisor")
        query = [time.perf_counter() - t3, peak_rss_mb()]
    print(json.dumps([t1 - t0, build_mb, t2 - t1, peak_rss_mb(), query, str(pic_group),
                      str(cl_group)]), flush=True)


def query_costs() -> list:
    """The lines of the K4 x C4 query costs: the first pass, cold, then
    one line per divisor kind, hot."""
    sys.path[:0] = [SRC, os.path.join(ROOT, "perfbench")]
    from tropic_pic import divisor_theory as dt, exact_lattice as el
    from workloads import DivisorQueries

    workload = DivisorQueries(seed=1)
    workload.setup()
    tp, cases = workload.tp, workload.cases()
    calls = {"is_principal": dt.is_principal, "is_cartier": dt.is_cartier,
             "is_q_cartier": dt.is_q_cartier,
             "JSON round trip": lambda tp, d: dt.divisor_from_json(tp, dt.divisor_to_json(tp, d))}

    def medians(divisors: list, rounds: int) -> str:
        costs = []
        for name, call in calls.items():
            times = []
            for _ in range(rounds):
                for d in divisors:
                    t0 = time.perf_counter()
                    call(tp, d)
                    times.append(time.perf_counter() - t0)
            costs.append(f"{name} {statistics.median(times) * 1e6:.1f}")
        return ", ".join(costs)

    lines = ["K4xC4 queries (divisor_queries, seed 1), median us per call:",
             f"  cold, first pass ({len(cases)}): {medians([c.divisor for c in cases], 1)}"]
    sets = [value for value in tp._memo.values() if type(value) is el._Conditions]
    warm = 0
    while warm < el._COMPILE_AFTER and not all(value.test for value in sets):
        for case in cases:
            workload.op(case)
        warm += 1
    lines.append(f"  hot, after {warm} more passes, {sum(bool(value.test) for value in sets)} "
                 f"of {len(sets)} memo condition sets compiled, over {QUERY_ROUNDS} rounds:")
    for kind, label in KINDS.items():
        divisors = [case.divisor for case in cases if case.kind == kind]
        lines.append(f"  {label} ({len(divisors)}): {medians(divisors, QUERY_ROUNDS)}")
    return lines


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def main(argv: list) -> int:
    if argv[:1] == ["--child"]:
        child(argv[1], int(argv[2]))
        return 0
    if not argv or not all(a.isdigit() and int(a) >= 3 for a in argv):
        print("usage: scale_report.py N [N ...]   (each N >= 3)", file=sys.stderr)
        return 2
    for n in argv:
        for label in (form.format(n=n) for form in PRODUCTS):
            runs = []
            for _ in range(RUNS):
                done = subprocess.run(
                    [sys.executable, os.path.abspath(__file__), "--child", label, n],
                    stdout=subprocess.PIPE, text=True)
                if done.returncode:
                    return done.returncode
                runs.append(json.loads(done.stdout))
            groups = {tuple(r[5:]) for r in runs}
            if len(groups) != 1:
                print(f"{label}: the runs disagree on Pic and Cl: {sorted(groups)}",
                      file=sys.stderr)
                return 1
            (pic_text, cl_text), = groups
            build, solve = [r[0] for r in runs], [r[2] for r in runs]
            query = ""
            if runs[0][4]:
                first = [r[4][0] for r in runs]
                query = (f"first is_principal {min(first):.3f}-{max(first):.3f} s, "
                         f"peak RSS {max(r[4][1] for r in runs):.0f} MB; ")
            print(f"{label}: build {min(build):.3f}-{max(build):.3f} s, "
                  f"peak RSS {max(r[1] for r in runs):.0f} MB; "
                  f"Pic + Cl {min(solve):.3f}-{max(solve):.3f} s, "
                  f"peak RSS {max(r[3] for r in runs):.0f} MB; {query}over {RUNS} runs, "
                  f"Pic {pic_text}, Cl {cl_text}", flush=True)
    print(*query_costs(), sep="\n", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
