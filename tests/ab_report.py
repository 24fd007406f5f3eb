#!/usr/bin/env python3
"""The torus_ladder and divisor_queries ops timed in one process
against another checkout.

    python3 tests/ab_report.py OTHER_CHECKOUT [ROUNDS]

Imports ``src/tropic_pic`` of this checkout and of OTHER_CHECKOUT (a
directory holding ``src/tropic_pic``, such as a ``git worktree`` or
``git archive`` of the parent commit) under two package names in one
process.  A torus pass is the benchmark's torus_ladder op on C3..C6
under the standard policy: parse the text of both factors,
``build_product``, then ``pic`` and ``cl``, which must both be
Z^3 + Z/n + Z/n.  A query pass is the divisor_queries op on K4 x C4
under a seeded random policy, with each side's product built and its
Prin, Cart and QCart lattices built beforehand: per divisor,
``is_principal``, ``is_cartier``, ``is_q_cartier`` and the JSON round
trip, over 50 divisors each of P phi, Cartier combinations, Q-Cartier
combinations and random vectors, drawn as the workload draws them.  A
P phi divisor must be principal, the round trip must give the divisor
back, and both sides must give the same answers.  Per op, after one
untimed pass per side, each of ROUNDS rounds (60 by default) times one
pass per side, the side that goes first alternating.

It prints, per op and side, the fewest and the median milliseconds of a
pass over the rounds; then the paired ratio, this checkout's pass over
the other's in the same round, as a change in percent: its median and
quartiles, and the number of rounds in which this checkout's pass was
lower.  Pairs in one process share the host's slow phases: on a shared
host, the medians of child processes swung by up to half from one run
to the next, and the in-process pairs did not.

No time is checked; the lines are for reading.  pytest does not collect
this file.
"""

from __future__ import annotations

import gc
import importlib
import importlib.util
import os
import random
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNGS = (3, 4, 5, 6)
PER_KIND = 50


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


def graph_text(n: int, edges) -> str:
    """The graph on n vertices with these (u, w) edges, named e0, e1, ...,
    in the ``v``/``e`` line format, as the benchmark writes it."""
    return "".join([f"v {i}\n" for i in range(n)]
                   + [f"e e{k} {u} {w}\n" for k, (u, w) in enumerate(edges)])


def cycle_text(n: int) -> str:
    return graph_text(n, [(i, (i + 1) % n) for i in range(n)])


def torus_pass(modules, texts) -> float:
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


def query_product(modules, seed: int = 1):
    """K4 x C4 under a random policy seeded by seed, one diagonal flip
    per square, with its Prin, Cart and QCart lattices built."""
    mg, pc, dt, _ = modules
    rng = random.Random(seed)
    k4 = graph_text(4, [(u, w) for u in range(4) for w in range(u + 1, 4)])
    policy = "".join(f"d e{a} e{b} {rng.getrandbits(1)}\n" for a in range(6) for b in range(4))
    tp = pc.build_product(mg.parse_graph_text(k4), mg.parse_graph_text(cycle_text(4)),
                          pc.parse_policy_text(policy))
    for lattice in (dt.prin_lattice, dt.cart_lattice, dt.qcart_lattice):
        lattice(tp)
    return tp


def query_divisors(modules, tp, seed: int = 1) -> list:
    """(kind, divisor) pairs, PER_KIND each of P phi, Cartier and
    Q-Cartier combinations and random vectors, shuffled."""
    _, _, dt, _ = modules
    rng = random.Random(seed)
    cart, qcart = dt.cart_lattice(tp).basis, dt.qcart_lattice(tp).basis
    out = []
    for _ in range(PER_KIND):
        out.append(("principal", dt.div(tp, [rng.randint(-3, 3) for _ in range(tp.n_vertices)])))
        for kind, basis in (("cartier", cart), ("qcartier", qcart)):
            out.append((kind, basis.mul_vec([rng.randint(-2, 2) for _ in range(basis.cols)])))
        out.append(("random", tuple(rng.randint(-2, 2) for _ in range(tp.n_edges))))
    rng.shuffle(out)
    return out


def query_pass(modules, tp, divisors, answers: list) -> float:
    """Seconds of one divisor_queries pass over divisors on tp, whose
    flags are written to answers; SystemExit on a P phi divisor that is
    not principal or a round trip that changes the divisor."""
    _, _, dt, _ = modules
    t0 = time.perf_counter()
    out = [(dt.is_principal(tp, d), dt.is_cartier(tp, d), dt.is_q_cartier(tp, d),
            dt.divisor_from_json(tp, dt.divisor_to_json(tp, d))) for _, d in divisors]
    elapsed = time.perf_counter() - t0
    for (kind, d), (principal, _, _, back) in zip(divisors, out):
        if back != d or kind == "principal" and not principal:
            sys.exit(f"K4xC4: wrong answer on the {kind} divisor {d}")
    answers[:] = [flags[:3] for flags in out]
    return elapsed


def paired(title: str, passes: dict, rounds: int) -> None:
    """Times the passes, one callable per side, one untimed pass each
    and then rounds that alternate the side that goes first, and prints
    the lines of title."""
    times = {side: [] for side in passes}
    for run in passes.values():
        run()
    for r in range(rounds):
        for side in (("this", "other") if r % 2 else ("other", "this")):
            gc.collect()
            times[side].append(passes[side]())
    ratios = [100 * (a / b - 1) for a, b in zip(times["this"], times["other"])]
    q1, median, q3 = statistics.quantiles(ratios, n=4)
    print(f"{title}, {rounds} alternated rounds in one process")
    for side in passes:
        print(f"  {side}: fewest {min(times[side]) * 1e3:.3f} ms, "
              f"median {statistics.median(times[side]) * 1e3:.3f} ms")
    print(f"  this / other - 1: median {median:+.1f}%, quartiles {q1:+.1f}% and {q3:+.1f}%; "
          f"this lower in {sum(a < b for a, b in zip(times['this'], times['other']))} "
          f"of {rounds} rounds")


def main(argv: list) -> int:
    if not 1 <= len(argv) <= 2 or not os.path.isdir(os.path.join(argv[0], "src", "tropic_pic")) \
            or not (len(argv) == 1 or argv[1].isdigit() and int(argv[1]) >= 4):
        print("usage: ab_report.py OTHER_CHECKOUT [ROUNDS]   (ROUNDS >= 4, default 60)",
              file=sys.stderr)
        return 2
    rounds = int(argv[1]) if len(argv) == 2 else 60
    sides = {"this": load("tropic_pic_this", ROOT), "other": load("tropic_pic_other", argv[0])}
    print(f"other: {argv[0]}")
    texts = [cycle_text(n) for n in RUNGS]
    paired("torus_ladder pass (C3..C6)",
           {side: lambda m=modules: torus_pass(m, texts) for side, modules in sides.items()},
           rounds)
    products = {side: query_product(modules) for side, modules in sides.items()}
    divisors = [(kind, tuple(d)) for kind, d in query_divisors(sides["this"], products["this"])]
    answers = {side: [] for side in sides}
    paired(f"divisor_queries pass (K4xC4, {4 * PER_KIND} divisors)",
           {side: lambda m=modules, s=side: query_pass(m, products[s], divisors, answers[s])
            for side, modules in sides.items()}, rounds)
    if answers["this"] != answers["other"]:
        sys.exit("K4xC4: the two checkouts answer differently")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
