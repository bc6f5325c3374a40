"""Inputs of the four workloads: the op list each one runs, built from a seed.

An op is one CLI command, run in-process through ``toricfans.cli.main``,
whose input fan is read from a file written here, so every op starts with
cold per-``Fan`` caches exactly as a CLI user does. Every op list is a fixed
set of commands; the seed sets the order in which one pass runs them.
Seeded samples spread too far between seeds for any bound of at most 25%:
on ``catalog-check`` three Z11 instances hold a third of the time, and the
ladder's decided rungs ranged from 2 to 7 of 26 between chains (README.md).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from pathlib import Path

from toricfans import build, expected_projectivity, fanio, star_subdivide
from toricfans.fan import Fan

WORKLOADS = ("catalog-check", "blowup-ladder", "surgery-search", "enumerate")

# Per-op time budget in seconds. An op over budget is a timeout: it counts its
# full elapsed time and is never dropped. The budgets sit well away from the
# op times measured at the seed commit (expected.json), so that ops do not
# flip between decided and timed out from run to run; README.md gives the
# margins and the one exception.
BUDGET_S = {
    "catalog-check": 1.0,
    "blowup-ladder": 1.0,
    "surgery-search": 2.0,
    "enumerate": 20.0,
}

# The acceptance grids: W7_5, the projective grid and the mixed grid.
PROJECTIVE_GRID = (
    [("Z2", (a,)) for a in range(-3, 4)]
    + [("Z10", ())]
    + [("Z11", (a, b)) for a in range(-2, 3) for b in range(-2, 3)]
)
MIXED_GRID = (
    [("Z5p", (a,)) for a in range(-3, 4)]
    + [("Z5pp", ()), ("Z8", ()), ("Z12", ())]
    + [("Z14p", (a,)) for a in range(-2, 3)]
    + [("Z14pp", (a, b)) for a in range(-2, 3) for b in range(-2, 3)]
    + [("Z13p", (a, b)) for a in range(-2, 3) for b in range(-2, 3)]
    + [("Z13pp", t) for t in itertools.product((-1, 0, 1, 2), repeat=4)]
)
CATALOG_GRID = [("W7_5", ())] + PROJECTIVE_GRID + MIXED_GRID
NONPROJECTIVE_TARGETS = [
    (fid, params) for fid, params in CATALOG_GRID if not expected_projectivity(fid, params)
]
# Every seventh search target, plus the surgery-heavy Z13pp(2,7,4,2). With
# 30 graphs a pass is long enough that a 20 s run always makes exactly one.
GRAPH_TARGETS = NONPROJECTIVE_TARGETS[::7] + [("Z13pp", (2, 7, 4, 2))]
# One instance per family for enumeration.
FAMILY_REPRESENTATIVES = [
    ("W7_5", ()), ("Z2", (0,)), ("Z5p", (0,)), ("Z5pp", ()), ("Z8", ()), ("Z10", ()),
    ("Z11", (0, 0)), ("Z12", ()), ("Z13p", (0, 0)), ("Z13pp", (2, 7, 4, 2)),
    ("Z14p", (0,)), ("Z14pp", (0, 0)),
]

# Blow-up chains: W7_5 is non-projective, Z2(1) projective. The chain seed is
# fixed so that every run climbs the same rungs.
LADDER_BASES = (("W7_5", ()), ("Z2", (1,)))
CHAIN_SEED = 0
LADDER_TOP = 21
LADDER_RUNGS = (9, 12, 15, 18, 21)
ENUMERATE_RUNGS = (9, 11, 13, 15, 17)


@dataclass(frozen=True)
class Op:
    """One CLI command with what its output is checked against.

    ``key`` names the op independently of the seed and the work directory;
    recorded digests are looked up by it. ``fan`` is the input fan, used to
    re-verify certificates; ``expect_projective`` is the known verdict, or
    None where no verdict is known in advance.
    """

    key: str
    argv: tuple[str, ...]
    fan: Fan
    expect_projective: bool | None = None
    rung: int | None = None


def instance_name(fid: str, params) -> str:
    return fid + ("(" + ",".join(str(p) for p in params) + ")" if params else "")


def blowup_chain(fid: str, params, seed: int = CHAIN_SEED, top: int = LADDER_TOP) -> list[Fan]:
    """Fans of a star-subdivision chain from 9 up to ``top`` rays.

    Each step blows up a uniformly chosen maximal cone at the sum of its rays,
    which keeps the fan smooth and complete.
    """
    rng = random.Random(seed)
    fan = build(fid, params)
    rungs = []
    while len(fan.rays) < top:
        cone = rng.choice(fan.max_cones)
        fan = star_subdivide(fan, [sum(fan.rays[i][k] for i in cone) for k in range(3)])
        if len(fan.rays) >= 9:
            rungs.append(fan)
    return rungs


def _file(workdir: Path, name: str, fan: Fan) -> str:
    path = workdir / (name.replace("(", "_").replace(")", "").replace(",", "_") + ".json")
    fanio.save_fan(fan, path)
    return str(path)


def _catalog_check(workdir: Path) -> list[Op]:
    ops = []
    for fid, params in CATALOG_GRID:
        name = instance_name(fid, params)
        fan = build(fid, params)
        path = _file(workdir, "check-" + name, fan)
        ops.append(Op(f"check:{name}", ("check", path, "--certificate", "--nef"), fan,
                      expected_projectivity(fid, params)))
    return ops


def _blowup_ladder(workdir: Path) -> list[Op]:
    ops = []
    for fid, params in LADDER_BASES:
        name = instance_name(fid, params)
        for fan in blowup_chain(fid, params):
            n = len(fan.rays)
            if n not in LADDER_RUNGS:
                continue
            path = _file(workdir, f"ladder-{name}-{n}", fan)
            # Blowing up a point of a projective variety keeps it projective;
            # the W7_5 rungs have no verdict known in advance.
            ops.append(Op(f"ladder:{name}:seed{CHAIN_SEED}:{n}", ("check", path, "--certificate"),
                          fan, True if fid == "Z2" else None, n))
    return ops


def _surgery_search(workdir: Path) -> list[Op]:
    ops = []
    for fid, params in NONPROJECTIVE_TARGETS:
        name = instance_name(fid, params)
        fan = build(fid, params)
        path = _file(workdir, "search-" + name, fan)
        ops.append(Op(f"search:{name}", ("search", path, "--max-depth", "3"), fan))
    for fid, params in GRAPH_TARGETS:
        name = instance_name(fid, params)
        fan = build(fid, params)
        path = _file(workdir, "graph-" + name, fan)
        ops.append(Op(f"graph:{name}", ("graph", path, "--max-depth", "3"), fan))
    return ops


def _enumerate(workdir: Path) -> list[Op]:
    ops = []
    for fid, params in FAMILY_REPRESENTATIVES:
        name = instance_name(fid, params)
        fan = build(fid, params)
        path = _file(workdir, "enum-" + name, fan)
        ops.append(Op(f"enumerate:{name}", ("enumerate", "--rays", path), fan))
    for fid, params in LADDER_BASES:
        name = instance_name(fid, params)
        for fan in blowup_chain(fid, params, top=max(ENUMERATE_RUNGS)):
            n = len(fan.rays)
            if n not in ENUMERATE_RUNGS:
                continue
            path = _file(workdir, f"enum-ladder-{name}-{n}", fan)
            ops.append(Op(f"enumerate:ladder:{name}:seed{CHAIN_SEED}:{n}",
                          ("enumerate", "--rays", path), fan, rung=n))
    return ops


_BUILDERS = {
    "catalog-check": _catalog_check,
    "blowup-ladder": _blowup_ladder,
    "surgery-search": _surgery_search,
    "enumerate": _enumerate,
}


def build_ops(workload: str, seed: int, workdir: Path) -> list[Op]:
    """Write the workload's input files under ``workdir`` and return its ops
    in the order the seed gives."""
    workdir.mkdir(parents=True, exist_ok=True)
    ops = _BUILDERS[workload](workdir)
    random.Random(seed).shuffle(ops)
    return ops
