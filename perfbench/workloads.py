"""Seeded inputs and checked operations of the flaglift benchmark.

Three workloads, each chosen to load a different layer:

* ``lift-battery``: the Kummer and wound-Kummer lifting batteries of
  acceptance criteria 5 and 6, the truncation-mode lifts of criterion 9
  with their duality check, and short ``flaglift lift --to-r`` towers.
  Engines, predicates, relator validation and small-matrix kernels do the
  work.
* ``h-ladder``: ``h_groups`` on trivial and adjoint Z/9 modules over a
  genus x rank ladder.  Large-matrix ``zmod`` kernels do the work.
* ``oracle-audit``: engines against brute force, on criterion 3's random
  modules and criterion 4's exhaustive g=1, p=2, d<=3 pool, the same for
  every seed.  Relator validation through the public ``SurfaceRep``
  constructor does the work.

``generate`` builds a workload's inputs from a seed as a JSON document of
repfile text; seed 0 gives the acceptance-test instances.  It must run in
an interpreter of its own, because flag generation warms process-global
caches (``complex_of`` and the Kummer verdict cache).  ``load`` parses the
document and returns the operations.  An operation raises when a check
fails and otherwise returns the text it contributes to the output digest.
"""

from __future__ import annotations

import itertools
import json
import random

from flaglift.cohomology import h_groups
from flaglift.flags import Flag, is_kummer, is_wound_kummer
from flaglift.lifting import (
    glue,
    least_char_lift,
    lift_kummer,
    lift_kummer_truncation,
    lift_rep,
    lift_wound_kummer,
    relator_defect,
)
from flaglift.oracle import brute_glue, brute_h1, brute_lift, gen_random_flag
from flaglift.repfile import load_flag, load_module, save_rep
from flaglift.surface import (
    GModule,
    RelatorError,
    SurfaceRep,
    char_module,
    hom_module,
    trivial_module,
)
from flaglift.zmod import RingSpec, RMatrix

SIZES = ("full", "small")


class CheckFailed(Exception):
    """An operation's output broke one of its postconditions."""


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _inst(seed: int, s: int) -> int:
    """Per-instance generator seed; seed 0 keeps the acceptance-test seeds."""
    return 1000 * seed + s


def _module_text(mod: GModule) -> str:
    return save_rep(SurfaceRep(mod.ring, mod.genus, mod.acts))


# ---------------------------------------------------------------------------
# input generation


def _lift_battery(seed: int, small: bool) -> list[dict]:
    primes, genera, dims = ((2,), (1,), (2, 3)) if small else ((2, 3), (1, 2), (2, 3, 4))
    grid = [
        (p, g, d, r, s)
        for p in primes
        for g in genera
        for d in dims
        for r in (1, 2)
        for s in (range(1) if small else range(5))
    ]
    items = []
    for p, g, d, r, s in grid:
        f = gen_random_flag(p, r, d, g, kind="kummer", seed=_inst(seed, s))
        items.append({"op": "kummer", "tag": f"kummer p={p} g={g} d={d} r={r} s={s}",
                      "flag": save_rep(f)})
    # criterion 6's frozen instance takes the adjustment path
    frozen = Flag.from_rows(
        RingSpec(3, 1), 1, [[[1, 2, 0], [0, 1, 1], [0, 0, 1]], [[1, 1, 0], [0, 1, 2], [0, 0, 1]]]
    )
    items.append({"op": "wound", "tag": "wound frozen", "flag": save_rep(frozen)})
    for p, g, d, r, s in grid:
        f = gen_random_flag(p, r, d, g, kind="wound-kummer", seed=_inst(seed, s))
        items.append({"op": "wound", "tag": f"wound p={p} g={g} d={d} r={r} s={s}",
                      "flag": save_rep(f)})
    for p in primes:
        for g in genera:
            for d in (2, 3):
                for r, s in itertools.product((1, 2), (10,) if small else (10, 11)):
                    f = gen_random_flag(p, r, d, g, kind="kummer", seed=_inst(seed, s))
                    items.append({"op": "truncation",
                                  "tag": f"truncation p={p} g={g} d={d} r={r} s={s}",
                                  "flag": save_rep(f)})
    towers = [("kummer", 2, 3), ("wound", 3, 3)] if small else [
        ("kummer", 2, 3), ("kummer", 3, 3), ("wound", 2, 3), ("wound", 3, 3)]
    for i, (mode, p, d) in enumerate(towers):
        kind = "kummer" if mode == "kummer" else "wound-kummer"
        f = gen_random_flag(p, 1, d, 1, kind=kind, seed=_inst(seed, 20 + i))
        items.append({"op": "tower", "mode": mode, "to_r": 3 if small else 4,
                      "tag": f"tower {mode} p={p} d={d}", "flag": save_rep(f)})
    return items


def _h_ladder(seed: int, small: bool) -> list[dict]:
    ring = RingSpec(3, 2)
    if small:
        rungs = [(2, 2), (3, 2)]
    else:
        # 40 ops, so the tail percentile has ten ops beyond it at p75
        rungs = [(g, d) for g in range(2, 11) for d in (2, 3)] + [(2, 4), (4, 4)]
    items = []
    for i, (g, d) in enumerate(rungs):
        # rank d*d on both sides, so each adjoint rung has a trivial twin
        items.append({"op": "h", "trivial": True, "tag": f"trivial g={g} rank={d * d}",
                      "module": _module_text(trivial_module(ring, g, d * d))})
        v = gen_random_flag(3, 2, d, g, kind="any", seed=_inst(seed, i)).as_module()
        items.append({"op": "h", "trivial": False, "tag": f"adjoint g={g} rank={d * d}",
                      "module": _module_text(hom_module(v, v))})
    return items


def _random_modules(n: int) -> list[GModule]:
    """Criterion 3's seeded module stream, |M|^(2g) <= 2^20."""
    rng = random.Random(20250814)
    out = []
    while len(out) < n:
        style = rng.randrange(4)
        p = rng.choice([2, 3])
        r = rng.choice([1, 2])
        ring = RingSpec(p, r)
        if style == 0:
            genus = rng.choice([1, 2])
            vals = [rng.choice([v for v in range(1, p**r) if v % p]) for _ in range(2 * genus)]
            mod = char_module(ring, genus, vals)
        elif style == 1:
            genus = rng.choice([1, 2])
            rank = rng.choice([1, 2])
            mod = trivial_module(ring, genus, rank)
        else:
            genus = 1 if style == 2 else 2
            rank = rng.choice([1, 2])

            def rnd_tri():
                ent = [[0] * rank for _ in range(rank)]
                for i in range(rank):
                    ent[i][i] = rng.choice([v for v in range(1, p**r) if v % p])
                    for j in range(i + 1, rank):
                        ent[i][j] = rng.randrange(p**r)
                return RMatrix.from_rows(ring, ent)

            x = rnd_tri()
            if genus == 1:
                mod = GModule(ring, 1, (x, x @ x))
            else:
                y = rnd_tri()
                mod = GModule(ring, 2, (x, y, y, x))
        if (p**r) ** (2 * mod.genus * mod.rank) > (1 << 20):
            continue
        out.append(mod)
    return out


def _unipotent_pool(d: int) -> list[Flag]:
    """Criterion 4's exhaustive pool: unipotent g=1 flags mod 2 of dimension d."""
    ring = RingSpec(2, 1)
    n_free = d * (d - 1) // 2

    def uni(bits):
        ent = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
        pos = 0
        for i in range(d):
            for j in range(i + 1, d):
                ent[i][j] = bits[pos]
                pos += 1
        return ent

    out = []
    for ex in itertools.product(range(2), repeat=n_free):
        for ey in itertools.product(range(2), repeat=n_free):
            try:
                out.append(Flag.from_rows(ring, 1, [uni(ex), uni(ey)]))
            except RelatorError:
                continue
    return out


def _oracle_audit(seed: int, small: bool) -> list[dict]:
    """Criteria 3 and 4 as they stand, for every seed.

    A few modules with many cocycles dominate brute_h1's cost, so drawing
    the 60 modules from a seeded stream moved this workload's throughput by
    20 percent and its tail by 40 percent between seeds; the criterion 4
    pool is exhaustive anyway.
    """
    items = []
    for i, mod in enumerate(_random_modules(6 if small else 60)):
        items.append({"op": "h1", "tag": f"h1 module {i}", "module": _module_text(mod)})
    pools = [_unipotent_pool(d) for d in ((1, 2) if small else (1, 2, 3))]
    flat = [f for pool in pools for f in pool]
    index = {f: i for i, f in enumerate(flat)}
    items.append({"op": "pool", "flags": [save_rep(f) for f in flat]})
    for f in flat:
        items.append({"op": "lift", "tag": f"lift {index[f]}", "flag": index[f]})
    for pool in pools:
        for e in pool:
            for f in pool:
                if e.quotient_by_first() == f.truncate():
                    items.append({"op": "glue", "tag": f"glue {index[e]} {index[f]}",
                                  "e": index[e], "f": index[f]})
    return items


GENERATORS = {
    "lift-battery": _lift_battery,
    "h-ladder": _h_ladder,
    "oracle-audit": _oracle_audit,
}


def generate(workload: str, seed: int, size: str) -> str:
    """The workload's inputs for ``seed`` as canonical JSON text."""
    items = GENERATORS[workload](seed, size == "small")
    doc = {"workload": workload, "seed": seed, "size": size, "items": items}
    return json.dumps(doc, sort_keys=True, indent=0) + "\n"


# ---------------------------------------------------------------------------
# operations


def _check_lift(f: Flag, out: Flag) -> None:
    r = f.ring.r
    up = RingSpec(f.ring.p, r + 1)
    _require(relator_defect(up, f.genus, out.mats).is_zero(), "relator defect nonzero")
    _require(out.reduce_to(r) == f, "output does not reduce to the input")


def _kummer_op(f: Flag):
    def op() -> str:
        out = lift_kummer(f)
        _check_lift(f, out)
        _require(is_kummer(out).ok, "output is not kummer")
        return save_rep(out)
    return op


def _wound_op(f: Flag):
    def op() -> str:
        result = lift_wound_kummer(f)
        out = result.flag
        _check_lift(f, out)
        _require(is_wound_kummer(out), "output is not wound-kummer")
        if result.adjusted:
            recheck = glue(out.truncate(), out.quotient_by_first())
            _require(recheck.glued and recheck.obstruction is None,
                     "adjusted obstruction did not recompute to zero")
        return f"adjusted {int(result.adjusted)}\n" + save_rep(out)
    return op


def _truncation_op(f: Flag):
    def op() -> str:
        o_q = lift_kummer(f)
        o_t = lift_kummer_truncation(f)
        _check_lift(f, o_t)
        _require(is_kummer(o_t).ok, "truncation-mode output is not kummer")
        _require(o_q.dual() == lift_kummer_truncation(f.dual()), "modes disagree through duality")
        _require(o_q.dual().dual() == o_q, "dual involution fails on the lift")
        return save_rep(o_t) + save_rep(o_q)
    return op


def _tower_ops(f: Flag, mode: str, to_r: int) -> list:
    """One operation per level, in the loop ``flaglift lift --to-r`` runs."""
    state = [f]

    def op() -> str:
        prev = state[0]
        if mode == "wound":
            cur = lift_wound_kummer(prev).flag
            ok_pred = is_wound_kummer(cur)
        else:
            cur = lift_kummer(prev)
            ok_pred = is_kummer(cur).ok
        _check_lift(prev, cur)
        _require(ok_pred, f"{mode} verdict fails after lifting")
        state[0] = cur
        return save_rep(cur)

    return [op] * (to_r - f.ring.r)


def _h_op(mod: GModule, trivial: bool):
    def op() -> str:
        rep = h_groups(mod)
        inv = (rep.h0.invariants, rep.h1.invariants, rep.h2.invariants)
        _require(inv[2] == inv[0], "H^2 and H^0 invariants differ")
        # Euler characteristic: |H^0| |H^2| / |H^1| = |M|^(2 - 2g)
        euler = sum(inv[0]) - sum(inv[1]) + sum(inv[2])
        _require(euler == (2 - 2 * mod.genus) * mod.rank * mod.ring.r,
                 "cohomology orders break the Euler characteristic")
        if trivial:
            s = mod.ring.r
            want = ((s,) * mod.rank, (s,) * (2 * mod.genus * mod.rank), (s,) * mod.rank)
            _require(inv == want, "trivial-module invariants are wrong")
        return repr(inv)
    return op


def _h1_op(mod: GModule):
    def op() -> str:
        brute = brute_h1(mod).invariants
        engine = h_groups(mod).h1.invariants
        _require(brute == engine, f"brute {brute} engine {engine}")
        return repr(engine)
    return op


def _lift_verdict_op(f: Flag):
    def op() -> str:
        outcome = lift_rep(f, least_char_lift(f, 2))
        sols = brute_lift(f)
        _require(outcome.lifted == bool(sols), "lift verdict differs from brute force")
        if outcome.lifted:
            _require(any(outcome.flag == s for s in sols), "engine lift missing from brute list")
            return "lifts\n" + save_rep(outcome.flag)
        return "obstructed"
    return op


def _glue_verdict_op(e: Flag, f: Flag):
    def op() -> str:
        outcome = glue(e, f)
        sols = brute_glue(e, f)
        _require(outcome.glued == bool(sols), "glue verdict differs from brute force")
        if outcome.glued:
            _require(any(outcome.flag == s for s in sols), "engine gluing missing from brute list")
            return "glues\n" + save_rep(outcome.flag)
        return "obstructed"
    return op


def load(text: str) -> list[tuple[str, object]]:
    """Parse generated inputs with ``repfile``; returns (tag, operation) pairs."""
    doc = json.loads(text)
    ops: list[tuple[str, object]] = []
    pool: list[Flag] = []
    for item in doc["items"]:
        kind = item["op"]
        if kind == "pool":
            pool = [load_flag(t) for t in item["flags"]]
        elif kind == "kummer":
            ops.append((item["tag"], _kummer_op(load_flag(item["flag"]))))
        elif kind == "wound":
            ops.append((item["tag"], _wound_op(load_flag(item["flag"]))))
        elif kind == "truncation":
            ops.append((item["tag"], _truncation_op(load_flag(item["flag"]))))
        elif kind == "tower":
            f = load_flag(item["flag"])
            for level, op in enumerate(_tower_ops(f, item["mode"], item["to_r"]), f.ring.r + 1):
                ops.append((f"{item['tag']} level {level}", op))
        elif kind == "h":
            ops.append((item["tag"], _h_op(load_module(item["module"]), item["trivial"])))
        elif kind == "h1":
            ops.append((item["tag"], _h1_op(load_module(item["module"]))))
        elif kind == "lift":
            ops.append((item["tag"], _lift_verdict_op(pool[item["flag"]])))
        elif kind == "glue":
            ops.append((item["tag"], _glue_verdict_op(pool[item["e"]], pool[item["f"]])))
        else:
            raise ValueError(f"unknown operation kind {kind!r}")
    return ops
