"""Command-line front end: reports, lifting pipelines, oracle comparisons.

Exit codes: 0 success, 2 mathematical failure (nonzero obstruction, a
Kummer flag with no Kummer lift, or a failed comparison), 3 inconclusive
(a search, built-in generator included, hit its budget before it could
decide), 1 malformed input or usage error, 4 internal error (a failed
internal consistency check, reported as ``internal error: ...``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, Iterable, TypeVar

from .cohomology import (
    CohClass, LiftConsistencyError, complex_of, demushkin_report, h_groups, stack,
)
from .flags import Flag, KummerInconclusive, is_kummer, is_wound, is_wound_kummer, splitting_indices
from .lifting import (
    NoKummerLift,
    glue,
    least_char_lift,
    lift_h1_class,
    lift_kummer,
    lift_kummer_truncation,
    lift_rep,
    lift_wound_kummer,
)
from .localfield import (
    SquareClass,
    canonical_classes,
    check_no_cyclotomic_lift,
    hilbert,
    liftable_mod4,
    non_liftable_classes,
    square_class,
)
from .oracle import BudgetExceededError, brute_h1, brute_lift, gen_random_flag
from .repfile import (
    RepFileError,
    check_ring_limits,
    load_cocycle,
    load_flag,
    load_module,
    load_rep,
    save_cocycle,
    save_rep,
)
from .stats import session
from .surface import trivial_module
from .zmod import RingSpec

_T = TypeVar("_T")


def _load(load: Callable[[Iterable[str]], _T], path: str) -> _T:
    """``load`` applied to the lines of the file at ``path``; it reads only as far as it parses.

    The file is opened with ``newline=""``, so its lines reach the loader
    unchanged and the loader breaks them as it breaks a document.
    """
    try:
        with open(path, newline="") as lines:
            return load(lines)
    except OSError as exc:
        raise RepFileError(f"cannot read {path}: {exc}") from exc


def _shape_line(name: str, shape) -> str:
    inv = " ".join(str(e) for e in shape.invariants) or "-"
    return f"{name}: dim {len(shape.invariants)} invariants {inv}"


def _yesno(b: bool) -> str:
    return "yes" if b else "no"


# ---------------------------------------------------------------------------
# subcommands


def _cmd_cohomology(args) -> int:
    rep = _load(load_rep, args.repfile)
    module = _load(load_module, args.coeff) if args.coeff else rep.as_module()
    if module.genus != rep.genus:
        raise RepFileError("coefficient module and representation differ in genus")
    report = h_groups(module)
    print(f"module: p={module.ring.p} r={module.ring.r} genus={module.genus} rank={module.rank}")
    print(_shape_line("H0", report.h0))
    print(_shape_line("H1", report.h1))
    print(_shape_line("H2", report.h2))
    return 0


def _cmd_flag_check(args) -> int:
    flag = _load(load_flag, args.repfile)
    print(f"flag: p={flag.ring.p} r={flag.ring.r} genus={flag.genus} dim={flag.d}")
    print(f"wound: {_yesno(is_wound(flag))}")
    print(f"wound-kummer: {_yesno(is_wound_kummer(flag))}")
    verdict = is_kummer(flag)
    suffix = "" if verdict.ok or not verdict.reason else f" ({verdict.reason})"
    print(f"kummer: {_yesno(verdict.ok)}{suffix}")
    print("splitting indices:", " ".join(str(i) for i in splitting_indices(flag)))
    print(
        "splitting indices mod p:",
        " ".join(str(i) for i in splitting_indices(flag.reduce_to(1))),
    )
    return 0


def _cmd_lift(args) -> int:
    flag = _load(load_flag, args.repfile)
    if args.to_r <= flag.ring.r:
        raise RepFileError(f"--to-r must exceed the current level {flag.ring.r}")
    check_ring_limits(RingSpec(flag.ring.p, args.to_r))  # the output must load again
    cur = flag
    for level in range(flag.ring.r + 1, args.to_r + 1):
        # both engines raise unless the output reduces to cur and passes the mode's predicate
        if args.mode == "wound":
            result = lift_wound_kummer(cur)
            cur = result.flag
            note = " (corner adjusted)" if result.adjusted else ""
        else:
            cur = lift_kummer(cur)
            note = ""
        print(
            f"level {level}: relator exact; reduces to level {level - 1}: yes; "
            f"{args.mode} verdict: yes{note}",
            file=sys.stderr,
        )
    text = save_rep(cur)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        print(text, end="")
    return 0


def _cmd_glue(args) -> int:
    e = _load(load_flag, args.repfile_e)
    f = _load(load_flag, args.repfile_f)
    outcome = glue(e, f)
    if not outcome.glued:
        vals = " ".join(str(v) for v in outcome.obstruction.canonical())
        print(f"obstructed: class {vals} in H2 of the corner module")
        return 2
    print(save_rep(outcome.flag), end="")
    return 0


def _cmd_lift_class(args) -> int:
    flag = _load(load_flag, args.repfile)
    ring1, genus, dim, rows = _load(load_cocycle, args.cocyclefile)
    if (ring1.p, ring1.r) != (flag.ring.p, 1):
        raise RepFileError("cocycle must be mod p for the flag's prime")
    if (genus, dim) != (flag.genus, flag.d):
        raise RepFileError("cocycle shape does not match the representation")
    cx = complex_of(flag.reduce_to(1).as_module())
    stacked = stack(rows)
    if not cx.is_cocycle(stacked):
        raise RepFileError("the given values do not form a cocycle")
    lifted = lift_h1_class(flag, CohClass(cx, 1, stacked))
    out_rows = tuple(tuple(row) for row in lifted.values())
    print(save_cocycle(flag.ring, genus, dim, out_rows), end="")
    return 0


def _cmd_oracle_compare(args) -> int:
    rep = _load(load_rep, args.repfile)
    module = rep.as_module()
    diffs: list[str] = []
    checked: list[str] = []
    try:
        brute = brute_h1(module)
        engine = h_groups(module).h1
        if brute.invariants != engine.invariants:
            diffs.append(
                f"H1 invariants differ: engine {engine.invariants} brute {brute.invariants}"
            )
        checked.append("h1")
    except BudgetExceededError as exc:
        print(f"skipped h1 comparison: {exc}", file=sys.stderr)
    try:
        # load_rep checked the relator, so a ValueError here names a lower
        # entry, or brute_lift's refusal of a nontrivial diagonal
        flag = Flag(rep.ring, rep.genus, rep.mats)
        sols = brute_lift(flag)
    except (ValueError, BudgetExceededError) as exc:
        print(f"skipped lift comparison: {exc}", file=sys.stderr)
    else:
        outcome = lift_rep(flag, least_char_lift(flag, 2))
        if outcome.lifted != bool(sols):
            diffs.append(f"lift verdicts differ: engine {outcome.lifted} brute {bool(sols)}")
        elif outcome.lifted and outcome.flag not in sols:
            diffs.append("engine lift is missing from the brute-force list")
        checked.append("lift")
    for line in diffs:
        print(line)
    if not diffs:
        print(f"ok: engine and brute force agree on {', '.join(checked) or 'nothing'}")
    return 2 if diffs else 0


def _cmd_local_example(args) -> int:
    prime = 2 if args.field == "q2" else args.ell
    if args.field == "ql" and prime == 2:
        raise RepFileError("--ell must be an odd prime")
    classes = canonical_classes(prime)  # a non-prime --ell fails before any output
    print(f"field: Q_{prime}")
    print("square classes:", " ".join(str(c) for c in classes))
    liftable = [c for c in classes if liftable_mod4(SquareClass(prime, c))]
    non_liftable = [c.rep for c in non_liftable_classes(prime)]
    print("liftable one level up:", " ".join(str(c) for c in liftable))
    print("non-liftable:", " ".join(str(c) for c in non_liftable) or "-")
    if prime == 2:
        a, b = square_class(2, -2), square_class(2, -5)
    else:
        a, b = square_class(prime, -prime), square_class(prime, prime)
    if not non_liftable:
        print("note: every class lifts here; the obstruction pair needs -1 nonsquare")
    else:
        sym = hilbert(a, b)
        print(f"chosen pair: ({a.rep}, {b.rep}) with symbol {'+1' if sym == 1 else '-1'}")
    report = check_no_cyclotomic_lift()
    print("parity edges:", " ".join(f"({i},{j})" for (i, j) in report.edges))
    print("edges derived from the shape:", _yesno(report.derived_edges == report.edges))
    print(
        f"assignments checked: {report.assignments_checked}; "
        f"satisfying: {len(report.satisfying)} -> {'UNSAT' if report.unsat else 'SAT'}"
    )
    print(f"each single edge removal satisfiable: {_yesno(report.minimal)}")
    return 0


def _cmd_selftest(args) -> int:
    failures = 0

    def check(name: str, ok: bool) -> None:
        nonlocal failures
        print(f"{'ok' if ok else 'FAIL'}: {name}")
        failures += 0 if ok else 1

    for p, genus in [(2, 1), (3, 1), (2, 2)]:
        mod = trivial_module(RingSpec(p, 1), genus, 1)
        report = h_groups(mod)
        check(
            f"trivial mod-{p} coefficients at genus {genus}: H1 dim {2 * genus}, H2 dim 1",
            len(report.h1.invariants) == 2 * genus and report.h2.invariants == (1,),
        )
        check(
            f"brute-force H1 agrees (p={p}, genus={genus})",
            brute_h1(mod).invariants == report.h1.invariants,
        )
    for p, genus in [(2, 1), (3, 1), (5, 1), (2, 2)]:
        check(f"one-dimensional H2 with invertible pairing (p={p}, genus={genus})",
              demushkin_report(p, genus).ok)
    f = gen_random_flag(3, 1, 3, 1, kind="kummer", seed=1)
    lifted = lift_kummer(f)
    check("kummer lift: reduces and stays kummer",
          lifted.reduce_to(1) == f and is_kummer(lifted).ok)
    w = gen_random_flag(2, 1, 3, 1, kind="wound-kummer", seed=1)
    wl = lift_wound_kummer(w)
    check("wound lift: reduces and stays wound-kummer",
          wl.flag.reduce_to(1) == w and is_wound_kummer(wl.flag))
    g = gen_random_flag(2, 1, 3, 1, kind="kummer", seed=2)
    check(
        "the two lift modes agree through duality",
        lift_kummer(g.dual()).dual() == lift_kummer_truncation(g),
    )
    check("non-liftable square classes over Q_2",
          {c.rep for c in non_liftable_classes(2)} == {-1, -2, -5, -10})
    parity = check_no_cyclotomic_lift()
    check("parity system is unsatisfiable and minimal", parity.unsat and parity.minimal)
    print(f"selftest: {'all passed' if not failures else f'{failures} failures'}")
    return 2 if failures else 0


# ---------------------------------------------------------------------------
# driver


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors are malformed input, not math failures
        raise RepFileError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="flaglift", description=__doc__)
    parser.add_argument(
        "--stats", action="store_true",
        help="print the command's memo hits, misses and sizes as one JSON object on stderr",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("cohomology", help="H0/H1/H2 report for a representation")
    c.add_argument("repfile")
    c.add_argument("--coeff", help="coefficient module file (defaults to the rep itself)")
    c.set_defaults(func=_cmd_cohomology)

    c = sub.add_parser("flag-check", help="wound / wound-kummer / kummer verdicts")
    c.add_argument("repfile")
    c.set_defaults(func=_cmd_flag_check)

    c = sub.add_parser("lift", help="lift a flag level by level")
    c.add_argument("repfile")
    c.add_argument("--to-r", type=int, required=True, dest="to_r")
    c.add_argument("--mode", choices=["wound", "kummer"], default="kummer")
    c.add_argument("--out", help="write the lifted representation to this path")
    c.set_defaults(func=_cmd_lift)

    c = sub.add_parser("glue", help="glue two overlapping flags")
    c.add_argument("repfile_e")
    c.add_argument("repfile_f")
    c.set_defaults(func=_cmd_glue)

    c = sub.add_parser("lift-class", help="lift a mod-p degree-1 class to the flag level")
    c.add_argument("repfile")
    c.add_argument("cocyclefile")
    c.set_defaults(func=_cmd_lift_class)

    c = sub.add_parser("oracle-compare", help="engine vs brute force on one input")
    c.add_argument("repfile")
    c.set_defaults(func=_cmd_oracle_compare)

    c = sub.add_parser("local-example", help="square classes, symbols, parity obstruction")
    c.add_argument("--field", choices=["q2", "ql"], default="q2")
    c.add_argument("--ell", type=int, default=3)
    c.set_defaults(func=_cmd_local_example)

    c = sub.add_parser("selftest", help="desk-scale property battery")
    c.set_defaults(func=_cmd_selftest)
    return parser


def _run(args) -> int:
    """Run one command in a session of its own; ``--stats`` reports it on stderr."""
    with session() as s:
        try:
            return args.func(args)
        finally:
            if args.stats:
                report = s.summary()
                report["complex_of"] = complex_of.cache_info()._asdict()
                print(json.dumps(report, sort_keys=True), file=sys.stderr)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _run(args)
    except RepFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (KummerInconclusive, BudgetExceededError) as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return 3
    except NoKummerLift as exc:
        print(f"no kummer lift: {exc}", file=sys.stderr)
        return 2
    except LiftConsistencyError as exc:
        print(f"obstructed: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
