"""Tests for the file formats and the command-line driver."""

import json
import time
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flaglift import cli, cohomology, stats
from flaglift.cli import main
from flaglift.cohomology import CochainComplex, complex_of
from flaglift.flags import Flag, is_kummer, is_wound_kummer
from flaglift.oracle import BudgetExceededError, gen_random_flag, unipotent_pool
from flaglift.repfile import (
    RepFileError,
    load_cocycle,
    load_flag,
    load_rep,
    save_cocycle,
    save_rep,
)
from flaglift.surface import SurfaceRep, trivial_module
from flaglift.zmod import ModuleShape, RingSpec, RMatrix


def kummer_fixture():
    return gen_random_flag(3, 1, 3, 1, kind="kummer", seed=3)


def wound_fixture():
    return gen_random_flag(2, 1, 3, 1, kind="wound-kummer", seed=3)


def test_rep_round_trip_is_identity():
    f = kummer_fixture()
    text = save_rep(f)
    again = save_rep(load_flag(text))
    assert again == text
    rep = load_rep(text)
    assert rep == SurfaceRep(f.ring, f.genus, f.mats) and rep != f
    bare = save_rep(rep)
    assert "characters" in text and "characters" not in bare
    assert save_rep(load_rep(bare)) == bare


def test_cocycle_round_trip():
    ring = RingSpec(3, 2)
    rows = ((1, 0, 5), (2, 2, 0))
    text = save_cocycle(ring, 1, 3, rows)
    ring2, genus, dim, rows2 = load_cocycle(text)
    assert (ring2, genus, dim, rows2) == (ring, 1, 3, rows)
    assert save_cocycle(ring2, genus, dim, rows2) == text
    # values are written as least residues
    assert save_cocycle(ring, 1, 1, ((10,), (-1,))) == save_cocycle(ring, 1, 1, ((1,), (8,)))
    # a dim-0 value row is an empty line, which the loader skips like a blank
    empty = save_cocycle(ring, 2, 0, ((),) * 4)
    assert load_cocycle(empty) == (ring, 2, 0, ((),) * 4)


# every entry check of this file would work modulo 3**200000000
HUGE_R = "p 3\nr 200000000\ngenus 1\ndim 1\ngenerator x1\n1\ngenerator y1\n1\n"


def test_load_rejects_malformed_documents():
    good = save_rep(kummer_fixture())
    with pytest.raises(RepFileError):
        load_rep(good.replace("p 3", "p 6"))  # not a prime power base
    with pytest.raises(RepFileError, match="too large"):
        load_rep(good.replace("p 3", f"p {2**89 - 1}"))  # beyond the primality test
    with pytest.raises(RepFileError):
        load_rep(good.replace("generator x1", "generator y1"))
    with pytest.raises(RepFileError):
        load_rep(good + "extra junk\n")
    with pytest.raises(RepFileError, match="^matrix entry 9 out of range \\[0, 3\\)$"):
        load_rep(good.replace("1 0 1", "1 0 9", 1))
    with pytest.raises(RepFileError):
        load_rep("p 2\nr 1\n")  # truncated header
    bad_chars = good.replace("characters\n1 1", "characters\n1 2")
    with pytest.raises(RepFileError):
        load_rep(bad_chars)
    cocycle = save_cocycle(RingSpec(3, 1), 1, 2, ((1, 0), (2, 2)))
    with pytest.raises(RepFileError, match="non-integer value entry"):
        load_cocycle(cocycle.replace("2 2", "2 z"))
    with pytest.raises(RepFileError, match="^value entry 3 out of range \\[0, 3\\)$"):
        load_cocycle(cocycle.replace("2 2", "2 3"))
    with pytest.raises(RepFileError, match="trailing content"):
        load_cocycle(cocycle + "extra\n")
    with pytest.raises(RepFileError, match="r 200000000 exceeds the limit 64"):
        load_rep(HUGE_R)
    with pytest.raises(RepFileError, match="dim 33 exceeds the limit 32"):
        load_rep(identity_rep_text(1, 33))
    with pytest.raises(RepFileError, match="genus 17 exceeds the limit 16"):
        load_rep(identity_rep_text(17, 1))
    with pytest.raises(RepFileError, match="dim 33 exceeds the limit 32"):
        load_cocycle(cocycle.replace("dim 2", "dim 33"))
    with pytest.raises(RepFileError, match="p\\^r of 549 bits exceeds the limit 512 bits"):
        load_rep(good.replace("p 3\nr 1", f"p {2**61 - 1}\nr 9"))
    assert load_rep(identity_rep_text(16, 1)).genus == 16
    assert load_rep(identity_rep_text(1, 32)).dim == 32


def test_trailing_content_is_rejected_without_reading_the_rest():
    text = save_rep(kummer_fixture()) + "junk 1 2 3\n" * 300_000
    tracemalloc.start()
    try:
        with pytest.raises(RepFileError, match="^trailing content: junk 1 2 3$"):
            load_rep(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < len(text)


@pytest.mark.parametrize(
    "edit",
    [
        lambda good: good + "junk" + " 1" * 1_000_000 + "\n",  # a 2 MB trailing row
        lambda good: good.replace("1 0 1\n", "z " * 2_500_000 + "\n", 1),  # a 5 MB non-integer row
        lambda good: good.replace("genus 1", "g" * 2_000_000 + " 1"),  # a 2 MB header key
        lambda good: good.replace("generator y1", "generator " + "y" * 2_000_000),  # a 2 MB section name
        lambda good: good.replace("p 3", "p " + "1" * 5000),  # a p past int's digit limit
        lambda good: good.replace("genus 1", "genus " + "9" * 4000),  # over the genus limit
        lambda good: good.replace("p 3", "p " + "9" * 4000),  # beyond the primality test
        lambda good: good.replace("r 1", "r -" + "9" * 4000),  # RingSpec refuses r < 1
        lambda good: good.replace("r 1", "r " + "9" * 4000),  # over the r limit
        lambda good: good.replace("1 0 1\n", "1 0 " + "9" * 4000 + "\n", 1),  # an entry out of range
    ],
    ids=["trailing", "non-integer", "key", "section", "int", "genus", "prime", "ring", "r", "range"],
)
def test_cli_errors_quote_a_clip_of_huge_input(tmp_path, capsys, edit):
    src = tmp_path / "big.rep"
    src.write_text(edit(save_rep(kummer_fixture())))
    assert main(["cohomology", str(src)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1 and len(captured.err.encode()) < 200, captured.err[:300]
    assert "characters)" in captured.err


def test_documents_break_lines_where_splitlines_does():
    good = save_rep(kummer_fixture())
    for brk in ["\r\n", "\r", "\x0c", "\x0b", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]:
        text = good.replace("\n", f" # a comment ends at the line break{brk}")
        assert len(text.splitlines()) == len(good.splitlines())
        assert save_rep(load_flag(text)) == good


def test_both_document_kinds_name_a_misnamed_section_alike():
    rep = save_rep(kummer_fixture())
    cocycle = save_cocycle(RingSpec(3, 1), 1, 2, ((1, 0), (2, 2)))
    for load, text, key in ((load_rep, rep, "generator"), (load_cocycle, cocycle, "values")):
        with pytest.raises(RepFileError, match=f"^expected {key} y1, found \\['x1'\\]$"):
            load(text.replace(f"{key} y1", f"{key} x1"))
        with pytest.raises(RepFileError, match=f"^expected '{key}', found 'dim'$"):
            load(text.replace(f"{key} x1", "dim 1"))


@pytest.mark.parametrize(
    "row,message",
    [
        ("1", "^character row has 1 entries, expected 2$"),
        ("1 1 1", "^character row has 3 entries, expected 2$"),
        ("1 3", "^character entry 3 out of range \\[0, 3\\)$"),
        ("-1 1", "^character entry -1 out of range \\[0, 3\\)$"),
        ("1 z", "^non-integer character entry in \\['1', 'z'\\]$"),
    ],
)
def test_character_rows_are_read_as_rows_of_residues(row, message):
    good = save_rep(kummer_fixture())
    assert "characters\n1 1\n" in good
    with pytest.raises(RepFileError, match=message):
        load_flag(good.replace("characters\n1 1\n", f"characters\n{row}\n"))


def identity_rep_text(genus: int, dim: int) -> str:
    """A mod-3 representation file with every generator the identity."""
    eye = "\n".join(" ".join("1" if i == j else "0" for j in range(dim)) for i in range(dim))
    gens = "".join(f"generator {x}{k}\n{eye}\n" for k in range(1, genus + 1) for x in "xy")
    return f"p 3\nr 1\ngenus {genus}\ndim {dim}\n{gens}"


_SEED_DOCUMENTS = [
    save_rep(kummer_fixture()),
    save_rep(gen_random_flag(2, 2, 3, 2, kind="any", seed=0)),
    save_rep(load_rep(save_rep(gen_random_flag(5, 1, 2, 1, kind="any", seed=1)))),
    save_rep(SurfaceRep(RingSpec(2, 1), 1, (RMatrix.zeros(RingSpec(2, 1), 0, 0),) * 2)),
    save_cocycle(RingSpec(3, 2), 2, 2, ((1, 0), (2, 8), (0, 0), (4, 4))),
    save_cocycle(RingSpec(2, 1), 1, 0, ((), ())),
]
_TOKENS = [
    "0", "1", "2", "3", "4", "8", "9", "-1", "+1", "1_0", "\u0663", "x", "1.5", "#", "0x1",
    "p", "r", "genus", "dim", "generator", "values", "characters", "x1", "y1", "x2",
    "17", "33", "65", "2305843009213693951", "99999999999999999999", "9" * 5000,
]
_LINES = ["", "# note", "characters", "generator x1", "values y1", "1 0", "dim 2", "p 7", "1 1 1"]


@st.composite
def repfile_documents(draw):
    """A saved rep, flag or cocycle document after a few grammar-level edits."""
    lines = draw(st.sampled_from(_SEED_DOCUMENTS)).splitlines()
    for _ in range(draw(st.integers(0, 4))):
        op = draw(st.sampled_from(["drop", "dup", "swap", "token", "insert"]))
        i = draw(st.integers(0, max(len(lines) - 1, 0)))
        if op == "insert" or not lines:
            lines.insert(i, draw(st.sampled_from(_LINES)))
        elif op == "drop":
            del lines[i]
        elif op == "dup":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            words = lines[i].split() or [""]
            words[draw(st.integers(0, len(words) - 1))] = draw(st.sampled_from(_TOKENS))
            lines[i] = " ".join(words)
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\n\n", "\r\n"]))


@settings(max_examples=300, deadline=2000, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(repfile_documents())
def test_repfile_fuzz_loads_or_rejects_and_round_trips(doc):
    for load, save in ((load_rep, save_rep), (load_flag, save_rep),
                       (load_cocycle, lambda c: save_cocycle(*c))):
        try:
            obj = load(doc)
        except RepFileError:
            continue
        text = save(obj)
        assert load(text) == obj
        assert save(load(text)) == text


def test_load_rep_validates_relator_and_invertibility():
    # x upper unipotent, y = shift that breaks commutation
    text = (
        "p 2\nr 1\ngenus 1\ndim 2\n"
        "generator x1\n1 1\n0 1\n"
        "generator y1\n0 1\n1 0\n"
    )
    with pytest.raises(RepFileError):
        load_flag(text)  # not triangular as a flag
    with pytest.raises(RepFileError):
        load_rep(
            "p 2\nr 1\ngenus 1\ndim 2\n"
            "generator x1\n1 1\n0 1\n"
            "generator y1\n1 0\n1 1\n"  # valid matrices, relator fails
        )


def test_cli_cohomology_reports_h1_dim(tmp_path, capsys):
    paths = {}
    for genus, rank in ((2, 1), (2, 2), (1, 2)):
        mod = trivial_module(RingSpec(2, 1), genus, rank)
        paths[genus, rank] = tmp_path / f"triv{genus}{rank}.rep"
        paths[genus, rank].write_text(save_rep(SurfaceRep(mod.ring, genus, mod.acts)))
    path = str(paths[2, 1])
    assert main(["cohomology", path]) == 0
    out = capsys.readouterr().out
    assert "H1: dim 4" in out
    assert "H2: dim 1" in out
    # --coeff reads the coefficient module from its own file
    assert main(["cohomology", path, "--coeff", str(paths[2, 2])]) == 0
    assert capsys.readouterr() == (
        "module: p=2 r=1 genus=2 rank=2\n"
        "H0: dim 2 invariants 1 1\n"
        "H1: dim 8 invariants 1 1 1 1 1 1 1 1\n"
        "H2: dim 2 invariants 1 1\n",
        "",
    )
    assert main(["cohomology", path, "--coeff", str(paths[1, 2])]) == 1
    assert capsys.readouterr() == ("", "error: coefficient module and representation differ in genus\n")


def test_cli_lift_pipeline_round_trip(tmp_path, capsys):
    w = wound_fixture()
    src = tmp_path / "w.rep"
    dst = tmp_path / "w2.rep"
    src.write_text(save_rep(w))
    assert main(["lift", str(src), "--to-r", "2", "--mode", "wound", "--out", str(dst)]) == 0
    lifted = load_flag(dst.read_text())
    assert lifted.ring.r == 2
    assert lifted.reduce_to(1) == w
    assert is_wound_kummer(lifted)
    assert main(["flag-check", str(dst)]) == 0
    out = capsys.readouterr().out
    assert "wound-kummer: yes" in out
    # criterion 6's frozen wound flag: its first lift takes the corner twist
    frozen = Flag.from_rows(
        RingSpec(3, 1), 1, [[[1, 2, 0], [0, 1, 1], [0, 0, 1]], [[1, 1, 0], [0, 1, 2], [0, 0, 1]]]
    )
    src.write_text(save_rep(frozen))
    assert main(["lift", str(src), "--to-r", "3", "--mode", "wound"]) == 0
    captured = capsys.readouterr()
    assert load_flag(captured.out).reduce_to(1) == frozen
    assert captured.err == (
        "level 2: relator exact; reduces to level 1: yes; wound verdict: yes (corner adjusted)\n"
        "level 3: relator exact; reduces to level 2: yes; wound verdict: yes\n"
    )


def test_cli_flag_check_and_kummer_lift(tmp_path, capsys):
    k = kummer_fixture()
    src = tmp_path / "k.rep"
    src.write_text(save_rep(k))
    assert main(["flag-check", str(src)]) == 0
    assert "kummer: yes" in capsys.readouterr().out
    assert main(["lift", str(src), "--to-r", "3", "--mode", "kummer"]) == 0
    captured = capsys.readouterr()
    lifted = load_flag(captured.out)
    assert lifted.ring.r == 3 and lifted.reduce_to(1) == k
    assert captured.err == (
        "level 2: relator exact; reduces to level 1: yes; kummer verdict: yes\n"
        "level 3: relator exact; reduces to level 2: yes; kummer verdict: yes\n"
    )


def test_cli_reports_a_kummer_flag_with_no_kummer_lift(tmp_path, capsys):
    # over Z/4 this Kummer flag has 1,024 lifts to Z/8 and none is Kummer:
    # nothing is obstructed, so the verdict is not an obstruction line
    src = tmp_path / "k.rep"
    src.write_text(save_rep(gen_random_flag(2, 2, 4, 1, kind="kummer", seed=25003)))
    assert main(["lift", str(src), "--to-r", "3", "--mode", "kummer"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "no kummer lift: no pinned lift keeps the split steps split one level up\n"
    )


def test_cli_glue_verdicts(tmp_path, capsys):
    ring = RingSpec(2, 1)
    ok_part = tmp_path / "e.rep"
    ok_part.write_text(save_rep(Flag.from_rows(ring, 1, [[[1, 1], [0, 1]], [[1, 1], [0, 1]]])))
    assert main(["glue", str(ok_part), str(ok_part)]) == 0
    glued = load_flag(capsys.readouterr().out)
    assert glued.d == 3
    bad_e = tmp_path / "be.rep"
    bad_f = tmp_path / "bf.rep"
    bad_e.write_text(save_rep(Flag.from_rows(ring, 1, [[[1, 0], [0, 1]], [[1, 1], [0, 1]]])))
    bad_f.write_text(save_rep(Flag.from_rows(ring, 1, [[[1, 1], [0, 1]], [[1, 0], [0, 1]]])))
    assert main(["glue", str(bad_e), str(bad_f)]) == 2
    assert capsys.readouterr().out == "obstructed: class 1 in H2 of the corner module\n"


def test_cli_glue_rejects_0_flags(tmp_path, capsys):
    z = tmp_path / "z.rep"
    z.write_text(save_rep(Flag.from_rows(RingSpec(2, 1), 1, [[]] * 2)))
    assert main(["glue", str(z), str(z)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: glue parts must have dimension at least 1\n"


@pytest.mark.parametrize(
    "ring,e_rows,f_rows,line",
    [
        # trivial corner over Z/3: H2 = Z/3, the class is the corner value
        (
            RingSpec(3, 1),
            [[[1, 0], [0, 1]], [[1, 1], [0, 1]]],
            [[[1, 1], [0, 1]], [[1, 0], [0, 1]]],
            "obstructed: class 2 in H2 of the corner module",
        ),
        # corner character 3 over Z/4: H2 = Z/4 / 2, so the corner value 3 prints as 1
        (
            RingSpec(2, 2),
            [[[3, 1], [0, 1]], [[1, 0], [0, 1]]],
            [[[1, 0], [0, 1]], [[1, 3], [0, 1]]],
            "obstructed: class 1 in H2 of the corner module",
        ),
    ],
)
def test_cli_glue_obstruction_line(tmp_path, capsys, ring, e_rows, f_rows, line):
    e, f = tmp_path / "e.rep", tmp_path / "f.rep"
    e.write_text(save_rep(Flag.from_rows(ring, 1, e_rows)))
    f.write_text(save_rep(Flag.from_rows(ring, 1, f_rows)))
    assert main(["glue", str(e), str(f)]) == 2
    assert capsys.readouterr().out == line + "\n"


def test_cli_lift_class_round_trip(tmp_path, capsys):
    from flaglift.lifting import lift_kummer

    k1 = kummer_fixture()
    k2 = lift_kummer(k1)
    src = tmp_path / "k2.rep"
    src.write_text(save_rep(k2))
    cx = complex_of(k1.as_module())
    vec = [v for v, _ in cx.d1_solver.kernel()][0]
    rows = tuple(tuple(vec[g * 3 : (g + 1) * 3]) for g in range(2))
    coc = tmp_path / "c.coc"
    coc.write_text(save_cocycle(RingSpec(3, 1), 1, 3, rows))
    assert main(["lift-class", str(src), str(coc)]) == 0
    ring2, genus, dim, out_rows = load_cocycle(capsys.readouterr().out)
    assert (ring2.p, ring2.r, genus, dim) == (3, 2, 1, 3)
    # reduces to the input cocycle
    flat = tuple(v % 3 for row in out_rows for v in row)
    assert flat == tuple(v for row in rows for v in row)
    # and is a cocycle at the lifted level
    cx2 = complex_of(k2.as_module())
    stacked = tuple(v for row in out_rows for v in row)
    assert cx2.d1.apply(stacked) == (0,) * cx2.d1.rows


@pytest.mark.parametrize(
    "ring, genus, rows, message",
    [
        (RingSpec(2, 1), 1, ((0, 0, 0),) * 2, "cocycle must be mod p for the flag's prime"),
        (RingSpec(3, 2), 1, ((0, 0, 0),) * 2, "cocycle must be mod p for the flag's prime"),
        (RingSpec(3, 1), 2, ((0, 0, 0),) * 4, "cocycle shape does not match the representation"),
        (RingSpec(3, 1), 1, ((0, 0),) * 2, "cocycle shape does not match the representation"),
        (RingSpec(3, 1), 1, ((0, 0, 1), (0, 0, 0)), "the given values do not form a cocycle"),
    ],
)
def test_cli_lift_class_rejects_bad_cocycles(tmp_path, capsys, ring, genus, rows, message):
    from flaglift.lifting import lift_kummer

    src, coc = tmp_path / "k2.rep", tmp_path / "c.coc"
    src.write_text(save_rep(lift_kummer(kummer_fixture())))
    coc.write_text(save_cocycle(ring, genus, len(rows[0]), rows))
    assert main(["lift-class", str(src), str(coc)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


def test_cli_lift_class_names_a_non_kummer_flag_as_the_input(tmp_path, capsys):
    # the flag's own verdict, not the one on the pinned truncation of its last level
    f = next(f for f in unipotent_pool(RingSpec(2, 2), 1, 3) if not is_kummer(f).ok)
    vec = [v for v, _ in complex_of(f.reduce_to(1).as_module()).d1_solver.kernel()][0]
    src, coc = tmp_path / "f.rep", tmp_path / "c.coc"
    src.write_text(save_rep(f))
    coc.write_text(save_cocycle(RingSpec(2, 1), 1, 3, (vec[:3], vec[3:])))
    assert main(["lift-class", str(src), str(coc)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        "error: input flag is not Kummer: subquotient extension (0,2,3) splits mod p but not mod p^2\n"
    )


def test_cli_oracle_compare_and_budget(tmp_path, capsys):
    src = tmp_path / "k.rep"
    src.write_text(save_rep(kummer_fixture()))
    assert main(["oracle-compare", str(src)]) == 0
    assert "ok: engine and brute force agree" in capsys.readouterr().out
    # the genus-2, rank-4, mod-3 identity flag: 3^16 cocycle and 3^24 lift
    # candidates, both above the fixed cap, so both comparisons are skipped
    ring = RingSpec(3, 1)
    src.write_text(save_rep(Flag(ring, 2, (RMatrix.identity(ring, 4),) * 4)))
    t0 = time.monotonic()
    assert main(["oracle-compare", str(src)]) == 0 and time.monotonic() - t0 < 1.0
    assert capsys.readouterr() == (
        "ok: engine and brute force agree on nothing\n",
        "skipped h1 comparison: cocycle enumeration: 43046721 candidates exceed the cap 1048576\n"
        "skipped lift comparison: lift enumeration: 282429536481 candidates exceed the cap 1048576\n",
    )
    # trivial-diagonal flags over Z/4 and Z/9 are lifted too; any other input
    # names why its lift is not compared, and the exit code stays 0
    lower = RMatrix.from_rows(RingSpec(2, 1), [[1, 0], [1, 1]])
    cases = [
        (gen_random_flag(2, 2, 2, 1, kind="kummer", seed=30), "h1, lift", ""),
        (gen_random_flag(3, 2, 2, 1, kind="kummer", seed=30), "h1, lift", ""),
        (gen_random_flag(3, 1, 2, 1, kind="wound-kummer", seed=30), "h1",
         "skipped lift comparison: brute lifting requires trivial diagonal characters\n"),
        (SurfaceRep(RingSpec(2, 1), 1, (lower, lower)), "h1",
         "skipped lift comparison: generator 1 is not upper triangular at (1,0)\n"),
    ]
    for rep, checked, err in cases:
        src.write_text(save_rep(rep))
        assert main(["oracle-compare", str(src)]) == 0
        assert capsys.readouterr() == (f"ok: engine and brute force agree on {checked}\n", err)


@pytest.mark.parametrize(
    "name, value, line",
    [
        ("brute_h1", lambda mod: ModuleShape((9,), ()), "H1 invariants differ: engine (2, 2) brute (9,)"),
        ("brute_lift", lambda f: [], "lift verdicts differ: engine True brute False"),
        ("brute_lift", lambda f: [f], "engine lift is missing from the brute-force list"),
    ],
    ids=["h1", "verdict", "missing"],
)
def test_cli_oracle_compare_reports_a_disagreement(tmp_path, capsys, monkeypatch, name, value, line):
    src = tmp_path / "f.rep"
    src.write_text(save_rep(gen_random_flag(2, 2, 2, 1, kind="kummer", seed=30)))
    monkeypatch.setattr(cli, name, value)
    assert main(["oracle-compare", str(src)]) == 2
    assert capsys.readouterr() == (line + "\n", "")


def test_cli_local_example_outputs(capsys):
    assert main(["local-example", "--field", "q2"]) == 0
    out = capsys.readouterr().out
    assert "-1 -2 -5 -10" in out
    assert "UNSAT" in out
    assert main(["local-example", "--field", "ql", "--ell", "11"]) == 0
    out = capsys.readouterr().out
    assert "Q_11" in out and "UNSAT" in out
    # -1 is a square in Q_5: nothing fails to lift, so no pair is chosen
    assert main(["local-example", "--field", "ql", "--ell", "5"]) == 0
    out = capsys.readouterr().out
    assert "non-liftable: -\nnote: every class lifts here; the obstruction pair needs -1 nonsquare\n" in out
    assert "chosen pair" not in out
    assert main(["local-example", "--field", "ql", "--ell", "4"]) == 1
    capsys.readouterr()
    assert main(["local-example", "--field", "ql", "--ell", "2"]) == 1
    assert capsys.readouterr() == ("", "error: --ell must be an odd prime\n")


def test_cli_stats_reports_the_command_session_and_leaves_stdout_alone(tmp_path, capsys):
    src = tmp_path / "k.rep"
    src.write_text(save_rep(kummer_fixture()))
    for argv in (["lift", str(src), "--to-r", "3"], ["flag-check", str(src)]):
        assert main(argv) == 0
        plain = capsys.readouterr()
        assert main(["--stats", *argv]) == 0
        stated = capsys.readouterr()
        assert stated.out == plain.out
        report = json.loads(stated.err.splitlines()[-1])
        assert set(report) == {"splits", "kummer", "walks", "complex_of"}
        for name in ("splits", "kummer", "walks"):
            table = report[name]
            assert set(table) == {"hits", "misses", "size"}
            # each command runs in a fresh session, and the bound evicts nothing here
            assert table["misses"] == table["size"] > 0
        info = report["complex_of"]
        assert set(info) == {"hits", "misses", "maxsize", "currsize"}
        assert info["maxsize"] == complex_of.cache_info().maxsize
    # a session per command: the default session gains nothing from main()
    before = stats.current().summary()
    assert main(["flag-check", str(src)]) == 0
    assert stats.current().summary() == before


def test_cli_stats_cohomology_walks_the_relator_once(tmp_path, capsys, monkeypatch):
    # loading walks the relator (a miss), and d1 of rep.as_module() reads that walk (a hit)
    src = tmp_path / "r.rep"
    src.write_text(save_rep(gen_random_flag(3, 2, 3, 2, kind="any", seed=28)))
    monkeypatch.setattr(cohomology, "complex_of", CochainComplex)  # build d1 in the command
    assert main(["cohomology", str(src)]) == 0
    plain = capsys.readouterr()
    assert main(["--stats", "cohomology", str(src)]) == 0
    stated = capsys.readouterr()
    assert stated.out == plain.out
    report = json.loads(stated.err.splitlines()[-1])
    assert report["walks"] == {"hits": 1, "misses": 1, "size": 1}


def test_cli_error_line_for_a_rep_file_that_breaks_the_relator(tmp_path, capsys):
    bad = tmp_path / "bad.rep"
    bad.write_text("p 2\nr 2\ngenus 1\ndim 2\ngenerator x1\n1 1\n0 1\ngenerator y1\n1 0\n1 1\n")
    for command in ("flag-check", "cohomology"):
        assert main([command, str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: representation: relator defect is nonzero: [[2, 3], [1, 3]]\n"


def test_cli_error_codes(tmp_path, capsys):
    assert main(["cohomology", str(tmp_path / "missing.rep")]) == 1
    src = tmp_path / "k.rep"
    src.write_text(save_rep(kummer_fixture()))
    assert main(["lift", str(src)]) == 1  # missing --to-r
    assert main(["lift", str(src), "--to-r", "1"]) == 1  # not above current level
    bad = tmp_path / "bad.rep"
    bad.write_text("p 2\nnot a repfile\n")
    assert main(["flag-check", str(bad)]) == 1
    capsys.readouterr()
    huge = tmp_path / "huge.rep"
    huge.write_text(HUGE_R)
    start = time.perf_counter()
    assert main(["cohomology", str(huge)]) == 1
    assert time.perf_counter() - start < 0.5
    captured = capsys.readouterr()
    assert captured.out == "" and "exceeds the limit" in captured.err
    wide = tmp_path / "wide.rep"  # 58 KB; flag-check took 5 s on it before dim was bounded
    wide.write_text(identity_rep_text(1, 120))
    start = time.perf_counter()
    assert main(["flag-check", str(wide)]) == 1
    assert time.perf_counter() - start < 0.5
    captured = capsys.readouterr()
    assert captured.out == "" and "dim 120 exceeds the limit 32" in captured.err
    wide_p = tmp_path / "wide_p.rep"  # genus 16, dim 32, a 3,904-bit p^r
    wide_p.write_text(identity_rep_text(16, 32).replace("p 3\nr 1", f"p {2**61 - 1}\nr 64"))
    start = time.perf_counter()
    assert main(["flag-check", str(wide_p)]) == 1
    assert time.perf_counter() - start < 0.5
    captured = capsys.readouterr()
    assert captured.out == "" and "exceeds the limit 512 bits" in captured.err
    for ell in ("9", "15"):  # odd but not prime
        assert main(["local-example", "--field", "ql", "--ell", ell]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "odd prime" in captured.err


def test_cli_lift_rejects_a_flag_that_fails_the_mode_predicate(tmp_path, capsys):
    # split mod 2 but not mod 4, and split steps are not wound: neither mode applies
    rows = [[[1, 0, 2], [0, 1, 0], [0, 0, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]]
    src = tmp_path / "f.rep"
    src.write_text(save_rep(Flag.from_rows(RingSpec(2, 2), 1, rows)))
    for mode, message in [("kummer", "input flag is not Kummer"), ("wound", "input flag is not wound")]:
        assert main(["lift", str(src), "--to-r", "3", "--mode", mode]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1


def test_cli_lift_target_level_within_file_limits(tmp_path, capsys):
    # an output past r = 64 or a 512-bit p^r could not be loaded again
    cases = [(RingSpec(2, 63), "65", "r 65 exceeds the limit 64"),
             (RingSpec(2, 1), "70", "r 70 exceeds the limit 64"),
             (RingSpec(2**61 - 1, 1), "9", "p^r of 549 bits exceeds the limit 512 bits")]
    src, dst = tmp_path / "k.rep", tmp_path / "out.rep"
    mats = [[[1, 1], [0, 1]], [[1, 0], [0, 1]]]
    for ring, to_r, message in cases:
        src.write_text(save_rep(Flag.from_rows(ring, 1, mats)))
        start = time.perf_counter()
        assert main(["lift", str(src), "--to-r", to_r, "--out", str(dst)]) == 1
        assert time.perf_counter() - start < 0.5, "rejected before any lift"
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"
        assert not dst.exists()
    src.write_text(save_rep(Flag.from_rows(RingSpec(2, 63), 1, mats)))
    assert main(["lift", str(src), "--to-r", "64", "--out", str(dst)]) == 0
    assert load_flag(dst.read_text()).ring.r == 64


def test_cli_truncated_splitting_grid_exits_inconclusive(tmp_path, capsys, monkeypatch):
    from flaglift import lifting

    src = tmp_path / "k.rep"
    src.write_text(save_rep(gen_random_flag(2, 1, 3, 1, kind="kummer", seed=0)))
    monkeypatch.setattr(lifting, "_SPLITTING_GRID_CAP", 0)
    assert main(["lift", str(src), "--to-r", "2"]) == 3
    err = capsys.readouterr().err
    assert "inconclusive:" in err and "obstructed" not in err


def test_cli_internal_error_exits_4(tmp_path, capsys, monkeypatch):
    src = tmp_path / "k.rep"
    src.write_text(save_rep(kummer_fixture()))

    def broken(module):
        raise AssertionError("d1 . d0 != 0; relator check should prevent this")

    monkeypatch.setattr(cli, "h_groups", broken)
    assert main(["cohomology", str(src)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: d1 . d0 != 0; relator check should prevent this\n"


def test_cli_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    assert "selftest: all passed" in capsys.readouterr().out


def test_cli_selftest_searches_the_parity_system_once(capsys, monkeypatch):
    assert main(["selftest"]) == 0
    plain = capsys.readouterr().out
    calls = []
    search = cli.check_no_cyclotomic_lift

    def counted():
        calls.append(1)
        return search()

    monkeypatch.setattr(cli, "check_no_cyclotomic_lift", counted)
    assert main(["selftest"]) == 0
    assert len(calls) == 1
    assert capsys.readouterr().out == plain
    assert "ok: parity system is unsatisfiable and minimal\n" in plain


def test_cli_selftest_budget_exceeded_exits_inconclusive(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise BudgetExceededError("no flag found within the search budget")

    monkeypatch.setattr(cli, "gen_random_flag", exhausted)
    assert main(["selftest"]) == 3
    assert capsys.readouterr().err == "inconclusive: no flag found within the search budget\n"
