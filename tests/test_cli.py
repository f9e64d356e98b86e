"""Tests for the file formats and the command-line driver."""

import pytest

from flaglift.cli import main
from flaglift.cohomology import complex_of
from flaglift.flags import Flag, is_wound_kummer
from flaglift.oracle import gen_random_flag
from flaglift.repfile import (
    RepFileError,
    load_cocycle,
    load_flag,
    load_rep,
    save_cocycle,
    save_rep,
)
from flaglift.surface import SurfaceRep, trivial_module
from flaglift.zmod import RingSpec


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
    assert rep == f.rep
    bare = save_rep(f.rep)
    assert "characters" not in bare
    assert save_rep(load_rep(bare), with_characters=False) == bare


def test_cocycle_round_trip():
    ring = RingSpec(3, 2)
    rows = ((1, 0, 5), (2, 2, 0))
    text = save_cocycle(ring, 1, 3, rows)
    ring2, genus, dim, rows2 = load_cocycle(text)
    assert (ring2, genus, dim, rows2) == (ring, 1, 3, rows)
    assert save_cocycle(ring2, genus, dim, rows2) == text


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
    with pytest.raises(RepFileError):
        load_rep(good.replace("1 0 1", "1 0 9", 1))  # entry out of range
    with pytest.raises(RepFileError):
        load_rep("p 2\nr 1\n")  # truncated header
    bad_chars = good.replace("characters\n1 1", "characters\n1 2")
    with pytest.raises(RepFileError):
        load_rep(bad_chars)


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
    mod = trivial_module(RingSpec(2, 1), 2, 1)
    path = tmp_path / "triv.rep"
    path.write_text(save_rep(SurfaceRep(mod.ring, 2, mod.acts), with_characters=False))
    assert main(["cohomology", str(path)]) == 0
    out = capsys.readouterr().out
    assert "H1: dim 4" in out
    assert "H2: dim 1" in out


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


def test_cli_flag_check_and_kummer_lift(tmp_path, capsys):
    k = kummer_fixture()
    src = tmp_path / "k.rep"
    src.write_text(save_rep(k))
    assert main(["flag-check", str(src)]) == 0
    assert "kummer: yes" in capsys.readouterr().out
    assert main(["lift", str(src), "--to-r", "3", "--mode", "kummer"]) == 0
    text = capsys.readouterr().out
    lifted = load_flag(text)
    assert lifted.ring.r == 3 and lifted.reduce_to(1) == k


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
    assert "obstructed" in capsys.readouterr().out


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


def test_cli_oracle_compare_and_budget(tmp_path, capsys, monkeypatch):
    src = tmp_path / "k.rep"
    src.write_text(save_rep(kummer_fixture()))
    assert main(["oracle-compare", str(src)]) == 0
    assert "ok: engine and brute force agree" in capsys.readouterr().out
    monkeypatch.setenv("FLAGLIFT_ORACLE_BUDGET", "5")
    assert main(["oracle-compare", str(src)]) == 0
    captured = capsys.readouterr()
    assert "skipped" in captured.err
    monkeypatch.setenv("FLAGLIFT_ORACLE_BUDGET", "zebra")
    assert main(["oracle-compare", str(src)]) == 1


def test_cli_local_example_outputs(capsys):
    assert main(["local-example", "--field", "q2"]) == 0
    out = capsys.readouterr().out
    assert "-1 -2 -5 -10" in out
    assert "UNSAT" in out
    assert main(["local-example", "--field", "ql", "--ell", "11"]) == 0
    out = capsys.readouterr().out
    assert "Q_11" in out and "UNSAT" in out
    assert main(["local-example", "--field", "ql", "--ell", "4"]) == 1


def test_cli_error_codes(tmp_path, capsys):
    assert main(["cohomology", str(tmp_path / "missing.rep")]) == 1
    src = tmp_path / "k.rep"
    src.write_text(save_rep(kummer_fixture()))
    assert main(["lift", str(src)]) == 1  # missing --to-r
    assert main(["lift", str(src), "--to-r", "1"]) == 1  # not above current level
    bad = tmp_path / "bad.rep"
    bad.write_text("p 2\nnot a repfile\n")
    assert main(["flag-check", str(bad)]) == 1


def test_cli_truncated_splitting_grid_exits_inconclusive(tmp_path, capsys, monkeypatch):
    from flaglift import lifting

    src = tmp_path / "k.rep"
    src.write_text(save_rep(gen_random_flag(2, 1, 3, 1, kind="kummer", seed=0)))
    monkeypatch.setattr(lifting, "_SPLITTING_GRID_CAP", 0)
    assert main(["lift", str(src), "--to-r", "2"]) == 3
    err = capsys.readouterr().err
    assert "inconclusive:" in err and "obstructed" not in err
