"""What the benchmark under perfbench/ reads of the program.

The benchmark wraps functions by name and reads fields of engine results,
so a rename in the program would otherwise first show up as a failed
benchmark run.  These tests import its modules and check both, and run one
traced h-ladder measurement at the reduced size.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

from flaglift.flags import Flag  # noqa: E402
from flaglift.lifting import glue, gluift, least_char_lift, lift_rep, lift_wound_kummer  # noqa: E402
from flaglift.zmod import RingSpec  # noqa: E402


@pytest.mark.parametrize("layer", tracing.LAYERS, ids=lambda layer: layer.name)
def test_every_traced_layer_names_a_callable(layer):
    for owner, attr in layer.targets:
        assert callable(getattr(owner, attr, None)), f"{layer.name}: {owner.__name__}.{attr}"


def test_engine_results_expose_what_the_benchmark_reads():
    ring = RingSpec(2, 1)

    def corner(ax, ay):
        return Flag.from_rows(ring, 1, [[[1, ax], [0, 1]], [[1, ay], [0, 1]]])

    glued, stuck = glue(corner(1, 1), corner(1, 1)), glue(corner(0, 1), corner(1, 0))
    assert glued.glued and glued.flag is not None and glued.obstruction is None
    assert not stuck.glued and stuck.flag is None and stuck.obstruction is not None

    lifted = lift_rep(corner(1, 0), least_char_lift(corner(1, 0), 2))
    assert lifted.lifted and lifted.flag is not None and lifted.obstruction is None

    one = Flag.from_rows(RingSpec(2, 2), 1, [[[1]], [[1]]])
    up = gluift(one, one, corner(1, 0))
    assert up.lifted and up.obstruction is None

    # criterion 6's frozen instance takes the wound engine's adjustment path
    frozen = Flag.from_rows(
        RingSpec(3, 1), 1, [[[1, 2, 0], [0, 1, 1], [0, 0, 1]], [[1, 1, 0], [0, 1, 2], [0, 0, 1]]]
    )
    wound = lift_wound_kummer(frozen)
    assert wound.adjusted is True and isinstance(wound.flag, Flag)

    observers = tracing.OBSERVERS
    assert observers["lifting.gluift"]["obstructed"]((one, one, corner(1, 0)), up) is False
    assert observers["lifting.lift_wound_kummer"]["adjusted"]((frozen,), wound) is True
    assert callable(workloads.load) and callable(workloads.generate)


def test_traced_h_ladder_keeps_its_solves_and_its_digest(tmp_path, monkeypatch):
    # a traced small h-ladder run: its coverage check needs nonzero
    # zmod.quotient_data and zmod.solve calls, and its output digest must be
    # the one perfbench/golden.json records; its files go to tmp_path, so
    # the benchmark's own state under the checkout is left alone
    monkeypatch.setattr(run, "STATE", tmp_path)
    res = run.measure("h-ladder", 0, 0.5, 1, size="small")
    assert res["correct"], res["lines"]
    for layer in ("zmod.quotient_data", "zmod.solve"):
        assert res["metrics"][f"{layer}.calls"]["value"] > 0, layer
    assert any("(matches the recorded digest)" in line for line in res["lines"]), res["lines"]
