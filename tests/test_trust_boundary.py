"""Where the relator is checked: once at the boundary, never on derived objects.

Objects derived from a checked representation or module (reductions,
segments, duals, tensor and hom modules, the ends of a coordinate
extension) are valid by construction and skip the relator walk.  Anything
assembled from raw matrices, including every engine output, is checked.
"""

from flaglift import surface
from flaglift.cohomology import coordinate_extension
from flaglift.flags import Flag
from flaglift.lifting import (
    glue,
    gluift,
    least_char_lift,
    lift_kummer,
    lift_rep,
    lift_wound_kummer,
)
from flaglift.oracle import gen_random_flag
from flaglift.repfile import load_rep, save_rep
from flaglift.surface import GModule, SurfaceRep, dual_module, hom_module, tensor_module
from flaglift.zmod import RingSpec, RMatrix


def rebuilt(obj):
    """``obj`` built again from its matrices through the public constructors."""
    if isinstance(obj, Flag):
        return Flag(rebuilt(obj.rep))
    if isinstance(obj, SurfaceRep):
        return SurfaceRep(obj.ring, obj.genus, obj.mats)
    return GModule(obj.ring, obj.genus, obj.acts)


def test_derived_objects_skip_the_relator_walk(monkeypatch):
    flag = gen_random_flag(2, 2, 3, 1, kind="kummer", seed=5)
    rep = flag.rep

    def refuse(*args):
        raise AssertionError("a derived object walked the relator")

    monkeypatch.setattr(surface, "_relator_product", refuse)
    mod = rep.as_module()
    ext = coordinate_extension(mod, 1)
    derived = [
        mod,
        rep.reduce_to(1),
        mod.reduce_to(1),
        tensor_module(mod, mod),
        dual_module(mod),
        hom_module(mod, mod),
        flag.segment(1, 3),
        flag.dual(),
        flag.reduce_to(1),
        ext.sub,
        ext.quotient,
    ]
    monkeypatch.undo()
    for obj in derived:
        again = rebuilt(obj)
        assert obj == again and hash(obj) == hash(again)


def test_boundary_constructions_walk_the_relator(monkeypatch):
    checked = []
    check = surface._check_relator

    def counted(ring, genus, mats, what):
        checked.append(mats)
        check(ring, genus, mats, what)

    def was_checked(obj):
        mats = obj.acts if isinstance(obj, GModule) else obj.mats
        return any(m is mats for m in checked)

    kummer = gen_random_flag(2, 1, 3, 1, kind="kummer", seed=5)
    kummer_up = gen_random_flag(2, 2, 3, 1, kind="kummer", seed=5)
    wound = gen_random_flag(2, 1, 3, 1, kind="wound-kummer", seed=3)
    text = save_rep(kummer)
    ring = RingSpec(2, 2)
    a = RMatrix.from_rows(ring, [[1, 1], [0, 1]])
    eye = RMatrix.identity(ring, 2)
    monkeypatch.setattr(surface, "_check_relator", counted)
    outputs = {
        "SurfaceRep": SurfaceRep(ring, 1, (a, eye)),
        "GModule": GModule(ring, 1, (a, eye)),
        "load_rep": load_rep(text),
        "glue": glue(kummer.truncate(), kummer.quotient_by_first()).flag,
        "gluift": gluift(
            kummer_up.truncate(), kummer_up.quotient_by_first(), kummer_up.reduce_to(1)
        ).flag,
        "lift_rep": lift_rep(kummer, least_char_lift(kummer, 2)).flag,
        "lift_kummer": lift_kummer(kummer),
        "lift_wound_kummer": lift_wound_kummer(wound).flag,
    }
    derived = [outputs["lift_kummer"].reduce_to(1), outputs["lift_kummer"].dual()]
    for name, obj in outputs.items():
        assert obj is not None, name
        assert was_checked(obj), f"{name} skipped the relator check"
    for obj in derived:
        assert not was_checked(obj), "a derived object was checked again"
