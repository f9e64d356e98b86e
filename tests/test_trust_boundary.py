"""Where the relator is checked: once at the boundary, never on derived objects.

Objects derived from a checked representation or module (reductions,
segments, duals, tensor and hom modules, the ends of a coordinate
extension) are valid by construction and skip the relator walk.  Anything
assembled from raw matrices, including every engine output, is checked.
"""

import ast
import itertools
import random
import re
from pathlib import Path

import pytest
from test_acceptance import _small_flags

from flaglift import surface
from flaglift.cohomology import complex_of, coordinate_extension, h_groups
from flaglift.flags import Flag
from flaglift.lifting import (
    glue,
    gluift,
    least_char_lift,
    lift_kummer,
    lift_rep,
    lift_wound_kummer,
)
from flaglift.oracle import brute_glue, brute_lift, gen_random_flag, unipotent_pool
from flaglift.repfile import load_flag, load_rep, save_rep
from flaglift.stats import session
from flaglift.surface import (
    GModule,
    RelatorError,
    SurfaceRep,
    dual_module,
    hom_module,
    tensor_module,
    trivial_module,
)
from flaglift.zmod import RingSpec, RMatrix


def rebuilt(obj):
    """``obj`` built again from its matrices through the public constructor of its class."""
    return type(obj)(obj.ring, obj.genus, obj.mats)


def test_derived_objects_skip_the_relator_walk(monkeypatch):
    flag = gen_random_flag(2, 2, 3, 1, kind="kummer", seed=5)
    rep = SurfaceRep(flag.ring, flag.genus, flag.mats)

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
    assert rep != flag, "a flag never equals the bare representation on its matrices"
    # a module is a representation, yet never equal to the bare one on its matrices
    assert isinstance(mod, SurfaceRep)
    assert mod != rep and hash(mod) == hash(rep)
    assert mod.acts is mod.mats and mod.rank == rep.dim
    assert complex_of(mod) is complex_of(rebuilt(mod))
    for obj in derived:
        again = rebuilt(obj)
        assert obj == again and hash(obj) == hash(again)
        if isinstance(obj, Flag):
            assert obj != SurfaceRep(obj.ring, obj.genus, obj.mats)


def test_boundary_constructions_walk_the_relator(monkeypatch):
    checked = []
    check = surface._check_relator

    def counted(ring, genus, mats, what):
        checked.append(mats)
        return check(ring, genus, mats, what)

    def was_checked(obj):
        return any(m is obj.mats for m in checked)

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
        "load_flag": load_flag(text),
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


def test_rank_zero_walks_the_relator_like_any_other_rank():
    ring = RingSpec(3, 2)
    empty = RMatrix.zeros(ring, 0, 0)
    for genus in (1, 2):
        for cls in (SurfaceRep, GModule, Flag):
            with session() as s:
                obj = cls(ring, genus, (empty,) * (2 * genus))
            assert s.walks.summary() == {"hits": 0, "misses": 1, "size": 1}, (cls, genus)
            assert not callable(obj._inverses)
            assert obj._inverses == (empty,) * (2 * genus) == obj.inverses
        rep = h_groups(trivial_module(ring, genus, 0))
        assert all(h.invariants == () and h.reps == () for h in (rep.h0, rep.h1, rep.h2))


# -- closed-form inverses of derived objects ----------------------------------

_SOURCES = [(2, 2, 3, 1), (2, 2, 4, 2), (3, 2, 3, 2), (3, 2, 4, 1), (2, 3, 3, 1), (2, 3, 4, 2)]


def checked_flag(p, r, d, genus, seed):
    """A flag over Z/p^r built through the public constructors, inverses recorded."""
    f = gen_random_flag(p, r, d, genus, kind="any", seed=seed)
    return Flag(f.ring, f.genus, f.mats)


def derived_builders(flag):
    """Builders of every kind of derived object, from ``flag`` and from derived flags."""
    out = []
    for f in (flag, flag.reduce_to(1), flag.dual(), flag.reduce_to(1).dual()):
        mod, d = f.as_module(), f.d
        if f is not flag:
            out.append(lambda f=f: f)
        out += [lambda f=f: f.as_module(), lambda f=f: f.reduce_to(1)]
        out += [lambda f=f, i=i, j=j: f.segment(i, j) for i in range(d + 1) for j in range(i, d + 1)]
        out += [lambda f=f, i=i: f.segment(i, f.d).as_module() for i in range(d)]
        for n_sub in range(d + 1):
            out += [
                lambda mod=mod, n=n_sub: coordinate_extension(mod, n).sub,
                lambda mod=mod, n=n_sub: coordinate_extension(mod, n).quotient,
            ]
        ext = coordinate_extension(f.segment(1, d).as_module(), 1)
        out += [
            lambda mod=mod: dual_module(mod),
            lambda mod=mod, ext=ext: tensor_module(mod, ext.total),
            lambda mod=mod: hom_module(mod, mod),
            lambda ext=ext: hom_module(ext.quotient, ext.sub),
            lambda mod=mod: mod.reduce_to(1),
        ]
    bare = SurfaceRep(flag.ring, flag.genus, flag.mats)
    out.append(lambda: bare.as_module())
    return out + [lambda src=src, s=s: src.reduce_to(s) for src in (flag, bare) for s in range(1, flag.ring.r)]


def counting_inverse(monkeypatch):
    inverted = []
    inverse = RMatrix.inverse

    def counted(self):
        inverted.append(self)
        return inverse(self)

    monkeypatch.setattr(RMatrix, "inverse", counted)
    return inverted


def test_derived_inverses_are_closed_form_and_lazy(monkeypatch):
    for seed, (p, r, d, genus) in enumerate(_SOURCES):
        flag = checked_flag(p, r, d, genus, seed)
        builders = derived_builders(flag)
        inverted = counting_inverse(monkeypatch)
        derived = []
        for build in builders:
            obj = build()
            # recorded how to get its inverses, and has not yet worked them out
            assert callable(obj._inverses), obj
            derived.append(obj)
        assert inverted == [], "constructing a derived object inverted a matrix"
        got = [obj.inverses for obj in derived]
        assert inverted == [], "a derived object inverted a matrix"
        monkeypatch.undo()
        for obj, inverses in zip(derived, got):
            assert inverses == tuple(m.inverse() for m in obj.mats), obj
            assert obj.inverses is inverses, "inverses are worked out once"


# -- trusted RMatrix and Flag construction ------------------------------------


def test_trusted_matrix_producers_match_the_public_constructor():
    rng = random.Random(8)

    def rand(ring, rows, cols):
        return RMatrix(ring, rows, cols, tuple(rng.randrange(ring.modulus) for _ in range(rows * cols)))

    def invertible(ring, n):
        while True:
            a = rand(ring, n, n)
            if a.is_invertible():
                return a

    for p, r in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)]:
        ring, m = RingSpec(p, r), p**r
        assert ring.shrink(r) is ring
        for s in range(1, r + 1):
            small = ring.shrink(s)
            assert small == RingSpec(p, s) and hash(small) == hash(RingSpec(p, s))
            assert small.modulus == p**s
        shapes = [(0, 3), (3, 0), (0, 0), (1, 1)] + [
            (rng.randrange(1, 6), rng.randrange(1, 6)) for _ in range(8)
        ]
        for rows, cols in shapes:
            a, b, c = rand(ring, rows, cols), rand(ring, cols, rng.randrange(4)), rand(ring, 2, 3)
            d, k = rand(ring, rows, cols), rng.randrange(-2 * m, 2 * m)
            ri = [rng.randrange(rows) for _ in range(rng.randrange(4))] if rows else []
            ci = [rng.randrange(cols) for _ in range(rng.randrange(4))] if cols else []
            kron = a.kron(c)
            assert kron.entries == tuple(
                a.entry(i // 2, j // 3) * c.entry(i % 2, j % 3) % m
                for i in range(rows * 2) for j in range(cols * 3)
            )
            assert a.submatrix(ri, ci).entries == tuple(a.entry(i, j) for i in ri for j in ci)
            assert (a + d).entries == tuple((x + y) % m for x, y in zip(a.entries, d.entries))
            assert (a - d).entries == tuple((x - y) % m for x, y in zip(a.entries, d.entries))
            assert a.scale(k).entries == tuple(k * x % m for x in a.entries)
            tall = RMatrix.vstack([a, d])
            assert tall.entries == a.entries + d.entries
            results = [
                a @ b, a.submatrix(ri, ci), a.submatrix(range(rows), range(cols - 1, -1, -1)),
                a.transpose(), kron, c.kron(a), a + d, a - d, a.scale(k), tall,
                RMatrix.identity(ring, rows), RMatrix.zeros(ring, rows, cols),
                invertible(ring, max(rows, 1)).inverse(), RMatrix.identity(ring, 0).inverse(),
            ]
            results += [a.reduce_to(s) for s in range(1, r + 1)]
            for x in results:
                again = RMatrix(x.ring, x.rows, x.cols, x.entries)
                assert x == again and hash(x) == hash(again)
                assert type(x.entries) is tuple and len(x.entries) == x.rows * x.cols
                assert all(type(e) is int and 0 <= e < x.ring.modulus for e in x.entries)
    ring = RingSpec(3, 2)
    assert RMatrix(ring, 1, 3, (-1, 9, 12)).entries == (8, 0, 3)
    with pytest.raises(ValueError):
        RMatrix(ring, 2, 2, (1, 2, 3))
    with pytest.raises(ValueError):
        RMatrix.zeros(ring, -1, 2)


def test_trusted_flags_match_the_public_constructor():
    for seed, (p, r, d, genus) in enumerate(_SOURCES):
        flag = checked_flag(p, r, d, genus, seed)
        derived = [flag.dual(), flag.dual().dual(), flag.reduce_to(1), flag.reduce_to(1).dual()]
        derived += [flag.segment(i, j) for i in range(d + 1) for j in range(i, d + 1)]
        derived += [flag.dual().segment(1, d), flag.reduce_to(1).segment(0, d - 1)]
        for f in derived:
            again = Flag(f.ring, f.genus, f.mats)
            assert f == again and hash(f) == hash(again)
    ring = RingSpec(3, 1)
    lower = RMatrix.from_rows(ring, [[1, 0], [1, 1]])
    with pytest.raises(ValueError, match="not upper triangular at \\(1,0\\)"):
        Flag(ring, 1, (lower, RMatrix.identity(ring, 2)))
    # neither triangular nor relator-exact: the inherited relator check runs first
    with pytest.raises(RelatorError):
        Flag(ring, 1, (lower, RMatrix.from_rows(ring, [[1, 1], [0, 1]])))


def oracle_pools():
    """Criterion 4's pools, and p = 3 and Z/4 pools whose glue diagonals are not all 1."""
    pools = [unipotent_pool(RingSpec(2, 1), 1, d) for d in (1, 2, 3)]
    ring = RingSpec(3, 1)
    return pools + [_small_flags(ring, 1), _small_flags(ring, 2), unipotent_pool(RingSpec(2, 2), 1, 2)]


def oracle_solutions(pools):
    """Every flag ``brute_lift`` and ``brute_glue`` return on ``pools``."""
    out = []
    for pool in pools:
        for f in pool:
            if f.ring.r == 1 and all(c == (1,) * 2 * f.genus for c in f.chars()):
                out += brute_lift(f)
        for e, f in itertools.product(pool, repeat=2):
            if e.quotient_by_first() == f.truncate():
                out += brute_glue(e, f)
    return out


def test_oracle_flags_match_the_public_constructor():
    """The oracle checks its candidates itself; its survivors pass the public check."""
    sols = oracle_solutions(oracle_pools())
    nonunipotent = [s for s in sols if any(v != 1 for c in s.chars() for v in c)]
    assert (len(sols), len(nonunipotent)) == (8807, 4518)  # frozen
    for s in sols:
        again = Flag(s.ring, s.genus, s.mats)
        assert type(s) is Flag and s == again and hash(s) == hash(again)
        assert s.inverses == again.inverses


def test_the_lift_and_glue_oracles_walk_no_relator_of_the_check(monkeypatch):
    pools = oracle_pools()
    walked = []
    walk = surface._relator_product

    def counted(genus, mats):
        walked.append(mats)
        return walk(genus, mats)

    monkeypatch.setattr(surface, "_relator_product", counted)
    with session() as s:
        sols = oracle_solutions(pools)
    assert walked == [] and s.walks.summary() == {"hits": 0, "misses": 0, "size": 0}
    # the counter does see the public constructor
    Flag(sols[0].ring, sols[0].genus, sols[0].mats)
    assert walked == [sols[0].mats]


# -- tooling guard: who may build without checking ------------------------------

_ROOT = Path(__file__).resolve().parent.parent
_TRUSTED_NAMES = {
    "_trusted_matrix": {"src/flaglift/zmod.py"},
    "_trusted_ring": {"src/flaglift/zmod.py"},
    # the oracle builds the flags that its own batched relator walk and
    # inverse check accepted (see test_the_lift_and_glue_oracles_*)
    "_trusted": {
        "src/flaglift/surface.py", "src/flaglift/flags.py", "src/flaglift/cohomology.py",
        "src/flaglift/oracle.py",
    },
    "_diagonal_block": {"src/flaglift/surface.py", "src/flaglift/flags.py", "src/flaglift/cohomology.py"},
}


def referenced_names(path):
    """Every identifier ``path`` uses: names, attributes, imports and definitions."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name


def test_only_the_trusted_modules_build_without_checking():
    files = sorted(
        p for d in ("src", "scripts", "perfbench", "tests") for p in (_ROOT / d).rglob("*.py")
    )
    assert _ROOT / "src/flaglift/lifting.py" in files and _ROOT / "src/flaglift/repfile.py" in files
    seen = {name: set() for name in _TRUSTED_NAMES}
    for path in files:
        rel = path.relative_to(_ROOT).as_posix()
        for name in set(referenced_names(path)) & set(_TRUSTED_NAMES):
            seen[name].add(rel)
            assert rel in _TRUSTED_NAMES[name], f"{rel} uses {name}"
    for name, where in seen.items():
        assert where, f"{name} is defined nowhere"


# -- tooling guard: every top-level name is reached -----------------------------------


def used_name(node):
    """The identifier ``node`` uses, if any: a name, an attribute, an import or a string constant."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name.rsplit(".", 1)[-1]
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def dead_names(trees):
    """Functions, classes, methods and properties of ``src/flaglift`` that no tree names.

    ``trees`` maps a repository path to its parsed module.  A name counts
    when any tree uses it (``used_name``) outside every definition that
    binds the same name, so recursion does not keep a name alive, and a
    private helper or method that a refactor orphans is caught.  Checked
    are the module-level functions and classes and every function in a
    module-level class body (methods, properties, class and static
    methods).  Dunder methods are exempt: the language calls them.
    """
    used, defined = set(), []

    def walk(node, own):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            own = own | {node.name}
        name = used_name(node)
        if name is not None and name not in own:
            used.add(name)
        for child in ast.iter_child_nodes(node):
            walk(child, own)

    for rel, tree in trees.items():
        walk(tree, frozenset())
        if not rel.startswith("src/flaglift/"):
            continue
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined.append((rel, stmt.name, stmt.lineno))
            if isinstance(stmt, ast.ClassDef):
                methods = (m for m in stmt.body if isinstance(m, ast.FunctionDef))
                defined += [(rel, m.name, m.lineno) for m in methods if not re.fullmatch("__.*__", m.name)]
    return [(rel, name, line) for rel, name, line in defined if name not in used]


def test_every_public_function_and_class_is_named_by_a_program_path():
    """Tests do not count: a name only tests reach is dead code, or a test helper."""
    trees = {
        path.relative_to(_ROOT).as_posix(): ast.parse(path.read_text(), str(path))
        for d in ("src", "scripts", "perfbench")
        for path in sorted((_ROOT / d).rglob("*.py"))
    }
    assert "src/flaglift/cli.py" in trees and "perfbench/workloads.py" in trees
    assert dead_names(trees) == []


# -- tooling guard: no unbounded or hidden global memo ------------------------------


def unbounded_caches(tree):
    """Lines that build an unbounded functools cache."""
    name = lambda node: getattr(node, "attr", getattr(node, "id", None))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and name(node.func) == "lru_cache":
            sizes = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
            if any(isinstance(s, ast.Constant) and s.value is None for s in sizes):
                yield node.lineno
        elif isinstance(node, ast.Attribute) and node.attr == "cache" and name(node.value) == "functools":
            yield node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            yield from (node.lineno for alias in node.names if alias.name == "cache")


def stored_names(tree):
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}


def module_level_subscript_writes(tree):
    """Lines where a function stores or deletes by subscript into a module-level name."""
    module_names = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            module_names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            module_names.add(node.name)
        else:
            module_names |= stored_names(node)
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = func.args
        local = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
        local |= {a.arg for a in (args.vararg, args.kwarg) if a}
        local |= stored_names(func)
        for node in ast.walk(func):
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
                base = node.value
                while isinstance(base, ast.Subscript):
                    base = base.value
                if isinstance(base, ast.Name) and base.id in module_names - local:
                    yield node.lineno


def relator_calls(tree):
    """(enclosing class and function names, line) of every ``.relator()`` call."""

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from walk(child, scope + (child.name,))
                continue
            func = getattr(child, "func", None)
            if isinstance(child, ast.Call) and isinstance(func, ast.Attribute) and func.attr == "relator":
                yield ".".join(scope), child.lineno
            yield from walk(child, scope)

    return list(walk(tree, ()))


def wrapped_flags(tree):
    """Lines of every ``Flag(SurfaceRep(...))``: a flag is built once, as ``Flag(ring, genus, mats)``."""
    name = lambda node: getattr(node, "attr", getattr(node, "id", None))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and name(node.func) == "Flag":
            if any(isinstance(a, ast.Call) and name(a.func) == "SurfaceRep" for a in node.args):
                yield node.lineno


def class_dispatches(tree):
    """Lines of every ``isinstance`` or ``issubclass`` test against ``SurfaceRep`` or ``GModule``."""
    name = lambda node: getattr(node, "attr", getattr(node, "id", None))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and name(node.func) in ("isinstance", "issubclass"):
            if any(name(n) in ("SurfaceRep", "GModule") for a in node.args[1:] for n in ast.walk(a)):
                yield node.lineno


def sweep_bypasses(tree):
    """(kind, line) of every ``LinearSolver(...)`` and every ``smithify`` of a transpose.

    A ``transpose()`` call anywhere inside the argument counts, so
    ``smithify(m.transpose().sparse())`` is flagged.
    """
    name = lambda node: getattr(node, "attr", getattr(node, "id", None))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and name(node.func) == "LinearSolver":
            yield "LinearSolver", node.lineno
        elif isinstance(node, ast.Call) and name(node.func) == "smithify":
            args = [n for a in node.args for n in ast.walk(a)]
            if any(isinstance(n, ast.Call) and name(n.func) == "transpose" for n in args):
                yield "transpose", node.lineno


def private_parameters(tree):
    """(function name, line) of every parameter whose name starts with ``_``."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            for a in params:
                if a is not None and a.arg.startswith("_"):
                    yield getattr(node, "name", "<lambda>"), a.lineno


def call_defaults(tree):
    """(function name, line) of every parameter default that makes a call, such as ``SearchBudget()``."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            defaults = node.args.defaults + [d for d in node.args.kw_defaults if d is not None]
            for default in defaults:
                if any(isinstance(n, ast.Call) for n in ast.walk(default)):
                    yield getattr(node, "name", "<lambda>"), default.lineno


def silent_handlers(tree):
    """Line of every ``except`` clause whose body is only ``continue`` or ``pass``."""
    silent = (ast.Continue, ast.Pass)
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and all(isinstance(b, silent) for b in node.body):
            yield node.lineno


_H1_ORACLE = ("brute_cocycles", "brute_coboundaries", "brute_h1")
_ENGINE_NAMES = {
    "smithify", "LinearSolver", "SparseMatrix", "quotient_data", "echelonize", "SpanReducer",
}
_LIFT_ORACLE = ("brute_lift", "brute_glue", "unipotent_pool")
_CHECK_NAMES = {"_check_relator", "_relator_product", "current"}


def imported_names(tree, modules):
    """The names of ``modules`` and every name ``tree`` imports from them."""
    names = set(modules)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            from_module = (node.module or "").rsplit(".", 1)[-1] in modules
            names |= {a.asname or a.name for a in node.names if from_module or a.name in modules}
        elif isinstance(node, ast.Import):
            names |= {a.asname for a in node.names if a.asname and a.name.rsplit(".", 1)[-1] in modules}
    return names


def reached_nodes(tree, roots):
    """(function, node, name) of every node of ``roots`` and of the module-level functions they name.

    Those functions are followed in turn, and so on down.  ``name`` is the
    node's identifier or attribute, or None.
    """
    functions = {s.name: s for s in tree.body if isinstance(s, ast.FunctionDef)}
    todo, seen = list(roots), set()
    while todo:
        func = todo.pop()
        if func in seen or func not in functions:
            continue
        seen.add(func)
        for node in ast.walk(functions[func]):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            todo.append(name)
            yield func, node, name


def engine_names(tree, roots):
    """(function, name, line) of every engine name that ``roots`` reach.

    Engine names are the linear-algebra kernels in ``_ENGINE_NAMES``, the
    name ``cohomology`` and every name imported from it.
    """
    banned = _ENGINE_NAMES | imported_names(tree, {"cohomology"})
    for func, node, name in reached_nodes(tree, roots):
        if name in banned:
            yield func, name, node.lineno


def check_bypasses(tree, roots):
    """(function, name, line) of every use of the engines' relator check that ``roots`` reach.

    That is the check and its session table (``_CHECK_NAMES``), the names
    ``cohomology`` and ``lifting`` and every name imported from them, and
    any call ``Flag(...)``, reported as ``"Flag()"``.
    """
    banned = _CHECK_NAMES | imported_names(tree, {"cohomology", "lifting"})
    for func, node, name in reached_nodes(tree, roots):
        if name in banned:
            yield func, name, node.lineno
        elif isinstance(node, ast.Call):
            callee = node.func
            if getattr(callee, "id", getattr(callee, "attr", None)) == "Flag":
                yield func, "Flag()", node.lineno


# The Howell form stays in zmod only because the benchmark's tracer wraps
# ``echelonize``; class questions are decided on the cached Smith solvers.
_HOWELL_NAMES = {"echelonize", "EchelonResult", "Pivot"}


def howell_uses(tree):
    """(name, line) of every use of a Howell name outside the three definitions that bind them."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and stmt.name in _HOWELL_NAMES:
            continue
        for node in ast.walk(stmt):
            if isinstance(node, ast.alias):
                name = node.name.rsplit(".", 1)[-1]
            else:
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name in _HOWELL_NAMES:
                yield name, node.lineno


def test_guards_flag_the_patterns_they_forbid():
    bad = ast.parse(
        "import functools\nfrom functools import cache, lru_cache\n_MEMO = {}\n"
        "@lru_cache(maxsize=None)\ndef f(x):\n    _MEMO[x] = x\n    return x\n"
        "@lru_cache(None)\ndef g(x):\n    del _MEMO[x]\n"
        "@functools.cache\ndef h(x, table={}):\n    table[x] = 1\n    _MEMO[x][0] += 1\n"
    )
    assert sorted(unbounded_caches(bad)) == [2, 4, 8, 11]
    assert sorted(module_level_subscript_writes(bad)) == [6, 10, 14]
    ok = ast.parse(
        "from functools import lru_cache\n_T = {}\n@lru_cache(maxsize=64)\n"
        "def f(x):\n    _T = {}\n    _T[x] = 1\n    return _T\n"
    )
    assert not list(unbounded_caches(ok)) and not list(module_level_subscript_writes(ok))
    walks = ast.parse(
        "class C:\n    def d1(self):\n        return self.p.relator()\n"
        "def f(p):\n    g = lambda: p.relator()\n    return [t for t in Presentation(1).relator()]\n"
        "relator()\nx.relator\n"
    )
    assert relator_calls(walks) == [("C.d1", 3), ("f", 5), ("f", 6)]
    hidden = ast.parse(
        "def f(x, _verify=True):\n    pass\ng = lambda y, *, _k: y\n"
        "def h(x, y_=1, *_a, **_kw):\n    pass\ndef ok(self, x, *args, **kwargs):\n    pass\n"
    )
    assert sorted(private_parameters(hidden)) == [("<lambda>", 3), ("f", 1), ("h", 4), ("h", 4)]
    knobs = ast.parse(
        "def f(m, budget: SearchBudget = SearchBudget()):\n    pass\n"
        "def g(m, *, cap=oracle.Cap(max_count=3), ok=None):\n    pass\n"
        "h = lambda x, y=(frozenset(),): x\n"
        "def fine(m, n=1 << 20, s='x', t=(), *, k=None, u=-1, v=Mode.FAST):\n    return max(m, n)\n"
    )
    assert sorted(call_defaults(knobs)) == [("<lambda>", 5), ("f", 1), ("g", 3)]
    swallowed = ast.parse(
        "for x in xs:\n    try:\n        f(x)\n    except RelatorError:\n        continue\n"
        "try:\n    g()\nexcept (KeyError, ValueError):\n    pass\n    continue\n"
        "except Exception:\n    raise\n"
        "try:\n    h()\nexcept OSError as exc:\n    print(exc)\n    continue\n"
    )
    assert sorted(silent_handlers(swallowed)) == [4, 8]
    wrapped = ast.parse(
        "a = Flag(SurfaceRep(r, 1, m))\nb = flags.Flag(surface.SurfaceRep(r, 1, m))\n"
        "c = Flag(r, 1, m)\nd = SurfaceRep(r, 1, m)\ne = Flag(r, 1, SurfaceRep(r, 1, m).mats)\n"
    )
    assert sorted(wrapped_flags(wrapped)) == [1, 2]
    dispatch = ast.parse(
        "a = isinstance(x, SurfaceRep)\nb = isinstance(x, (Flag, surface.GModule))\n"
        "c = issubclass(t, int | SurfaceRep)\nd = isinstance(SurfaceRep, type)\n"
        "e = isinstance(x, Flag)\nf = x.mats if y else SurfaceRep\n"
    )
    assert sorted(class_dispatches(dispatch)) == [1, 2, 3]
    sweeps = ast.parse(
        "a = smithify(m.transpose())\nb = zmod.smithify(cx.d1.transpose())\n"
        "c = LinearSolver(m, smithify(m))\nd = zmod.LinearSolver(m)\n"
        "e = smithify(m.transpose().sparse())\nf = smithify(SparseMatrix(r, n, t(m.transpose())))\n"
    )
    assert sorted(sweep_bypasses(sweeps)) == [
        ("LinearSolver", 3), ("LinearSolver", 4),
        ("transpose", 1), ("transpose", 2), ("transpose", 5), ("transpose", 6),
    ]
    ok = ast.parse(
        "a = smithify(m)\nt = m.transpose()\nb = smithify(t)\nc = smithify(m).solve(v)\n"
        "e = smithify(m.sparse()).solve(m.transpose().col(0))\n"
        "s: LinearSolver = a\nd = a.on_kernel().cokernel()\n"
    )
    assert not list(sweep_bypasses(ok))
    oracle = ast.parse(
        "from .cohomology import complex_of\nfrom . import cohomology\nfrom .zmod import smithify\n"
        "def _helper(m):\n    return smithify(m)\n"
        "def brute_h1(m):\n    return complex_of(m), _helper(m), cohomology.h_groups(m)\n"
        "def brute_cocycles(m):\n    return zmod.echelonize(m)\n"
        "def brute_coboundaries(m):\n    return m\n"
        "def brute_lift(f):\n    return LinearSolver(f)\n"
    )
    assert sorted(engine_names(oracle, _H1_ORACLE)) == [
        ("_helper", "smithify", 5), ("brute_cocycles", "echelonize", 9),
        ("brute_h1", "cohomology", 7), ("brute_h1", "complex_of", 7),
    ]
    checks = ast.parse(
        "from .lifting import lift_rep\nfrom .surface import _check_relator, _trusted\nfrom .stats import current\n"
        "def _walk(f):\n    return surface._relator_product(1, f.mats), current().walks, lifting.glue(f)\n"
        "def brute_lift(f: Flag) -> list[Flag]:\n    return [Flag(f.ring, 1, f.mats), _walk(f), lift_rep(f)]\n"
        "def brute_glue(e, f):\n    return _check_relator(e), _trusted(Flag, e.ring, 1, f.mats), flags.Flag(e)\n"
    )
    assert sorted(check_bypasses(checks, _LIFT_ORACLE)) == [
        ("_walk", "_relator_product", 5), ("_walk", "current", 5), ("_walk", "lifting", 5),
        ("brute_glue", "Flag()", 9), ("brute_glue", "_check_relator", 9),
        ("brute_lift", "Flag()", 7), ("brute_lift", "lift_rep", 7),
    ]
    modules = {
        "src/flaglift/m.py": ast.parse(
            "def used():\n    return _Private\ndef dead(n):\n    return dead(n - 1)\nclass _Private:\n    pass\n"
            "class Kept:\n    def unreached(self):\n        pass\nclass Named:\n    pass\n"
            "def _orphan(m):\n    return _orphan(m)\n"
            "class Holder:\n    def __init__(self):\n        self.x = self.called()\n"
            "    def called(self):\n        return self.recursive()\n"
            "    def recursive(self):\n        return self.recursive()\n"
            "    @property\n    def shown(self):\n        return self.x\n"
            "    @property\n    def hidden(self):\n        return self.hidden\n"
            "    @staticmethod\n    def helper():\n        return Holder.helper()\n"
        ),
        "scripts/s.py": ast.parse("from flaglift.m import used\nKept()\nLayer((m, 'Named'),)\nHolder().shown\n"),
    }
    m = "src/flaglift/m.py"
    assert dead_names(modules) == [
        (m, "dead", 3), (m, "unreached", 8), (m, "_orphan", 12), (m, "hidden", 25), (m, "helper", 28)
    ]
    howell = ast.parse(
        "from .zmod import echelonize as ech\n"
        "class Pivot:\n    pass\n"
        "def echelonize(a) -> EchelonResult:\n    return EchelonResult(a, (Pivot(0, 0, 0),))\n"
        "class SpanReducer:\n    def __init__(self, a):\n        self.h = zmod.echelonize(a).h\n"
        "def key(v, pivots: tuple[Pivot, ...]):\n    return v\n"
    )
    assert sorted(howell_uses(howell)) == [("Pivot", 9), ("echelonize", 1), ("echelonize", 8)]


def test_no_unbounded_or_hidden_global_memo():
    """Every memo is bounded, and only ``stats`` holds process-wide memo state."""
    files = sorted((_ROOT / "src/flaglift").glob("*.py"))
    assert _ROOT / "src/flaglift/stats.py" in files
    for path in files:
        tree = ast.parse(path.read_text(), str(path))
        rel = path.relative_to(_ROOT).as_posix()
        assert not list(unbounded_caches(tree)), f"{rel} builds an unbounded cache"
        if path.name != "stats.py":
            lines = list(module_level_subscript_writes(tree))
            assert not lines, f"{rel} writes into a module-level name at lines {lines}"


# -- tooling guard: one relator walk ------------------------------------------------

# Only the relator walk and the Fox matrix read the relator's letters in the
# engines: ``d1`` places the walk's prefix products by them, and every other
# relator value is read off ``d1``.  The oracle is left out: it keeps
# walks of its own so that it stays independent of the code it checks,
# ``brute_cocycles`` over candidate cocycles and ``_relator_holds`` over the
# candidate flags of ``brute_lift`` and ``brute_glue``.
_RELATOR_WALKS = {
    "src/flaglift/surface.py": {"_relator_product"},
    "src/flaglift/cohomology.py": {"CochainComplex.d1"},
}


def test_only_the_check_and_d1_walk_the_relator():
    seen = set()
    for path in sorted((_ROOT / "src/flaglift").glob("*.py")):
        rel = path.relative_to(_ROOT).as_posix()
        if path.name == "oracle.py":
            continue
        for scope, line in relator_calls(ast.parse(path.read_text(), str(path))):
            assert scope in _RELATOR_WALKS.get(rel, ()), f"{rel}:{line} ({scope}) walks the relator"
            seen.add((rel, scope))
    assert seen == {(rel, s) for rel, scopes in _RELATOR_WALKS.items() for s in scopes}


# -- tooling guard: the H^1 oracle stays independent ---------------------------------


def test_the_h1_oracle_uses_no_engine():
    """``brute_h1`` and what it counts on name no cohomology code and no linear-algebra kernel."""
    path = _ROOT / "src/flaglift/oracle.py"
    tree = ast.parse(path.read_text(), str(path))
    assert set(_H1_ORACLE) <= {s.name for s in tree.body if isinstance(s, ast.FunctionDef)}
    assert list(engine_names(tree, _H1_ORACLE)) == []


def test_the_lift_and_glue_oracles_use_no_relator_check_of_the_engines():
    """``brute_lift``, ``brute_glue``, ``unipotent_pool`` and their helpers decide candidates on their own."""
    path = _ROOT / "src/flaglift/oracle.py"
    tree = ast.parse(path.read_text(), str(path))
    assert set(_LIFT_ORACLE) <= {s.name for s in tree.body if isinstance(s, ast.FunctionDef)}
    assert list(check_bypasses(tree, _LIFT_ORACLE)) == []
    assert list(engine_names(tree, _LIFT_ORACLE)) == []


# -- tooling guard: a flag is built once --------------------------------------------


def test_no_flag_wraps_a_surface_rep():
    """A ``Flag`` is a ``SurfaceRep``; building one around another checks the relator twice."""
    files = sorted(p for d in ("src", "scripts", "tests") for p in (_ROOT / d).rglob("*.py"))
    assert _ROOT / "src/flaglift/lifting.py" in files and _ROOT / "tests/test_flags.py" in files
    for path in files:
        lines = list(wrapped_flags(ast.parse(path.read_text(), str(path))))
        assert not lines, f"{path.relative_to(_ROOT).as_posix()} wraps a SurfaceRep in a Flag at lines {lines}"


# -- tooling guard: a module is a representation ------------------------------------


def test_no_isinstance_dispatch_on_representations():
    """``GModule`` and ``Flag`` are SurfaceReps: one generator tuple, picked by no class test."""
    for path in sorted((_ROOT / "src/flaglift").glob("*.py")):
        lines = list(class_dispatches(ast.parse(path.read_text(), str(path))))
        assert not lines, f"{path.relative_to(_ROOT).as_posix()} tests for SurfaceRep or GModule at lines {lines}"


# -- tooling guard: one sweep per matrix ----------------------------------------------


def test_solvers_come_from_one_sweep_of_their_own_matrix():
    """Only ``zmod`` builds a ``LinearSolver``, and no sweep reads a transpose.

    ``smithify(A)`` returns the solver that owns A's factors; ker A, coker A
    and the solver on ker A's generators are read off it, not off a sweep
    of A^T.
    """
    built = []
    for path in sorted((_ROOT / "src/flaglift").glob("*.py")):
        rel = path.relative_to(_ROOT).as_posix()
        for kind, line in sweep_bypasses(ast.parse(path.read_text(), str(path))):
            assert kind == "LinearSolver" and path.name == "zmod.py", f"{rel}:{line} {kind}"
            built.append(line)
    assert built, "zmod builds no solver"


# -- tooling guard: one kernel decides class questions ----------------------------------


def test_no_program_path_uses_the_howell_form():
    """Only ``echelonize``, ``EchelonResult`` and ``Pivot`` name one another in ``src/flaglift``."""
    files = sorted((_ROOT / "src/flaglift").glob("*.py"))
    assert _ROOT / "src/flaglift/zmod.py" in files
    for path in files:
        found = list(howell_uses(ast.parse(path.read_text(), str(path))))
        assert not found, f"{path.relative_to(_ROOT).as_posix()} uses the Howell form: {found}"


# -- tooling guard: no hidden switch past the boundary ---------------------------------


def test_no_parameter_defaults_to_a_call():
    """A search limit is a module constant read at call time, not a default object."""
    for path in sorted((_ROOT / "src/flaglift").glob("*.py")):
        found = list(call_defaults(ast.parse(path.read_text(), str(path))))
        assert not found, f"{path.relative_to(_ROOT).as_posix()} has parameters defaulting to calls: {found}"


def test_no_exception_is_swallowed():
    """A failure is raised or reported; no ``except`` clause drops it to retry or go on."""
    for path in sorted((_ROOT / "src/flaglift").glob("*.py")):
        found = list(silent_handlers(ast.parse(path.read_text(), str(path))))
        assert not found, f"{path.relative_to(_ROOT).as_posix()} swallows exceptions at lines {found}"


def test_no_function_takes_a_private_parameter():
    """Checks run once at the boundary; no parameter turns them off below it."""
    for path in sorted((_ROOT / "src/flaglift").glob("*.py")):
        found = list(private_parameters(ast.parse(path.read_text(), str(path))))
        assert not found, f"{path.relative_to(_ROOT).as_posix()} has private parameters: {found}"
