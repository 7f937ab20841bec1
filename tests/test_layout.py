"""Package layout: src/ holds no code that only tests reach."""

import ast
from collections import Counter, defaultdict
from pathlib import Path

import prodperc

SRC = Path(prodperc.__file__).parent
# Where an exported name may be used: the library, the sweep scripts and
# the benchmark harness.
ROOT = SRC.parent.parent
CALLERS = [ROOT / "scripts", ROOT / "perfbench"]


def test_every_top_level_name_is_used_or_exported():
    """Each top-level function, class or assigned name in src/prodperc is
    loaded by name or imported somewhere in src/ outside its own
    definition, or is listed in ``prodperc.__all__`` and loaded or
    imported by name in src/, scripts/ or perfbench/ outside its own
    definition (the export table lists names as strings, so it does not
    count).  Attribute names do not count: a read of ``x.find`` does not
    use a top-level ``find``.  Dunders are exempt."""
    defined = []
    referenced_at = defaultdict(set)  # name -> {(module, top-level name)}
    called_from = set()  # names loaded or imported in scripts/ or perfbench/
    for path in sorted(path for folder in CALLERS for path in folder.glob("*.py")):
        for sub in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                called_from.add(sub.id)
            elif isinstance(sub, ast.ImportFrom):
                called_from.update(alias.name for alias in sub.names)
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [sub.id for target in targets for sub in ast.walk(target)
                         if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store)]
            else:
                names = [None]
            for name in names:
                site = (path.name, name)
                if name is not None and not name.startswith("__"):
                    defined.append(site)
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                        referenced_at[sub.id].add(site)
                    elif isinstance(sub, ast.ImportFrom):
                        for alias in sub.names:
                            referenced_at[alias.name].add(site)
    unused = [f"{module}:{name}" for module, name in defined
              if not referenced_at[name] - {(module, name)}
              and not (name in prodperc.__all__ and name in called_from)]
    assert unused == []


# Attributes of the builtin types src/ reads members on; a read of one of
# these names may be a read of the builtin's, not of a class member.
_BUILTIN_ATTRIBUTES = set().union(*(dir(t) for t in (str, bytes, bytearray, list,
                                                     dict, set, int, tuple)))

# Members whose name is shared with another src class's member or a
# builtin attribute, so a bare-name read does not show they are read.
# Each maps to the src function that reads it on its own class (checked
# by hand); the test checks that function reads the name.
SHARED_NAME_READERS = {
    "graph_core.py:BaseGraphSpec.label": "graph_core.py:build_base",
    "graph_core.py:ProductGraph.label": "cli.py:_cmd_product",
}


def test_every_class_member_is_read_in_src():
    """Each method or property defined in a class body in src/prodperc is
    read as an attribute somewhere in src/ outside its own body.  Dunders
    and ``@classmethod`` constructors are exempt.  A member whose name is
    also another class's member or a builtin attribute must be listed in
    SHARED_NAME_READERS with a function that reads it."""
    members = []  # (module, class name, member node)
    reads = Counter()
    trees = {}
    for path in sorted(SRC.glob("*.py")):
        tree = trees[path.name] = ast.parse(path.read_text(encoding="utf-8"))
        reads.update(_attribute_reads(tree))
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                members += [(path.name, cls.name, node) for node in cls.body
                            if isinstance(node, ast.FunctionDef)
                            and not node.name.startswith("__")
                            and not any(isinstance(dec, ast.Name) and dec.id == "classmethod"
                                        for dec in node.decorator_list)]
    unused = [f"{module}:{cls}.{node.name}" for module, cls, node in members
              if reads[node.name] == _attribute_reads(node)[node.name]]
    assert unused == []
    owners = Counter(name for _, _, name in {(module, cls, node.name)
                                             for module, cls, node in members})
    shared = {f"{module}:{cls}.{node.name}" for module, cls, node in members
              if owners[node.name] > 1 or node.name in _BUILTIN_ATTRIBUTES}
    # a listed name that is no longer shared shows up here too
    assert sorted(shared ^ SHARED_NAME_READERS.keys()) == []
    for member, reader in SHARED_NAME_READERS.items():
        module, qualname = reader.split(":")
        node = trees[module]
        for part in qualname.split("."):
            node = next(sub for sub in node.body if getattr(sub, "name", None) == part)
        assert _attribute_reads(node)[member.rsplit(".", 1)[1]] > 0, (member, reader)



def test_one_bulk_xoshiro_stepper():
    """The xoshiro256** state rotation ``s3 << 45`` appears in exactly two
    functions in src/prodperc: the scalar reference ``next_u64`` and the
    one bulk stepper ``rng.lockstep``."""
    stepping = sorted(f"{path.name}:{node.name}" for path in SRC.glob("*.py")
                      for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                      if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                      and any(isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.LShift)
                              and isinstance(sub.right, ast.Constant) and sub.right.value == 45
                              for sub in ast.walk(node)))
    assert stepping == ["rng.py:lockstep", "rng.py:next_u64"]


def test_one_packed_seeder():
    """The splitmix64 mixing constant ``_MIX1`` is read in exactly two
    functions in src/prodperc: the scalar reference ``splitmix64`` and
    the packed seeder ``rng.split_lanes``."""
    readers = sorted(f"{path.name}:{node.name}" for path in SRC.glob("*.py")
                     for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                     if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                     and any(isinstance(sub, ast.Name) and sub.id == "_MIX1"
                             and isinstance(sub.ctx, ast.Load) for sub in ast.walk(node)))
    assert readers == ["rng.py:split_lanes", "rng.py:splitmix64"]


def test_one_component_fill_over_shift_rows():
    """``ProductGraph.shift_plan`` is read by exactly one function in
    src/prodperc, the shared rows helper ``process._shift_rows``, and no
    union-find (``DisjointSet``, ``union_all``) is left beside it.
    ``component_profile`` holds no fill of its own: all it calls is
    ``component_profiles``."""
    readers = []
    union_find = []
    one_profile_calls = None
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(isinstance(sub, ast.Attribute) and sub.attr == "shift_plan"
                       and isinstance(sub.ctx, ast.Load) for sub in ast.walk(node)):
                    readers.append(f"{path.name}:{node.name}")
                if f"{path.name}:{node.name}" == "process.py:component_profile":
                    one_profile_calls = [ast.unparse(sub.func) for sub in ast.walk(node)
                                         if isinstance(sub, ast.Call)]
            names = {getattr(node, field, None) for field in ("name", "id", "attr")}
            if names & {"DisjointSet", "union_all"}:
                union_find.append(f"{path.name}:{node.lineno}")
    assert readers == ["process.py:_shift_rows"]
    assert union_find == []
    assert one_profile_calls == ["component_profiles"]


def _layer_step_halves(node) -> tuple[set, set]:
    """The ``(F & E) << s`` and ``(F >> s) & E`` halves of a layer step
    under ``node``, each as (the operands F and E, s), unparsed."""
    up, down = set(), set()
    for sub in ast.walk(node):
        if not isinstance(sub, ast.BinOp):
            continue
        if isinstance(sub.op, ast.LShift) and isinstance(sub.left, ast.BinOp) \
                and isinstance(sub.left.op, ast.BitAnd):
            up.add((frozenset(map(ast.unparse, (sub.left.left, sub.left.right))),
                    ast.unparse(sub.right)))
        elif isinstance(sub.op, ast.BitAnd):
            for shifted, other in ((sub.left, sub.right), (sub.right, sub.left)):
                if isinstance(shifted, ast.BinOp) and isinstance(shifted.op, ast.RShift):
                    down.add((frozenset(map(ast.unparse, (shifted.left, other))),
                              ast.unparse(shifted.right)))
    return up, down


def test_one_shift_row_layer_step():
    """The layer step over shift rows, ``((F & E_s) << s) | ((F >> s) &
    E_s)``, is written in exactly one function in src/prodperc,
    ``graph_core.layers``, and both ``process._fill`` (tau2 and the
    component profiles) and ``graph_core.bipartition_signature`` call
    it.  A function holds the step when it has both halves with the
    same operands and shift.  ``process._min_isolated_distance`` is
    exempt: it has both halves for the isolated set, but keeps them
    apart as two neighbour sets per row, to find a vertex with two
    isolated neighbours; it grows no layer."""
    steppers, callers = [], []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.FunctionDef):
                continue
            site = f"{path.name}:{node.name}"
            up, down = _layer_step_halves(node)
            if up & down and site != "process.py:_min_isolated_distance":
                steppers.append(site)
            if any(isinstance(sub, ast.Call) and getattr(sub.func, "id", None) == "layers"
                   for sub in ast.walk(node)):
                callers.append(site)
    assert steppers == ["graph_core.py:layers"]
    assert callers == ["graph_core.py:bipartition_signature", "process.py:_fill"]


def test_augmenting_search_stays_in_matching():
    """No module in src/prodperc, scripts/ or perfbench/ but matching.py
    names ``_phase``: tau3 reaches the search through ``_solve``
    alone."""
    namers = []
    for path in [*SRC.glob("*.py"), *(path for folder in CALLERS for path in folder.glob("*.py"))]:
        if path == SRC / "matching.py":
            continue
        for sub in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if "_phase" in {getattr(sub, field, None) for field in ("id", "attr", "name")}:
                namers.append(f"{path.name}:{sub.lineno}")
    assert namers == []


def test_one_alternating_search():
    """In matching.py only ``_phase`` reads ``adj_flat`` or ``adj_eid``,
    and both ``_solve`` and ``certified_deficiency`` call it: the solver
    and the certificate share one search."""
    readers, callers = [], []
    for node in ast.parse((SRC / "matching.py").read_text(encoding="utf-8")).body:
        if not isinstance(node, ast.FunctionDef):
            continue
        for sub in ast.walk(node):
            if isinstance(sub, ast.Attribute) and sub.attr in {"adj_flat", "adj_eid"}:
                readers.append(node.name)
            if isinstance(sub, ast.Call) and getattr(sub.func, "id", None) == "_phase":
                callers.append(node.name)
    assert sorted(set(readers)) == ["_phase"]
    assert sorted(set(callers)) == ["_solve", "certified_deficiency"]


def test_obstructions_hold_vertex_masks_only():
    """``obstructions.py`` names no ``frozenset`` and reads no adjacency
    array of the product (``adj_off``, ``adj_flat``, ``adj_eid``,
    ``edges``): its vertex sets are n-bit ints, and it sees the sample
    through ``neighbor_bitmasks`` alone."""
    tree = ast.parse((SRC / "obstructions.py").read_text(encoding="utf-8"))
    named = sorted(f"{name}:{sub.lineno}" for sub in ast.walk(tree)
                   for name in {getattr(sub, "id", None), getattr(sub, "attr", None)}
                   & {"frozenset", "adj_off", "adj_flat", "adj_eid", "edges"})
    assert named == []


def test_one_obstruction_enumeration_limit():
    """Only ``obstructions.check_enumeration_limit`` compares ``u_max``
    with the constant 3 in src/prodperc, and the scan and the CLI's
    config check both call it."""
    owners, callers = [], []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.FunctionDef):
                continue
            site = f"{path.name}:{node.name}"
            for sub in ast.walk(node):
                if isinstance(sub, ast.Compare):
                    parts = [sub.left, *sub.comparators]
                    if "u_max" in {getattr(part, "id", getattr(part, "attr", None))
                                   for part in parts} \
                            and any(isinstance(part, ast.Constant) and part.value == 3
                                    for part in parts):
                        owners.append(site)
                elif isinstance(sub, ast.Call) and \
                        getattr(sub.func, "id", None) == "check_enumeration_limit":
                    callers.append(site)
    assert owners == ["obstructions.py:check_enumeration_limit"]
    assert callers == ["experiments.py:run_trials", "obstructions.py:find_minimal_obstructions"]


def _attribute_reads(tree) -> Counter:
    return Counter(sub.attr for sub in ast.walk(tree)
                   if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load))
