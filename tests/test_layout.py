"""Package layout: src/ holds no code that only tests reach."""

import ast
from collections import Counter, defaultdict
from pathlib import Path

import prodperc

SRC = Path(prodperc.__file__).parent


def test_every_top_level_name_is_used_or_exported():
    """Each top-level function or class in src/prodperc is listed in
    ``prodperc.__all__`` or referenced somewhere in src/ outside its own
    body."""
    defined = []
    referenced_at = defaultdict(set)  # name -> {(module, top-level name)}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            site = (path.name, getattr(node, "name", None))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append(site)
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    referenced_at[sub.id].add(site)
                elif isinstance(sub, ast.Attribute):
                    referenced_at[sub.attr].add(site)
    unused = [f"{module}:{name}" for module, name in defined
              if name not in prodperc.__all__
              and not referenced_at[name] - {(module, name)}]
    assert unused == []


def test_every_class_member_is_read_in_src():
    """Each method or property defined in a class body in src/prodperc is
    read as an attribute somewhere in src/ outside its own body.  Dunders
    and ``@classmethod`` constructors are exempt."""
    members = []  # (module, class name, member node)
    reads = Counter()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
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


def _attribute_reads(tree) -> Counter:
    return Counter(sub.attr for sub in ast.walk(tree)
                   if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load))
