import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "besselcert"
TREES = {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}


def _reads(tree) -> set[str]:
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def test_every_import_is_used():
    for name, tree in TREES.items():
        if name == "__init__.py":  # its imports are the public re-exports
            continue
        imported = {(a.asname or a.name).split(".")[0] for n in tree.body
                    if isinstance(n, (ast.Import, ast.ImportFrom)) for a in n.names}
        assert imported <= _reads(tree), f"{name}: unused {sorted(imported - _reads(tree))}"


def test_every_top_level_name_is_referenced():
    refs = set().union(*map(_reads, TREES.values()))
    for tree in TREES.values():
        refs |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        refs |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
    for name, tree in TREES.items():
        defined = {n.name for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
        defined |= {t.id for n in tree.body if isinstance(n, ast.Assign) for t in n.targets
                    if isinstance(t, ast.Name) and not t.id.startswith("__")}
        assert defined <= refs, f"{name}: unreferenced {sorted(defined - refs)}"



def _context_calls(node) -> int:
    # Context(...) or decimal.Context(...)
    return sum(isinstance(n, ast.Call) and (getattr(n.func, "id", None) == "Context"
                                            or getattr(n.func, "attr", None) == "Context")
               for n in ast.walk(node))


def test_one_decimal_context():
    # every Decimal op names oracle._CTX: the one Context, assigned at module
    # level, and no module reads or swaps the thread's current context
    built = {name: _context_calls(tree) for name, tree in TREES.items() if _context_calls(tree)}
    assert built == {"oracle.py": 1}
    assert any(isinstance(stmt, ast.Assign) and _context_calls(stmt)
               for stmt in TREES["oracle.py"].body)
    banned = {"getcontext", "setcontext", "localcontext"}
    for name, tree in TREES.items():
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        used |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        used |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
        assert not used & banned, f"{name}: {sorted(used & banned)}"
