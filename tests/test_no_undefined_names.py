"""Every global a function loads is bound in its module or is a builtin:
a name used but never bound raises NameError only when its line runs.
Each file under src/, benchmark/ and tests/ is read and compiled, never
run, and each LOAD_GLOBAL of each code object checked."""

import ast
import builtins
import dis
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ALWAYS = set(dir(builtins)) | {"__file__", "__cached__", "__builtins__", "__path__"}


def module_bindings(tree: ast.Module) -> set[str]:
    """Names bound outside any function or class body, and every ``global``."""
    names, pending = set(), list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        pending.extend(ast.iter_child_nodes(node))
    return names | {n for node in ast.walk(tree) if isinstance(node, ast.Global) for n in node.names}


def undefined_globals(path: Path) -> list[str]:
    source = path.read_text()
    bound = module_bindings(ast.parse(source)) | ALWAYS
    found, codes = [], [compile(source, str(path), "exec")]
    while codes:
        code = codes.pop()
        codes.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
        starts, line = dict(dis.findlinestarts(code)), code.co_firstlineno
        for ins in dis.get_instructions(code):  # argval is the bare name on 3.10 and 3.11
            line = starts.get(ins.offset) or line
            if ins.opname == "LOAD_GLOBAL" and ins.argval not in bound:
                found.append(f"{path.relative_to(ROOT)}:{line}: {ins.argval}")
    return found


def test_every_loaded_global_is_bound_in_its_module_or_a_builtin():
    files = sorted(p for top in ("src", "benchmark", "tests") for p in (ROOT / top).rglob("*.py"))
    assert len(files) > 30
    assert [hit for path in files for hit in undefined_globals(path)] == []
