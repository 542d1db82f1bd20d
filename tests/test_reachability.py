"""Every library function is reached from the package itself, or it goes.

Each top-level function and class of `src/serkit`, and each public method,
must be referenced somewhere in `src/serkit` outside its own definition: by
name, as an attribute or in an import. Only `ALLOWED` may go unreferenced,
each entry with its reason. The check is by name (two definitions sharing a
name share their references), which is enough to catch a function that only
tests call. An attribute of a library module (`np.exp`, `os.path`) names
that module's function, not ours, and a re-export in `__init__.py` calls
nothing, so neither is a reference.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "serkit"

ALLOWED = {
    "reset_augment_counters": "perfbench reads the augmentation counters",
    "total_augment_count": "perfbench reads the augmentation counters",
    "select_top_checkpoints": "ROADMAP item 8 wires it into eval's top-k ensemble",
    "finite_difference_gradient": "the tests' finite-difference oracle for whole tensors",
}

# Attributes of these names belong to a library module (np.exp is not Tensor.exp).
MODULES = {"np", "math", "os", "struct", "json"}


def definitions_and_references() -> tuple:
    """([(name, module, first line, last line)], [(name, module, line)])."""
    definitions, references = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            members = [node]
            if isinstance(node, ast.ClassDef):
                members += [item for item in node.body if isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")]
            definitions += [(m.name, path.name, m.lineno, m.end_lineno) for m in members]
        if path.name == "__init__.py":     # a re-export calls nothing
            continue
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in MODULES):
                continue
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, ast.alias) else None)
            if name is not None:
                references.append((name, path.name, node.lineno))
    return definitions, references


def test_every_definition_is_referenced():
    definitions, references = definitions_and_references()
    unreached = sorted(
        f"{module}: {name}" for name, module, first, last in definitions
        if name not in ALLOWED and not any(
            ref == name and not (ref_module == module and first <= line <= last)
            for ref, ref_module, line in references))
    assert not unreached, f"defined in src/serkit but never referenced there: {unreached}"


def test_allowlist_names_existing_unreferenced_definitions():
    definitions, references = definitions_and_references()
    defined = {name for name, *_ in definitions}
    assert set(ALLOWED) <= defined
    referenced = {name for name, *_ in references}
    assert not set(ALLOWED) & referenced, "an allowed name gained a caller: drop its entry"
