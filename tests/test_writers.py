"""Every file of a run is written by one function, so one place decides how.

`datapipe.write_file` writes each whole-file artifact. Only `WRITERS` may
otherwise open a file for writing (`open` with a write mode, or `os.open`)
or make a directory (`os.makedirs`, `os.mkdir`): `cmd_train` claims its run
directory by creating `checkpoints/`, and `train_loop` streams its two CSV
logs.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "serkit"

WRITERS = {
    ("datapipe.py", "write_file"): "writes every whole-file artifact",
    ("cli.py", "cmd_train"): "claims --out by creating its checkpoints/",
    ("training.py", "train_loop"): "streams train_log.csv and epoch_log.csv",
}

OS_WRITERS = {"makedirs", "mkdir", "open"}


def _writes(call: ast.Call) -> bool:
    """Whether `call` opens a file for writing or makes a directory."""
    func = call.func
    if isinstance(func, ast.Attribute):
        return (isinstance(func.value, ast.Name) and func.value.id == "os"
                and func.attr in OS_WRITERS)
    if not (isinstance(func, ast.Name) and func.id == "open"):
        return False
    modes = [kw.value for kw in call.keywords if kw.arg == "mode"] + call.args[1:2]
    if not modes:  # open(path) reads
        return False
    if isinstance(modes[0], ast.Constant) and isinstance(modes[0].value, str):
        return bool(set(modes[0].value) & set("wax+"))
    return True    # a mode computed at run time may write


def writing_calls() -> dict:
    """{(module, enclosing top-level function or class): [line of each writing call]}."""
    found: dict = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and _writes(node):
                    name = getattr(top, "name", "<module>")
                    found.setdefault((path.name, name), []).append(node.lineno)
    return found


def test_only_the_writers_write():
    strays = {f"{module}:{lines} in {name}" for (module, name), lines in writing_calls().items()
              if (module, name) not in WRITERS}
    assert not strays, f"write through datapipe.write_file instead: {sorted(strays)}"


def test_each_writer_writes():
    assert set(WRITERS) <= set(writing_calls()), "a writer no longer writes: drop its entry"
