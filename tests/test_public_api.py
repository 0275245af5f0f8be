"""The public surface: every option of an exported function has a caller
outside the tests, and README's Python runs as written.

``python tests/test_public_api.py`` prints the number of options with no
such caller, one per line after it.
"""
import ast
import contextlib
import inspect
import io
import re
from pathlib import Path

import gmpdetect

ROOT = Path(__file__).resolve().parent.parent
SCANNED = (ROOT / "src" / "gmpdetect", ROOT / "benchmarks")


def _callee(call: ast.Call) -> str | None:
    """The last name of what ``call`` calls: ``f`` for ``f(...)`` and ``m.f(...)``."""
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _passed(call: ast.Call, params: list[inspect.Parameter]) -> set[str]:
    """The names of ``params`` that ``call`` passes: by position, by keyword,
    or through ``*`` / ``**`` unpacking (every parameter it could reach)."""
    passed = {kw.arg for kw in call.keywords if kw.arg is not None}
    if any(kw.arg is None for kw in call.keywords):
        return {p.name for p in params}
    positional = [p.name for p in params if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
    for i, arg in enumerate(call.args):
        passed.update(positional[i:] if isinstance(arg, ast.Starred) else positional[i:i + 1])
    return passed


def uncalled_options() -> list[str]:
    """``function(parameter)`` for each optional parameter of a function in
    ``gmpdetect.__all__`` that no call in ``src/gmpdetect`` or
    ``benchmarks/`` passes. Calls are matched by the called name."""
    functions = {
        name: list(inspect.signature(obj).parameters.values())
        for name in gmpdetect.__all__
        if inspect.isfunction(obj := getattr(gmpdetect, name))
    }
    passed: dict[str, set[str]] = {name: set() for name in functions}
    for path in sorted(p for d in SCANNED for p in d.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) and (name := _callee(node)) in functions:
                passed[name] |= _passed(node, functions[name])
    return [
        f"{name}({p.name})"
        for name, params in functions.items()
        for p in params
        if p.default is not p.empty and p.name not in passed[name]
    ]


def test_every_public_option_has_a_caller_outside_the_tests():
    assert uncalled_options() == []


def test_readme_python_runs():
    # The quick start and the line after it run in one namespace, as a
    # reader would paste them.
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.M | re.S)
    assert len(blocks) == 2
    namespace: dict = {}
    with contextlib.redirect_stdout(io.StringIO()) as out:
        for block in blocks:
            exec(compile(block, "README.md", "exec"), namespace)
    assert "iterations:" in out.getvalue()
    assert namespace["relaxed"].iterations == len(namespace["relaxed"].trace) > 0


if __name__ == "__main__":
    missing = uncalled_options()
    print(len(missing), *missing, sep="\n")
