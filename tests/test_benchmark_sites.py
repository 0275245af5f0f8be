"""The benchmark tracer wraps package functions by name: every site it
names, and every name the package exports, must resolve. The benchmark
also reads ``.result`` of a message-passing run, which must be the run's
own result. The CI workflow's job-summary probes read package internals
by name too, and must compile and resolve."""

import ast
import importlib
import re
import sys
import textwrap
from pathlib import Path

import gmpdetect

ROOT = Path(__file__).resolve().parent.parent
BENCHMARKS = ROOT / "benchmarks"


def test_every_traced_site_and_exported_name_resolves(monkeypatch):
    # tracing.py imports its sibling stats.py, so the directory goes on the
    # path. setitem records that neither module was imported, so undoing it
    # takes both out of sys.modules again.
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    for name in ("tracing", "stats"):
        monkeypatch.setitem(sys.modules, name, None)
        del sys.modules[name]
    tracing = importlib.import_module("tracing")
    sites = {site for site, _, _ in tracing.WRAP_SITES}
    modules = {
        site: gmpdetect if site == "gmpdetect" else importlib.import_module(f"gmpdetect.{site}")
        for site in sites
    }
    missing = [
        f"{site}.{attr}" for site, attr, _ in tracing.WRAP_SITES
        if not callable(getattr(modules[site], attr, None))
    ]
    assert missing == []
    assert [name for name in gmpdetect.__all__ if not hasattr(gmpdetect, name)] == []


def test_result_bridge_is_the_result_itself():
    # large-detect reads out.result of a message-passing run: the bridge
    # hands back the same DetectionResult, so the benchmark reads its fields.
    inst = gmpdetect.build_instance(8, 32, snr_db=10.0, channel_seed=0)
    y = gmpdetect.realize(inst, 1).received
    for out in (gmpdetect.gmpid_detect(inst, y), gmpdetect.sagmpid_detect(inst, y)):
        assert type(out) is gmpdetect.DetectionResult
        assert out.result is out


def _chain(node: ast.expr) -> list[str] | None:
    """``["a", "b", "c"]`` for the expression ``a.b.c``; None if it is no such chain."""
    names = []
    while isinstance(node, ast.Attribute):
        names.insert(0, node.attr)
        node = node.value
    return [node.id, *names] if isinstance(node, ast.Name) else None


def test_every_workflow_probe_compiles_and_resolves():
    # The job-summary probes are the workflow's python3 heredocs, read with a
    # regex since PyYAML is no test dependency. Each must compile, and each
    # name it imports from gmpdetect, attribute chain it reads off one (say
    # gmpid._VarianceSchedule.blocks) and attribute it patches must resolve.
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    probes = re.findall(r"python3 - [^\n]*<<'EOF'\n(.*?)\n[ \t]*EOF\n", workflow, re.S)
    assert len(probes) >= 5
    missing = []
    for source in probes:
        tree = ast.parse(textwrap.dedent(source))
        compile(tree, "<workflow probe>", "exec")
        imported = {}  # what the probe's imports from gmpdetect bind
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "gmpdetect":
                try:
                    exec(compile(ast.Module([node], []), "<workflow probe>", "exec"), imported)
                except ImportError as exc:
                    missing.append(str(exc))
        reads = [_chain(node) for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
        reads += [  # mock.patch.object(target, "name", ...)
            [*_chain(node.args[0]), node.args[1].value] for node in ast.walk(tree)
            if isinstance(node, ast.Call) and _chain(node.func) == ["mock", "patch", "object"]
        ]
        for chain in reads:
            if chain and chain[0] in imported:
                value = imported[chain[0]]
                for attr in chain[1:]:
                    value = getattr(value, attr, None)
                if value is None:
                    missing.append(".".join(chain))
    assert missing == []
