"""The benchmark tracer wraps package functions by name: every site it
names, and every name the package exports, must resolve."""

import importlib
import sys
from pathlib import Path

import gmpdetect

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


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
