"""The benchmark tracer wraps package functions by name: every site it
names, and every name the package exports, must resolve. The benchmark
also reads ``.result`` of a message-passing run, which must be the run's
own result."""

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


def test_result_bridge_is_the_result_itself():
    # large-detect reads out.result of a message-passing run: the bridge
    # hands back the same DetectionResult, so the benchmark reads its fields.
    inst = gmpdetect.build_instance(8, 32, snr_db=10.0, channel_seed=0)
    y = gmpdetect.realize(inst, 1).received
    for out in (gmpdetect.gmpid_detect(inst, y), gmpdetect.sagmpid_detect(inst, y)):
        assert type(out) is gmpdetect.DetectionResult
        assert out.result is out
