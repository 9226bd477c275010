"""The benchmark in ``perfbench/`` names library functions by their module
paths; a rename or deletion in ``src/`` must not leave one of its per-layer
metrics without a span."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_span_group_is_wrapped(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import workloads  # noqa: F401  (its imports of the library must resolve)

    tracer = tracing.Tracer()
    try:
        tracer.install()
        registered = set(tracer._ids)
    finally:
        tracer.uninstall()
    missing = [name for names in tracing._SPAN_GROUPS.values() for name in names if name not in registered]
    assert not missing
