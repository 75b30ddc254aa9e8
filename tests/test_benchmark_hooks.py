"""The benchmark's tracer rebinds package entry points by name; a rename or
removal in the package fails here rather than in a benchmark run."""

from pathlib import Path

BENCH = Path(__file__).parents[1] / "perfbench"


def test_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from layers import install
    from tracer import Tracer

    tr = Tracer()
    try:
        install(tr)
        bound = list(tr._undo)
        assert all(getattr(owner, attr) is not orig
                   for owner, attr, orig in bound)
    finally:
        tr.restore()
    assert bound
    assert all(getattr(owner, attr) is orig for owner, attr, orig in bound)
