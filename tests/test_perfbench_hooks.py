"""The benchmark's tracer patches profcalc functions by name; keep those names alive."""

from pathlib import Path

import profcalc.relpsm as relpsm

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    # found by prefix, so a rename would silently drop them from the trace
    enumerators = {
        name: getattr(relpsm, name)
        for name in ("enumerate_kleisli_cells", "enumerate_modifications")
    }
    tracer = Tracer()
    try:
        tracer.install()  # raises AttributeError if a traced function was renamed
        for name, original in enumerators.items():
            assert getattr(relpsm, name) is not original
    finally:
        tracer.uninstall()
    for name, original in enumerators.items():
        assert getattr(relpsm, name) is original
