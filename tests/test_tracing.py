"""perfbench's tracer looks up every name in `TRACED` with ``getattr``, so a
function kept only for the tracer must not be deleted by a cleanup."""

import importlib

import toricfans.cli  # noqa: F401  (the tracer patches imported modules only)
from perfbench.tracing import TRACED, Tracer
from toricfans import build


def _resolve(name):
    module, attr = name.split(".")
    return getattr(importlib.import_module("toricfans." + module), attr)


def test_every_traced_name_resolves_and_installs():
    originals = {name: _resolve(name) for name in TRACED}
    assert all(callable(fn) for fn in originals.values())
    tracer = Tracer()
    tracer.install()
    try:
        assert all(_resolve(name) is not fn for name, fn in originals.items())
        tracer.active = True
        _resolve("projectivity.is_projective")(build("W7_5"))
        tracer.active = False
        assert tracer.metrics()["fan.wall_circuit.calls"]["value"] > 0
    finally:
        tracer.uninstall()
    assert all(_resolve(name) is fn for name, fn in originals.items())
