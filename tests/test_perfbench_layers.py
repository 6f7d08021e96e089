"""The benchmark's traced run wraps countfam functions by module and name
(``perfbench/layers.py``); every binding it wraps must exist, or
``perfbench/run.py --trace 1`` breaks."""

import importlib.util
import os

import countfam
import countfam.cli

LAYERS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "layers.py")


class FakeTracer:
    """Records what ``layers.install`` asks to wrap, and wraps nothing."""

    def __init__(self):
        self.installed = []

    def install(self, module, attr, name, leaf=False, classify=None, observe=None):
        self.installed.append((module, attr, name))


def test_every_wrapped_binding_exists():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    tracer = FakeTracer()
    layers.install(tracer, countfam)
    assert len(tracer.installed) > 10
    missing = [(module.__name__, attr) for module, attr, _ in tracer.installed
               if not callable(getattr(module, attr, None))]
    assert missing == []
