"""The layer names that `perfbench/traced_call.py` wraps all exist.

The tracer looks each (module, attribute path) up in `dantzigfig` at run
time, so a rename or a deletion in the package would otherwise surface only
when `perfbench/run.py --trace 1` breaks. The tracer file is read, not
imported, so no bytecode is written next to it.
"""

from pathlib import Path

import dantzigfig

TRACED_CALL = Path(__file__).resolve().parents[1] / "perfbench" / "traced_call.py"


def _layers():
    namespace = {"__name__": "traced_call"}
    exec(compile(TRACED_CALL.read_text(), str(TRACED_CALL), "exec"), namespace)
    return namespace["LAYERS"]


def test_every_traced_layer_resolves():
    layers = _layers()
    assert layers
    for key, (module, path) in layers.items():
        owner = getattr(dantzigfig, module)
        for part in path.split("."):
            assert hasattr(owner, part), f"{key}: dantzigfig.{module}.{path} is gone"
            owner = getattr(owner, part)
        assert callable(owner), key
