"""The library names that the benchmark harness wraps still exist.

perfbench times the library by wrapping attributes from outside (``WRAPS``
in ``perfbench/layers.py``), so renaming or deleting a wrapped name silently
drops a traced layer. This test loads that list by path and checks it
against the library without running the benchmark.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"

# Wrapped names known to be gone: the engine's old chunk mask, whose span
# ``selectors.selection_mask`` now carries.
KNOWN_ABSENT = {"experiments._selection_mask_chunk"}


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layers = _load_layers()


def _name(owner, attr):
    return f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"


def _resolves(owner, attr):
    try:
        inspect.getattr_static(owner, attr)
    except AttributeError:
        return False
    return True


@pytest.mark.parametrize("owner, attr", [(o, a) for o, a, _, _ in layers.WRAPS],
                         ids=[_name(o, a) for o, a, _, _ in layers.WRAPS])
def test_wrapped_name_resolves(owner, attr):
    if _name(owner, attr) in KNOWN_ABSENT:
        assert not _resolves(owner, attr), "listed as absent but present"
    else:
        assert _resolves(owner, attr)


def test_every_metric_span_has_a_wrapper():
    installed = {span for owner, attr, span, _ in layers.WRAPS
                 if _name(owner, attr) not in KNOWN_ABSENT and _resolves(owner, attr)}
    assert sorted({span for _, _, span, _ in layers.METRICS} - installed) == []
