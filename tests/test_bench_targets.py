"""The benchmark's span tracer finds every function and method it wraps, and puts each back.

`perfbench/spans.py` looks a traced function up on its module and a traced method in the
`__dict__` of the class that names it.  A function that is deleted or renamed, or a method
that moves into a base class, fails here with the target's name instead of breaking a traced
benchmark run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "bench_spans", Path(__file__).resolve().parent.parent / "perfbench" / "spans.py")
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)


def traced_bindings():
    """(holder, attribute) -> bound value, for every traced name of every target."""
    for layer in spans.LAYERS:
        importlib.import_module(f"{spans.PACKAGE}.{layer}")
    bindings = {}
    for module_name, path, *_ in spans.targets():
        module = sys.modules[f"{spans.PACKAGE}.{module_name}"]
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name, None)
            assert cls is not None, f"{module_name}.{cls_name} is gone"
            assert attr in vars(cls), f"{module_name}.{path} is not defined on the class itself"
            bindings[cls, attr] = vars(cls)[attr]
        else:
            assert callable(getattr(module, path, None)), f"{module_name}.{path} is gone"
            for holder in spans.package_modules():
                bindings.update({(holder, attr): value for attr, value in vars(holder).items()
                                 if value is getattr(module, path)})
    return bindings


def test_every_traced_name_is_wrapped_and_restored():
    before = traced_bindings()
    with spans.patched(spans.Tracer()):
        for (holder, attr), original in before.items():
            wrapper = vars(holder)[attr]
            assert getattr(wrapper, "__wrapped_original__", None) is original, (holder, attr)
    after = {key: vars(key[0])[key[1]] for key in before}
    assert all(after[key] is value for key, value in before.items())
