"""The benchmark tracer's contract with the library.

``bench/layers.py`` wraps every function named in its ``SPANS`` table by
looking it up on the installed package, so a refactor that deletes or
renames one of them must fail here, not only in the benchmark self-test.
"""

import importlib
import importlib.util
import pathlib

LAYERS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def test_every_traced_function_resolves():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    missing = [
        f"{home}.{name}"
        for home, names in layers.SPANS.values()
        for name in names
        if not callable(getattr(importlib.import_module(home), name, None))
    ]
    assert layers.SPANS and not missing, missing
