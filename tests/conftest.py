"""Put the in-tree sources on PYTHONPATH for the subprocesses some tests
start; ``pythonpath`` in pyproject.toml covers only the test process."""

import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
