"""Suite-wide setup: the example packages (``examples/mpi``,
``examples/orca``) import as top-level ``mpi`` and ``orca``, as they do
when an example script runs from ``examples/``."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "examples"))
