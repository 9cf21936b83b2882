"""Stage- and layer-level benchmark of debye-forge (see README.md).

The benchmark imports the package from the ``src`` tree next to it, so it
measures the checkout it sits in and never an installed copy.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_source_tree():
    """Put the checkout's ``src`` first on the import path."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
