"""Import levymc from the ``src/`` tree of the checkout this benchmark sits in.

The benchmark must time the sources next to it, never an installed copy, so a
checkout without ``src/levymc`` is an error rather than a fallback.
"""
from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def load():
    """Put ``src/`` first on ``sys.path`` and import levymc from it; exit non-zero if absent."""
    package_dir = SRC / "levymc"
    if not (package_dir / "__init__.py").is_file():
        raise SystemExit(f"perfbench: error: no levymc sources at {package_dir}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import levymc

    if Path(levymc.__file__).resolve().parent != package_dir:
        raise SystemExit(f"perfbench: error: levymc was imported from {levymc.__file__}, not {package_dir}")
    return levymc
