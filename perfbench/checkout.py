"""Locate the source checkout the benchmark runs against."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class CheckoutError(RuntimeError):
    pass


def use_checkout() -> None:
    """Import twodescent and the test oracles from this checkout only."""
    if not (SRC / "twodescent" / "__init__.py").is_file():
        raise CheckoutError(f"no twodescent sources under {SRC}")
    if not (ROOT / "tests" / "oracles.py").is_file():
        raise CheckoutError(f"no tests/oracles.py under {ROOT}")
    for path in (str(ROOT), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import twodescent

    if Path(twodescent.__file__).resolve().parent != SRC / "twodescent":
        raise CheckoutError(f"imported twodescent from {twodescent.__file__}, not {SRC}")
