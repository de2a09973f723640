"""Clean twin for hyg.unused-import: every import is read."""

from __future__ import annotations

import os.path
from typing import TYPE_CHECKING, Dict, List

if TYPE_CHECKING:
    from collections import OrderedDict

__all__ = ["List"]


def load(path: str) -> Dict[str, "OrderedDict[str, int]"]:
    return {os.path.basename(path): None}
