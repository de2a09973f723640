"""Fault drill for hyg.unused-import: imports nothing reads."""

import json  # fires: never used
import os.path  # fires: binds `os`, never used
from typing import Dict, Optional  # fires: Optional is never used


def load(text: str) -> Dict[str, int]:
    return {}
