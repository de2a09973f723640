"""Wire schemas for the serving tier.

Everything that crosses the HTTP boundary is validated and canonicalized
here, so the rest of the package works on exactly one representation of a
request.  Canonicalization is what makes the result cache and the request
coalescer *sound* rather than heuristic: two requests that mean the same
simulation -- whatever key order or omitted defaults they were written
with -- canonicalize to the same bytes, hash to the same cache key, and
therefore cost one simulation.

The cache key is ``sha256(experiment \\x00 canonical-config-json \\x00
code-version-fingerprint)``: the three coordinates that fully determine a
byte-deterministic result (tests/test_determinism.py is the proof for the
simulator; :func:`repro.version_fingerprint` pins the code).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.errors import ServeError

#: Config overrides a job may carry, with their defaults.  Every knob
#: changes either the result bytes (``sanitize`` adds the checker summary
#: to the record, ``spec`` reshapes the machine) or how the run is
#: executed (``partitions`` shards it across worker processes); all belong
#: in the cache key because they change what was *run*, which provenance
#: must not conflate.
DEFAULT_JOB_CONFIG: Dict[str, object] = {
    "sanitize": False,
    "partitions": 1,
    "spec": None,
}


def _validate_bool(key: str, value: object) -> bool:
    if not isinstance(value, bool):
        raise ServeError(f"config key {key!r} must be a boolean, got {value!r}")
    return value


def _validate_partitions(key: str, value: object) -> int:
    # bool is an int subclass; reject it explicitly.
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ServeError(
            f"config key {key!r} must be an integer >= 1, got {value!r}"
        )
    return value


def _validate_spec(key: str, value: object) -> Optional[Dict[str, object]]:
    """Canonicalize a machine spec override.

    The canonical form is the *fully elaborated* field dict
    (``MachineSpec.to_dict()``): two requests that omit different
    defaulted fields but mean the same machine hash to the same cache
    key.  ``None`` (the default) means the paper's Cedar.
    """
    if value is None:
        return None
    from repro.builder import MachineSpec
    from repro.errors import SpecError

    if not isinstance(value, Mapping):
        raise ServeError(
            f"config key {key!r} must be a JSON object of MachineSpec "
            f"fields, got {value!r}"
        )
    try:
        return MachineSpec.from_dict(dict(value)).to_dict()
    except SpecError as error:
        raise ServeError(f"config key {key!r} is invalid: {error}")


#: Per-key validators: each canonicalizes (or rejects) one override.
_CONFIG_VALIDATORS = {
    "sanitize": _validate_bool,
    "partitions": _validate_partitions,
    "spec": _validate_spec,
}


def canonical_config(overrides: Optional[Mapping[str, object]]) -> Dict[str, object]:
    """Validate overrides per-key and merge them over the defaults, key-sorted."""
    if overrides is None:
        overrides = {}
    if not isinstance(overrides, Mapping):
        raise ServeError(
            f"config must be a JSON object, got {type(overrides).__name__}"
        )
    unknown = sorted(set(overrides) - set(DEFAULT_JOB_CONFIG))
    if unknown:
        known = ", ".join(sorted(DEFAULT_JOB_CONFIG))
        raise ServeError(
            f"unknown config key(s) {', '.join(map(repr, unknown))}; "
            f"known: {known}"
        )
    merged = dict(DEFAULT_JOB_CONFIG)
    for key, value in overrides.items():
        merged[key] = _CONFIG_VALIDATORS[key](key, value)
    return {key: merged[key] for key in sorted(merged)}


def canonical_config_json(config: Mapping[str, object]) -> str:
    """The canonical serialized form hashed into cache keys."""
    return json.dumps(config, sort_keys=True, separators=(",", ":"))


def cache_key(experiment: str, config: Mapping[str, object], fingerprint: str) -> str:
    """Content address of one deterministic result (64 hex chars)."""
    digest = hashlib.sha256()
    for part in (experiment, canonical_config_json(config), fingerprint):
        digest.update(part.encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


@dataclass(frozen=True)
class JobRequest:
    """One validated ``POST /jobs`` body: experiments to run plus config."""

    experiments: Tuple[str, ...]
    config: Dict[str, object]


def parse_job_request(
    payload: object, known_experiments: Mapping[str, object]
) -> JobRequest:
    """Validate a decoded ``POST /jobs`` body.

    Accepts ``{"experiment": "table2"}``, ``{"experiment": "all"}`` (the
    full suite as a sweep), or ``{"experiments": ["table2", "ppt4"]}``,
    each with an optional ``"config"`` object of overrides.
    """
    if not isinstance(payload, Mapping):
        raise ServeError("request body must be a JSON object")
    unknown = sorted(set(payload) - {"experiment", "experiments", "config"})
    if unknown:
        raise ServeError(
            f"unknown request field(s): {', '.join(map(repr, unknown))}"
        )
    single = payload.get("experiment")
    many = payload.get("experiments")
    if (single is None) == (many is None):
        raise ServeError("give exactly one of 'experiment' or 'experiments'")
    if single is not None:
        if not isinstance(single, str):
            raise ServeError("'experiment' must be a string")
        keys: List[str] = (
            sorted(known_experiments) if single == "all" else [single]
        )
    else:
        if not isinstance(many, list) or not many or not all(
            isinstance(key, str) for key in many
        ):
            raise ServeError("'experiments' must be a non-empty list of strings")
        keys = list(many)
    for key in keys:
        if key not in known_experiments:
            known = ", ".join(sorted(known_experiments))
            raise ServeError(
                f"unknown experiment {key!r}; known: {known}", status=404
            )
    return JobRequest(tuple(keys), canonical_config(payload.get("config")))
