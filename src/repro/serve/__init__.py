"""Simulation-as-a-service: the ``cedar-repro serve`` tier.

The simulator is byte-deterministic (tests/test_determinism.py), which
turns "serve heavy traffic" into a caching problem rather than a compute
problem: a result is fully identified by (experiment, canonical config,
code-version fingerprint), so identical requests can share one simulation
whether they arrive after it finished (content-addressed cache) or while
it is in flight (request coalescing).

* :mod:`repro.serve.schema` -- wire validation, config canonicalization,
  cache-key derivation;
* :mod:`repro.serve.cache` -- the content-addressed result cache with an
  optional on-disk spill directory;
* :mod:`repro.serve.coalesce` -- in-flight leaders and their followers;
* :mod:`repro.serve.jobs` -- job lifecycle, the bounded queue, worker
  tasks, and the serve metrics;
* :mod:`repro.serve.worker` -- the child-process job body (config
  application, trace-bus progress events, canonical result bytes);
* :mod:`repro.serve.server` -- the asyncio HTTP/1.1 front;
* :mod:`repro.serve.client` -- the stdlib client behind
  ``cedar-repro submit``, tests, and CI smoke.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.serve.cache": ["ResultCache"],
        "repro.serve.client": ["DEFAULT_PORT", "ServeClient"],
        "repro.serve.coalesce": ["Coalescer"],
        "repro.serve.jobs": ["DEFAULT_QUEUE_LIMIT", "Job", "JobRegistry"],
        "repro.serve.schema": [
            "DEFAULT_JOB_CONFIG",
            "JobRequest",
            "cache_key",
            "canonical_config",
            "canonical_config_json",
            "parse_job_request",
        ],
        "repro.serve.server": ["JobServer", "serve_forever"],
    },
)
