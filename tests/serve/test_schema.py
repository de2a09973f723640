"""Tests for serve wire schemas and cache-key derivation."""

import pytest

from repro.errors import ServeError
from repro.experiments.registry import EXPERIMENTS
from repro.serve import (
    DEFAULT_JOB_CONFIG,
    cache_key,
    canonical_config,
    canonical_config_json,
    parse_job_request,
)


class TestCanonicalConfig:
    def test_defaults_fill_in(self):
        assert canonical_config(None) == DEFAULT_JOB_CONFIG
        assert canonical_config({}) == DEFAULT_JOB_CONFIG

    def test_override_applies(self):
        config = canonical_config({"sanitize": True})
        assert config["sanitize"] is True
        assert config["partitions"] == 1

    def test_keys_sorted(self):
        config = canonical_config({"sanitize": True, "partitions": 2})
        assert list(config) == sorted(config)

    def test_unknown_key_rejected(self):
        with pytest.raises(ServeError, match="unknown config key"):
            canonical_config({"warp_speed": True})

    def test_non_boolean_rejected(self):
        with pytest.raises(ServeError, match="must be a boolean"):
            canonical_config({"sanitize": "yes"})

    def test_non_mapping_rejected(self):
        with pytest.raises(ServeError, match="JSON object"):
            canonical_config(["sanitize"])

    def test_explicit_default_canonicalizes_identically(self):
        # {} and {"sanitize": false} mean the same simulation, so they
        # must serialize -- and therefore hash -- identically.
        assert canonical_config_json(canonical_config({})) == (
            canonical_config_json(canonical_config({"sanitize": False}))
        )

    def test_partitions_default_is_single(self):
        assert canonical_config(None)["partitions"] == 1

    def test_partitions_override_applies(self):
        assert canonical_config({"partitions": 4})["partitions"] == 4

    @pytest.mark.parametrize("bad", [0, -1, True, False, "2", 2.0, None])
    def test_partitions_must_be_positive_integer(self, bad):
        with pytest.raises(ServeError, match="integer >= 1"):
            canonical_config({"partitions": bad})


class TestCacheKey:
    FP = "1.0.0+0123456789abcdef"

    def test_stable(self):
        config = canonical_config(None)
        assert cache_key("table2", config, self.FP) == cache_key(
            "table2", config, self.FP
        )

    def test_each_coordinate_matters(self):
        config = canonical_config(None)
        base = cache_key("table2", config, self.FP)
        assert cache_key("table1", config, self.FP) != base
        assert cache_key(
            "table2", canonical_config({"sanitize": True}), self.FP
        ) != base
        assert cache_key(
            "table2", canonical_config({"partitions": 2}), self.FP
        ) != base
        assert cache_key("table2", config, "1.0.0+ffffffffffffffff") != base

    def test_key_is_hex_sha256(self):
        key = cache_key("table2", canonical_config(None), self.FP)
        assert len(key) == 64
        assert set(key) <= set("0123456789abcdef")


class TestParseJobRequest:
    def test_single_experiment(self):
        request = parse_job_request({"experiment": "table2"}, EXPERIMENTS)
        assert request.experiments == ("table2",)
        assert request.config == DEFAULT_JOB_CONFIG

    def test_all_expands_to_sorted_suite(self):
        request = parse_job_request({"experiment": "all"}, EXPERIMENTS)
        assert request.experiments == tuple(sorted(EXPERIMENTS))

    def test_experiments_list(self):
        request = parse_job_request(
            {"experiments": ["table5", "table6"]}, EXPERIMENTS
        )
        assert request.experiments == ("table5", "table6")

    def test_config_passes_through(self):
        request = parse_job_request(
            {"experiment": "table2", "config": {"sanitize": True}}, EXPERIMENTS
        )
        assert request.config["sanitize"] is True

    def test_unknown_experiment_is_404(self):
        with pytest.raises(ServeError) as info:
            parse_job_request({"experiment": "table99"}, EXPERIMENTS)
        assert info.value.status == 404
        assert "table99" in str(info.value)

    @pytest.mark.parametrize(
        "payload, match",
        [
            ("not an object", "JSON object"),
            ({}, "exactly one of"),
            ({"experiment": "a", "experiments": ["b"]}, "exactly one of"),
            ({"experiment": 7}, "must be a string"),
            ({"experiments": []}, "non-empty list"),
            ({"experiments": ["table2", 3]}, "non-empty list"),
            ({"experiment": "table2", "bogus": 1}, "unknown request field"),
        ],
    )
    def test_malformed_requests_are_400(self, payload, match):
        with pytest.raises(ServeError, match=match) as info:
            parse_job_request(payload, EXPERIMENTS)
        assert info.value.status == 400


class TestSpecConfigKey:
    def test_default_is_the_paper_machine(self):
        assert canonical_config(None)["spec"] is None

    def test_spec_canonicalizes_to_explicit_fields(self):
        config = canonical_config({"spec": {"memory_modules": 16}})
        assert config["spec"]["memory_modules"] == 16
        assert config["spec"]["clusters"] == 4  # default made explicit

    def test_omitted_defaults_hash_identically(self):
        # Two spellings of the same machine must cost one simulation.
        sparse = canonical_config({"spec": {"memory_modules": 16}})
        explicit = canonical_config(
            {"spec": {"memory_modules": 16, "clusters": 4}}
        )
        assert canonical_config_json(sparse) == canonical_config_json(explicit)

    def test_spec_changes_the_cache_key(self):
        default = cache_key("table2", canonical_config(None), "fp")
        spec = cache_key(
            "table2", canonical_config({"spec": {"memory_modules": 16}}), "fp"
        )
        assert default != spec

    def test_cedar_spec_still_differs_from_no_spec(self):
        # An explicit CEDAR_SPEC names the builder path; runs are
        # byte-identical, but provenance keeps the coordinates apart.
        explicit = cache_key("table2", canonical_config({"spec": {}}), "fp")
        default = cache_key("table2", canonical_config(None), "fp")
        assert explicit != default

    def test_invalid_spec_is_rejected_naming_the_field(self):
        with pytest.raises(ServeError, match="memory_modules"):
            canonical_config({"spec": {"memory_modules": 33}})

    def test_unknown_spec_field_rejected(self):
        with pytest.raises(ServeError, match="num_modules"):
            canonical_config({"spec": {"num_modules": 16}})

    def test_non_object_spec_rejected(self):
        with pytest.raises(ServeError, match="JSON object"):
            canonical_config({"spec": [16]})
