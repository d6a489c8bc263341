"""Tests for the typed request spec and its executors.

The spec is the contract shared by the CLI and the serve daemon:
validation is eager and typed, the wire round-trip is loss-free, and
``execute_spec`` produces normalized plain-data payloads whose digests
are stable across processes (that stability is what makes the
differential chaos harness's ground truth meaningful).
"""

from dataclasses import asdict

import pytest

from repro.errors import ConfigError
from repro.runtime.engine import ExperimentEngine
from repro.serve.spec import (
    RequestSpec,
    execute_spec,
    normalize,
    result_digest,
)


class TestSpecValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown request kind"):
            RequestSpec(kind="explode", params={})

    def test_unknown_workload_rejected_eagerly(self):
        with pytest.raises(ConfigError, match="unknown workload"):
            RequestSpec(kind="compile", params={"workload": "crc32"})

    def test_unknown_param_rejected(self):
        with pytest.raises(ConfigError, match="unknown compile param"):
            RequestSpec(kind="compile",
                        params={"workload": "mcf", "bogus": 1})

    def test_bad_tenant_rejected(self):
        with pytest.raises(ConfigError, match="tenant"):
            RequestSpec(kind="compile", params={"workload": "mcf"},
                        tenant="no spaces allowed")

    def test_bad_deadline_rejected(self):
        with pytest.raises(ConfigError, match="deadline"):
            RequestSpec(kind="compile", params={"workload": "mcf"},
                        deadline_ms=0)

    def test_params_must_be_json_plain(self):
        with pytest.raises(ConfigError, match="plain JSON"):
            RequestSpec(kind="compile",
                        params={"workload": "mcf", "seed": {1, 2}})

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigError, match="unknown experiment"):
            RequestSpec(kind="experiment", params={"name": "fig99"})

    @pytest.mark.parametrize("name", ["fig6", "fig7"])
    def test_seed_rejected_where_driver_takes_none(self, name):
        with pytest.raises(ConfigError, match="takes no 'seed'"):
            RequestSpec(kind="experiment", params={"name": name, "seed": 1})

    def test_experiment_seed_must_be_an_integer(self):
        with pytest.raises(ConfigError, match="integer"):
            RequestSpec(kind="experiment",
                        params={"name": "table2", "seed": "5"})


class TestWireRoundTrip:
    def test_to_from_dict_is_lossless(self):
        spec = RequestSpec(kind="migrate",
                           params={"workload": "mcf", "seed": 3},
                           tenant="acme", request_id="r-1",
                           deadline_ms=5000)
        clone = RequestSpec.from_dict(spec.to_dict())
        assert clone == spec

    def test_unknown_wire_field_rejected(self):
        payload = RequestSpec(kind="compile",
                              params={"workload": "mcf"}).to_dict()
        payload["surprise"] = True
        with pytest.raises(ConfigError, match="unknown spec field"):
            RequestSpec.from_dict(payload)

    def test_spec_digest_ignores_tenant_and_id(self):
        a = RequestSpec(kind="compile", params={"workload": "mcf"},
                        tenant="acme", request_id="a")
        b = RequestSpec(kind="compile", params={"workload": "mcf"},
                        tenant="umbrella", request_id="b")
        assert a.spec_digest() == b.spec_digest()

    def test_spec_digest_tracks_params(self):
        a = RequestSpec(kind="compile", params={"workload": "mcf"})
        b = RequestSpec(kind="compile", params={"workload": "lbm"})
        assert a.spec_digest() != b.spec_digest()


class TestNormalization:
    def test_int_keys_become_strings(self):
        assert normalize({1: "a"}) == {"1": "a"}

    def test_insertion_order_preserved(self):
        # series/column order is meaningful to renderers; only digests
        # canonicalize key order
        assert list(normalize({"b": 1, "a": 2})) == ["b", "a"]

    def test_result_digest_is_order_insensitive(self):
        assert result_digest({"a": 1, "b": 2}) \
            == result_digest({"b": 2, "a": 1})


class TestExecutors:
    def test_compile_payload_is_deterministic(self):
        spec = RequestSpec(kind="compile", params={"workload": "mcf"})
        first = execute_spec(spec)
        second = execute_spec(spec)
        assert first == second
        assert result_digest(first) == result_digest(second)
        assert set(first["sections"]) == {"x86like", "armlike"}

    def test_migrate_reports_both_isas(self):
        spec = RequestSpec(kind="migrate",
                           params={"workload": "mcf", "seed": 1,
                                   "max_instructions": 2_000_000})
        payload = execute_spec(spec)
        assert payload["exit_code"] is not None
        assert set(payload["steps_by_isa"]) == {"x86like", "armlike"}

    def test_experiment_matches_direct_driver(self):
        from repro.analysis import experiments
        spec = RequestSpec(kind="experiment", params={"name": "fig7"})
        payload = execute_spec(spec)
        assert payload["lengths"] == list(experiments.CHAIN_LENGTHS)
        direct = experiments.fig7_entropy(
            tuple(experiments.CHAIN_LENGTHS))
        assert payload["series"] == normalize(direct)

    def test_experiment_forwards_seed(self):
        from repro.analysis import experiments
        spec = RequestSpec(kind="experiment",
                           params={"name": "table2", "benchmarks": ["httpd"],
                                   "seed": 5})
        rows = execute_spec(spec)["rows"]
        seeded = experiments.table2_bruteforce(("httpd",), seed=5)
        unseeded = experiments.table2_bruteforce(("httpd",))
        assert rows == normalize([asdict(row) for row in seeded])
        assert rows != normalize([asdict(row) for row in unseeded])

    def test_sleep_is_bounded(self):
        with pytest.raises(ConfigError, match="seconds"):
            RequestSpec(kind="sleep", params={"seconds": 31})

    def test_engine_is_threaded_through(self):
        spec = RequestSpec(kind="experiment", params={"name": "fig3",
                           "benchmarks": ["mcf"]})
        payload = execute_spec(spec, engine=ExperimentEngine(workers=1))
        assert [r["benchmark"] for r in payload["rows"]] == ["mcf"]
        # fig3's obfuscated_fraction is a property on the row dataclass;
        # the payload must carry it explicitly
        assert "obfuscated_fraction" in payload["rows"][0]
