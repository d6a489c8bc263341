"""In-process tests for the synchronous service core.

``ServerCore`` is deliberately socket-free so the whole request
lifecycle — admission, execution, durability, idempotent replay, crash
re-attach — can be exercised with plain function calls.  The subprocess
daemon (HTTP front end, SIGTERM drain, real ``kill -9``) is covered by
``test_serve_chaos.py``.
"""

import json

import pytest

from repro.serve.server import ServeConfig, ServerCore
from repro.serve.spec import RequestSpec, result_digest


def _core(tmp_path, **overrides) -> ServerCore:
    config = ServeConfig(journal_dir=tmp_path / "journal",
                         cache_root=tmp_path / "cache", **overrides)
    return ServerCore(config)


def _post(core: ServerCore, spec: RequestSpec, deadline=None):
    """Drive one request through admit + execute, like the front end."""
    return _post_raw(core, spec.to_dict(), deadline)


def _post_raw(core: ServerCore, body: dict, deadline=None):
    """:func:`_post` for a wire body that need not be a valid spec."""
    outcome = core.admit(json.dumps(body).encode(), deadline)
    if outcome[0] == "reply":
        return outcome[1], outcome[2]
    return core.execute(outcome[1])


COMPILE_MCF = RequestSpec(kind="compile", params={"workload": "mcf"},
                          tenant="acme", request_id="c-1")


class TestHappyPath:
    def test_ok_response_carries_stable_digest(self, tmp_path):
        core = _core(tmp_path)
        status, body = _post(core, COMPILE_MCF)
        assert status == 200
        assert body["status"] == "ok"
        assert body["digest"] == result_digest(body["payload"])
        assert body["resumed"] is False
        core.shutdown()

    def test_settled_request_replays_idempotently(self, tmp_path):
        core = _core(tmp_path)
        status, body = _post(core, COMPILE_MCF)
        status2, body2 = _post(core, COMPILE_MCF)
        assert (status, body["digest"]) == (status2, body2["digest"])
        assert body2["resumed"] is True
        assert core.requests_executed == 1    # second answer was free
        core.shutdown()

    def test_malformed_body_is_a_400(self, tmp_path):
        core = _core(tmp_path)
        outcome = core.admit(b"not json", None)
        assert outcome[0] == "reply" and outcome[1] == 400
        assert outcome[2]["error"]["type"] == "ConfigError"
        core.shutdown()

    def test_unknown_workload_is_a_400(self, tmp_path):
        core = _core(tmp_path)
        raw = json.dumps({"schema": 1, "kind": "compile",
                          "params": {"workload": "crc32"}}).encode()
        outcome = core.admit(raw, None)
        assert outcome[0] == "reply" and outcome[1] == 400
        core.shutdown()


class TestDeadlines:
    def test_expired_deadline_is_a_504(self, tmp_path):
        core = _core(tmp_path)
        spec = RequestSpec(kind="sleep", params={"seconds": 0.3},
                           tenant="acme", request_id="d-1")
        status, body = _post(core, spec, deadline="1")
        assert status == 504
        assert body["error"]["type"] == "DeadlineExceeded"
        assert body["error"]["retryable"] is False
        core.shutdown()

    def test_bad_deadline_header_is_a_400(self, tmp_path):
        core = _core(tmp_path)
        raw = json.dumps(COMPILE_MCF.to_dict()).encode()
        outcome = core.admit(raw, "soon")
        assert outcome[0] == "reply" and outcome[1] == 400
        core.shutdown()


class TestLookup:
    def test_lookup_settled_pending_and_missing(self, tmp_path):
        core = _core(tmp_path)
        _post(core, COMPILE_MCF)
        status, body = core.lookup("c-1")
        assert status == 200 and body["resumed"] is True
        status, _body = core.lookup("never-seen")
        assert status == 404
        core.shutdown()


class TestAdmissionWiring:
    def test_quota_rejection_reaches_the_reply_path(self, tmp_path):
        core = _core(tmp_path, tenant_quota=0)
        raw = json.dumps(COMPILE_MCF.to_dict()).encode()
        outcome = core.admit(raw, None)
        assert outcome[0] == "reply" and outcome[1] == 429
        assert outcome[2]["error"]["type"] == "QuotaExceeded"
        assert outcome[2]["retry_after"] == 1.0
        core.shutdown()

    def test_draining_refuses_with_503(self, tmp_path):
        core = _core(tmp_path)
        core.start_drain()
        raw = json.dumps(COMPILE_MCF.to_dict()).encode()
        outcome = core.admit(raw, None)
        assert outcome[0] == "reply" and outcome[1] == 503
        core.shutdown()

    def test_repeated_failures_open_the_breaker(self, tmp_path):
        core = _core(tmp_path, breaker_threshold=2)
        bad = {"schema": 1, "kind": "sleep",
               "params": {"seconds": 0.2}, "tenant": "acme"}
        for index in range(2):
            spec = dict(bad, request_id=f"f-{index}")
            status, _ = _post(core, RequestSpec.from_dict(spec),
                              deadline="1")
            assert status == 504
        outcome = core.admit(
            json.dumps(dict(bad, request_id="f-9")).encode(), None)
        assert outcome[0] == "reply" and outcome[1] == 429
        assert outcome[2]["error"]["type"] == "BreakerOpen"
        core.shutdown()

    def test_malformed_params_never_trip_the_breaker(self, tmp_path):
        # a bad rule selector is the client's error: it must be refused
        # at admission, not run and counted against the workload
        core = _core(tmp_path, breaker_threshold=3)
        statuses = [
            _post_raw(core, {"schema": 1, "kind": "verify",
                             "params": {"workload": "mcf",
                                        "rules": ["HIP999"]},
                             "tenant": "acme",
                             "request_id": f"bad-{index}"})[0]
            for index in range(3)]
        assert statuses == [400, 400, 400]
        status, body = _post(core, RequestSpec(
            kind="verify", params={"workload": "mcf"}, tenant="acme",
            request_id="good"))
        assert status == 200, body
        assert body["payload"]["ok"]
        core.shutdown()


class TestCrashReattach:
    def test_settled_requests_survive_a_hard_crash(self, tmp_path):
        first = _core(tmp_path)
        status, body = _post(first, COMPILE_MCF)
        assert status == 200
        run_id = first.journal.run_id
        # simulate kill -9: the journal never gets run_finished
        first.journal.close()

        second = _core(tmp_path)
        assert second.journal.run_id == run_id       # re-attached
        assert second.requests_reattached == 1
        status2, body2 = _post(second, COMPILE_MCF)
        assert status2 == 200
        assert body2["resumed"] is True
        assert body2["payload"] == body["payload"]   # byte-identical
        assert body2["digest"] == body["digest"]
        assert second.requests_executed == 0         # recomputed=0
        second.shutdown()

    def test_finished_run_is_not_resumed(self, tmp_path):
        first = _core(tmp_path)
        _post(first, COMPILE_MCF)
        run_id = first.journal.run_id
        first.shutdown()                             # run_finished

        second = _core(tmp_path)
        assert second.journal.run_id != run_id       # fresh run
        assert getattr(second, "requests_reattached", 0) == 0
        second.shutdown()

    def test_non_final_failures_reexecute_after_crash(self, tmp_path):
        first = _core(tmp_path)
        # journal a retryable (final=False) failure by hand, as if the
        # server exhausted retries right before dying
        first.journal.append(
            "request_failed", request_id="r-1", tenant="acme",
            kind="compile", error_type="FaultInjected",
            message="injected", http_status=503, final=False, elapsed=0.1)
        first.journal.close()

        second = _core(tmp_path)
        spec = RequestSpec(kind="compile", params={"workload": "mcf"},
                           tenant="acme", request_id="r-1")
        status, body = _post(second, spec)
        assert status == 200                         # re-executed
        assert body["resumed"] is False
        assert second.requests_executed == 1
        second.shutdown()


class TestObservability:
    def test_status_and_metrics_surface_the_core(self, tmp_path):
        core = _core(tmp_path)
        _post(core, COMPILE_MCF)
        status = core.status()
        assert status["requests"]["executed"] == 1
        assert status["admission"]["admitted"] == 1
        text = core.metrics_text()
        assert "serve_in_flight" in text
        assert "serve_executed_total" in text
        core.shutdown()

    def test_drain_journals_run_interrupted(self, tmp_path):
        core = _core(tmp_path)
        _post(core, COMPILE_MCF)
        core.start_drain()
        core.finish_drain()
        records = [json.loads(line) for line in
                   core.journal.path.read_text().splitlines()]
        kinds = [r["type"] for r in records]
        assert "request_done" in kinds
        assert "run_interrupted" in kinds
        assert "run_finished" not in kinds
