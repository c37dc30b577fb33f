"""Unit tests for the service job schema (requests, fingerprints)."""

import dataclasses

import pytest

from repro.errors import ServiceError
from repro.library import default_library
from repro.reporting import quick_config
from repro.service import JobRequest, request_fingerprint, resolve_job_design
from repro.service.jobs import JobRecord

DESIGN_TEXT = """
design tiny
top main

dfg main
  input x
  input y
  op m mult x y
  op a add m y
  output out a
end
"""


def _request(**overrides):
    base = dict(design_text=DESIGN_TEXT, laxity_factor=2.0)
    base.update(overrides)
    return JobRequest(**base)


class TestJobRequestValidation:
    def test_valid_request_passes(self):
        _request().validate()

    def test_requires_exactly_one_source(self):
        with pytest.raises(ServiceError, match="exactly one"):
            JobRequest(laxity_factor=2.0).validate()
        with pytest.raises(ServiceError, match="exactly one"):
            _request(benchmark="lat").validate()

    def test_requires_exactly_one_constraint(self):
        with pytest.raises(ServiceError, match="exactly one"):
            _request(laxity_factor=None).validate()
        with pytest.raises(ServiceError, match="exactly one"):
            _request(sampling_ns=400.0).validate()

    @pytest.mark.parametrize(
        "field,value",
        [("objective", "speed"), ("traces", "pink"), ("effort", "extreme"),
         ("samples", 0), ("policy", "no-such-policy")],
    )
    def test_rejects_bad_knobs(self, field, value):
        with pytest.raises(ServiceError):
            _request(**{field: value}).validate()

    def test_accepts_registered_policies(self):
        from repro.search import available_policies

        for policy in available_policies():
            _request(policy=policy).validate()


class TestJobRequestWireFormat:
    def test_round_trip(self):
        request = _request(verify=True, samples=16)
        assert JobRequest.from_dict(request.to_dict()) == request

    @pytest.mark.parametrize(
        "key,value",
        [("laxity", 2.0),  # typo for laxity_factor
         ("portfolio", 3)],  # a removed field
    )
    def test_unknown_keys_rejected_not_dropped(self, key, value):
        payload = _request().to_dict()
        payload[key] = value
        with pytest.raises(ServiceError, match="unknown job request field"):
            JobRequest.from_dict(payload)

    def test_non_object_body_rejected(self):
        with pytest.raises(ServiceError, match="JSON object"):
            JobRequest.from_dict(["not", "a", "dict"])


class TestResolveJobDesign:
    def test_design_text(self):
        design = resolve_job_design(_request())
        assert design.name == "tiny"

    def test_benchmark(self):
        design = resolve_job_design(
            JobRequest(benchmark="lat", laxity_factor=2.0)
        )
        assert design.name == "lat"

    def test_unknown_benchmark(self):
        with pytest.raises(ServiceError, match="unknown benchmark"):
            resolve_job_design(
                JobRequest(benchmark="nope", laxity_factor=2.0)
            )

    def test_gen_seed(self):
        design = resolve_job_design(
            JobRequest(gen_seed=3, laxity_factor=2.0)
        )
        assert design.total_operations() > 0

    def test_bad_design_text(self):
        with pytest.raises(Exception):
            resolve_job_design(
                JobRequest(design_text="dfg x\n nonsense\n", laxity_factor=2.0)
            )


class TestRequestFingerprint:
    def _fingerprint(self, request):
        return request_fingerprint(
            request, resolve_job_design(request),
            default_library(), quick_config(),
        )

    def test_deterministic(self):
        assert self._fingerprint(_request()) == self._fingerprint(_request())

    @pytest.mark.parametrize(
        "override",
        [dict(objective="area"), dict(samples=32), dict(seed=1),
         dict(traces="white"), dict(verify=True), dict(trace=True),
         dict(flatten=True), dict(laxity_factor=3.0),
         dict(laxity_factor=None, sampling_ns=500.0),
         dict(policy="greedy"), dict(priors=True)],
    )
    def test_result_shaping_knobs_change_identity(self, override):
        assert self._fingerprint(_request(**override)) != \
            self._fingerprint(_request())

    def test_source_spelling_does_not_change_identity(self):
        """Inline text and the gen seed that emits it coalesce."""
        from repro.gen import GenConfig, generate_design

        gen = generate_design(3, GenConfig())
        by_seed = _request(design_text=None, gen_seed=3)
        by_text = _request(design_text=gen.text)
        assert self._fingerprint(by_seed) == self._fingerprint(by_text)


class TestJobRecord:
    def _record(self, **overrides):
        base = dict(
            job_id="j1", fingerprint="fp", state="done",
            request=_request().to_dict(), submitted_at=1.0,
            result={"area": 10.0, "power": 0.5, "vdd": 3.3,
                    "clk_ns": 9.0, "elapsed_s": 0.1, "netlist": "..."},
        )
        base.update(overrides)
        return JobRecord(**base)

    def test_status_view_summarizes_without_shipping_result(self):
        view = self._record().as_dict()
        assert "result" not in view
        assert view["summary"]["area"] == 10.0

    def test_result_rides_only_on_demand(self):
        view = self._record().as_dict(include_result=True)
        assert view["result"]["netlist"] == "..."

    def test_no_summary_before_completion(self):
        view = self._record(state="running", result=None).as_dict()
        assert "summary" not in view and view["state"] == "running"

    def test_wire_request_is_plain_data(self):
        record = self._record()
        assert record.request == dataclasses.asdict(_request())
