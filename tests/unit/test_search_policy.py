"""Unit tests for the search-policy layer (repro.search.policy).

The default policy must be an exact no-op at every hook (the golden
trace suite proves the byte-level consequence; these tests pin the
hook-level contract), the registry must resolve and reject names
predictably, and the built-in biased policies must implement exactly
the bias their docstring claims.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.dfg import Design, GraphBuilder
from repro.search import (
    DefaultPolicy,
    SearchPolicy,
    available_policies,
    make_policy,
    register_policy,
)
from repro.search.policy import _REGISTRY


def _mac_design() -> Design:
    b = GraphBuilder("mac")
    x, y, z = b.inputs("x", "y", "z")
    b.output("o", b.add(b.mult(x, y), z))
    design = Design("mac")
    design.add_dfg(b.build(), top=True)
    return design


def _fake_solution(design: Design):
    return SimpleNamespace(
        vdd=5.0, clk_ns=10.0, sampling_ns=400.0, dfg=design.top
    )


def _fake_env(design: Design):
    return SimpleNamespace(store=None, design=design)


class TestRegistry:
    def test_builtin_policies_registered(self):
        names = available_policies()
        for expected in ("default", "share-first", "split-eager", "deep",
                         "greedy", "priors"):
            assert expected in names

    def test_make_policy_resolves_and_passes_params(self):
        policy = make_policy("default", {"min_support": 3})
        assert isinstance(policy, DefaultPolicy)
        assert policy.params == {"min_support": 3}

    def test_make_policy_unknown_name_lists_registry(self):
        with pytest.raises(ValueError, match="default"):
            make_policy("no-such-policy")

    def test_register_policy_decorator(self):
        @register_policy("test-custom")
        class Custom(SearchPolicy):
            pass

        try:
            assert "test-custom" in available_policies()
            assert Custom.name == "test-custom"
            assert isinstance(make_policy("test-custom"), Custom)
        finally:
            del _REGISTRY["test-custom"]


class TestDefaultPolicyIsIdentity:
    def test_budgets_passthrough(self):
        assert DefaultPolicy().budgets(8, 24) == (8, 24)

    def test_family_order_is_papers(self):
        assert DefaultPolicy().family_order() == ("ab", "share")

    def test_rank_candidates_returns_input_unchanged(self):
        cands = [SimpleNamespace(kind="A-cell"), SimpleNamespace(kind="C-chain")]
        assert DefaultPolicy().rank_candidates("ab", cands, 0, 0) is cands

    def test_try_split_is_the_paper_rule(self):
        policy = DefaultPolicy()
        # No sharing move at all -> fall back to splitting.
        assert policy.try_split(None, 10.0)
        # Best sharing move loses cost -> split.
        assert policy.try_split(SimpleNamespace(cost_after=10.5), 10.0)
        # Best sharing move gains -> no split.
        assert not policy.try_split(SimpleNamespace(cost_after=9.5), 10.0)

    def test_never_terminates_early(self):
        policy = DefaultPolicy()
        assert not policy.stop_step(SimpleNamespace(cost_after=99.0), 1.0, 0)
        assert not policy.stop_pass(0, 1.0)

    def test_seed_solution_passthrough_without_token(self):
        design = _mac_design()
        solution = _fake_solution(design)
        policy = DefaultPolicy().bind(_fake_env(design))
        ctx = SimpleNamespace(cost=lambda s: pytest.fail("must not price"))
        assert policy.seed_solution(ctx, solution, 1.0) == (solution, 1.0)


class TestBiasedPolicies:
    def test_share_first_orders_sharing_ahead(self):
        assert make_policy("share-first").family_order() == ("share", "ab")

    def test_split_eager_discovers_splits_unconditionally(self):
        assert make_policy("split-eager").family_order() == (
            "ab", "share", "split"
        )

    def test_deep_doubles_passes_and_truncates_candidates(self):
        policy = make_policy("deep")
        assert policy.budgets(4, 10) == (8, 10)
        short = [SimpleNamespace(kind="A-cell")] * 4
        assert policy.rank_candidates("ab", short, 0, 0) is short
        long = [SimpleNamespace(kind="A-cell")] * 10
        assert len(policy.rank_candidates("ab", long, 0, 0)) == 5

    def test_greedy_stops_on_first_nonimproving_move(self):
        policy = make_policy("greedy")
        assert policy.budgets(4, 10) == (8, 10)
        assert policy.stop_step(SimpleNamespace(cost_after=10.0), 10.0, 0)
        assert policy.stop_step(SimpleNamespace(cost_after=10.1), 10.0, 0)
        assert not policy.stop_step(SimpleNamespace(cost_after=9.9), 10.0, 0)
