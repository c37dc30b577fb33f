"""Pluggable search policies and trace-mined priors.

The variable-depth improvement driver (:mod:`repro.synthesis.improve`)
delegates every discretionary decision — which candidate families to
discover in what order, how to rank and truncate candidates within a
step, when to fall back to splitting, when to stop a pass or the whole
point — to a :class:`~repro.search.policy.SearchPolicy`.  The default
policy reproduces the paper's fixed scheme **byte-identically** (same
traces, same telemetry); biased policies explore differently.

Layout
------
:mod:`repro.search.policy`     — the policy interface, the default and
                                 biased policies, and the registry that
                                 resolves ``SynthesisConfig.search_policy``;
:mod:`repro.search.priors`     — mine completed traces into per-move-kind
                                 × slack-regime gain statistics, persisted
                                 in the store's ``priors`` namespace under
                                 iso-invariant design fingerprints.

See ``docs/SEARCH.md`` for the lifecycle: trace → priors → policy.
"""

from .policy import (
    DefaultPolicy,
    SearchPolicy,
    available_policies,
    make_policy,
    register_policy,
)
from .priors import PriorsTable, mine_events

__all__ = [
    "DefaultPolicy",
    "PriorsTable",
    "SearchPolicy",
    "available_policies",
    "make_policy",
    "mine_events",
    "register_policy",
]
