"""Trace-mined move priors: gain statistics that warm-start search.

Completed synthesis traces record, for every improvement step, which
move kind was chosen, its gain, and — via the pass's committed prefix —
whether the move survived into the committed solution.  This module
mines those events (any schema version the shared reader accepts) into
per-``(slack regime, move kind)`` statistics, persists them in the
synthesis store's ``priors`` namespace keyed by **iso-invariant design
fingerprints** (:func:`repro.dfg.canonical.design_fingerprint`), and
feeds them back into search through :class:`PriorsPolicy`: candidate
kinds with a reliably negative committed-gain history are skipped
before pricing, and move families are tried in mined-profit order.

The slack *regime* — how tight the schedule budget is relative to the
initial schedule — is what makes statistics transfer: a tight-budget
search lives off type-A speedups while a loose one profits from
sharing, regardless of the concrete design.  Mining classifies each
operating point by its ``init`` event; the policy classifies the live
point from its starting solution.

Priors are advisory and lossy by design: an unseen kind is always
priced (exploration beats a stale table), and a cold table makes
:class:`PriorsPolicy` behave exactly like the default policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable

from ..trace.reader import iter_events

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..synthesis.store import SynthesisStore

from .policy import SearchPolicy, register_policy

__all__ = [
    "AGGREGATE_FINGERPRINT",
    "KindStats",
    "PriorsPolicy",
    "PriorsTable",
    "load_priors",
    "mine_events",
    "save_priors",
    "slack_regime",
]

#: Version of the priors value format inside the store's ``priors``
#: namespace; bumped on incompatible changes to :meth:`PriorsTable.
#: as_dict`.
PRIORS_FORMAT_VERSION = 1

#: Pseudo-fingerprint of the cross-design aggregate table: every mined
#: run merges into it, and a design with no exact-fingerprint entry
#: warm-starts from here.
AGGREGATE_FINGERPRINT = "__aggregate__"

#: Slack-regime boundaries on ``budget_cycles / initial_cycles``.
_TIGHT_BELOW = 1.15
_MEDIUM_BELOW = 1.6


def slack_regime(budget_cycles: int, schedule_cycles: int) -> str:
    """Classify an operating point's schedule slack.

    ``tight`` points barely meet (or miss) their budget and live off
    speed-recovering moves; ``loose`` points have cycles to burn on
    area/power consolidation; ``medium`` sits between.
    """
    ratio = budget_cycles / max(schedule_cycles, 1)
    if ratio < _TIGHT_BELOW:
        return "tight"
    if ratio < _MEDIUM_BELOW:
        return "medium"
    return "loose"


@dataclass
class KindStats:
    """Mined outcome statistics of one move kind in one slack regime."""

    #: Times this kind was the step's chosen move.
    chosen: int = 0
    #: Chosen moves that landed inside a committed pass prefix.
    committed: int = 0
    #: Total gain of chosen moves (positive = cost reduction).
    gain: float = 0.0
    #: Total gain of the committed subset.
    committed_gain: float = 0.0

    def merge(self, other: "KindStats") -> None:
        """Accumulate *other* into this record."""
        self.chosen += other.chosen
        self.committed += other.committed
        self.gain += other.gain
        self.committed_gain += other.committed_gain

    @property
    def score(self) -> float:
        """Expected committed gain per time this kind was chosen."""
        if self.chosen == 0:
            return 0.0
        return self.committed_gain / self.chosen


@dataclass
class PriorsTable:
    """Per-``(regime, kind)`` move statistics mined from traces."""

    stats: dict[tuple[str, str], KindStats] = field(default_factory=dict)
    #: Number of synthesis runs merged into this table.
    n_runs: int = 0

    def record(
        self, regime: str, kind: str, gain: float, committed: bool
    ) -> None:
        """Fold one chosen step into the table."""
        entry = self.stats.get((regime, kind))
        if entry is None:
            entry = self.stats[(regime, kind)] = KindStats()
        entry.chosen += 1
        entry.gain += gain
        if committed:
            entry.committed += 1
            entry.committed_gain += gain

    def merge(self, other: "PriorsTable") -> "PriorsTable":
        """Accumulate *other*'s statistics; returns self."""
        for key, theirs in other.stats.items():
            mine = self.stats.get(key)
            if mine is None:
                self.stats[key] = KindStats(
                    theirs.chosen, theirs.committed, theirs.gain,
                    theirs.committed_gain,
                )
            else:
                mine.merge(theirs)
        self.n_runs += other.n_runs
        return self

    def kind_score(self, regime: str, kind: str) -> float | None:
        """Score of *kind* in *regime*; ``None`` when never observed."""
        entry = self.stats.get((regime, kind))
        return entry.score if entry is not None else None

    def kind_support(self, regime: str, kind: str) -> int:
        """How many chosen observations back *kind* in *regime*."""
        entry = self.stats.get((regime, kind))
        return entry.chosen if entry is not None else 0

    def family_score(self, regime: str, family: str) -> float:
        """Aggregate score of a move family (kind prefix) in *regime*."""
        chosen = 0
        committed_gain = 0.0
        for (reg, kind), entry in self.stats.items():
            if reg == regime and kind.startswith(family):
                chosen += entry.chosen
                committed_gain += entry.committed_gain
        return committed_gain / chosen if chosen else 0.0

    def as_dict(self) -> dict[str, Any]:
        """JSON-able wire form (the store's ``priors`` value format)."""
        return {
            "format": PRIORS_FORMAT_VERSION,
            "n_runs": self.n_runs,
            "stats": {
                f"{regime}|{kind}": [
                    e.chosen, e.committed, e.gain, e.committed_gain
                ]
                for (regime, kind), e in sorted(self.stats.items())
            },
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "PriorsTable":
        """Inverse of :meth:`as_dict`; unknown formats raise ValueError."""
        if payload.get("format") != PRIORS_FORMAT_VERSION:
            raise ValueError(
                f"unsupported priors format {payload.get('format')!r} "
                f"(this build reads {PRIORS_FORMAT_VERSION})"
            )
        table = cls(n_runs=int(payload.get("n_runs", 0)))
        for key, (chosen, committed, gain, cgain) in payload["stats"].items():
            regime, _, kind = key.partition("|")
            table.stats[(regime, kind)] = KindStats(
                int(chosen), int(committed), float(gain), float(cgain)
            )
        return table


# ----------------------------------------------------------------------
# Mining
# ----------------------------------------------------------------------

def mine_events(source: Iterable) -> PriorsTable:
    """Mine one trace (any readable schema) into a :class:`PriorsTable`.

    *source* is anything :func:`repro.trace.reader.iter_events` accepts:
    a path, an open stream, JSONL lines or parsed event dicts.  Steps of
    points whose ``init`` event is missing (truncated traces) are
    skipped; commitment comes from each pass's ``pass_end`` committed
    prefix, so schema v1 traces mine identically to v3 ones.
    """
    regimes: dict[int, str] = {}
    committed: dict[tuple[int, int], int] = {}
    steps: list[dict[str, Any]] = []
    saw_run = False
    for event in iter_events(source):
        kind = event["k"]
        if kind == "run_start":
            saw_run = True
        elif kind == "init":
            regimes[event["point"]] = slack_regime(
                event["budget"], event["cycles"]
            )
        elif kind == "pass_end":
            committed[(event["point"], event["pass"])] = event["committed"]
        elif kind == "step":
            steps.append(event)

    table = PriorsTable(n_runs=1 if saw_run else 0)
    for event in steps:
        regime = regimes.get(event["point"])
        if regime is None:
            continue
        is_committed = event["step"] < committed.get(
            (event["point"], event["pass"]), 0
        )
        table.record(regime, event["kind"], event["gain"], is_committed)
    return table


# ----------------------------------------------------------------------
# Store persistence (the ``priors`` namespace)
# ----------------------------------------------------------------------

def _priors_content(fingerprint: str) -> tuple:
    return ("priors", PRIORS_FORMAT_VERSION, fingerprint)


def save_priors(
    store: "SynthesisStore", fingerprint: str, table: PriorsTable
) -> PriorsTable:
    """Merge *table* into the stored priors of *fingerprint*.

    Also folds it into the cross-design aggregate entry
    (:data:`AGGREGATE_FINGERPRINT`), which is what lets a never-seen
    design warm-start from structurally different history.  Returns the
    merged per-fingerprint table.  Unlike every other store namespace,
    priors are mutable aggregates — writes go through
    :meth:`~repro.synthesis.store.SynthesisStore.replace`.
    """
    merged = table
    for key in (fingerprint, AGGREGATE_FINGERPRINT):
        existing = load_priors(store, key, aggregate_fallback=False)
        combined = PriorsTable() if existing is None else existing
        combined.merge(table)
        store.replace("priors", _priors_content(key), combined.as_dict())
        if key == fingerprint:
            merged = combined
    return merged


def load_priors(
    store: "SynthesisStore",
    fingerprint: str,
    aggregate_fallback: bool = True,
) -> PriorsTable | None:
    """Load the priors stored for *fingerprint*, if any.

    With *aggregate_fallback* (the default), a design with no
    per-fingerprint entry falls back to the cross-design aggregate.
    """
    from ..synthesis.store import MISSING

    payload = store.load("priors", _priors_content(fingerprint))
    if payload is MISSING and aggregate_fallback:
        payload = store.load(
            "priors", _priors_content(AGGREGATE_FINGERPRINT)
        )
    if payload is MISSING:
        return None
    try:
        return PriorsTable.from_dict(payload)
    except (ValueError, KeyError, TypeError):
        return None


# ----------------------------------------------------------------------
# The priors-guided policy
# ----------------------------------------------------------------------

@register_policy("priors")
class PriorsPolicy(SearchPolicy):
    """Bias search with mined move statistics; cold tables act default.

    Two levers, both regime-conditioned:

    * :meth:`family_order` tries the historically more profitable of
      type-A/B vs sharing first (winning exact cost ties);
    * :meth:`rank_candidates` drops candidates whose kind has a
      reliably negative committed-gain history (at least
      ``min_support`` observations), cutting evaluations without
      touching unexplored kinds.

    ``params``: ``table`` (a :meth:`PriorsTable.as_dict` payload,
    overrides the store) and ``min_support`` (default 5).
    """

    def __init__(self, params: dict[str, Any] | None = None):
        super().__init__(params)
        self.table: PriorsTable | None = None
        self._regime = "medium"
        payload = self.params.get("table")
        if payload:
            self.table = PriorsTable.from_dict(payload)

    def bind(self, env) -> "PriorsPolicy":
        """Attach *env* and load priors for its design from the store."""
        super().bind(env)
        if self.table is None:
            from ..dfg.canonical import design_fingerprint

            self.table = load_priors(
                env.store,
                design_fingerprint(env.design, env.design.top),
            )
        return self

    def seed_solution(self, ctx, solution, cost):
        """Classify the point's slack regime, then seed as the base does."""
        # The starting solution's schedule is already computed (the
        # sweep's feasibility gate priced it), so this costs nothing.
        self._regime = slack_regime(
            solution.deadline_cycles, solution.schedule().length
        )
        return super().seed_solution(ctx, solution, cost)

    def family_order(self) -> tuple[str, ...]:
        """Order families by mined committed-gain, in this slack regime."""
        if self.table is None:
            return ("ab", "share")
        ab = max(
            self.table.family_score(self._regime, "A"),
            self.table.family_score(self._regime, "B"),
        )
        share = self.table.family_score(self._regime, "C")
        if share > ab:
            return ("share", "ab")
        return ("ab", "share")

    def rank_candidates(self, family, candidates, pass_idx, step_idx):
        """Drop kinds the mined record shows to be reliably unprofitable."""
        if self.table is None or len(candidates) <= 1:
            return candidates
        min_support = int(self.params.get("min_support", 5))
        kept = [
            c for c in candidates
            if not self._reliably_unprofitable(c.kind, min_support)
        ]
        # Never empty a family the default policy would have priced:
        # a table that condemns every kind is evidence about the past,
        # not a proof about this design.
        return kept if kept else candidates

    def _reliably_unprofitable(self, kind: str, min_support: int) -> bool:
        score = self.table.kind_score(self._regime, kind)
        if score is None:
            return False
        return (
            score <= 0.0
            and self.table.kind_support(self._regime, kind) >= min_support
        )
