"""Move-A equivalence saturation: batch rewrites to a bounded fixpoint.

Move A swaps a module instance for a *functionally equivalent but
anisomorphic* implementation of the same behavior.  The paper assumes
the designer supplies those alternatives; this module grows the supply
automatically.  Each flat behavior of a :class:`~repro.dfg.hierarchy.
Design` is lowered into a hash-consed expression table inside an
in-memory SQLite database, a small set of *bit-true* rewrite rules is
applied as set-at-a-time ``INSERT OR IGNORE ... SELECT`` batch steps,
and the resulting equivalence classes are read back out as new DFG
variants.  Registering a variant via
:meth:`Design.add_dfg` is all it takes to feed move A: the complex
library builder characterizes every variant of a behavior, and the
improvement loop then prices them against each other.

Rewrite rules (all exact under the two's-complement width wrapping
:func:`repro.dfg.ops.apply_operation` performs):

* **commutativity** — ``op(a, b) = op(b, a)`` for every operation
  :data:`~repro.dfg.ops.OP_INFO` marks commutative (ADD, MULT, MIN,
  MAX);
* **sub lowering** — ``a - b = a + neg(b)``; exact because negation
  and addition wrap modulo ``2**width``;
* **add associativity** — ``a + (b + c) = (a + b) + c`` when all three
  additions share one width: intermediate wrapping to the common width
  preserves the sum modulo ``2**width``.

Saturation is *bounded*, not complete: the round count and the row cap
keep the table finite (associativity alone would otherwise enumerate
every parenthesization).  Within the bound the loop runs the classic
equality-saturation cycle — canonicalize operands through the current
union-find, fire every rule as one batched statement, merge the classes
the matches prove equal — and stops early at a fixpoint.

Every extracted variant is verified before registration by simulating
both DFGs on shared white-noise stimulus and comparing output streams
sample-for-sample; a variant that fails (which a correct rule set never
produces) is silently discarded rather than poisoning the design.  The
whole pass is deterministic: no RNG, extraction enumerates choice
indices in order, and SQLite reads are explicitly ordered.
"""

from __future__ import annotations

import sqlite3

import numpy as np

from ..dfg.canonical import canonical_fingerprint
from ..dfg.graph import DFG, NodeKind, Signal
from ..dfg.hierarchy import Design
from ..dfg.ops import OP_INFO, Operation
from ..errors import DFGError

__all__ = ["saturate_design", "saturate_dfg"]

#: Leaf sentinel for the operand columns: SQLite treats NULLs as
#: distinct inside UNIQUE constraints, which would defeat hash-consing,
#: so leaves and unary second operands store -1 instead (row ids are
#: always positive).
_NONE = -1

_COMMUTATIVE = tuple(
    op.name for op in Operation if OP_INFO[op].commutative
)


class _CycleError(Exception):
    """Extraction walked into a class currently being expanded."""


def _connect() -> sqlite3.Connection:
    conn = sqlite3.connect(":memory:")
    conn.execute(
        "CREATE TABLE expr ("
        " id INTEGER PRIMARY KEY,"
        " op TEXT NOT NULL,"
        " a INTEGER NOT NULL,"
        " b INTEGER NOT NULL,"
        " width INTEGER NOT NULL,"
        " UNIQUE (op, a, b, width))"
    )
    # Union-find snapshot, refreshed each round; joined by every rule to
    # canonicalize operands before matching.
    conn.execute("CREATE TABLE cls (id INTEGER PRIMARY KEY, rep INTEGER NOT NULL)")
    return conn


class _UnionFind:
    """Deterministic union-find: the smallest member id represents."""

    def __init__(self) -> None:
        self._parent: dict[int, int] = {}

    def add(self, x: int) -> None:
        self._parent.setdefault(x, x)

    def find(self, x: int) -> int:
        parent = self._parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, x: int, y: int) -> bool:
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        if ry < rx:
            rx, ry = ry, rx
        self._parent[ry] = rx
        return True

    def ids(self) -> list[int]:
        return list(self._parent)


def _intern(conn: sqlite3.Connection, op: str, a: int, b: int, width: int) -> int:
    conn.execute(
        "INSERT OR IGNORE INTO expr (op, a, b, width) VALUES (?, ?, ?, ?)",
        (op, a, b, width),
    )
    (eid,) = conn.execute(
        "SELECT id FROM expr WHERE op = ? AND a = ? AND b = ? AND width = ?",
        (op, a, b, width),
    ).fetchone()
    return eid


def _encode(conn: sqlite3.Connection, dfg: DFG) -> dict[str, int] | None:
    """Lower *dfg* into the expr table; node id -> expr id.

    Returns ``None`` when the graph is outside the saturator's fragment
    (hierarchical nodes, or an operation of arity above two).
    """
    if dfg.hier_nodes():
        return None
    ids: dict[str, int] = {}
    for nid in dfg.topo_order():
        node = dfg.node(nid)
        if node.kind == NodeKind.INPUT:
            ids[nid] = _intern(conn, f"in:{nid}", _NONE, _NONE, node.width)
        elif node.kind == NodeKind.CONST:
            ids[nid] = _intern(conn, f"const:{node.value}", _NONE, _NONE, node.width)
        elif node.kind == NodeKind.OP:
            assert node.op is not None
            operands = [ids[edge.src] for edge in dfg.in_edges(nid)]
            if len(operands) > 2:
                return None
            a = operands[0] if operands else _NONE
            b = operands[1] if len(operands) > 1 else _NONE
            ids[nid] = _intern(conn, node.op.name, a, b, node.width)
        # OUTPUT nodes carry no expression of their own.
    return ids


def _refresh_cls(conn: sqlite3.Connection, uf: _UnionFind) -> None:
    conn.execute("DELETE FROM cls")
    conn.executemany(
        "INSERT INTO cls (id, rep) VALUES (?, ?)",
        [(i, uf.find(i)) for i in sorted(uf.ids())],
    )


# Canonicalized operand columns, shared by every rule below.  LEFT JOIN
# lets the -1 leaf sentinel (absent from cls) pass through unchanged.
_CANON = (
    " FROM expr e"
    " LEFT JOIN cls ca ON ca.id = e.a"
    " LEFT JOIN cls cb ON cb.id = e.b"
)
_A = "COALESCE(ca.rep, e.a)"
_B = "COALESCE(cb.rep, e.b)"


def _saturate_round(conn: sqlite3.Connection, uf: _UnionFind) -> int:
    """One batch round: congruence, then every rewrite rule.  Returns the
    number of changes (new rows + class merges) so the caller can detect
    a fixpoint.
    """
    _refresh_cls(conn, uf)
    before = conn.total_changes
    merges = 0

    def union_pairs(rows: list[tuple[int, int]]) -> None:
        nonlocal merges
        for x, y in rows:
            uf.add(x)
            uf.add(y)
            if uf.union(x, y):
                merges += 1

    # Congruence by substitution: re-intern every row with canonical
    # operands; a row that collapses onto another proves its class equal
    # to that row's class.
    conn.execute(
        "INSERT OR IGNORE INTO expr (op, a, b, width)"
        f" SELECT e.op, {_A}, {_B}, e.width{_CANON}"
        f" WHERE {_A} <> e.a OR {_B} <> e.b"
    )
    union_pairs(
        conn.execute(
            "SELECT e.id, s.id"
            f"{_CANON}"
            f" JOIN expr s ON s.op = e.op AND s.a = {_A} AND s.b = {_B}"
            "  AND s.width = e.width"
            " WHERE s.id <> e.id ORDER BY e.id"
        ).fetchall()
    )

    # Commutativity: op(a, b) = op(b, a).
    placeholders = ",".join("?" * len(_COMMUTATIVE))
    conn.execute(
        "INSERT OR IGNORE INTO expr (op, a, b, width)"
        f" SELECT e.op, {_B}, {_A}, e.width{_CANON}"
        f" WHERE e.op IN ({placeholders}) AND e.b <> {_NONE}",
        _COMMUTATIVE,
    )
    union_pairs(
        conn.execute(
            "SELECT e.id, s.id"
            f"{_CANON}"
            f" JOIN expr s ON s.op = e.op AND s.a = {_B} AND s.b = {_A}"
            "  AND s.width = e.width"
            f" WHERE e.op IN ({placeholders}) AND e.b <> {_NONE}"
            "  AND s.id <> e.id ORDER BY e.id",
            _COMMUTATIVE,
        ).fetchall()
    )

    # Sub lowering: a - b = a + neg(b), in two batch steps (the NEG rows
    # must exist before the ADD rows can reference them).
    conn.execute(
        "INSERT OR IGNORE INTO expr (op, a, b, width)"
        f" SELECT 'NEG', {_B}, {_NONE}, e.width{_CANON} WHERE e.op = 'SUB'"
    )
    conn.execute(
        "INSERT OR IGNORE INTO expr (op, a, b, width)"
        f" SELECT 'ADD', {_A}, n.id, e.width"
        f"{_CANON}"
        f" JOIN expr n ON n.op = 'NEG' AND n.a = {_B} AND n.b = {_NONE}"
        "  AND n.width = e.width"
        " WHERE e.op = 'SUB'"
    )
    union_pairs(
        conn.execute(
            "SELECT e.id, s.id"
            f"{_CANON}"
            f" JOIN expr n ON n.op = 'NEG' AND n.a = {_B} AND n.b = {_NONE}"
            "  AND n.width = e.width"
            f" JOIN expr s ON s.op = 'ADD' AND s.a = {_A} AND s.b = n.id"
            "  AND s.width = e.width"
            " WHERE e.op = 'SUB' ORDER BY e.id"
        ).fetchall()
    )

    # Add associativity (left rotation): x + (u + v) = (x + u) + v when
    # both additions share e.width; commutativity supplies the mirrored
    # forms on later rounds.
    inner = (
        f" JOIN expr i ON i.id = {_B} AND i.op = 'ADD' AND i.width = e.width"
        " LEFT JOIN cls cia ON cia.id = i.a"
        " LEFT JOIN cls cib ON cib.id = i.b"
    )
    ia, ib = "COALESCE(cia.rep, i.a)", "COALESCE(cib.rep, i.b)"
    conn.execute(
        "INSERT OR IGNORE INTO expr (op, a, b, width)"
        f" SELECT 'ADD', {_A}, {ia}, e.width{_CANON}{inner} WHERE e.op = 'ADD'"
    )
    conn.execute(
        "INSERT OR IGNORE INTO expr (op, a, b, width)"
        f" SELECT 'ADD', t.id, {ib}, e.width"
        f"{_CANON}{inner}"
        f" JOIN expr t ON t.op = 'ADD' AND t.a = {_A} AND t.b = {ia}"
        "  AND t.width = e.width"
        " WHERE e.op = 'ADD'"
    )
    union_pairs(
        conn.execute(
            "SELECT e.id, s.id"
            f"{_CANON}{inner}"
            f" JOIN expr t ON t.op = 'ADD' AND t.a = {_A} AND t.b = {ia}"
            "  AND t.width = e.width"
            f" JOIN expr s ON s.op = 'ADD' AND s.a = t.id AND s.b = {ib}"
            "  AND s.width = e.width"
            " WHERE e.op = 'ADD' ORDER BY e.id"
        ).fetchall()
    )

    for (eid,) in conn.execute("SELECT id FROM expr ORDER BY id"):
        uf.add(eid)
    return (conn.total_changes - before) + merges


def _class_members(
    conn: sqlite3.Connection, uf: _UnionFind
) -> dict[int, list[tuple[int, str, int, int, int]]]:
    """rep -> members as ``(id, op, a_rep, b_rep, width)``, id-ordered."""
    _refresh_cls(conn, uf)
    members: dict[int, list[tuple[int, str, int, int, int]]] = {}
    rows = conn.execute(
        f"SELECT e.id, e.op, {_A}, {_B}, e.width{_CANON} ORDER BY e.id"
    ).fetchall()
    for eid, op, a, b, width in rows:
        members.setdefault(uf.find(eid), []).append((eid, op, a, b, width))
    return members


def _extract(
    base: DFG,
    name: str,
    members: dict[int, list[tuple[int, str, int, int, int]]],
    uf: _UnionFind,
    node_ids: dict[str, int],
    choice: int,
) -> DFG:
    """Build the variant DFG for one deterministic *choice* index.

    Every class with ``n`` members contributes member ``choice % n``;
    choice 0 reproduces (up to sharing) the base graph because the
    original rows carry the smallest ids.  Raises :class:`_CycleError`
    if the chosen member set is self-referential (possible only for
    rule sets that prove ``x`` equal to a strict superterm of ``x``,
    which the current rules never do — the guard is defensive).
    """
    dfg = DFG(name, behavior=base.behavior)
    for nid in base.inputs:
        dfg.add_input(nid, width=base.node(nid).width)
    counter = 0

    def fresh(prefix: str) -> str:
        nonlocal counter
        counter += 1
        return f"s{prefix}{counter}"

    memo: dict[int, Signal] = {}
    expanding: set[int] = set()

    def emit(rep: int) -> Signal:
        rep = uf.find(rep)
        if rep in memo:
            return memo[rep]
        if rep in expanding:
            raise _CycleError(str(rep))
        expanding.add(rep)
        rows = members[rep]
        _, op, a, b, width = rows[choice % len(rows)]
        if op.startswith("in:"):
            sig: Signal = (op[3:], 0)
        elif op.startswith("const:"):
            cid = fresh("c")
            dfg.add_const(cid, int(op[6:]), width=width)
            sig = (cid, 0)
        else:
            nid = fresh("n")
            dfg.add_op(nid, Operation[op], width=width)
            for port, operand in enumerate(x for x in (a, b) if x != _NONE):
                src, src_port = emit(operand)
                dfg.connect(src, src_port, nid, port)
            sig = (nid, 0)
        expanding.discard(rep)
        memo[rep] = sig
        return sig

    for out in base.outputs:
        node = base.node(out)
        (edge,) = base.in_edges(out)
        src, src_port = emit(node_ids[edge.src])
        dfg.add_output(out, width=node.width)
        dfg.connect(src, src_port, out, 0)
    dfg.inputs = list(base.inputs)
    dfg.outputs = list(base.outputs)
    return dfg


def _bit_true(base: DFG, variant: DFG, trace_len: int) -> bool:
    """Differential oracle: equal output streams on shared white noise."""
    from ..power.simulate import simulate_dfg
    from ..power.traces import white_traces

    traces = white_traces(base, n=trace_len, seed=0)
    sim_base = simulate_dfg(base, traces)
    sim_var = simulate_dfg(variant, traces)
    for out in base.outputs:
        (eb,) = base.in_edges(out)
        (ev,) = variant.in_edges(out)
        if not np.array_equal(
            sim_base.stream((), eb.signal), sim_var.stream((), ev.signal)
        ):
            return False
    return True


def saturate_dfg(
    base: DFG,
    *,
    max_variants: int = 2,
    rounds: int = 2,
    max_rows: int = 4096,
    trace_len: int = 64,
    known: set[str] | None = None,
    name_offset: int = 0,
) -> list[DFG]:
    """Saturate one flat DFG; return new verified anisomorphic variants.

    *known* carries the canonical fingerprints of already-registered
    implementations (the base's own fingerprint is always excluded);
    extraction skips anything whose fingerprint is present, so repeated
    saturation never re-derives a registered variant.  *name_offset*
    shifts the ``__sat<k>`` suffix past names earlier passes took.
    """
    seen = set(known or ())
    seen.add(canonical_fingerprint(base))
    conn = _connect()
    try:
        node_ids = _encode(conn, base)
        if node_ids is None:
            return []
        uf = _UnionFind()
        for (eid,) in conn.execute("SELECT id FROM expr ORDER BY id"):
            uf.add(eid)
        for _ in range(rounds):
            changed = _saturate_round(conn, uf)
            (n_rows,) = conn.execute("SELECT COUNT(*) FROM expr").fetchone()
            if not changed or n_rows > max_rows:
                break
        members = _class_members(conn, uf)
    finally:
        conn.close()

    variants: list[DFG] = []
    n_choices = max((len(rows) for rows in members.values()), default=1)
    for choice in range(1, 4 * n_choices):
        if len(variants) >= max_variants:
            break
        name = f"{base.name}__sat{name_offset + len(variants) + 1}"
        try:
            candidate = _extract(base, name, members, uf, node_ids, choice)
        except _CycleError:
            continue
        fp = canonical_fingerprint(candidate)
        if fp in seen:
            continue
        # The rules are exact, so the oracle is a defensive gate: a
        # variant it rejects is dropped, never registered.
        if not _bit_true(base, candidate, trace_len):
            continue
        seen.add(fp)
        variants.append(candidate)
    return variants


def saturate_design(
    design: Design,
    *,
    max_variants: int = 2,
    rounds: int = 2,
    max_rows: int = 4096,
    trace_len: int = 64,
) -> int:
    """Grow every non-top behavior's variant pool; return the new count.

    The default (first-registered) variant of each flat behavior seeds
    saturation; discovered variants register under
    ``<variant>__sat<k>`` names with the *same behavior*, which is all
    move A needs — the complex-library builder characterizes every
    variant of a behavior, and the improvement loop prices them against
    each other.  The top behavior is skipped: move A only ever swaps
    module instances, never the design under synthesis.
    """
    try:
        top_behavior: str | None = design.top.behavior
    except DFGError:
        top_behavior = None
    added = 0
    for behavior in design.behaviors():
        if behavior == top_behavior:
            continue
        existing = design.variants(behavior)
        base = existing[0]
        known = {canonical_fingerprint(v) for v in existing}
        prefix = f"{base.name}__sat"
        taken = sum(1 for v in existing if v.name.startswith(prefix))
        for variant in saturate_dfg(
            base,
            max_variants=max_variants,
            rounds=rounds,
            max_rows=max_rows,
            trace_len=trace_len,
            known=known,
            name_offset=taken,
        ):
            design.add_dfg(variant)
            added += 1
    return added
