"""Unit tests for hierarchy derivation from flat DFGs (subproblem (i))."""

import numpy as np
import pytest

from repro.bench_suite import get_benchmark
from repro.dfg import (
    Design,
    clusters_isomorphic,
    convex_clusters,
    flatten,
    hierarchize,
    validate_design,
)
from repro.power import simulate_dfg, simulate_subgraph, white_traces


class TestConvexClusters:
    def test_every_operation_covered_once(self, flat_dfg):
        clusters = convex_clusters(flat_dfg, max_cluster_size=4)
        covered = [n for cluster in clusters for n in cluster]
        expected = sorted(n.node_id for n in flat_dfg.op_nodes())
        assert sorted(covered) == expected

    def test_size_bound_respected(self):
        flat = flatten(get_benchmark("lat"))
        for cluster in convex_clusters(flat, max_cluster_size=4):
            assert len(cluster) <= 4

    def test_convexity(self):
        """No path may leave a cluster and re-enter it."""
        from repro.dfg.partition import _is_convex, _op_graph

        flat = flatten(get_benchmark("iir"))
        graph = _op_graph(flat)
        for cluster in convex_clusters(flat, max_cluster_size=6):
            assert _is_convex(graph, set(cluster))

    def test_rejects_hierarchical_input(self, butterfly_design):
        from repro.errors import DFGError

        with pytest.raises(DFGError, match="flat"):
            convex_clusters(butterfly_design.top)


class TestIsomorphismFolding:
    def test_identical_stage_bodies_fold(self):
        """lat's four identical stages collapse onto shared behaviors."""
        flat = flatten(get_benchmark("lat"))
        design = hierarchize(flat, max_cluster_size=4)
        top_hier = design.top.hier_nodes()
        assert top_hier  # clustering found blocks
        behaviors = {n.behavior for n in top_hier}
        # Folding must find at least one repeated behavior.
        assert len(behaviors) < len(top_hier)

    def test_isomorphism_is_port_exact(self):
        from repro.dfg import GraphBuilder

        def body(swap: bool):
            b = GraphBuilder("c")
            x, y = b.inputs("in0", "in1")
            if swap:
                b.output("out0", b.sub(y, x))
            else:
                b.output("out0", b.sub(x, y))
            return b.build()

        assert clusters_isomorphic(body(False), body(False))
        # sub(y, x) differs from sub(x, y): port-exact matching refuses.
        assert not clusters_isomorphic(body(False), body(True))


class TestHierarchize:
    @pytest.mark.parametrize("bench_name", ["lat", "iir", "paulin", "test1"])
    def test_roundtrip_simulation(self, bench_name):
        """Flatten(hierarchize(flat)) is functionally identical to flat."""
        flat = flatten(get_benchmark(bench_name))
        design = hierarchize(flat, max_cluster_size=6)
        validate_design(design)

        reflat = flatten(design)
        traces = white_traces(flat, n=24, seed=4)
        sim_orig = simulate_dfg(flat, traces)
        wrapper = Design("w")
        wrapper.add_dfg(reflat, top=True)
        sim_hier = simulate_dfg(reflat, traces)
        for out in flat.outputs:
            sig_o = flat.in_edges(out)[0].signal
            sig_h = reflat.in_edges(out)[0].signal
            np.testing.assert_array_equal(
                sim_orig.stream((), sig_o), sim_hier.stream((), sig_h)
            )

    def test_interface_preserved(self):
        flat = flatten(get_benchmark("lat"))
        design = hierarchize(flat)
        assert design.top.inputs == flat.inputs
        assert design.top.outputs == flat.outputs

    def test_small_clusters_stay_flat(self, flat_dfg):
        design = hierarchize(flat_dfg, max_cluster_size=8, min_cluster_size=10)
        assert design.top.hier_nodes() == []
        assert len(design.top.op_nodes()) == len(flat_dfg.op_nodes())

    def test_derived_design_synthesizes(self):
        """The derived hierarchy feeds straight into the synthesizer."""
        from repro.synthesis import SynthesisConfig, synthesize

        flat = flatten(get_benchmark("lat"))
        design = hierarchize(flat, max_cluster_size=4)
        result = synthesize(
            design,
            laxity_factor=2.5,
            objective="area",
            config=SynthesisConfig(max_moves=4, max_passes=1, n_clocks=1),
        )
        assert result.metrics.feasible
