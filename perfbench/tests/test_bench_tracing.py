import numpy as np
import pytest

import tracing
import workloads


def span(name, layer, start, end, parent, attrs=None):
    return [name, layer, start, end, parent, 0, attrs]


def synthetic_tree():
    # root [0, 10] with children a [1, 4] and b [5, 9]; b has two overlapping
    # children [6, 7.5] and [7, 8], which together cover [6, 8].
    return [
        span(tracing.ROOT, "bench", 0.0, 10.0, None),
        span("linalg.DensityOp", "linalg", 1.0, 4.0, 0, {"bytes": 16 * 4}),
        span("channels.petz_channel", "channels", 5.0, 9.0, 0),
        span("linalg.DensityOp", "linalg", 6.0, 7.5, 2, {"bytes": 16 * 9}),
        span("linalg.partial_trace", "linalg", 7.0, 8.0, 2),
    ]


def test_covered_is_the_length_of_the_union():
    assert tracing.covered([]) == 0.0
    assert tracing.covered([(0, 1), (0.5, 2), (3, 4), (3.5, 3.7)]) == pytest.approx(3.0)


def test_self_times_subtract_the_union_of_children():
    assert tracing.self_times(synthetic_tree()) == pytest.approx([3.0, 3.0, 2.0, 1.5, 1.0])


def test_self_times_of_disjoint_tree_sum_to_root_duration():
    tree = [span(tracing.ROOT, "bench", 0.0, 10.0, None),
            span("a.f", "a", 1.0, 4.0, 0), span("b.g", "b", 5.0, 9.0, 0),
            span("b.h", "b", 6.0, 7.0, 2)]
    selfs = tracing.self_times(tree)
    assert selfs == pytest.approx([3.0, 3.0, 3.0, 1.0])
    assert sum(selfs) == pytest.approx(10.0)


def test_children_are_clipped_to_their_parent():
    tree = [span(tracing.ROOT, "bench", 0.0, 2.0, None), span("a.f", "a", 1.0, 5.0, 0)]
    assert tracing.self_times(tree)[0] == pytest.approx(1.0)


def test_query_metrics_group_by_layer_and_name():
    m = tracing.query_metrics(synthetic_tree())
    assert m["query_s"] == 10.0
    assert m["linalg.self_s"] == pytest.approx(3.0 + 1.5 + 1.0)
    assert m["linalg.calls"] == 3
    assert m["linalg.DensityOp.calls"] == 2
    assert m["linalg.DensityOp.bytes"] == 16 * 13
    assert m["channels.petz_channel.self_s"] == pytest.approx(2.0)
    assert m["self_sum_s"] == pytest.approx(3.0 + 3.0 + 2.0 + 1.5 + 1.0)


def test_query_spans_rebase_parents():
    spans = [span("x.f", "x", 0, 1, None)] + synthetic_tree()
    for s in spans[1:]:
        if s[tracing.PARENT] is not None:
            s[tracing.PARENT] += 1
    assert tracing.query_spans(spans, 1) == synthetic_tree()


def test_layer_shares_pool_self_time_over_query_time():
    per_query = [{"linalg.self_s": 1.0, "query_s": 2.0},
                 {"linalg.self_s": 2.0, "entropy.self_s": 1.0, "query_s": 4.0}]
    shares = tracing.layer_shares(per_query)
    assert shares["linalg"] == pytest.approx(0.5)
    assert shares["entropy"] == pytest.approx(1 / 6)
    assert set(shares) == set(tracing.LAYERS)


def test_summarize_pools_the_spectral_fraction():
    per_query = [{"markov.markov_cost_algorithm.calls": 1,
                  "markov.markov_cost_algorithm.applied": 1, "linalg.self_s": 1.0},
                 {"markov.markov_cost_algorithm.calls": 1, "linalg.self_s": 3.0},
                 {"linalg.self_s": 2.0}]
    out = tracing.summarize(per_query)
    assert out["markov.spectral_applied_frac"] == 0.5
    assert out["linalg.self_s"] == 2.0
    assert out["protocol.self_s"] == 0.0
    assert set(out) == set(tracing.LAYER_METRICS + tracing.FUNCTION_METRICS)


def test_install_traces_every_layer_binding_and_uninstall_restores():
    import qmarkov
    from qmarkov import channels, kidec, linalg, markov

    originals = (markov.bounds_check, qmarkov.bounds_check,
                 kidec._commutant_of_family, linalg.DensityOp.__init__)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert kidec._commutant_of_family is channels._commutant_of_family
        assert kidec._commutant_of_family is not originals[2]
        assert qmarkov.DensityOp is linalg.DensityOp
        psi = qmarkov.PureVec(qmarkov.SystemLayout([("A", 3), ("B", 3), ("C", 2)]),
                              workloads.vib_vector(0.3))
        start = tracer.begin_query(7)
        report = qmarkov.bounds_check(psi)
        tracer.end_query()
    finally:
        tracer.uninstall()
    assert (markov.bounds_check, qmarkov.bounds_check,
            kidec._commutant_of_family, linalg.DensityOp.__init__) == originals
    assert isinstance(report.m_formula, float)
    spans = tracing.query_spans(tracer.spans, start)
    names = {s[tracing.NAME] for s in spans}
    assert {"markov.bounds_check", "kidec.ki_tripartite", "channels._commutant_of_family",
            "linalg.DensityOp", "linalg.PureVec.density", "entropy.qcmi"} <= names
    assert all(s[tracing.QUERY] == 7 for s in spans)
    m = tracing.query_metrics(spans)
    assert m["self_sum_s"] == pytest.approx(m["query_s"], rel=1e-9, abs=1e-9)
    assert m["channels._commutant_of_family.peak_mb"] > 0
    assert m["markov.markov_cost_algorithm.applied"] == 1
