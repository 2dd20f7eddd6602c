"""Hand-summed reference form of the analytic efficiency accounting.

`stsg.metrics.count_params_flops` reads every layer's shape off
`stsg.params.model_shapes`. This is the same count written out layer by
layer, with each shape repeated by hand; the tests compare the two.
"""

from __future__ import annotations

from stsg.config import Dims
from stsg.metrics import EfficiencyReport


def linear_cost(a: int, b: int, bias: bool = True) -> tuple[int, int]:
    """(parameters, flops per application) for a dense a -> b layer."""
    return a * b + (b if bias else 0), 2 * a * b


def reference_params_flops(dims: Dims, n: int, variant: str = "sparse", k: int = 1,
                           gcn_layers: int = 2) -> EfficiencyReport:
    """Analytic counts; multiply-add pairs cost 2 FLOPs, only dense layers and
    the relevance dots are counted. The first layer on a pair's concatenated
    rows runs per node. Parameters do not depend on the variant."""
    m, g, h, d = dims.m, dims.g, dims.h, dims.d
    hidden = m
    params = 0
    flops = 0
    breakdown = {}

    p1, f1 = linear_cost(2 * m, hidden)
    p2, f2 = linear_cost(hidden, h)
    params += p1 + p2
    prop_flops = n * f1 + n * n * f2   # the first layer runs per node
    flops += prop_flops
    breakdown["proposal"] = prop_flops

    gcn_flops = 0
    for _ in range(gcn_layers):
        pn, fn = linear_cost(m, m)
        pe, fe = linear_cost(h, m, bias=False)
        params += pn + pe
        gcn_flops += n * fn + n * fe   # edge features aggregate before the transform
    flops += gcn_flops
    breakdown["gcn"] = gcn_flops

    pp, fp = linear_cost(m, d, bias=False)
    params += pp
    temporal_on = variant != "spatial"
    proj_flops = n * fp if temporal_on else 0
    dot_flops = n * n * 2 * d if temporal_on else 0
    flops += proj_flops + dot_flops
    breakdown["relevance"] = proj_flops + dot_flops

    pg1, fg1 = linear_cost(2 * m, hidden)
    pg2, fg2 = linear_cost(hidden, m)
    pt1, ft1 = linear_cost(2 * m, hidden)
    pt2, ft2 = linear_cost(hidden, m)
    params += pg1 + pg2 + pt1 + pt2
    if variant == "dense":
        links = n * n
    elif variant == "sparse":
        links = n * min(k, n)
    elif variant == "tracking":
        links = n
    else:
        links = 0
    link_flops = (n if links else 0) * fg1 + links * (fg2 + ft1 + ft2)
    flops += link_flops
    breakdown["temporal_encoding"] = link_flops

    pr, fr = linear_cost(2 * m, h)
    params += pr
    rel_flops = n * fr
    flops += rel_flops
    breakdown["relation_head"] = rel_flops

    pl, fl = linear_cost(m, g)
    params += pl
    label_flops = n * fl
    flops += label_flops
    breakdown["label_head"] = label_flops

    return EfficiencyReport(parameter_count=params, flops_per_frame=flops,
                            n_objects=n, variant=variant, k=k, breakdown=breakdown)
