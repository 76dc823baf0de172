"""The benchmark's workloads, and which end-to-end metric each per-layer
metric is expected to move, on which workload.

Every workload is one `run_pipeline` configuration.  None of their spaces
depends on the benchmark seed: `circle` takes no seed, and `cascade` pins
`random_circle` to seed 0 (see its `why`), so every seed must reproduce the
digests recorded in digests.json.
"""

from __future__ import annotations

WORKLOADS = {
    "flagship": {
        "why": "the paper's circle configuration (r=1/8, depth 4, 2 colors) "
               "at n=192; time splits between tree_delta and char_seq on "
               "singleton families",
        # The paper's n=512 takes about 30 s an operation, too long for a run
        # to hold several; at n=192 the traced split keeps its order,
        # tree_delta > separate > build_base.
        "config": {"generator": "circle", "params": {"n": 192}, "r": 0.125,
                   "depth": 4, "colors": 2, "tree_delta_check": True},
    },
    "cascade": {
        "why": "the only workload with every level really built, so "
               "star_merge, erosion, drops and the non-singleton _depths "
               "and _pair_margins paths do work",
        # Seed 0 builds 36/100/115 members in color 0 and drops one.  Whether
        # the deepest level is built depends on the sample's smallest gap:
        # seed 1 makes it all singletons and runs about half as long, so a
        # seeded space would spread the runs of different seeds far beyond
        # the metric bounds.
        "config": {"generator": "random_circle", "params": {"n": 160, "seed": 0},
                   "r": 0.125, "depth": 3, "colors": 2,
                   "tree_delta_check": True},
    },
    "long_ray": {
        "why": "many radial levels over a small base: N=961 grid points and "
               "461k certified pairs, so the O(N^2) pair matrices dominate "
               "and tree_delta is off",
        "config": {"generator": "circle", "params": {"n": 80}, "r": 0.125,
                   "depth": 12, "colors": 2, "tree_delta_check": False},
    },
}

ALL = tuple(WORKLOADS)

# per-layer metric -> (end-to-end metrics it should move, workloads where it
# should move them).  Workloads left out are predicted not to change.
PREDICTIONS = {
    "metric_core.generate_s": (("setup_s",), ALL),
    "char_seq.build_base_s": (("pipeline_s",), ("flagship", "cascade")),
    "char_seq.verify_base_s": (("pipeline_s",), ("flagship", "cascade")),
    "char_seq.separate_s": (("pipeline_s",), ("flagship", "cascade")),
    "char_seq.verify_char_seq_s": (("pipeline_s",), ("flagship", "cascade")),
    "verify.verify_char_seq_s": (("verify_s",), ("flagship", "cascade")),
    "coverings.lebesgue_s": (("pipeline_s", "verify_s"), ("flagship", "cascade")),
    "hyp_cone.cone_matrix_s": (("pipeline_s", "peak_rss_mb"), ("long_ray",)),
    "tree_embed.tree_pairs_s": (("pipeline_s", "verify_s", "peak_rss_mb"), ("long_ray",)),
    "tree_embed.product_matrix_s": (("pipeline_s", "verify_s", "peak_rss_mb"), ("long_ray",)),
    "qi_verify.tree_delta_s": (("pipeline_s",), ("flagship", "cascade")),
    "qi_verify.fit_qi_s": (("pipeline_s", "verify_s"), ("long_ray",)),
    "harness.pair_extract_s": (("pipeline_s", "peak_rss_mb"), ("long_ray",)),
    "io.write_bundle_s": (("pipeline_s",), ALL),
    "io.read_bundle_s": (("verify_s",), ALL),
}
