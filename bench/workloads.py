"""The benchmark's three workloads: fixed fblrelay CLI command sets.

Each command is the argument list after ``fblrelay``; the benchmark
appends ``--seed N`` and nothing else.  ``workers`` is the ``--workers``
value the commands pass, used to normalise thread busy time.
``calibrate`` says whether wall_s and warm_s are in calibrated seconds
(run.Clock).  It is set where the samples are short single-threaded
work, which the calibration kernel tracks: quad_study's commands take
under a second each.  The multi-second, two-thread samples of the other
workloads spread less raw than calibrated, so they stay raw.
"""

# ROADMAP item 2: rate selection returns 0 on this scenario and the
# quadrature engine raises non-convergence (exit 3) at the seed commit.
# Kept exactly as written so the defect shows; it counts as a failed op.
ITEM2_REPRO = ("sweep", "--variable", "eta", "--grid", "0.01", "0.6931", "5",
               "--pathloss-model", "fixed_gains",
               "--g1", "1e-13", "--g2", "1e-12", "--g3", "1e-12")

WORKLOADS = {
    "quad_study": {
        "workers": 1,
        "calibrate": True,
        "commands": [
            ("sweep", "--variable", "coding_rate", "--grid", "0.5", "7.0", "50",
             "--schemes", "relay_avg", "--metrics", "bl_throughput,msdr"),
            ("sweep", "--variable", "eta", "--grid", "0.01", "0.6931", "100",
             "--schemes", "relay_avg", "--metrics", "bl_throughput,msdr"),
            ("sweep", "--variable", "eta", "--grid", "0.01", "0.6931", "100",
             "--schemes", "relay_avg", "--metrics", "coding_rate,expected_error"),
            ("sweep", "--variable", "blocklength", "--grid-list",
             "100,200,300,500,700,1000,1500,2000,5000,20000,100000",
             "--schemes", "relay_avg,direct_matched",
             "--metrics", "bl_throughput,msdr"),
            ("compare", "--pair", "relay_vs_direct"),
            ("compare", "--pair", "fbl_vs_outage"),
            ("optimize",),
            ("optimize", "--objective", "msdr", "--qos-d", "1000",
             "--qos-p-d", "0.01"),
            ITEM2_REPRO,
        ],
    },
    "perfect_csi": {
        "workers": 2,
        "calibrate": False,
        "commands": [
            ("sweep", "--variable", "eta", "--grid", "0.05", "0.6931", "6",
             "--schemes", "relay_avg,relay_perfect", "--metrics", "bl_throughput",
             "--mc-samples", "200000", "--workers", "2"),
            ("compare", "--pair", "avg_vs_perfect", "--mc-samples", "100000",
             "--workers", "2"),
        ],
    },
    "mc_validate": {
        "workers": 2,
        "calibrate": False,
        "commands": [
            ("validate", "--points", "8", "--mc-samples", "1000000",
             "--workers", "2"),
        ],
    },
}


def argv(command, seed):
    """Full CLI argument list of one command at one seed."""
    return list(command) + ["--seed", str(seed)]
