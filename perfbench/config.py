"""Fixed workload parameters of the benchmark.

Every number here is part of the benchmark's definition: changing one
changes what is measured, so it happens only in a change that redefines
the benchmark (and re-measures its baseline), never in one that claims a
gain.  Offered rates are absolute values, never a multiple of a measured
capacity, so the offered load is the same on every commit.
"""

#: Thread pins applied to every process the benchmark starts (the offline
#: child, the build processes, ``repro serve``, ``repro cluster`` and the shards
#: it spawns, which inherit the environment) and to the generator itself.
#: Multi-threaded OpenBLAS on a shared 2-vCPU VM made GEMM time swing 10x
#: between fresh processes; one thread keeps it steady.
THREAD_PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: Data: the Sift surrogate (clustered Gaussian, 128-d), drawn from the seed.
DATASET = "Sift"
NUM_POINTS = 20_000
K = 10
LEAF_SIZE = 100
TREE_SEED = 0

#: Each phase gets a share of ``--seconds``, turned into a fixed amount of
#: work through the sizing rates below (work, not wall time, is fixed, so
#: every run of one seed answers exactly the same queries).  The sizing
#: rates are the throughputs measured on a 2-vCPU VM; they only size the
#: phases.  Phases are interleaved over ``rounds``; set-up is repeated
#: ``setups`` times.
OFFLINE = {
    "setups": 5,
    "rounds": 16,
    "block": 256,
    # queries per second used only to size each phase from --seconds
    "exact_rate": 350.0,
    "fast_rate": 3400.0,
    "single_rate": 285.0,
    "exact_share": 0.40,
    "fast_share": 0.20,
    "single_share": 0.25,
    "warm_queries": 8,
}

#: ``repro serve`` flags, spelled out so the traced launcher matches them.
#: These are the CLI's defaults.
SERVE_FLAGS = {
    "max_batch": 64,
    "max_wait_ms": 2.0,
    "queue_depth": 1024,
    "timeout_ms": 10_000.0,
}

SERVE = {
    "setups": 5,
    "rounds": 16,
    # Open loop at one absolute offered rate (queries/s), about a fifth of
    # the closed-loop capacity at the slower host speed seen (about 200 q/s),
    # so the server is mostly idle and p50 measures service, not queueing.
    "nominal_rate": 40.0,
    "nominal_share": 0.50,
    # closed-loop phases over nproc connections (sizing rates)
    "exact_requests_per_s": 175.0,
    "fast_requests_per_s": 210.0,
    "closed_share": 0.20,
    "rtt_probes": 200,
}

CLUSTER = {
    "setups": 3,
    "rounds": 16,
    "num_shards": 2,
    "strategy": "round_robin",
    "rebuild_threshold": 0.05,
    # main phase: one connection of routed reads, one of /update batches
    # (one writer, so at most one update is in flight); reads at about a
    # fifth of the closed-loop capacity at the slower host speed seen
    "read_rate": 20.0,
    "write_rate": 5.5,
    "main_share": 0.50,
    "min_writes": 100,
    "inserts_per_write": 8,
    "deletes_per_write": 8,
    # a read slower than this waited out a shard rebuild
    "stall_ms": 100.0,
    # closed-loop phases over the two connections (sizing rates)
    "exact_requests_per_s": 68.0,
    "fast_requests_per_s": 87.0,
    "closed_share": 0.25,
    "probe_queries": 60,
}
