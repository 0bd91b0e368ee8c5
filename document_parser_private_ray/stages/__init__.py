"""Ray Data stages for the parse chain, and the two execution rules every
chain shares: ``lift_reservation`` (a scan feeding a CPU-bound map) and
``width`` (how many blocks a table read makes and how many buckets an
exchange makes)."""

# blocks and buckets per cluster CPU of every exchange and every table
# read, the spans read included (there each block is one fused
# read->parse->write task over a balanced row range of the corpus,
# PERF_pr18_bench_pairs.json): of 1, 2 and 4 per CPU, 1 gave the lowest
# total wall on the 120 contract queries that reach an exchange, at
# sf0.01 and sf0.1 (PERF_pr13_width_sweep.json)
EXCHANGE_PER_CPU = 1


def width() -> int:
    """The one exchange width: ``EXCHANGE_PER_CPU`` x cluster CPUs.

    Read on the driver when a plan is built: the bucket count of every
    exchange (``exchange.co_partition`` and the layers on it) and the
    block count of every table read (``sources.readers.read_table``,
    which ``resume.read_corpus`` reads the spans corpus through). Starts
    a local Ray session if none is running, as a read would on its own."""
    import ray

    if not ray.is_initialized():
        ray.init()
    return EXCHANGE_PER_CPU * int(ray.cluster_resources().get("CPU", 1))


def lift_reservation(ds):
    """``ds`` with Ray Data's per-operator resource reservation turned
    off on its own context (a copy; the caller's ``DataContext`` is
    untouched). Returns ``ds``.

    For a chain that is one cheap scan feeding one CPU-bound map. The
    reservation splits the CPUs between the two for as long as the scan
    streams its blocks out, so the map ramps up from one task and every
    job's wall hinges on when the scan's last block is taken. With it
    off the map takes every free CPU as soon as it has a block, and the
    global object-store limit still bounds memory."""
    ds.context.op_resource_reservation_enabled = False
    return ds
