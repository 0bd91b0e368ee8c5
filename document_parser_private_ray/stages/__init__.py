"""Ray Data stages for the parse chain, and the one execution rule every
scan -> CPU-bound map chain shares (``lift_reservation``)."""


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
