"""Atomic on-disk state: the resumable partition runners
(``state.checkpoint``) and the atomic exports a SQL oracle reads back
(``atomic_export``, ``exported``). This module imports no other
package module, so a chain that exports depends on nothing more."""

import os


def atomic_export(export: str, write_fn) -> str:
    """Write an oracle export to a unique per-process dir via
    ``write_fn(target_dir)``, then swap a symlink at ``export`` into
    place atomically: two concurrent runs over the same input (bench vs
    contract sweep) each read a complete export, never a half-written
    one. Returns the per-pid target (the caller reads ITS OWN complete
    copy)."""
    import glob
    import shutil

    target = f"{export}-pid{os.getpid()}"
    shutil.rmtree(target, ignore_errors=True)
    write_fn(target)
    if os.path.isdir(export) and not os.path.islink(export):
        shutil.rmtree(export, ignore_errors=True)  # pre-symlink layout
    tmp_link = f"{export}.lnk-{os.getpid()}"
    try:
        os.symlink(target, tmp_link)
        os.replace(tmp_link, export)
    except OSError:
        pass  # a concurrent run already swapped in its own complete export
    for stale in glob.glob(f"{export}-pid*"):
        if stale != target and stale != os.path.realpath(export):
            shutil.rmtree(stale, ignore_errors=True)
    return target


def exported(ds, export: str):
    """``ds`` read back from its atomic parquet export at ``export`` (the
    intermediate a SQL oracle recomputes from)."""
    import ray.data as rd

    return rd.read_parquet(atomic_export(export, ds.write_parquet))
