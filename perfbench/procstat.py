"""CPU time and memory of a process tree, read from ``/proc``.

The tree is the benchmark process (the Ray driver) and everything it started: with a
local ``ray.init`` that is the GCS, the raylet and every Ray worker.
The raylet does not collect its exited workers' CPU time into its own
``cutime``, so CPU is summed per process from samples taken every
``interval_s``: a process that exits between two samples loses at most
that interval's CPU (Ray actors exit idle, after their last task).
Memory is the summed PSS (``/proc/<pid>/smaps_rollup``), so a page that
several processes share (libraries, the object store mapping) counts
once in the total rather than once per process.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict, List, Set, Tuple

CLK_TCK = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> List[str]:
    with open(f"/proc/{pid}/stat") as f:
        data = f.read()
    # fields after the parenthesised command name (which may hold spaces)
    return data[data.rindex(")") + 2 :].split()


def _all_parents() -> Dict[int, Tuple[int, List[str]]]:
    out = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            fields = _stat_fields(int(name))
        except (FileNotFoundError, ProcessLookupError, ValueError):
            continue
        out[int(name)] = (int(fields[1]), fields)
    return out


def tree(root: int) -> Dict[int, List[str]]:
    """pid -> stat fields for ``root`` and all its descendants."""
    procs = _all_parents()
    children: Dict[int, List[int]] = {}
    for pid, (ppid, _) in procs.items():
        children.setdefault(ppid, []).append(pid)
    out, todo = {}, [root]
    while todo:
        pid = todo.pop()
        if pid in procs:
            out[pid] = procs[pid][1]
            todo.extend(children.get(pid, ()))
    return out


def pss_bytes(pid: int) -> int:
    """Proportional set size: each shared page split over its mappers."""
    try:
        with open(f"/proc/{pid}/smaps_rollup") as f:
            for line in f:
                if line.startswith("Pss:"):
                    return int(line.split()[1]) * 1024
    except (FileNotFoundError, ProcessLookupError, PermissionError):
        pass
    return 0


def process_age_s() -> float:
    """Seconds since this process started."""
    start_ticks = int(_stat_fields(os.getpid())[19])
    with open("/proc/uptime") as f:
        uptime = float(f.read().split()[0])
    return uptime - start_ticks / CLK_TCK


def descendants(root: int) -> Set[Tuple[int, str]]:
    """(pid, start time) of every descendant, so a reused pid is not
    mistaken for the original process."""
    return {(pid, f[19]) for pid, f in tree(root).items() if pid != root}


def alive(procs: Set[Tuple[int, str]]) -> Set[Tuple[int, str]]:
    out = set()
    for pid, start in procs:
        try:
            fields = _stat_fields(pid)
        except (FileNotFoundError, ProcessLookupError):
            continue
        if fields[19] == start and fields[0] != "Z":
            out.add((pid, start))
    return out


class TreeSampler:
    """Samples the tree on a background thread between ``start`` and
    ``stop``: ``peak_pss`` is the largest summed PSS seen and
    ``cpu_s`` the CPU time (utime + stime) every process spent in the
    interval, less the sampling's own CPU (reading ``smaps_rollup``
    costs about a millisecond per process)."""

    def __init__(self, root: int, interval_s: float = 0.2):
        self.root = root
        self.interval_s = interval_s
        self.peak_pss = 0
        self.cpu_s = 0.0
        self._own_cpu_s = 0.0
        self._first: Dict[Tuple[int, str], int] = {}
        self._last: Dict[Tuple[int, str], int] = {}
        self._started = False
        self._stop = threading.Event()
        self._thread = None

    def _sample(self) -> None:
        t = time.thread_time()
        pss = 0
        for pid, f in tree(self.root).items():
            key = (pid, f[19])
            ticks = int(f[11]) + int(f[12])
            self._first.setdefault(key, ticks if not self._started else 0)
            self._last[key] = ticks
            pss += pss_bytes(pid)
        self.peak_pss = max(self.peak_pss, pss)
        self._own_cpu_s += time.thread_time() - t

    def _run(self):
        while not self._stop.wait(self.interval_s):
            self._sample()

    def start(self) -> "TreeSampler":
        self._sample()  # processes alive now count from their current CPU
        self._own_cpu_s = 0.0
        self._started = True
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> "TreeSampler":
        self._stop.set()
        self._thread.join(timeout=5)
        self._sample()
        ticks = sum(self._last[k] - self._first[k] for k in self._last)
        self.cpu_s = ticks / CLK_TCK - self._own_cpu_s
        return self


def wait_gone(procs: Set[Tuple[int, str]], timeout_s: float) -> Set[Tuple[int, str]]:
    """Wait until none of ``procs`` is alive; SIGKILL what is left after
    ``timeout_s`` and wait again. Returns the survivors (normally none)."""
    import signal

    deadline = time.monotonic() + timeout_s
    left = alive(procs)
    while left and time.monotonic() < deadline:
        time.sleep(0.1)
        left = alive(left)
    for pid, _ in left:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + 5
    while left and time.monotonic() < deadline:
        time.sleep(0.1)
        left = alive(left)
    return left
