"""Peak memory of the driver and the Ray processes it started, read from
/proc (Linux)."""

from __future__ import annotations

import ctypes
import os
import signal
import threading
import time

RSS_PERIOD_S = 0.5
_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


def _read(path: str) -> str | None:
    try:
        with open(path, "rb") as f:
            return f.read().decode(errors="replace")
    except OSError:
        return None  # the process exited


def _stat_fields(pid: int) -> list[str] | None:
    """Fields of /proc/<pid>/stat after the command name (field 3 on)."""
    stat = _read(f"/proc/{pid}/stat")
    return stat.rsplit(")", 1)[1].split() if stat else None


def _cpu_s(pids: list[int]) -> float:
    """User + system CPU seconds the live `pids` have used so far."""
    ticks = 0
    for pid in pids:
        fields = _stat_fields(pid)
        if fields:
            ticks += int(fields[11]) + int(fields[12])
    return ticks * _TICK_S


def _hwm_kb(pid: int) -> int:
    status = _read(f"/proc/{pid}/status") or ""
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return 0


class Descendants:
    """The live descendants of this process.  Every pid is classified once,
    so a call reads only the new pids' files."""

    def __init__(self):
        self.me = os.getpid()
        self.seen: dict[int, bool] = {self.me: True}

    def __call__(self) -> list[int]:
        pids = sorted(int(e) for e in os.listdir("/proc") if e.isdigit())
        for pid in pids:
            if pid not in self.seen:
                fields = _stat_fields(pid)
                self.seen[pid] = bool(fields) and self.seen.get(int(fields[1]), False)
        return [p for p in pids if self.seen[p] and p != self.me]


PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> None:
    """Make this process the parent of its orphaned descendants, instead of
    PID 1, so that `stop_descendants` still finds the processes Ray leaves
    behind once their own parents have exited."""
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


def _tree() -> dict[int, str]:
    """State letter of every descendant of this process, zombies included."""
    me = os.getpid()
    parent, state = {}, {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields:
                state[int(entry)], parent[int(entry)] = fields[0], int(fields[1])

    def mine(pid: int) -> bool:
        seen = set()
        while pid in parent and pid not in seen:
            seen.add(pid)
            pid = parent[pid]
            if pid == me:
                return True
        return False

    return {pid: s for pid, s in state.items() if pid != me and mine(pid)}


def _reap() -> None:
    """Collect the exit status of every child that has ended."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def stop_descendants(grace_s: float = 2.0, limit_s: float = 8.0) -> list[int]:
    """Stop every descendant of this process and reap it: SIGTERM first,
    SIGKILL after `grace_s`.  Returns the pids found alive.  Call it after
    `become_subreaper`, so that orphans are still descendants, and only
    once the children it waits for explicitly have been waited for."""
    found: set[int] = set()
    t0 = time.perf_counter()
    while True:
        _reap()
        tree = _tree()
        if not tree or time.perf_counter() - t0 > limit_s:
            return sorted(found)
        live = [pid for pid, s in tree.items() if s != "Z"]
        found.update(live)
        sig = signal.SIGTERM if time.perf_counter() - t0 < grace_s else signal.SIGKILL
        for pid in live:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        time.sleep(0.05)


class RssSampler(threading.Thread):
    """Peak over samples of the summed peak RSS (VmHWM) of this driver and
    the live Ray worker processes (``ray::`` command lines) it started."""

    def __init__(self):
        super().__init__(daemon=True)
        self.stop_event = threading.Event()
        self.peak_kb = 0
        self.descendants = Descendants()

    def sample(self) -> None:
        total = _hwm_kb(self.descendants.me)
        for pid in self.descendants():
            if (_read(f"/proc/{pid}/cmdline") or "").startswith("ray::"):
                total += _hwm_kb(pid)
        self.peak_kb = max(self.peak_kb, total)

    def run(self) -> None:
        while not self.stop_event.is_set():
            self.sample()
            self.stop_event.wait(RSS_PERIOD_S)

    def stop(self) -> float:
        self.stop_event.set()
        self.join()
        self.sample()
        return self.peak_kb / 1024.0


class Quiesce:
    """Waits until the processes this driver started are idle: less than
    `busy_cores` of CPU over a `window_s` window, for at most `limit_s`.
    Called before a timed phase, so work left over from the previous one
    (shuffle actors being torn down, workers being restarted) is not timed
    in whichever phase happens to overlap it.  Returns the seconds waited."""

    def __init__(self, window_s: float = 0.1, busy_cores: float = 0.3, limit_s: float = 5.0):
        self.window_s, self.busy_cores, self.limit_s = window_s, busy_cores, limit_s
        self.descendants = Descendants()

    def __call__(self) -> float:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < self.limit_s:
            pids = self.descendants()
            before = _cpu_s(pids)
            time.sleep(self.window_s)
            if _cpu_s(pids) - before < self.busy_cores * self.window_s:
                break
        return time.perf_counter() - t0
