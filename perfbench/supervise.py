"""Run one workload in a child interpreter and outlive everything it starts.

A workload starts processes that are not its to wait for: the first
``multiprocessing.shared_memory`` segment spawns Python's resource
tracker, which only exits once its parent has gone and so is still there
(running, then a zombie under init) when the command returns. The
supervisor therefore makes itself the *child subreaper* of its process
tree: every descendant the workload leaves behind is re-parented to it,
and it returns only after ``waitpid`` has collected the last one. What
does not end by itself within ``GRACE_S`` is killed and the run fails.
"""

from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import sys
import time

PR_SET_CHILD_SUBREAPER = 36
#: How long leftovers get to end by themselves once the workload has
#: exited (the resource tracker takes a few milliseconds).
GRACE_S = 10.0
#: Exit code of a run whose leftovers had to be killed.
EXIT_LEFTOVERS = 3


def become_subreaper() -> None:
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")


def children() -> list[int]:
    """Pids whose parent is this process (zombies included)."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as fh:
                # "pid (comm) state ppid ..."; comm may hold spaces and ")".
                ppid = int(fh.read().rpartition(")")[2].split()[1])
        except (OSError, ValueError, IndexError):
            continue  # ended while we looked
        if ppid == me:
            found.append(int(entry))
    return found


def reap(grace_s: float) -> int:
    """Collect every descendant; how many of them had to be killed.

    Killing a child hands its own children to this process, so the loop
    keeps killing until ``waitpid`` says there is no one left.
    """
    deadline = time.monotonic() + grace_s
    killed = set()
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return len(killed)
        if pid:
            continue
        if time.monotonic() >= deadline:
            for child in children():
                try:
                    os.kill(child, signal.SIGKILL)
                    killed.add(child)
                except ProcessLookupError:
                    pass
        time.sleep(0.005)


def _terminated(signum, _frame):
    raise SystemExit(128 + signum)


def supervise(command: list[str], timeout_s: float) -> int:
    """Run ``command`` (stdout and stderr inherited); its exit code, or a
    non-zero one if it timed out or left processes that had to be killed."""
    become_subreaper()
    for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(signum, _terminated)
    grace_s = 0.0  # on any abnormal way out, kill at once
    try:
        child = subprocess.Popen(command)
        try:
            code = child.wait(timeout=timeout_s)
            grace_s = GRACE_S
        except subprocess.TimeoutExpired:
            print(f"no result after {timeout_s:.0f} s, killing", file=sys.stderr)
            code = 1
    finally:
        killed = reap(grace_s)
    if killed and grace_s:
        print(f"killed {killed} process(es) the run left behind", file=sys.stderr)
        return code or EXIT_LEFTOVERS
    return code
