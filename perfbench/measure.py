"""Estimators, sample bookkeeping and process probes shared by every workload.

End-to-end timings are reduced twice: a median inside each short window
of requests, then the quiet quartile across the run's windows or
repeats. Tails and searches live in the traced layer metrics only (see
README, "Excluded on purpose").
"""

from __future__ import annotations

import math
import resource
import statistics
import time
from dataclasses import dataclass, field

now = time.perf_counter

#: ``roc_auc`` below this counts as a failed operation (0.83 measured on
#: the heterogeneous pool, 0.99 on the neighbour pool).
MIN_ROC_AUC = 0.75


def median(values) -> float:
    """Median of a non-empty sample; ``nan`` for an empty one."""
    values = list(values)
    return float(statistics.median(values)) if values else math.nan


def quiet_quartile(values, fast: str) -> float:
    """Nearest-rank quartile on the fast side: the lower one of times
    (``fast="low"``), the upper one of rates (``fast="high"``).

    Noise on a shared box is one-sided and comes in episodes: measured
    here, a vCPU loses 25-35 % of its speed for 5-20 s at a time, several
    times a minute, so the *median* of a 20 s run flips between two
    states (12-38 % spread between runs of unchanged code) while the
    fast quartile keeps reading the quiet state as long as a quarter of
    the run was quiet. A code change moves the quiet state and shows; an
    episode does not. With fewer than five samples this is the best one.
    """
    ordered = sorted(values, reverse=(fast == "high"))
    if not ordered:
        return math.nan
    return float(ordered[math.ceil(len(ordered) / 4) - 1])


def windows(done, latency_ms, rows_per_op: int, t_start: float, size: int):
    """Split operations, ordered by completion, into consecutive windows
    of ``size``; per window ``(rows per second, median latency in ms)``.

    A window's wall runs from the previous window's last completion
    (``t_start`` for the first) to its own, so the rates add up to the
    phase's rate and no time between operations goes uncounted. Fewer
    operations than ``size`` (a ``--quick`` phase) make one window.
    """
    order = sorted(range(len(done)), key=done.__getitem__)
    size = max(1, min(size, len(order)))
    out = []
    prev = t_start
    for lo in range(0, len(order) - size + 1, size):
        group = order[lo : lo + size]
        last = done[group[-1]]
        if last > prev:
            rate = size * rows_per_op / (last - prev)
            out.append((rate, median(latency_ms[i] for i in group)))
        prev = last
    return out


def self_peak_rss_mb() -> float:
    """``ru_maxrss`` of this process in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_status_mb(pid: int, field_name: str) -> float:
    """A ``/proc/<pid>/status`` memory field (``VmHWM``, ``VmRSS``) in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(field_name + ":"):
                return int(line.split()[1]) / 1024.0
    raise KeyError(f"{field_name} not in /proc/{pid}/status")


@dataclass
class Samples:
    """What one run collects before it is reduced to the six metrics.

    Every scoring call or request is an operation; ``check`` counts it
    and, when it missed (non-ok reply, exception, timeout, parity
    mismatch, failed gate), keeps the first few reasons for the report.
    """

    setup_s: list = field(default_factory=list)
    fit_s: list = field(default_factory=list)
    window_rows_per_s: list = field(default_factory=list)
    window_p50_ms: list = field(default_factory=list)
    rss_mb: list = field(default_factory=list)
    roc_auc: float = math.nan
    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(what)
        return ok

    def check_roc_auc(self, value: float) -> None:
        self.roc_auc = float(value)
        self.check(value >= MIN_ROC_AUC, f"roc_auc {value:.4f} < {MIN_ROC_AUC}")

    def end_to_end(self, import_s: float) -> dict:
        """``name -> (value, sample count)`` for the six metrics.

        Timings are quiet quartiles over the run's repeats or windows
        (see :func:`quiet_quartile`); ``setup_s`` adds the one-off
        import time to the quiet quartile of the per-round set-ups.
        """
        return {
            "setup_s": (
                import_s + quiet_quartile(self.setup_s, "low"),
                len(self.setup_s),
            ),
            "fit_s": (quiet_quartile(self.fit_s, "low"), len(self.fit_s)),
            "score_rows_per_s": (
                quiet_quartile(self.window_rows_per_s, "high"),
                len(self.window_rows_per_s),
            ),
            "request_p50_ms": (
                quiet_quartile(self.window_p50_ms, "low"),
                len(self.window_p50_ms),
            ),
            "roc_auc": (self.roc_auc, 1),
            "peak_rss_mb": (median(self.rss_mb), len(self.rss_mb)),
        }
