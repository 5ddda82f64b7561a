"""Shared plumbing: locating the program, statistics, memory, and
spawned ``pathalias serve`` daemons."""

from __future__ import annotations

import math
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

now = time.perf_counter_ns


def program_present() -> bool:
    """Whether the checkout holds the program's sources."""
    return (SRC / "repro" / "cli.py").is_file()


def use_program() -> None:
    """Make ``import repro`` load the checkout's own sources."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for spawned processes: the checkout's sources
    first on ``PYTHONPATH``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def rank(n: int, q: float) -> int:
    """Nearest-rank index of the ``q`` quantile among ``n`` sorted
    samples."""
    return max(0, math.ceil(q * n) - 1)


def percentile(sorted_values, q: float) -> float:
    """The nearest-rank ``q`` quantile of already sorted values."""
    return sorted_values[rank(len(sorted_values), q)]


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie past the ``q`` quantile."""
    return n - 1 - rank(n, q)


#: The probe time of the reference host.  Every time the benchmark
#: reports is scaled to it: multiplied by this over the probe time of
#: the run that measured it (``host_factor``).
REFERENCE_PROBE_NS = 1_000_000


def host_probe_ns() -> int:
    """How long the host takes, right now, to run a fixed pure-Python
    loop (about 1 ms): the fastest of three tries, after a millisecond's
    sleep that lets the program's daemons finish any work a request
    left behind.

    Other machines' work shares this host's cores, and the loop's time
    moves with it: sampled every 5 s it ranged 9.6-22 ms (at 200,000
    iterations) within two minutes, its median 1.4 times its fastest,
    and sampled every half second it jumped between 2.4 and 3.9 ms (at
    50,000) from one sample to the next.  Every figure the benchmark times moves with it too, so
    the timed phase is cut into slices bracketed by these probes,
    reported over its calmest slices (``workloads.Phase``) and scaled
    to the reference host (``host_factor``)."""
    time.sleep(0.001)
    best = None
    for _ in range(3):
        t0 = now()
        total = 0
        for i in range(20_000):
            total += i % 7
        took = now() - t0
        best = took if best is None or took < best else best
    return best


def host_factor(probes) -> float:
    """How much slower than the reference host the host ran, from the
    probes around what was measured: their median over
    ``REFERENCE_PROBE_NS``.  A time measured on the host, divided by
    this, is the time on the reference host.

    Between runs minutes apart the host's speed moved by more than any
    bound the benchmark could hold: ten-run sets of one build measured
    ``lookup_fanout`` at a median 669 us and, in a faster spell,
    422 us, and ``compile_usenet`` drifted from 0.6 s to 1.1 s a
    compile within one set, while the probes moved with them."""
    return statistics.median(probes) / REFERENCE_PROBE_NS


class HostGate:
    """The host probes of one run; ``fastest`` is the quickest so far."""

    def __init__(self):
        self.fastest: int | None = None
        self.count = 0

    def probe(self) -> int:
        took = host_probe_ns()
        self.count += 1
        if self.fastest is None or took < self.fastest:
            self.fastest = took
        return took


def vm_hwm_mb(pid="self") -> float:
    """Peak resident memory (``VmHWM``) of a process, in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for process {pid}")


def visible_cpus() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


class Daemon:
    """One spawned ``pathalias serve`` process."""

    def __init__(self, serve_args: list[str], role: str,
                 trace_out: str | None = None):
        if trace_out is None:
            cmd = [sys.executable, "-m", "repro.cli", "serve", *serve_args]
        else:
            cmd = [sys.executable, str(HERE / "serve.py"), "--trace-out",
                   trace_out, "--role", role, "serve", *serve_args]
        self.proc = subprocess.Popen(cmd, stderr=subprocess.PIPE, text=True,
                                     env=child_env(), cwd=str(ROOT))
        self.chatter: list[str] = []
        self.address = None
        for line in self.proc.stderr:
            if "listening on" in line:
                host, port = line.rsplit("listening on", 1)[1] \
                    .strip().rsplit(":", 1)
                self.address = (host, int(port))
                break
            self.chatter.append(line.rstrip())
        if self.address is None:
            self.proc.wait()
            raise RuntimeError("daemon failed to start: "
                               + " / ".join(self.chatter[-5:]))
        # keep draining stderr so the daemon never blocks on it
        self._drain = threading.Thread(target=self._read_rest, daemon=True)
        self._drain.start()

    def _read_rest(self) -> None:
        for line in self.proc.stderr:
            self.chatter.append(line.rstrip())

    @property
    def spec(self) -> str:
        """``host:port`` as ``serve --backend`` takes it."""
        return f"{self.address[0]}:{self.address[1]}"

    def vm_hwm_mb(self) -> float:
        """The daemon's peak resident memory so far, in MB."""
        return vm_hwm_mb(self.proc.pid)

    def stop(self) -> None:
        """Interrupt the daemon and wait for it to exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._drain.join(timeout=5)
        self.proc.stderr.close()
