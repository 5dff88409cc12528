"""Runs one op: an in-process call of `moleval.harness.cli.main` inside a
forked child, so that a stalled op can be stopped and its CPU time and
memory are read from the reaped child.

The child gets a CPU-time limit (RLIMIT_CPU). At the soft limit it raises
OpTimeout in the op; at the hard limit, or when the parent's wall-clock
backstop runs out, the child is killed.

The child also times a calibration task just before and just after the op,
on the same processor; the op's wall and CPU times exclude it.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import select
import signal
import sys
import time
from dataclasses import dataclass

CPU_LIMIT_S = 10
WALL_LIMIT_S = 40.0
_CALIBRATION_KEYS = [f"w{i:06d}" for i in range(12_000)]

_RECURSION_MESSAGE = "maximum recursion depth exceeded"


class OpTimeout(BaseException):
    """Raised in the child at the CPU-time limit. A BaseException, so that
    the program's `except Exception` boundaries let it through."""


@dataclass
class OpResult:
    ok: bool
    failure: str | None  # failure class: exception type, "exit N" or "timeout"
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    detail: str = ""
    spans: list | None = None
    calibration_s: float | None = None  # mean time of the calibration task around the op


def calibrate_s() -> float:
    """Time of a fixed task shaped like the program's work (small objects,
    dicts, strings, a sort): the machine's current speed. Existing objects
    are frozen first, so the task's garbage collections are the same work
    whatever the process holds."""
    gc.freeze()
    start = time.perf_counter()
    table = {key: [i, key[::-1], (i, i + 1)] for i, key in enumerate(_CALIBRATION_KEYS)}
    ordered = sorted(table, key=lambda k: table[k][1])
    len(set(ordered[::3])) + sum(len(v[1]) for v in table.values())
    return time.perf_counter() - start


def _on_cpu_limit(signum, frame):
    # the kernel repeats SIGXCPU every second up to the hard limit, so an op
    # that swallows the first one (a thread pool joining its workers) gets
    # another
    raise OpTimeout()


def _child(argv: list[str], log_prefix: str, write_fd: int, tracer) -> None:
    resource.setrlimit(resource.RLIMIT_CPU, (CPU_LIMIT_S, CPU_LIMIT_S + 2))
    signal.signal(signal.SIGXCPU, _on_cpu_limit)
    for fd, suffix in ((1, ".stdout"), (2, ".stderr")):
        os.dup2(os.open(log_prefix + suffix, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644), fd)
    from moleval.harness import cli

    message: dict = {}
    cpu0 = time.process_time()
    calibrations = [calibrate_s()]
    cpu1 = time.process_time()
    try:
        if tracer is not None:
            tracer.install()
        message["exit"] = cli.main(argv)
    except OpTimeout:
        message["raised"] = "timeout"
    except BaseException as exc:  # the op raised past main: record its class
        message["raised"] = type(exc).__name__
    signal.signal(signal.SIGXCPU, signal.SIG_IGN)
    cpu2 = time.process_time()
    calibrations.append(calibrate_s())
    message["calibration"] = [calibrations, (cpu1 - cpu0) + (time.process_time() - cpu2)]
    if tracer is not None:
        code = message.get("exit")
        tracer.close(message.get("raised") or (f"exit {code}" if code else None))
        message["spans"] = tracer.spans
    sys.stdout.flush()
    sys.stderr.flush()
    with os.fdopen(write_fd, "w") as pipe:
        json.dump(message, pipe)


def run(argv: list[str], log_prefix: str, tracer=None) -> OpResult:
    """Run one op; its standard output and error go to log_prefix.stdout
    and log_prefix.stderr."""
    read_fd, write_fd = os.pipe()
    # the child's collections then skip what it inherits from this process,
    # whose heap grows over a run
    gc.freeze()
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        try:
            _child(argv, log_prefix, write_fd, tracer)
        finally:
            os._exit(0)
    os.close(write_fd)
    chunks = []
    deadline = start + WALL_LIMIT_S
    killed = False
    with os.fdopen(read_fd, "rb") as pipe:
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                os.kill(pid, signal.SIGKILL)
                killed = True
                break
            ready, _, _ = select.select([pipe], [], [], remaining)
            if ready:
                chunk = os.read(pipe.fileno(), 1 << 16)
                if not chunk:
                    break
                chunks.append(chunk)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    cpu = usage.ru_utime + usage.ru_stime
    rss = usage.ru_maxrss
    try:
        message = json.loads(b"".join(chunks)) if chunks else {}
    except json.JSONDecodeError:
        message = {}
    stderr_path = log_prefix + ".stderr"
    spans = message.get("spans")
    calibration = None
    if "calibration" in message:
        walls, calibration_cpu = message["calibration"]
        wall -= sum(walls)
        cpu -= calibration_cpu
        calibration = sum(walls) / len(walls)
    if killed or (os.WIFSIGNALED(status) and os.WTERMSIG(status) in (signal.SIGKILL, signal.SIGXCPU)):
        return OpResult(False, "timeout", wall, cpu, rss, "killed", spans, calibration)
    if os.WIFSIGNALED(status):
        return OpResult(False, f"signal {os.WTERMSIG(status)}", wall, cpu, rss, "", spans, calibration)
    if not message and cpu >= CPU_LIMIT_S:
        return OpResult(False, "timeout", wall, cpu, rss, "no result at the CPU limit", spans, calibration)
    if not message:
        return OpResult(False, "no result", wall, cpu, rss, _first_line(stderr_path), spans, calibration)
    if "raised" in message:
        return OpResult(False, message["raised"], wall, cpu, rss, "raised past main", spans, calibration)
    code = message.get("exit")
    if code == 0:
        return OpResult(True, None, wall, cpu, rss, "", spans, calibration)
    detail = _first_line(stderr_path)
    failure = f"exit {code}"
    if code == 3 and _RECURSION_MESSAGE in detail:
        failure = "RecursionError (exit 3)"
    return OpResult(False, failure, wall, cpu, rss, detail, spans, calibration)


def _first_line(path: str) -> str:
    try:
        with open(path, encoding="utf-8", errors="replace") as handle:
            return handle.readline().strip()[:200]
    except OSError:
        return ""
