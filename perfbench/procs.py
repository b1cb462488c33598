"""Program processes: start them pinned, read their port, stop and reap.

Every program process runs in its own session, so when one does not exit
on SIGINT its whole process group (``repro cluster`` and the shards it
spawned) is killed, and the benchmark waits until every member is gone.
"""

from __future__ import annotations

import os
import re
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence

from common import ROOT, SRC, now, processes

PORT_RE = re.compile(rb"http://[0-9.]+:(\d+)")


def program_env() -> dict:
    """The benchmark's (pinned) environment with the checkout's ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


def run_child(argv: Sequence[str], log: Path, timeout: float) -> None:
    """Run a program process to completion; raise with its log on failure."""
    with open(log, "wb") as handle:
        proc = subprocess.run(
            [sys.executable, *argv], cwd=ROOT, env=program_env(),
            stdout=handle, stderr=subprocess.STDOUT, timeout=timeout,
        )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{argv[0]} exited with {proc.returncode}:\n" + log.read_text()[-3000:]
        )


def group_members(pgid: int) -> List[int]:
    """Live members of a process group (a zombie has ended already)."""
    return [pid for pid, state, _, pgrp in processes() if pgrp == pgid and state != "Z"]


class Program:
    """A long-running program process (a server or a cluster)."""

    def __init__(self, argv: Sequence[str], log: Path) -> None:
        self.log_path = log
        self._log = open(log, "wb")
        self.started = now()
        self.proc = subprocess.Popen(
            [sys.executable, *argv], cwd=ROOT, env=program_env(),
            stdout=subprocess.PIPE, stderr=self._log, start_new_session=True,
        )

    @property
    def pid(self) -> int:
        return self.proc.pid

    def wait_port(self, timeout: float = 120.0) -> int:
        """Block until the process announces ``http://host:port``."""
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        seen = b""
        while time.monotonic() < deadline:
            ready, _, _ = select.select([fd], [], [], deadline - time.monotonic())
            if not ready:
                break
            chunk = os.read(fd, 4096)
            if not chunk:
                break
            seen += chunk
            match = PORT_RE.search(seen)
            if match:
                return int(match.group(1))
        self.stop()
        raise RuntimeError(
            f"program did not announce a port; output {seen[-500:]!r}; log:\n"
            + self.log_path.read_text()[-3000:]
        )

    def stop(self, timeout: float = 30.0) -> Optional[int]:
        """SIGINT (the graceful path), then SIGKILL the group if needed."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                os.killpg(self.proc.pid, signal.SIGKILL)
                self.proc.wait()
        deadline = time.monotonic() + 20.0
        while group_members(self.proc.pid) and time.monotonic() < deadline:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                break
            time.sleep(0.05)
        self.proc.stdout.close()
        self._log.close()
        return self.proc.returncode
