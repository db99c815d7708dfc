"""Fixtures shared by the test modules."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from sldlab import model


@pytest.fixture
def spy_draws(monkeypatch):
    """Call it to start recording the shape of every noisy matrix Y drawn; it returns the list."""

    def start() -> list[tuple[int, int]]:
        draws: list[tuple[int, int]] = []
        draw = model._draw_noisy
        monkeypatch.setattr(model, "_draw_noisy", lambda *args: draws.append(args[2].shape) or draw(*args))
        return draws

    return start


@pytest.fixture
def spy_blocks(monkeypatch):
    """Call it to start recording the height of every row block of noise drawn; it returns the list."""

    def start() -> list[int]:
        heights: list[int] = []
        blocks = model._noise_blocks

        def spy(*args):
            for rows, z in blocks(*args):
                heights.append(z.shape[0])
                yield rows, z

        monkeypatch.setattr(model, "_noise_blocks", spy)
        return heights

    return start


@pytest.fixture
def rss_rise():
    """Call it with (setup, body) source; it returns the bytes by which ``body`` raised peak RSS.

    Both run in a fresh interpreter, and the rise is that of its VmHWM, the
    high-water mark of its own resident pages.  Unlike ``tracemalloc``, this
    counts every page the body touched: the anonymous mappings of
    :func:`sldlab.blas.mapped_empty`, LAPACK's workspaces and BLAS's own
    buffers included.  ``ru_maxrss`` would not do: a child carries its
    parent's peak across fork and exec, so under pytest it starts at the
    test process's own.
    """
    if not Path("/proc/self/status").is_file():
        pytest.skip("VmHWM is read from Linux's /proc/self/status")
    src = str(Path(model.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))

    def run(setup: str, body: str) -> int:
        peak = "int(open('/proc/self/status').read().split('VmHWM:')[1].split()[0])"
        code = f"{setup}\nbefore = {peak}\n{body}\nprint({peak} - before)\n"
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True, timeout=300)
        return 1024 * int(proc.stdout.split()[-1])

    return run
