"""Fixtures shared by the test modules."""

from __future__ import annotations

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
