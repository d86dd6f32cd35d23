"""Fixtures shared by the test files."""

from __future__ import annotations

import threading

import pytest


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(owner, name)`` wraps ``owner.name`` with a plain counter
    for the length of the test and returns the growing list of calls — one
    entry per call, the ident of the thread that made it."""

    def install(owner, name) -> list[int]:
        original = getattr(owner, name)
        callers: list[int] = []

        def counted(*args, **kwargs):
            callers.append(threading.get_ident())
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return callers

    return install
