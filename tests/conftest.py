"""Fixtures shared by every test module."""

from __future__ import annotations

import pytest


@pytest.fixture(autouse=True)
def private_load_cache(tmp_path_factory, monkeypatch):
    """Point the CLI's load cache at a fresh directory for each test.

    CLI subprocesses inherit the variable, so no test reads or writes the
    user's own ``~/.cache``.
    """
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache")))
