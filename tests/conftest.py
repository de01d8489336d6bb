import copy
import json
from importlib import resources
from types import SimpleNamespace

import pytest

from apsumset import catalog

CHECKS = json.loads(resources.files("apsumset").joinpath("data/checks.json").read_text())


def brute_reps(a, b, n):
    """Every (x, y) with a^x + b^y = n, sorted by x, by a double loop over both exponents."""
    out = []
    ax, x = 1, 0
    while ax < n:
        by, y = 1, 0
        while ax + by <= n:
            if ax + by == n:
                out.append((x, y))
            by *= b
            y += 1
        ax *= a
        x += 1
    return out


def brute_values(a, b, limit):
    """The set of a^x + b^y <= limit, by a double loop over both exponents."""
    out = set()
    ax = 1
    while ax < limit:
        by = 1
        while ax + by <= limit:
            out.add(ax + by)
            by *= b
        ax *= a
    return out


@pytest.fixture
def edited_registry(monkeypatch):
    """Makes the real registry loader read checks.json with one value changed.

    ``edit(check_id, path, value)`` walks the keys and indexes of `path` in
    that entry and sets the last one to `value`, or deletes it when `value`
    is ``...``; with `check_id` None, `value` replaces the whole loaded data.
    The next ``registry()`` call loads the edited data, and the cached
    registry is dropped again at teardown, so no later test sees the edit.
    """

    def edit(check_id, path, value):
        if check_id is None:
            raw = value
        else:
            raw = copy.deepcopy(CHECKS)
            target = next(e for e in raw["checks"] if e["id"] == check_id)
            *parents, last = path
            for step in parents:
                target = target[step]
            if value is ...:
                del target[last]
            else:
                target[last] = value
        monkeypatch.setattr(catalog, "json", SimpleNamespace(loads=lambda text: raw))
        catalog.registry.cache_clear()

    yield edit
    catalog.registry.cache_clear()
