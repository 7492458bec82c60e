import os

import numpy as np
import pytest

from neckflow.verifier import HierarchyCache


@pytest.fixture(scope="session")
def cache():
    """Session-wide hierarchy store so criteria share expensive builds."""
    return HierarchyCache()


@pytest.fixture()
def eval_calls(monkeypatch):
    """A list that gains one entry per ``coeffs.eval_many`` call, one walk."""
    from neckflow import coeffs as ca
    calls, real = [], ca.eval_many
    monkeypatch.setattr(ca, "eval_many", lambda *a, **kw: calls.append(1) or real(*a, **kw))
    return calls


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def src_env():
    """Environment for a fresh interpreter that imports this checkout."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env
