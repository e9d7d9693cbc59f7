"""Surface checks on the public API."""

import dataclasses
import inspect

import weaktime
from weaktime.dynamics import Propagator


def test_public_callables_have_one_engine():
    # each physical route has exactly one production engine; independent
    # cross-checks live in tests/oracle.py, not behind a selector
    offenders = []
    for name in weaktime.__all__:
        obj = getattr(weaktime, name)
        if not callable(obj):
            continue
        try:
            params = inspect.signature(obj).parameters
        except (TypeError, ValueError):
            continue
        offenders += [f"{name}({p})" for p in ("engine", "stepper") if p in params]
    assert offenders == []
    assert "method" not in {f.name for f in dataclasses.fields(Propagator)}
