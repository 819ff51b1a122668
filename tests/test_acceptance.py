"""Acceptance gate: every criterion runs at its stated tolerance and prints
one pass/fail line. Run with `pytest tests/test_acceptance.py -s` to see the
lines as they complete, or `ipsforge experiment acceptance` for the CLI view.
"""

import pytest

from ipsforge import acceptance


@pytest.mark.parametrize("criterion", acceptance.ALL_CRITERIA,
                         ids=[fn.__name__ for fn in acceptance.ALL_CRITERIA])
def test_criterion(criterion):
    result = criterion(acceptance.DEFAULT_SEED)
    print(result.timed_line())
    assert result.passed, (result.details, f"runtime_s={result.runtime_s:.1f}")
