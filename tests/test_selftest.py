"""Each built-in check as its own case, so a numerical pin is written once, in ``selftest``."""

import pytest

from squintsbl import selftest


@pytest.mark.parametrize("check", [fn for _, fn in selftest.CHECKS], ids=[fn.__name__ for _, fn in selftest.CHECKS])
def test_selftest_check(check):
    check()
