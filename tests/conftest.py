"""Shared pytest set-up for the test suite.

pytest rewrites the asserts of test modules only.  The helper modules below
hold asserts too (the oracle suites run from ``test_properties`` and the
acceptance gate), so they are registered for rewriting: their asserts then
stay live under ``python -O``, which strips plain asserts.

The command line keeps parsed descriptions and presentations for the life
of the process; every test starts with them forgotten, so no test's result
(or count of calls) depends on which tests ran before it.
"""

import pytest

pytest.register_assert_rewrite("suites", "oracles", "datasets")


@pytest.fixture(autouse=True)
def _cold_memo():
    from jumploci import cli
    cli._description.cache_clear()
    cli._presentation.cache_clear()
