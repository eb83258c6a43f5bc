"""Shared pytest set-up for the test suite.

pytest rewrites the asserts of test modules only.  The helper modules below
hold asserts too (the oracle suites run from ``test_properties`` and the
acceptance gate), so they are registered for rewriting: their asserts then
stay live under ``python -O``, which strips plain asserts.
"""

import pytest

pytest.register_assert_rewrite("suites", "oracles", "datasets")
