"""Keep Hypothesis's caches in a temporary directory, out of the checkout.

Hypothesis's pytest plugin writes a cache of source-code constants while
it collects property tests, even when no example database is used.
"""

import shutil
import tempfile

from hypothesis.configuration import set_hypothesis_home_dir

_home = None


def pytest_configure(config):
    global _home
    _home = tempfile.mkdtemp(prefix="hypothesis-")
    set_hypothesis_home_dir(_home)


def pytest_unconfigure(config):
    set_hypothesis_home_dir(None)
    shutil.rmtree(_home, ignore_errors=True)
