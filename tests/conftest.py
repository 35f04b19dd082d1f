"""Shared test setup."""

import importlib
import os
import shutil
import sys
import tempfile
from pathlib import Path

import qmdp.cli  # noqa: F401

# hypothesis draws examples from a pool of the constants of every local module loaded when
# it draws: load here every one a test loads (tests/test_exports.py takes perfbench's
# layers and tracer as top-level modules, tests/test_qsim.py tools/replay_passes.py and
# tests/test_fast_paths.py tools/time_slots.py), so that a derandomized property draws the
# same examples when run alone as in the whole suite
for folder, names in (("perfbench", ("layers", "tracer")), ("tools", ("replay_passes", "time_slots"))):
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / folder))
    try:
        for name in names:
            importlib.import_module(name)
    finally:
        del sys.path[0]


def pytest_configure(config):
    """Point hypothesis's storage, which it first writes while collecting (its constants
    cache, even with database=None), at a directory made for the session and removed at
    its end, not at .hypothesis/ in the working directory."""
    if "HYPOTHESIS_STORAGE_DIRECTORY" not in os.environ:
        storage = os.environ["HYPOTHESIS_STORAGE_DIRECTORY"] = tempfile.mkdtemp(prefix="hypothesis-")
        config.add_cleanup(lambda: shutil.rmtree(storage, ignore_errors=True))
