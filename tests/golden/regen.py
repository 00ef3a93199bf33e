"""Regenerate the golden outputs that tests/test_golden.py checks.

    python tests/golden/regen.py

runs every run of ``test_golden.RUNS`` with the ``combmemory`` on the
import path and replaces each tests/golden/<run>/ with that run's data
files (manifests left out).  A change that alters a golden file names each
changed value and its size in CHANGES.md.
"""

import os
import shutil
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from test_golden import GOLDEN, RUNS, run  # noqa: E402


def main():
    with tempfile.TemporaryDirectory() as tmp:
        for spec in RUNS:
            out = run(*spec, tmp)
            target = os.path.join(GOLDEN, spec[0])
            shutil.rmtree(target, ignore_errors=True)
            os.makedirs(target)
            for name in sorted(os.listdir(out)):
                if name != "manifest.json":
                    shutil.copyfile(os.path.join(out, name), os.path.join(target, name))
            print(target)


if __name__ == "__main__":
    main()
