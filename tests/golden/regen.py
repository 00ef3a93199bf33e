"""Regenerate, or check byte for byte, the golden outputs that tests/test_golden.py checks.

    python tests/golden/regen.py
    python tests/golden/regen.py --check

Both run every run of ``test_golden.RUNS`` with the ``combmemory`` on the
import path.  Without ``--check`` each tests/golden/<run>/ is replaced with
that run's data files (manifests left out); a change that alters a golden
file names each changed value and its size in CHANGES.md.  ``--check``
writes nothing under tests/golden: it names each data file whose bytes
differ from its golden copy (or that is on one side only) and exits 1, or
exits 0 when every file matches.  That is how a change shows its outputs
byte-identical; another numpy build may round differently, so the check
belongs on the machine that regenerated the files, and the tolerance of
test_golden.py holds elsewhere.
"""

import argparse
import filecmp
import os
import shutil
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from test_golden import GOLDEN, RUNS, run  # noqa: E402


def data_files(directory):
    """The data file names of a run directory: every file but the manifest."""
    return set(os.listdir(directory)) - {"manifest.json"}


def changed_files(golden, runs, outdir):
    """Run each of ``runs`` into ``outdir``; return the <run>/<file> paths that
    differ in bytes from ``golden``, or are on one side only, sorted."""
    changed = []
    for spec in runs:
        out, want = run(*spec, outdir), os.path.join(golden, spec[0])
        got_names = data_files(out)
        want_names = data_files(want) if os.path.isdir(want) else set()
        for name in sorted(got_names | want_names):
            if not (name in got_names and name in want_names
                    and filecmp.cmp(os.path.join(out, name), os.path.join(want, name),
                                    shallow=False)):
                changed.append(os.path.join(spec[0], name))
    return changed


def regenerate(golden, runs, outdir):
    for spec in runs:
        out = run(*spec, outdir)
        target = os.path.join(golden, spec[0])
        shutil.rmtree(target, ignore_errors=True)
        os.makedirs(target)
        for name in sorted(data_files(out)):
            shutil.copyfile(os.path.join(out, name), os.path.join(target, name))
        print(target)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare byte for byte and write nothing; exit 1 on any difference")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        if not args.check:
            regenerate(GOLDEN, RUNS, tmp)
            return 0
        changed = changed_files(GOLDEN, RUNS, tmp)
    for path in changed:
        print(f"differs: {path}")
    print(f"{len(changed)} golden data file(s) differ" if changed
          else "every golden data file is byte-identical")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
