"""Compare the reference fits of a base revision with the working tree's.

    python3 scripts/compare_reference_fits.py BASE

Runs this tree's ``scripts/reference_fits.py`` twice in one process
environment, so with one NumPy and BLAS build: once on the ``src`` of BASE,
checked out in a temporary ``git worktree``, and once on this tree's
``src``.  It prints the fits whose hashes differ, base hash then head hash,
and exits 1 on any difference, unless the lines CHANGES.md gains over BASE
(the change's newest entry) include one that starts with
``Reference fits change:`` (after an optional ``- `` bullet), which
declares that the change means to change outputs.  Exits 0 when the runs
agree or the change is declared.  BASE is any revision git can resolve;
CI passes the merge base.
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MARK = "Reference fits change:"


def _git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout


def _hashes(src):
    """{file name: hash} and the digest lines of one run on ``src``."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / "reference_fits.py")],
                         env=env, check=True, capture_output=True, text=True).stdout
    lines = out.splitlines()
    digests = [line for line in lines if line.startswith("#")]
    pairs = (line.split("  ", 1) for line in lines if not line.startswith("#"))
    return {name: digest for digest, name in pairs}, digests


def _declared(base):
    """Whether CHANGES.md gains a line over ``base`` that declares changed fits."""
    diff = _git("diff", base, "--", "CHANGES.md")
    added = (line[1:] for line in diff.splitlines()
             if line.startswith("+") and not line.startswith("+++"))
    return any(line.removeprefix("- ").startswith(MARK) for line in added)


def main(argv):
    if len(argv) != 1:
        sys.exit(__doc__)
    base = _git("rev-parse", "--verify", argv[0] + "^{commit}").strip()
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "base"
        _git("worktree", "add", "--detach", str(tree), base)
        try:
            before, base_digests = _hashes(tree / "src")
        finally:
            _git("worktree", "remove", "--force", str(tree))
    after, head_digests = _hashes(ROOT / "src")
    changed = sorted(name for name in before.keys() | after.keys()
                     if before.get(name) != after.get(name))
    print(f"reference fits: base {base[:12]} against the working tree, "
          f"{len(after)} hashes, {len(changed)} differ")
    for name in changed:
        print(f"  {name}: {before.get(name, '(none)')} -> {after.get(name, '(none)')}")
    for line in head_digests if not changed else base_digests + head_digests:
        print(line)
    if not changed:
        return 0
    if _declared(base):
        print(f"CHANGES.md declares it: a line starting {MARK!r}")
        return 0
    print(f"error: the reference fits differ from {base[:12]}, and no CHANGES.md line that "
          f"this change adds starts with {MARK!r}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
