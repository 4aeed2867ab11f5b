"""Run the mutant catalogue: every entry must be killed by its tests.

    python tests/mutants/run.py

For each entry the script copies `src/` to a temporary directory, applies the
entry there, and runs `pytest -q -x` on the entry's tests with the copy first
on the import path.  It reports each entry as killed (a test failed),
timeout (its tests ran past TIMEOUT_S seconds and were stopped), survived
(every test passed) or stale (the old text does not occur exactly once in
its file), and exits 1 when any entry survived or is stale.  A timeout
counts as killed: the unmutated code runs any entry's tests in a few
seconds, so a mutant that outlasts the limit has made them loop.  The
checkout itself is never modified.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from catalogue import MUTANTS  # noqa: E402

TIMEOUT_S = 60


def run_entry(mutant, workdir: Path) -> str:
    src = workdir / "src"
    if src.exists():
        shutil.rmtree(src)
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    target = src / "mospa" / mutant.file
    text = target.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        return "stale"
    target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    # pyproject's pythonpath puts the checkout's src first; point it at the copy
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "-o", f"pythonpath={src}", *mutant.tests]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout"
    if done.returncode == 0:
        return "survived"
    if done.returncode in (1, 2):  # a test failed, or the mutant broke collection
        return "killed"
    print(done.stdout, file=sys.stderr)  # a usage error, or no such test
    return "stale"


def main() -> int:
    counts: dict[str, int] = {}
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mospa-mutants-") as tmp:
        for mutant in MUTANTS:
            t0 = time.perf_counter()
            outcome = run_entry(mutant, Path(tmp))
            counts[outcome] = counts.get(outcome, 0) + 1
            print(f"{outcome:8s} {mutant.id} ({time.perf_counter() - t0:.1f} s)", flush=True)
    summary = ", ".join(f"{n} {k}" for k, n in sorted(counts.items()))
    print(f"{len(MUTANTS)} mutants: {summary} in {time.perf_counter() - start:.1f} s")
    killed = counts.get("killed", 0) + counts.get("timeout", 0)
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
