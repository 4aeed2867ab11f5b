"""Run the mutant catalogue: every entry must be killed by its tests.

    python tests/mutants/run.py [ID_PREFIX ...]

With no argument every entry runs; with prefixes (such as `transport-`) only
the entries whose id starts with one of them, and a prefix that matches no
entry is a usage error (exit 2).  For each entry the script copies `src/` to a temporary directory, applies the
entry there, and runs `pytest -q -x` on the entry's tests with the copy first
on the import path, in a child whose address space is capped at
MEMORY_LIMIT bytes.  It reports each entry as killed (a test failed),
timeout (its tests ran past TIMEOUT_S seconds and were stopped), memory (a
MemoryError stopped them), survived (every test passed) or stale (the old
text does not occur exactly once in its file), and exits 1 when any entry
survived or is stale.  A timeout and a MemoryError count as killed: the
unmutated code runs any entry's tests in a few seconds and well under half
the cap, so a mutant that outlasts either limit has made them loop.  The
checkout itself is never modified.
"""

from __future__ import annotations

import os
import resource
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
# every test file passes under half this cap; a mutant that allocates in a
# loop (about 55 MB/s for a greedy start that appends an arc per turn) hits
# it long before the timeout instead of holding gigabytes
MEMORY_LIMIT = 1 << 30


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


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
                              stderr=subprocess.STDOUT, text=True, timeout=TIMEOUT_S,
                              preexec_fn=_cap_memory)
    except subprocess.TimeoutExpired:
        return "timeout"
    if done.returncode == 0:
        return "survived"
    if "MemoryError" in done.stdout:
        return "memory"
    if done.returncode in (1, 2):  # a test failed, or the mutant broke collection
        return "killed"
    print(done.stdout, file=sys.stderr)  # a usage error, or no such test
    return "stale"


def select(prefixes) -> list:
    """The catalogue entries whose id starts with one of `prefixes`, in
    catalogue order; every entry when there are none.  Raises ValueError on a
    prefix that matches no entry."""
    unmatched = [p for p in prefixes if not any(mu.id.startswith(p) for mu in MUTANTS)]
    if unmatched:
        raise ValueError(f"no catalogue entry id starts with {', '.join(unmatched)}")
    return [mu for mu in MUTANTS if not prefixes or mu.id.startswith(tuple(prefixes))]


def main(argv) -> int:
    try:
        mutants = select(argv)
    except ValueError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    counts: dict[str, int] = {}
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mospa-mutants-") as tmp:
        for mutant in mutants:
            t0 = time.perf_counter()
            outcome = run_entry(mutant, Path(tmp))
            counts[outcome] = counts.get(outcome, 0) + 1
            print(f"{outcome:8s} {mutant.id} ({time.perf_counter() - t0:.1f} s)", flush=True)
    summary = ", ".join(f"{n} {k}" for k, n in sorted(counts.items()))
    print(f"{len(mutants)} mutants: {summary} in {time.perf_counter() - start:.1f} s")
    killed = sum(counts.get(outcome, 0) for outcome in ("killed", "timeout", "memory"))
    return 0 if killed == len(mutants) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
