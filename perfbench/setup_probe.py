"""Set-up probe, started in a fresh interpreter by run.py.

Imports the CLI (and with it every mospa module), parses and digests each
scenario given on the command line, prints `ready` and exits.  The parent
times the span from process start to that line.

    python3 perfbench/setup_probe.py <src dir> <scenario.json>...
"""

import sys

sys.path.insert(0, sys.argv[1])

from mospa import cli  # noqa: E402

for path in sys.argv[2:]:
    cli.scenario_digest(cli.parse_scenario(path))
print("ready", flush=True)
