"""Run one ``frac`` command with per-layer spans switched on.

The traced cli_cold run starts this file under ``python -X importtime`` in
place of ``python -m fracforms``.  The spans and the time spent inside
``cli.main`` go to standard error on one line after the command's own output.
"""

import json
import sys
import time

import tracing

import fracforms.cli

tracer = tracing.Tracer()
tracing.install(tracer)
t0 = time.perf_counter()
code = fracforms.cli.main(sys.argv[1:])
command_s = time.perf_counter() - t0
sys.stdout.flush()
print(tracing.CHILD_PREFIX + json.dumps({"spans": tracer.as_dict(), "command_s": command_s}),
      file=sys.stderr)
sys.exit(code)
