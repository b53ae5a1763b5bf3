"""The ``wikiqe`` console script, as the benchmark starts it.

Untraced, this is exactly what the installed ``wikiqe`` entry point runs.
With WIKIQE_BENCH_TRACE set (the traced run), it times interpreter start
and imports, wraps wikiqe's public functions with spans, runs the command
and writes the spans to the file that variable names.
"""

import os
import sys

if os.environ.get("WIKIQE_BENCH_TRACE"):
    import time

    entered = time.time()
    from tracing import traced_main

    sys.exit(traced_main(entered))

from wikiqe.cli import main

sys.exit(main())
