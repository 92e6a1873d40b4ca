"""Start ``repro serve`` on its default settings, optionally traced.

    python3 perfbench/serve_launcher.py --port P --out FILE [--trace 1]

Installs the layer wrappers (``--trace 1``) before it calls
``repro.serve.server.run``, serves until SIGINT, then writes the
server process's peak RSS and, when traced, its span aggregates to
``FILE`` as JSON.
"""

import argparse
import json
import sys

from repro.serve import create_app
from repro.serve.server import run

from work import peak_rss_mb


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        from layers import install_serve
        from tracer import Tracer

        tracer = Tracer()
        install_serve(tracer)
        tracer.enabled = True
    run(create_app(), host="127.0.0.1", port=args.port)
    report = {"peak_rss_mb": peak_rss_mb()}
    if tracer is not None:
        tracer.enabled = False
        report["trace"] = tracer.aggregates()
    with open(args.out, "w") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
