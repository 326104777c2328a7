"""Echo server with span recording, for the traced stream run.

Usage: python3 perfbench/traced_server.py SPANS_JSON

Installs the stream wrappers in this process, then serves echoes on an
ephemeral 127.0.0.1 port through ``drowsebench.transport``'s public
``run_echo_server`` (which prints the same listening line as
``drowsebench echo-server``) until SIGINT, and writes its spans to
SPANS_JSON at shutdown.
"""

from __future__ import annotations

import json
import sys

from common import import_program
from tracing import Tracer, install_stream_wrappers


def main(out_path: str) -> int:
    import_program()
    from drowsebench import protocol, transport

    tracer = Tracer()
    install_stream_wrappers(tracer, transport, protocol)
    try:
        transport.run_echo_server("127.0.0.1", 0)
    finally:
        tracer.uninstall()
        with open(out_path, "w") as fh:
            json.dump([s.as_list() for s in tracer.spans], fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
