"""The analysis daemon: the service protocol over stdin/stdout.

Each request is one JSON object per line; each response is one JSON object
per line, in request order.  The wire contract — versioning (``"v"``),
request-``id`` echo, structured ``error_code`` envelopes, the access-size
schema, ``timeout_ms`` deadlines — and the ops themselves are defined once
in :mod:`repro.service.protocol`: the op table is ``protocol.REQUESTS``
(``--help`` lists it), and the error codes and their retry contract are
``protocol.ERROR_CODES`` / ``protocol.RETRYABLE_ERROR_CODES``.  This module
is only the stdio transport: one connection of
:func:`repro.service.protocol.serve_lines` around
:func:`repro.service.protocol.handle_payload` (the daemon never dies on a
bad request — only on EOF or ``shutdown``).

Usage::

    python -m repro.service.daemon [--store DIR]   # or: python -m repro.service

``--store`` backs the session with a persistent content-addressed result
store (:mod:`repro.service.store`): deterministic answers are reused across
restarts and module loads stay lazy while the store can answer.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, IO, Optional

from .protocol import handle_payload, op_listing, serve_lines
from .session import AnalysisSession
from .store import ResultStore

__all__ = ["serve", "main"]


def serve(stdin: Optional[IO[str]] = None,
          stdout: Optional[IO[str]] = None,
          session: Optional[AnalysisSession] = None) -> int:
    """Run the request loop until EOF or a ``shutdown`` request.

    The loop is the socket server's coroutine; it runs alone on its event
    loop here, so the blocking stdio calls inside it delay no other task.
    """
    import asyncio  # only the daemon itself needs an event loop

    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    session = session if session is not None else AnalysisSession()

    async def readline() -> str:
        return stdin.readline()

    async def write(line: str) -> None:
        stdout.write(line)
        stdout.flush()

    async def answer(payload: Any) -> Dict[str, Any]:
        return handle_payload(session, payload)

    asyncio.run(serve_lines(readline, write, answer))
    return 0


def main(argv: Optional[list] = None) -> int:  # pragma: no cover - subprocess
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="line-delimited JSON analysis daemon over stdin/stdout",
        epilog=op_listing(), formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--store", metavar="DIR", default=None,
                        help="back the session with a persistent "
                             "content-addressed result store at DIR")
    options = parser.parse_args(argv)
    store = ResultStore(options.store) if options.store else None
    return serve(session=AnalysisSession(store=store))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
