"""Record the golden reply digests serve-warm checks every reply against.

Run from the repository root against the commit whose replies define
correctness::

    python3 repobench/record_golden.py

It starts the stock server, sends every distinct request of the mix
once, and writes ``repobench/golden/serve_replies.json``.  The digest
is the sha256 of the reply body, which the server encodes with sorted
keys, so equal payloads give equal bytes.
"""

from __future__ import annotations

import asyncio
import json

import common
import serveload


def main() -> int:
    common.require_source()
    server = serveload.Server()
    try:
        replies, problems = asyncio.run(serveload.warm(server.port, None))
        again, _ = asyncio.run(serveload.warm(server.port, None))
    finally:
        server.stop()
    if problems:
        raise SystemExit("warm-up failed: " + "; ".join(problems))
    if replies != again:
        raise SystemExit("replies are not deterministic; refusing to record")
    with open(serveload.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump({"requests": len(replies), "replies": replies}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(replies)} golden replies to {serveload.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
