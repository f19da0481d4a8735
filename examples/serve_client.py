#!/usr/bin/env python3
"""Simulation-as-a-service: talk to the repro.serve HTTP endpoints.

Starts an in-process server (the same code ``repro serve run``
launches), issues JSON requests over real sockets, demonstrates the
serving disciplines — request coalescing, admission control, graceful
drain — and shuts down cleanly.

Run:  python examples/serve_client.py

Against a standalone server, start `repro serve run --port 8023` and
point :class:`repro.serve.HttpClient` at it instead.
"""

import asyncio

from repro import obs
from repro.serve import HttpClient, HttpServer, ServeConfig


async def main() -> None:
    # --- start a server on an ephemeral port ---------------------------
    config = ServeConfig(port=0, max_pending=16)
    server = HttpServer(config=config)
    host, port = await server.start()
    print(f"serving on http://{host}:{port}")

    with obs.capture(enable_spans=False) as capture:
        client = HttpClient(host, port)

        # --- one measurement request ----------------------------------
        reply = await client.request("measure", {"arch": "r3000"})
        times = reply.body["times_us"]
        print(f"\nmeasure r3000 -> HTTP {reply.status}")
        print(f"  null syscall     {times['null_syscall']:6.1f} us")
        print(f"  context switch   {times['context_switch']:6.1f} us")

        # --- a rendered paper table -----------------------------------
        reply = await client.request("table", {"number": 1})
        print(f"\ntable 1 -> HTTP {reply.status}, "
              f"{len(reply.body['text'].splitlines())} lines of text")

        # --- an architecture description ------------------------------
        reply = await client.request("arch_describe", {"name": "sparc"})
        print(f"\narch describe sparc -> {reply.body['description']}")

        # --- coalescing: identical concurrent requests share one run --
        replies = await asyncio.gather(
            *(HttpClient(host, port).request("measure", {"arch": "i860"})
              for _ in range(6)))
        assert all(r.body == replies[0].body for r in replies)
        await client.close()
        window = capture.metrics()

    coalesced = sum(
        window["metrics"]["serve_coalesced_total"]["cells"].values())
    print(f"\n6 identical concurrent requests -> "
          f"{int(coalesced)} coalesced onto one engine execution")

    # --- graceful drain -----------------------------------------------
    await server.shutdown()
    print("drained: all admitted requests completed, listener closed")


if __name__ == "__main__":
    asyncio.run(main())
