"""The paper's primary contribution: the hybrid asynchronous server.

* :class:`~repro.core.hybrid.HybridServer` — HybridNetty, runtime path
  selection between a direct (SingleT-style) path for light requests and a
  Netty-style bounded-write path for heavy requests, from a request-type
  map filled by the observed write-spin.
* :class:`~repro.core.hybrid.PathCategory` — the map's two values.
"""

from repro.core.hybrid import HybridServer, PathCategory

__all__ = [
    "PathCategory",
    "HybridServer",
]
