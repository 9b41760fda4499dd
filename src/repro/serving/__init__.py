"""The serving plane: an online micro-batching scoring service.

Turns the batch scoring library into a long-lived, stdlib-only network
service. The pieces compose in request order:

- :mod:`repro.serving.protocol` — length-prefixed JSON/npy frames with
  bounded sizes (the wire format);
- :mod:`repro.serving.admission` — per-tenant token buckets,
  queue-depth shedding, deadline sanity (who gets in);
- :mod:`repro.serving.batcher` — request coalescing into micro-batches
  sized by an EMA of measured per-row latency (how work is shaped);
- :mod:`repro.serving.server` — the asyncio acceptor in front of the
  batcher's forked scoring workers, with SIGTERM drain (the process);
- :mod:`repro.serving.client` — a blocking client for drivers, tests,
  and ops scripts.

Batched scores are meant to be bitwise-identical to per-request
offline ``decision_function`` calls: coalescing changes the execution
grain, never the bytes, wherever scoring is row-separable. The combine
step, the neighbour families, out-of-core row blocks and the served
pools are pinned (see :mod:`repro.serving.batcher`); the ``X @ W``
products (JL, PCA, LODA, PCAD, OCSVM) are not yet proven row-separable
(ROADMAP.md item 11).

Entry point: ``python -m repro serve`` runs a server around a saved v2
ensemble artifact. ``tests/serving/test_server.py`` pins the parity
with micro-batching on and with per-request batches; the repo
benchmark (``perfbench/``) times both serve workloads.
"""

from repro.serving.protocol import (
    DEFAULT_MAX_PAYLOAD,
    MAX_HEADER_BYTES,
    IncompleteFrame,
    PayloadTooLarge,
    ProtocolError,
    decode_array,
    encode_array,
    encode_frame,
    read_frame,
    read_frame_sync,
    write_frame_sync,
)
from repro.serving.admission import (
    AdmissionController,
    AdmissionDecision,
    TokenBucket,
)
from repro.serving.batcher import (
    BatchedScore,
    CostModelBatchPolicy,
    DeadlineExpired,
    MicroBatcher,
)
from repro.serving.server import ScoringServer, ServerConfig, ServerThread
from repro.serving.client import ScoreReply, ScoringClient, ServiceRejection

__all__ = [
    "DEFAULT_MAX_PAYLOAD",
    "MAX_HEADER_BYTES",
    "IncompleteFrame",
    "PayloadTooLarge",
    "ProtocolError",
    "decode_array",
    "encode_array",
    "encode_frame",
    "read_frame",
    "read_frame_sync",
    "write_frame_sync",
    "AdmissionController",
    "AdmissionDecision",
    "TokenBucket",
    "BatchedScore",
    "CostModelBatchPolicy",
    "DeadlineExpired",
    "MicroBatcher",
    "ScoringServer",
    "ServerConfig",
    "ServerThread",
    "ScoreReply",
    "ScoringClient",
    "ServiceRejection",
]
