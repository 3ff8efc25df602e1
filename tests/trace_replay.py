"""Trace replay through the admission queue, shared by the serving tests.

:class:`MicroBatcher` groups a fully known arrival stream the way the
streaming loop would: requests (sorted by arrival, ties by ``req_id``)
are admitted one at a time into an
:class:`~repro.serve.batcher.AdmissionQueue`, with window closes merged
in at their deadlines.  A group flushes when it reaches ``max_batch``,
when its batching window ``window_s`` closes, or at end of stream.
"""

from __future__ import annotations

from typing import Callable, Hashable, List, Optional, Sequence

from repro.serve import AdmissionQueue, InferenceRequest
from repro.serve.batcher import check_batching


class MicroBatcher:
    """Group an arrival-ordered request trace into batches."""

    def __init__(self, max_batch: int = 8, window_s: float = 0.05,
                 key_fn: Optional[Callable[[InferenceRequest], Hashable]] = None) -> None:
        check_batching(max_batch, window_s)
        self.max_batch = max_batch
        self.window_s = window_s
        self.key_fn = key_fn

    def batches(self, requests: Sequence[InferenceRequest]
                ) -> List[List[InferenceRequest]]:
        """Deterministically batch ``requests``; groups in flush order."""
        queue = AdmissionQueue(self.max_batch, self.window_s, self.key_fn)
        flushed = []
        for req in sorted(requests, key=lambda r: (r.arrival_s, r.req_id)):
            # windows that closed strictly before this arrival flush first
            flushed.extend(queue.close_due(req.arrival_s, strict=True))
            full, _ = queue.add(req, req.arrival_s)
            if full is not None:
                flushed.append(full)
        flushed.extend(queue.flush_remaining())
        return [group.requests for group in flushed]
