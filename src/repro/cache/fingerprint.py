"""Content fingerprints for goal-keyed cache entries.

Every :class:`~repro.requirements.Goal` already has a canonical JSON form
(``to_dict``), so a goal's identity for caching is a content hash:
serialize canonically (sorted keys, no whitespace) and SHA-256 the bytes.
Two structurally identical goals (say, the same degree goal rebuilt per
query) hash to the same digest, so a warm
:class:`~repro.cache.memos.FlowMemo` and the transposition table serve
both.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

__all__ = ["fingerprint_payload", "goal_fingerprint"]


def fingerprint_payload(payload: Any) -> str:
    """SHA-256 hex digest of ``payload``'s canonical JSON form.

    Canonical means sorted keys and no insignificant whitespace, so the
    digest depends only on content, never on dict ordering or formatting.
    """
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def goal_fingerprint(goal) -> str:
    """Digest of a :class:`~repro.requirements.Goal`'s content."""
    return fingerprint_payload({"kind": "goal", "content": goal.to_dict()})
