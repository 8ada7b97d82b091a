"""Cross-query social-distance reuse.

Social-distance columns are pure functions of the (immutable-per-
engine) social graph, so they are cacheable across queries with *zero*
accuracy cost: :class:`SocialColumnCache` memoizes full dense columns
per query user, invalidated only when social edges change — location
moves never touch it.  See :mod:`repro.social.cache` for the epoch
argument and :mod:`repro.social.scan` for the shared columnar scoring
path and the pipeline's column step.
"""

from repro.social.cache import (
    DEFAULT_SOCIAL_CACHE_BYTES,
    SocialCacheStats,
    SocialColumnCache,
)
from repro.social.scan import dense_scan

__all__ = [
    "DEFAULT_SOCIAL_CACHE_BYTES",
    "SocialCacheStats",
    "SocialColumnCache",
    "dense_scan",
]
