"""Cross-query social-distance reuse.

Social-distance columns are pure functions of the (immutable-per-
engine) social graph, so they are cacheable across queries with *zero*
accuracy cost: :class:`SocialColumnCache` memoizes each query user's
column over the located users, invalidated only when social edges
change or a user is first located.  See :mod:`repro.social.cache` for the epoch
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
