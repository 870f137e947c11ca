"""Size-bounded LRU cache for per-process worker state (font programs,
CMaps).

SURVEY.md §7.4.5: a cache that lives as long as a reused worker process
must be bounded or an adversarial corpus (millions of distinct subset
fonts) grows worker heap without limit. Keys are content hashes, so
collisions are correctness-safe evictions."""

from __future__ import annotations

from collections import OrderedDict


class LruCache:
    def __init__(self, max_entries: int = 4096):
        self.max_entries = max_entries
        self._d: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key, default=None):
        try:
            self._d.move_to_end(key)
            self.hits += 1
            return self._d[key]
        except KeyError:
            self.misses += 1
            return default

    def __setitem__(self, key, value):
        self._d[key] = value
        self._d.move_to_end(key)
        while len(self._d) > self.max_entries:
            self._d.popitem(last=False)

    def __len__(self):
        return len(self._d)

    def __contains__(self, key):
        return key in self._d
