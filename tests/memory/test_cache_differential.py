"""Differential property test: the L2 cache model against a reference
per-set LRU model.

The reference keeps each set as a plain list in LRU order (oldest first)
and recomputes every sector's set and tag from its address.  Every read,
write and invalidate must return the same counts, leave the same sectors
resident, and add up to the same statistics.
"""

from hypothesis import given, settings, strategies as st

from repro.memory import Cache, CacheConfig


class LruReference:
    def __init__(self, line, sets, ways):
        self.line, self.num_sets, self.ways = line, sets, ways
        self.sets = [[] for _ in range(sets)]
        self.evictions = 0

    def _sectors(self, addr, length):
        first = addr // self.line
        last = (addr + max(length, 1) - 1) // self.line
        for sector in range(first, last + 1):
            yield self.sets[sector % self.num_sets], sector // self.num_sets

    def access(self, addr, length):
        hits = misses = 0
        for lru, tag in self._sectors(addr, length):
            if tag in lru:
                lru.remove(tag)
                hits += 1
            else:
                misses += 1
            lru.append(tag)
            if len(lru) > self.ways:
                lru.pop(0)
                self.evictions += 1
        return hits, misses

    def invalidate(self, addr, length):
        dropped = 0
        for lru, tag in self._sectors(addr, length):
            if tag in lru:
                lru.remove(tag)
                dropped += 1
        return dropped

    def resident(self, addr):
        sector = addr // self.line
        return sector // self.num_sets in self.sets[sector % self.num_sets]


ops = st.lists(
    st.tuples(st.sampled_from(["read", "write", "invalidate", "flush"]),
              st.integers(0, 2048), st.integers(0, 200)),
    max_size=60)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([8, 16, 32]), st.integers(1, 4), st.integers(1, 3), ops)
def test_cache_matches_reference_lru(line, sets, ways, op_list):
    cache = Cache(CacheConfig(size_bytes=line * sets * ways, line_bytes=line, ways=ways))
    ref = LruReference(line, sets, ways)
    reads = [0, 0]
    writes = [0, 0]
    for op, addr, length in op_list:
        if op == "read":
            got = cache.read(addr, length)
            assert got == ref.access(addr, length)
            reads = [reads[0] + got[0], reads[1] + got[1]]
        elif op == "write":
            got = cache.write(addr, length)
            assert got == ref.access(addr, length)
            writes = [writes[0] + got[0], writes[1] + got[1]]
        elif op == "invalidate":
            assert cache.invalidate(addr, length) == ref.invalidate(addr, length)
        else:
            cache.flush()
            ref.sets = [[] for _ in range(sets)]
        assert cache.resident_sectors == sum(len(s) for s in ref.sets)
    for addr in range(0, 2048 + 200 + line, line):
        assert cache.contains(addr) == ref.resident(addr)
    st_ = cache.stats
    assert (st_.read_hits, st_.read_misses, st_.read_requests) == \
        (reads[0], reads[1], sum(reads))
    assert (st_.write_hits, st_.write_misses, st_.write_requests) == \
        (writes[0], writes[1], sum(writes))


def test_reference_sees_evictions_in_lru_order():
    """A fixed hit/miss/evict sequence the property test also covers."""
    cache = Cache(CacheConfig(size_bytes=2 * 32, line_bytes=32, ways=2))
    ref = LruReference(32, 1, 2)
    for addr in (0, 32, 0, 64, 32, 0, 64):
        assert cache.read(addr, 8) == ref.access(addr, 8)
    assert ref.evictions == 4
    assert cache.invalidate(0, 96) == ref.invalidate(0, 96) == 2
