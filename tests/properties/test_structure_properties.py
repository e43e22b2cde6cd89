"""Property-based tests on the core renaming structures.

Random but protocol-respecting operation sequences drive the RAT/RAC/
mapping structures directly, checking the invariants the pipeline's
correctness argument rests on.
"""

from hypothesis import given, settings, strategies as st

from repro.core.rac import RAC_MAX, RegisterAccessCounters
from repro.core.rat import RenameTable
from repro.core.vrf_mapping import VRFMapping
from repro.memory.cache import Cache, CacheConfig, CacheStats


@given(ops=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 7)),
                    max_size=200))
@settings(max_examples=60, deadline=None)
def test_rat_frl_conservation(ops):
    """Every VVR is always exactly one of: RAT-mapped, free, or in flight."""
    rat = RenameTable(8, 16)
    in_flight = []  # (logical, new, old) renames awaiting commit
    for kind, logical in ops:
        if kind <= 1 and rat.can_rename_dst():
            in_flight.append((logical, *rat.rename_destination(logical)))
        elif kind == 2 and in_flight:
            rat.commit(in_flight.pop(0)[2])
        mapped = rat.live_vvrs()
        olds = {old for _, _, old in in_flight}
        assert len(mapped) == 8
        # Conservation: mapped + free + uncommitted-old = all VVRs.
        assert len(mapped) + rat.free_count + len(olds) == 16
        assert not (mapped & olds)


@given(ops=st.lists(st.integers(0, 5), max_size=300))
@settings(max_examples=60, deadline=None)
def test_rac_counts_stay_in_3_bits(ops):
    rac = RegisterAccessCounters(4)
    shadow = [0] * 4
    for op in ops:
        vvr = op % 4
        if op < 4:
            rac.increment(vvr)
            shadow[vvr] += 1
        elif rac.count(vvr) > 0:
            rac.decrement(vvr)
        for v in range(4):
            assert 0 <= rac.count(v) <= RAC_MAX


@given(ops=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 15)),
                    max_size=200))
@settings(max_examples=60, deadline=None)
def test_mapping_invariants_under_random_transitions(ops):
    m = VRFMapping(16, 6)
    for kind, vvr in ops:
        if kind == 0 and m.free_count > 0 and not m.in_pvrf(vvr):
            m.allocate(vvr)
        elif kind == 1 and m.in_pvrf(vvr):
            m.evict(vvr)
        elif kind == 2:
            m.release(vvr)
        m.invariant_check()
        # A VVR is never simultaneously in both levels.
        assert not (m.in_pvrf(vvr) and m.in_mvrf(vvr))


@given(addrs=st.lists(st.integers(0, 31), min_size=1, max_size=300))
@settings(max_examples=60, deadline=None)
def test_cache_inclusion_of_recent_lines(addrs):
    """True LRU: the most recent `associativity` lines of a set still hit."""
    cache = Cache(CacheConfig("t", 4 * 64 * 1, 64, 4))  # 1 set, 4 ways
    for a in addrs:
        cache.access_lines((a * 64,))
    recent = list(dict.fromkeys(reversed(addrs)))[:4]
    for a in recent:
        assert cache.access_lines((a * 64,)) == 0, (
            f"line {a} should be resident")


@given(addrs=st.lists(st.integers(0, 200), min_size=1, max_size=200),
       write_mask=st.lists(st.booleans(), min_size=1, max_size=200))
@settings(max_examples=40, deadline=None)
def test_cache_counter_consistency(addrs, write_mask):
    cache = Cache(CacheConfig("t", 8 * 1024, 64, 4))
    for a, w in zip(addrs, write_mask):
        cache.access_lines((a * 64,), write=w)
    s = cache.stats
    assert s.accesses == min(len(addrs), len(write_mask))
    assert s.misses <= s.accesses
    assert cache.occupancy <= 8 * 1024 // 64
    assert s.writebacks <= s.writes


class TimestampLRUCache:
    """Oracle: the per-address timestamp-LRU algorithm ``Cache`` replaced.

    Each set maps ``tag -> [last_use, dirty]`` and the victim is the tag
    with the smallest timestamp; one call per address, no batching.
    """

    def __init__(self, config):
        self.config = config
        self.stats = CacheStats()
        self.sets = [{} for _ in range(config.n_sets)]
        self.tick = 0

    def access(self, addr, write):
        self.tick += 1
        line = addr // self.config.line_bytes
        ways = self.sets[line % self.config.n_sets]
        tag = line // self.config.n_sets
        if write:
            self.stats.writes += 1
        else:
            self.stats.reads += 1
        entry = ways.get(tag)
        if entry is not None:
            entry[0] = self.tick
            entry[1] = entry[1] or write
            return True
        if write:
            self.stats.write_misses += 1
        else:
            self.stats.read_misses += 1
        if len(ways) >= self.config.associativity:
            victim = min(ways, key=lambda t: ways[t][0])
            if ways[victim][1]:
                self.stats.writebacks += 1
            del ways[victim]
        ways[tag] = [self.tick, write]
        return False


@given(n_sets=st.integers(1, 4), assoc=st.integers(1, 4),
       batches=st.lists(st.tuples(st.lists(st.integers(0, 24 * 64 - 1),
                                           max_size=20),
                                  st.booleans()),
                        min_size=1, max_size=30))
@settings(max_examples=150, deadline=None)
def test_access_lines_matches_timestamp_lru_oracle(n_sets, assoc, batches):
    """Batched dict-order LRU == per-address timestamp LRU, batch by batch."""
    config = CacheConfig("t", n_sets * assoc * 64, 64, assoc)
    cache, oracle = Cache(config), TimestampLRUCache(config)
    for addrs, write in batches:
        expected = sum(not oracle.access(a, write) for a in addrs)
        assert cache.access_lines(addrs, write) == expected
        assert cache.stats == oracle.stats
        resident = {(i, tag, dirty) for i, ways in enumerate(cache._sets)
                    for tag, dirty in ways.items()}
        assert resident == {(i, tag, entry[1])
                            for i, ways in enumerate(oracle.sets)
                            for tag, entry in ways.items()}
