"""Differential property tests: AddressMap and TranslationTable lookups
against linear reference models.

The library keeps its mappings sorted and finds the one candidate for an
access with a bisect.  The references below keep an unsorted list and scan
every entry in base order, which is the specification: the same target and
offset for every probe, or the same exception type and message.
"""

from dataclasses import dataclass

from hypothesis import given, settings, strategies as st

from repro.errors import AddressError, TranslationError
from repro.memory import AddressMap, AddressRange, MemorySpace, TranslationTable

SPACES = list(MemorySpace)


def _fmt(base, end):
    return f"[{base:#x}, {end:#x})"


def _outcome(fn, *args, **kwargs):
    """The value ``fn`` returns, or the type and message of what it raises."""
    try:
        return ("ok", fn(*args, **kwargs))
    except (AddressError, TranslationError) as exc:
        return (type(exc), str(exc))


def _probes(spans, extra):
    """Boundary probes for every ``(base, end)`` span, plus ``extra``: the
    first and last byte, the byte past the end (a gap or the next range),
    the byte before the base, and accesses straddling each boundary."""
    probes = list(extra)
    for base, end in spans:
        probes += [(base, 1), (base, end - base), (end - 1, 1), (end - 1, 2),
                   (end, 1), (end, 0), (base - 1, 1), (base - 1, 2),
                   (base, end - base + 1), (base + 1, end - base)]
    return [(addr, length) for addr, length in probes if addr >= 0]


# -- AddressMap ------------------------------------------------------------------

@dataclass
class _Target:
    range: AddressRange
    space: MemorySpace


class LinearMap:
    """Reference address map: a front-to-back scan in base order."""

    def __init__(self):
        self.entries = []  # (base, end, target)

    def add(self, target):
        base, end = target.range.base, target.range.base + target.range.size
        for b, e, _ in sorted(self.entries, key=lambda x: x[0]):
            if b < end and base < e:
                raise AddressError(
                    f"mapping {_fmt(base, end)} overlaps existing {_fmt(b, e)}")
        self.entries.append((base, end, target))

    def resolve(self, addr, length=1):
        for b, e, target in sorted(self.entries, key=lambda x: x[0]):
            if b <= addr and addr + length <= e:
                return target, addr - b
            if b <= addr < e:
                raise AddressError(
                    f"access [{addr:#x}, {addr + length:#x}) straddles mapping "
                    f"{_fmt(b, e)}")
        raise AddressError(f"unmapped physical address {addr:#x} (+{length})")


ranges = st.tuples(st.integers(0, 400), st.integers(1, 64))
probe = st.tuples(st.integers(0, 500), st.integers(-3, 80))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(ranges, st.sampled_from(SPACES)), max_size=12),
       st.lists(probe, max_size=30))
def test_address_map_matches_linear_scan(adds, extra_probes):
    amap, ref = AddressMap(), LinearMap()
    for (base, size), space in adds:
        target = _Target(AddressRange(base, size), space)
        got = _outcome(amap.add, target)
        assert got == _outcome(ref.add, target)
    assert amap.targets() == [t for _, _, t in sorted(ref.entries, key=lambda x: x[0])]
    spans = [(b, e) for b, e, _ in ref.entries]
    for addr, length in _probes(spans, extra_probes):
        assert _outcome(amap.resolve, addr, length) == _outcome(ref.resolve, addr, length)
        if length == 1:
            got = _outcome(amap.space_of, addr)
            want = _outcome(ref.resolve, addr)
            assert got == (("ok", want[1][0].space) if want[0] == "ok" else want)


def test_address_map_adjacent_ranges_probe_each_side():
    amap, ref = AddressMap(), LinearMap()
    for base in (0x200, 0x100, 0x300):  # out of order, back to back
        target = _Target(AddressRange(base, 0x100), MemorySpace.HOST_DRAM)
        amap.add(target)
        ref.add(target)
    for addr, length in [(0x1FF, 1), (0x200, 1), (0x2FF, 2), (0x300, 0),
                         (0x3FF, 1), (0x400, 1), (0x0, 1), (0xFF, 1)]:
        assert _outcome(amap.resolve, addr, length) == _outcome(ref.resolve, addr, length)


# -- TranslationTable -------------------------------------------------------------

class LinearTable:
    """Reference translation table: a front-to-back scan in base order."""

    def __init__(self, name):
        self.name = name
        self.maps = []  # [base, end, physical_base, writable]

    def _sorted(self):
        return sorted(self.maps, key=lambda m: m[0])

    def map(self, base, size, phys, writable):
        end = base + size
        for b, e, _, _ in self._sorted():
            if b < end and base < e:
                raise TranslationError(
                    f"{self.name}: new mapping {_fmt(base, end)} overlaps {_fmt(b, e)}")
        self.maps.append((base, end, phys, writable))
        return (base, size, phys, writable)

    def unmap(self, base, size):
        for m in self.maps:
            if (m[0], m[1]) == (base, base + size):
                self.maps.remove(m)
                return None
        raise TranslationError(f"{self.name}: no mapping at {_fmt(base, base + size)}")

    def lookup(self, vaddr, length=1):
        for m in self._sorted():
            b, e = m[0], m[1]
            if b <= vaddr and vaddr + length <= e:
                return (b, e - b, m[2], m[3])
            if b <= vaddr < e:
                raise TranslationError(
                    f"{self.name}: access {vaddr:#x}+{length} straddles {_fmt(b, e)}")
        raise TranslationError(f"{self.name}: translation fault at {vaddr:#x}")

    def translate(self, vaddr, length=1, write=False):
        b, size, phys, writable = self.lookup(vaddr, length)
        if write and not writable:
            raise TranslationError(
                f"{self.name}: write to read-only {_fmt(b, b + size)}")
        return phys + (vaddr - b)


def _key(mapping):
    return (mapping.virtual.base, mapping.virtual.size, mapping.physical_base,
            mapping.writable)


def _mapped(outcome):
    return ("ok", None if outcome[1] is None else _key(outcome[1])) \
        if outcome[0] == "ok" else outcome


ops = st.one_of(
    st.tuples(st.just("map"), ranges, st.integers(0, 1 << 20), st.booleans()),
    st.tuples(st.just("unmap"), st.integers(0, 11)),
    st.tuples(st.just("unmap-range"), ranges),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(ops, max_size=24), st.lists(probe, max_size=30))
def test_translation_table_matches_linear_scan(op_list, extra_probes):
    table, ref = TranslationTable("t"), LinearTable("t")
    for op in op_list:
        if op[0] == "map":
            _, (base, size), phys, writable = op
            got = _mapped(_outcome(table.map, AddressRange(base, size), phys,
                                   writable=writable))
            assert got == _outcome(ref.map, base, size, phys, writable)
        else:
            if op[0] == "unmap":  # an existing mapping, if there is one
                if not ref.maps:
                    continue
                b, e = ref.maps[op[1] % len(ref.maps)][:2]
                base, size = b, e - b
            else:                 # usually no exact match: must raise
                base, size = op[1]
            got = _outcome(table.unmap, AddressRange(base, size))
            assert got == _outcome(ref.unmap, base, size)
        assert [_key(m) for m in table.mappings] == \
            [(b, e - b, p, w) for b, e, p, w in ref._sorted()]
        assert len(table) == len(ref.maps)
    spans = [(b, e) for b, e, _, _ in ref.maps]
    for addr, length in _probes(spans, extra_probes):
        assert _mapped(_outcome(table.lookup, addr, length)) == \
            _outcome(ref.lookup, addr, length)
        for write in (False, True):
            assert _outcome(table.translate, addr, length, write=write) == \
                _outcome(ref.translate, addr, length, write=write)
        want = _outcome(ref.translate, addr, length)
        assert table.try_translate(addr, length) == (want[1] if want[0] == "ok" else None)


def test_translation_probes_after_unmap_fault_in_the_hole():
    table, ref = TranslationTable("uva"), LinearTable("uva")
    for base in (0x0, 0x100, 0x200):
        table.map(AddressRange(base, 0x100), 0x10000 + base, writable=base != 0x200)
        ref.map(base, 0x100, 0x10000 + base, base != 0x200)
    table.unmap(AddressRange(0x100, 0x100))
    ref.unmap(0x100, 0x100)
    for addr, length in [(0xFF, 1), (0xFF, 2), (0x100, 1), (0x1FF, 1), (0x1FF, 2),
                         (0x200, 8), (0x2FF, 1), (0x300, 1)]:
        for write in (False, True):
            assert _outcome(table.translate, addr, length, write=write) == \
                _outcome(ref.translate, addr, length, write=write)


def test_address_range_end_is_derived_not_compared():
    r = AddressRange(0x1000, 0x100)
    assert r.end == 0x1100
    assert repr(r) == "AddressRange(base=4096, size=256)"
    assert r == AddressRange(0x1000, 0x100)
    assert hash(r) == hash(AddressRange(0x1000, 0x100))
