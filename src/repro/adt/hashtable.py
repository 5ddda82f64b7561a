"""Open-addressing, double-hashing string hash table.

This reproduces the paper's "Hash table management" section:

* keys are host names; an integer key ``k`` is computed "using bit-level
  shifts and exclusive-ors";
* the primary hash is ``k mod T`` for prime table size ``T``;
* the secondary hash is **not** the textbook ``1 + (k mod (T-2))`` — the
  authors observed anomalous behaviour with it — but its inverse
  ``(T-2) - (k mod (T-2))``;
* when the load factor exceeds the high-water mark α_H = 0.79 (predicted
  2 probes per access at full load), the table is rehashed into the next
  size from a growth schedule.  Three historical schedules are provided:
  geometric δ=2 (rejected: wastes space), arithmetic with a low-water
  mark α_L = 0.49 (δ = α_H/α_L ≈ golden ratio), and the "current"
  Fibonacci-primes schedule (equivalent behaviour, simpler computation).

The table stores (name -> value) pairs; deletion is not supported, which
matches the original (pathalias never removes a host name once interned).
Probe statistics are tracked so experiment E5 can measure the claims.
"""

from __future__ import annotations

import enum
from typing import Any, Iterator

from repro.adt.primes import next_prime

#: Paper's high-water load factor: rehash above this.
ALPHA_HIGH = 0.79
#: Paper's (abandoned, but benchmarkable) low-water target after rehash.
ALPHA_LOW = 0.49


class SecondaryHash(enum.Enum):
    """Which secondary probe-step function to use."""

    #: The oft-suggested textbook function the authors found anomalous.
    TEXTBOOK = "1 + (k mod (T-2))"
    #: The inverse the paper uses.
    INVERSE = "(T-2) - (k mod (T-2))"


class GrowthPolicy(enum.Enum):
    """How the next table size is chosen on rehash."""

    DOUBLING = "geometric, delta=2"
    ARITHMETIC = "arithmetic scan to alpha < alpha_low"
    FIBONACCI = "Fibonacci primes (current implementation)"


def string_key(name: str) -> int:
    """Fold a host name to a non-negative integer key.

    Shift-and-xor folding in the spirit of the original ``hash()``:
    a 31-bit running key, each byte xor-ed in after a 7-bit rotate.
    Deterministic across runs (unlike Python's ``hash``), which the
    probe-count experiments rely on.
    """
    k = 0
    for ch in name.encode("utf-8", "replace"):
        k = ((k << 7) | (k >> 24)) & 0x7FFFFFFF
        k ^= ch
    return k


class HashTable:
    """Open-addressing double-hashing table mapping names to values.

    Supports ``tbl[name] = value``, ``tbl[name]``, ``name in tbl``,
    ``len(tbl)``, and iteration over names.  ``lookup`` exposes the
    find-or-insert-slot primitive the parser uses for interning.
    """

    __slots__ = ("_size", "_count", "_names", "_values", "secondary",
                 "growth", "probes", "accesses", "rehashes",
                 "retired_slots")

    def __init__(self, initial_size: int = 31,
                 secondary: SecondaryHash = SecondaryHash.INVERSE,
                 growth: GrowthPolicy = GrowthPolicy.FIBONACCI):
        self._size = next_prime(max(initial_size, 5))
        self._count = 0
        self._names: list[str | None] = [None] * self._size
        self._values: list[Any] = [None] * self._size
        self.secondary = secondary
        self.growth = growth
        #: total probe slots examined, for E5
        self.probes = 0
        #: total lookup operations, for E5
        self.accesses = 0
        #: number of rehash events
        self.rehashes = 0
        #: total slots across discarded tables (space-waste accounting);
        #: the original recycled these pages into its arena allocator
        self.retired_slots = 0

    # -- hashing ----------------------------------------------------------

    def _step(self, k: int, size: int) -> int:
        """Secondary hash: probe stride (never 0, coprime to prime size)."""
        if self.secondary is SecondaryHash.TEXTBOOK:
            return 1 + (k % (size - 2))
        return (size - 2) - (k % (size - 2))

    def _probe(self, name: str) -> int:
        """Index of ``name``'s slot, or of the empty slot where it goes.

        Double hashing: start at ``k mod T``, step by the secondary hash.
        With prime ``T`` the sequence visits every slot, so as long as the
        load factor stays below 1 an empty slot is always found.
        """
        k = string_key(name)
        size = self._size
        idx = k % size
        step = self._step(k, size)
        self.accesses += 1
        probes = 1
        while True:
            slot_name = self._names[idx]
            if slot_name is None or slot_name == name:
                self.probes += probes
                return idx
            idx = (idx + step) % size
            probes += 1

    # -- growth -----------------------------------------------------------

    def _next_size(self) -> int:
        if self.growth is GrowthPolicy.DOUBLING:
            return next_prime(self._size * 2)
        if self.growth is GrowthPolicy.ARITHMETIC:
            # Scan an arithmetic sequence of candidates for the first
            # prime bringing the load factor under ALPHA_LOW.
            candidate = self._size + 2
            while True:
                candidate = next_prime(candidate)
                if self._count / candidate < ALPHA_LOW:
                    return candidate
                candidate += 2
        # FIBONACCI: advance by the golden ratio and take the next prime,
        # which is what the Fibonacci-primes schedule amounts to.
        return next_prime(int(self._size * 1.618) + 1)

    def _rehash(self) -> None:
        old_names, old_values = self._names, self._values
        self.retired_slots += self._size
        self.rehashes += 1
        self._size = self._next_size()
        self._names = [None] * self._size
        self._values = [None] * self._size
        self._count = 0
        for name, value in zip(old_names, old_values):
            if name is not None:
                self._insert(name, value)

    def _insert(self, name: str, value: Any) -> None:
        idx = self._probe(name)
        if self._names[idx] is None:
            self._names[idx] = name
            self._count += 1
        self._values[idx] = value

    # -- public api ---------------------------------------------------------

    def lookup(self, name: str, default: Any = None) -> Any:
        """Return the value stored for ``name`` (or ``default``)."""
        idx = self._probe(name)
        if self._names[idx] is None:
            return default
        return self._values[idx]

    def insert(self, name: str, value: Any) -> None:
        """Insert or overwrite ``name``, growing past α_H as needed."""
        if (self._count + 1) / self._size > ALPHA_HIGH:
            self._rehash()
        self._insert(name, value)

    def setdefault(self, name: str, value: Any) -> Any:
        """Intern: return existing value, or insert ``value`` and return it."""
        existing = self.lookup(name, _MISSING)
        if existing is not _MISSING:
            return existing
        self.insert(name, value)
        return value

    @property
    def load_factor(self) -> float:
        return self._count / self._size

    @property
    def size(self) -> int:
        """Current table capacity (a prime)."""
        return self._size

    def mean_probes(self) -> float:
        """Average probes per access so far — the paper predicts ~2 at
        full (α=0.79) load."""
        return self.probes / self.accesses if self.accesses else 0.0

    def reset_stats(self) -> None:
        self.probes = 0
        self.accesses = 0

    def __len__(self) -> int:
        return self._count

    def __contains__(self, name: str) -> bool:
        return self.lookup(name, _MISSING) is not _MISSING

    def __getitem__(self, name: str) -> Any:
        value = self.lookup(name, _MISSING)
        if value is _MISSING:
            raise KeyError(name)
        return value

    def __setitem__(self, name: str, value: Any) -> None:
        self.insert(name, value)

    def __iter__(self) -> Iterator[str]:
        for name in self._names:
            if name is not None:
                yield name

    def items(self) -> Iterator[tuple[str, Any]]:
        for name, value in zip(self._names, self._values):
            if name is not None:
                yield name, value


class _Missing:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return "<missing>"


_MISSING = _Missing()
