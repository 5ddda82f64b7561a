"""Data-structure substrates described by the paper.

The reference mapper's priority queue *is*
:class:`~repro.adt.heap.BinaryHeap`, as in the original C program.
:class:`~repro.adt.hashtable.HashTable` is the original's double-hashing
symbol table, kept for experiment E5 (probes per access, secondary
hash, growth schedules), which measures it on its own; the graph
builder interns host names in a ``dict``, because the table's
pure-Python key fold cost more than the probing it models.
"""

from repro.adt.arena import ArenaAllocator
from repro.adt.freelist import FreeListAllocator
from repro.adt.hashtable import GrowthPolicy, HashTable, SecondaryHash
from repro.adt.heap import BinaryHeap
from repro.adt.primes import is_prime, next_prime, fibonacci_primes
from repro.adt.quickfit import QuickFitAllocator
from repro.adt.trace import AllocationTrace, TraceEvent

__all__ = [
    "ArenaAllocator",
    "FreeListAllocator",
    "QuickFitAllocator",
    "GrowthPolicy",
    "HashTable",
    "SecondaryHash",
    "BinaryHeap",
    "is_prime",
    "next_prime",
    "fibonacci_primes",
    "AllocationTrace",
    "TraceEvent",
]
