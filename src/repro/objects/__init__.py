"""Distributed object-oriented runtime.

Objects live on nodes and communicate only by message passing (paper
Section 2: "objects that run on network nodes communicate with each other by
message passing").  The runtime routes object-to-object messages over the
simulated network to each object's per-kind handlers, and provides the
total ordering of object names that the resolution algorithm uses to elect
a resolver ("object names and the lexicographic ordering could be used",
Section 4.1).
"""

from repro.objects.base import DistributedObject
from repro.objects.naming import canonical_name, name_sort_key
from repro.objects.node import Node
from repro.objects.runtime import Runtime

__all__ = [
    "DistributedObject",
    "Node",
    "Runtime",
    "canonical_name",
    "name_sort_key",
]
