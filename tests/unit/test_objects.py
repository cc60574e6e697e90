"""Unit tests for the distributed object runtime."""

import pytest

from repro.net.failures import FailurePlan
from repro.objects import (
    DistributedObject,
    Node,
    Runtime,
    canonical_name,
)
from repro.objects.naming import biggest, name_sort_key


class TestNaming:
    def test_canonical_names_sort_numerically(self):
        names = [canonical_name(i) for i in (0, 2, 10, 100, 999)]
        assert names == sorted(names, key=name_sort_key)

    def test_canonical_name_format(self):
        assert canonical_name(7) == "O0007"
        assert canonical_name(3, prefix="P", width=2) == "P03"

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            canonical_name(-1)

    def test_overflow_rejected(self):
        with pytest.raises(ValueError):
            canonical_name(100, width=2)

    def test_biggest(self):
        assert biggest(["O0001", "O0003", "O0002"]) == "O0003"
        with pytest.raises(ValueError):
            biggest([])


class TestNode:
    def test_hosting(self):
        node = Node("n1")
        obj = DistributedObject("O1")
        node.host(obj)
        assert obj.node is node
        assert node.hosted_names() == ["O1"]

    def test_duplicate_hosting_rejected(self):
        node = Node("n1")
        node.host(DistributedObject("O1"))
        with pytest.raises(ValueError):
            node.host(DistributedObject("O1"))

    def test_evict(self):
        node = Node("n1")
        obj = DistributedObject("O1")
        node.host(obj)
        node.evict("O1")
        assert obj.node is None
        assert node.hosted_names() == []


class TestRuntime:
    def test_register_creates_dedicated_node(self):
        rt = Runtime()
        obj = DistributedObject("O1")
        rt.register(obj)
        assert obj.node.node_id == "node:O1"
        assert obj.runtime is rt

    def test_register_on_shared_node(self):
        rt = Runtime()
        a, b = DistributedObject("O1"), DistributedObject("O2")
        rt.register(a, node_id="n1")
        rt.register(b, node_id="n1")
        assert a.node is b.node

    def test_duplicate_object_rejected(self):
        rt = Runtime()
        rt.register(DistributedObject("O1"))
        with pytest.raises(ValueError):
            rt.register(DistributedObject("O1"))

    def test_duplicate_node_rejected(self):
        rt = Runtime()
        rt.add_node("n1")
        with pytest.raises(ValueError):
            rt.add_node("n1")

    def test_object_messaging(self):
        rt = Runtime()
        received = []
        a, b = DistributedObject("O1"), DistributedObject("O2")
        rt.register(a)
        rt.register(b)
        b.on_kind("PING", lambda m: received.append(m.payload))
        a.send("O2", "PING", payload=42)
        rt.run()
        assert received == [42]

    def test_unhandled_kind_raises(self):
        rt = Runtime()
        a, b = DistributedObject("O1"), DistributedObject("O2")
        rt.register(a)
        rt.register(b)
        a.send("O2", "MYSTERY")
        with pytest.raises(RuntimeError, match="unhandled message kind"):
            rt.run()

    def test_duplicate_kind_handler_rejected(self):
        obj = DistributedObject("O1")
        obj.on_kind("K", lambda m: None)
        with pytest.raises(ValueError):
            obj.on_kind("K", lambda m: None)

    def test_crash_node_stops_delivery(self):
        rt = Runtime()
        received = []
        a, b = DistributedObject("O1"), DistributedObject("O2")
        rt.register(a, node_id="n1")
        rt.register(b, node_id="n2")
        b.on_kind("PING", lambda m: received.append(m))
        rt.crash_node("n2")
        a.send("O2", "PING")
        rt.run()
        assert received == []
        assert rt.node("n2").crashed

    def test_failure_plan_passthrough(self):
        rt = Runtime(failure_plan=FailurePlan(drop_probability=1.0))
        a, b = DistributedObject("O1"), DistributedObject("O2")
        rt.register(a)
        rt.register(b)
        b.on_kind("PING", lambda m: pytest.fail("should have been dropped"))
        a.send("O2", "PING")
        rt.run()

    def test_send_unattached_raises(self):
        obj = DistributedObject("O1")
        with pytest.raises(RuntimeError, match="not attached"):
            obj.send("O2", "K")

    def test_sim_now_property(self):
        rt = Runtime()
        obj = DistributedObject("O1")
        rt.register(obj)
        assert obj.sim_now == 0.0
        with pytest.raises(RuntimeError):
            DistributedObject("loose").sim_now
