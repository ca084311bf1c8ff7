"""Self time of nested spans and of spans that pool threads record."""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from perfbench.tracer import Span, Tracer, self_times, union_length


def test_self_time_of_nested_spans():
    spans = [
        Span(0, "outer", 1, 0.0, 10.0, None, 0),
        Span(1, "child", 1, 2.0, 5.0, 0, 0),
        Span(2, "grandchild", 1, 3.0, 4.0, 1, 0),
        Span(3, "child", 1, 6.0, 7.0, 0, 0),
    ]
    selfs = self_times(spans)
    assert selfs == pytest.approx({0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0})


def test_union_length_merges_overlaps():
    assert union_length([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == pytest.approx(4.0)
    assert union_length([]) == 0.0


def test_pool_thread_spans_have_no_parent_and_leave_the_caller_whole():
    tracer = Tracer()

    def work():
        span = tracer.begin("inner")
        time.sleep(0.01)
        tracer.end(span)
        return threading.get_ident()

    outer = tracer.begin("outer")
    with ThreadPoolExecutor(max_workers=2) as pool:
        tids = {f.result() for f in [pool.submit(work) for _ in range(4)]}
    tracer.end(outer)

    inner = [s for s in tracer.spans if s.name == "inner"]
    assert len(inner) == 4
    assert all(s.parent is None for s in inner)
    assert {s.tid for s in inner} == tids
    assert threading.get_ident() not in tids
    selfs = self_times(tracer.spans)
    # the caller waited on the pool: nothing is subtracted from its span
    assert selfs[outer.id] == pytest.approx(outer.end - outer.start)
    assert all(selfs[s.id] == pytest.approx(s.end - s.start) for s in inner)


def test_nested_calls_on_one_thread_link_to_their_parent():
    tracer = Tracer()
    a = tracer.begin("a")
    b = tracer.begin("b")
    tracer.end(b)
    tracer.end(a)
    assert b.parent == a.id and a.parent is None


def test_merge_keeps_ids_unique_and_parents_linked():
    child = Tracer()
    a = child.begin("a")
    b = child.begin("b")
    child.end(b)
    child.end(a)
    child.count("n", 3)
    parent = Tracer()
    own = parent.begin("own")
    parent.end(own)
    parent.op = 7
    parent.merge(child.dump())
    parent.merge(child.dump())
    ids = [s.id for s in parent.spans]
    assert len(ids) == len(set(ids)) == 5
    merged_b = [s for s in parent.spans if s.name == "b"]
    by_id = {s.id: s for s in parent.spans}
    assert all(by_id[s.parent].name == "a" for s in merged_b)
    assert all(s.op == 7 for s in parent.spans[1:])
    assert parent.counters["n"] == 6
