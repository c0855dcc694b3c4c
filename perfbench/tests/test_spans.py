import threading

from spans import DISPATCH_SPAN, Recorder, Span


class Target:
    calls = 0

    def method(self, value):
        return value + 1

    @classmethod
    def build(cls, value):
        return cls, value


def test_patch_and_restore_keep_method_kinds():
    recorder = Recorder()
    original = vars(Target)["build"]
    recorder.patch(Target, "method", "t.method")
    recorder.patch(Target, "build", "t.build")
    assert Target().method(1) == 2
    assert Target.build(3) == (Target, 3)
    recorder.restore()
    assert vars(Target)["build"] is original
    assert [s.name for s in recorder.spans] == ["t.method", "t.build"]


def test_executor_thread_spans_are_parented_to_the_dispatch_span():
    recorder = Recorder()

    def work():
        with recorder.span("sync.search"):
            pass

    with recorder.span("root"), recorder.span(DISPATCH_SPAN) as dispatch:
        thread = threading.Thread(target=work)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
    search = next(s for s in recorder.spans if s.name == "sync.search")
    assert search.parent == dispatch
    assert search.thread != recorder.spans[dispatch].thread


def test_caller_coverage_leaves_out_the_roots_own_time():
    recorder = Recorder()
    caller, other = threading.get_ident(), threading.get_ident() + 1

    def add(name, start, end, parent, thread=caller):
        span = Span(name, start, parent, thread)
        span.end = end
        recorder.spans.append(span)

    add("root", 0.0, 10.0, -1)
    add("a", 1.0, 4.0, 0)
    add("b", 2.0, 3.0, 1)
    add("c", 5.0, 9.0, 0)
    add("executor", 0.0, 10.0, 0, other)  # another thread: not counted
    # a (3 s, b included) and c (4 s) cover 7 of the root's 10 s.
    assert abs(recorder.coverage(0) - 0.7) < 1e-9
    table = recorder.by_name()
    assert table["a"]["calls"] == 1 and table["b"]["busy_s"] == 1.0


def test_spans_recorded_in_a_block_nest_under_it():
    recorder = Recorder()
    with recorder.span("root") as root:
        for _ in range(3):
            with recorder.span("a"):
                pass
    kids = recorder.children()
    assert [recorder.spans[k].name for k in kids[root]] == ["a", "a", "a"]
