"""Self-time arithmetic and span recording.

    python3 -m unittest discover -s perfbench/tests -t perfbench
"""

import sys
import tempfile
import threading
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from spans import NO_PARENT, Tracer, load, self_times, union_length  # noqa: E402


def fib(n):
    """Recurses through its module global, as cdalg.mul_coeffs does."""
    return n if n < 2 else fib(n - 1) + fib(n - 2)


class UnionLength(unittest.TestCase):
    def test_disjoint_overlapping_nested_and_clipped(self):
        self.assertEqual(union_length([], 0.0, 10.0), 0.0)
        self.assertEqual(union_length([(1.0, 2.0), (4.0, 6.0)], 0.0, 10.0), 3.0)
        self.assertEqual(union_length([(1.0, 5.0), (3.0, 7.0)], 0.0, 10.0), 6.0)
        self.assertEqual(union_length([(1.0, 9.0), (2.0, 3.0)], 0.0, 10.0), 8.0)
        self.assertEqual(union_length([(-1.0, 2.0), (8.0, 12.0)], 0.0, 10.0), 4.0)


class SelfTimes(unittest.TestCase):
    def test_synthetic_tree(self):
        # main [0, 10]
        #   check [1, 9]
        #     evaluate [2, 4]  -> kernel [2.5, 3.5]
        #     evaluate [3, 6]  (a second thread, overlapping the first evaluate)
        #     sampler  [7, 8]
        spans = [
            (0, "main", NO_PARENT, 0.0, 10.0),
            (1, "check", 0, 1.0, 9.0),
            (2, "evaluate", 1, 2.0, 4.0),
            (3, "kernel", 2, 2.5, 3.5),
            (4, "evaluate", 1, 3.0, 6.0),
            (5, "sampler", 1, 7.0, 8.0),
        ]
        got = self_times(spans)
        self.assertEqual(got["main"], {"calls": 1, "self_s": 2.0})
        # children cover [2, 6] and [7, 8]: 5 of its 8 seconds
        self.assertEqual(got["check"]["self_s"], 3.0)
        self.assertEqual(got["evaluate"], {"calls": 2, "self_s": 4.0})
        self.assertEqual(got["kernel"]["self_s"], 1.0)
        self.assertEqual(got["sampler"]["self_s"], 1.0)
        # self times of a tree whose children never overlap add up to the root's time
        disjoint = [s for s in spans if s[0] != 4]
        self.assertAlmostEqual(sum(e["self_s"] for e in self_times(disjoint).values()), 10.0)


class Recording(unittest.TestCase):
    def test_spans_round_trip_with_threads_and_recursion(self):
        global fib
        tracer = Tracer()
        original = fib
        fib = tracer.wrap("fib", fib, outermost_only=True)
        try:
            def work():
                self.assertEqual(fib(10), 55)

            tracer.wrap("outer", lambda: [work() for _ in range(3)])()
            t = threading.Thread(target=tracer.wrap("thread", work))
            t.start()
            t.join(timeout=10)
        finally:
            fib = original
        self.assertFalse(t.is_alive())
        with tempfile.TemporaryDirectory() as tmp:
            tracer.dump(Path(tmp) / "spans", invocation=3)
            header, spans = load(Path(tmp) / "spans")
        self.assertEqual(header["invocation"], 3)
        stats = self_times(spans)
        # recursion opens no spans: one per outermost call
        self.assertEqual(stats["fib"]["calls"], 4)
        self.assertEqual(stats["outer"]["calls"], 1)
        self.assertEqual(stats["thread"]["calls"], 1)
        by_id = {s[0]: s for s in spans}
        outer_id = next(s[0] for s in spans if s[1] == "outer")
        self.assertEqual(sum(1 for s in spans if s[1] == "fib" and s[2] == outer_id), 3)
        for sid, _, parent, start, end in spans:
            self.assertLessEqual(start, end)
            if parent != NO_PARENT:
                self.assertLessEqual(by_id[parent][3], start)
                self.assertLessEqual(end, by_id[parent][4])


if __name__ == "__main__":
    unittest.main()
