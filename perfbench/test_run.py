"""Tests of the benchmark's checks: python3 perfbench/test_run.py

The unit tests feed canned outputs to the parsers and reconciliation
checks. The end-to-end tests build the repository and run short
benchmark runs, including one against a corrupted reference, which must
fail.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
os.chdir(ROOT)

import run  # noqa: E402

RACE = (b"commutativity race at event 48: T6: dictionary:s1.put(13, 0)/nil "
        b"[size:ds conflicts with put:ds] last touched by T1: dictionary:s1.size()/0")
CHECK_OUT = b"\n".join([
    b"events: 100", b"rd2: 2 races (1 distinct)", b"", RACE, RACE,
    b"fff44dd07ff0416e", b""])


class Parsers(unittest.TestCase):
    def test_check_output(self):
        got = run.parse_check(CHECK_OUT)
        self.assertEqual((got["events"], got["races"], got["distinct"]), (100, 2, 1))
        self.assertEqual(got["lines_md5"], run.digest_lines([RACE, RACE]))
        self.assertEqual(got["fps_md5"], run.digest_lines([b"fff44dd07ff0416e"]))

    def test_server_reply_is_parsed_like_check(self):
        reply = CHECK_OUT + b"STATS events=100 races=2 distinct=1 queue_hw=3 wall_s=0.1\n"
        self.assertEqual(run.parse_check(reply)["lines_md5"],
                         run.parse_check(CHECK_OUT)["lines_md5"])

    def test_predict_output(self):
        line = (b"events 5000  calls 3398  witnessed 899 (302 distinct)  predicted +54  "
                b"candidates 4641  closures 358  capped 0\n")
        got = run.parse_predict(line)
        self.assertEqual((got["events"], got["witnessed"], got["witnessed_distinct"],
                          got["predicted"], got["capped"]), (5000, 899, 302, 54, 0))

    def test_gc_stats(self):
        path = os.path.join(run.WORK, "test_gc.err")
        os.makedirs(run.WORK, exist_ok=True)
        with open(path, "w") as f:
            f.write("allocated_words: 97138169\nmajor_collections: 13\n")
        self.assertEqual(run.gc_stats(path),
                         {"allocated_words": 97138169.0, "major_collections": 13.0})


class Verdicts(unittest.TestCase):
    REF = {"events": 100, "races": 2, "distinct": 1,
           "lines_md5": run.digest_lines([RACE, RACE]),
           "fps_md5": run.digest_lines([b"fff44dd07ff0416e"])}

    def test_check_matches_reference(self):
        self.assertEqual(run.check_matches(self.REF, run.parse_check(CHECK_OUT)), [])

    def test_changed_race_line_is_a_mismatch(self):
        out = CHECK_OUT.replace(b"event 48", b"event 49", 1)
        self.assertEqual(run.check_matches(self.REF, run.parse_check(out)), ["lines_md5"])

    def test_predicted_may_grow_but_not_shrink(self):
        ref = {"events": 10, "calls": 8, "witnessed": 5, "witnessed_distinct": 3,
               "predicted": 4}
        self.assertEqual(run.predict_matches(ref, dict(ref, predicted=6)), [])
        self.assertEqual(run.predict_matches(ref, dict(ref, predicted=3)), ["predicted"])
        self.assertEqual(run.predict_matches(ref, dict(ref, witnessed=6)), ["witnessed"])

    def test_failed_verdicts_count(self):
        v = run.Verdicts()
        v.check("a", [])
        v.check("b", ["lines_md5"])
        self.assertEqual((v.attempted, v.failed), (2, 1))


class Reconciliation(unittest.TestCase):
    ROW = {"file": "f", "events": 100, "hb_events": 100, "calls": 60, "rd2_actions": 60}

    def test_layer_event_counts_equal_workload_events(self):
        self.assertEqual(run.reconcile_traced("check", self.ROW, {"events": 100}), [])
        self.assertEqual(len(run.reconcile_traced("check", dict(self.ROW, hb_events=99),
                                                  {"events": 100})), 1)
        self.assertEqual(len(run.reconcile_traced("check", dict(self.ROW, rd2_actions=59),
                                                  {"events": 100})), 1)
        row = {"file": "f", "events": 100, "predict_events": 100}
        self.assertEqual(run.reconcile_traced("predict", row, {"events": 100}), [])
        self.assertEqual(len(run.reconcile_traced("predict", row, {"events": 101})), 2)

    def test_traced_race_counts_equal_untraced(self):
        self.assertEqual(run.reconcile_race_counts("races", [7, 7, 7], 7), [])
        self.assertEqual(len(run.reconcile_race_counts("races", [7, 6], 7)), 1)

    EXIT = ("sessions 2  events 300  races 40  errors 0  accept_errors 0  busy 0  "
            "worker_crashes 0  recovered 0  spilled 0  caught_up 0  stalls 0\n")
    BEFORE = {"server_events_total": 0, "server_races_total": 0,
              "racedb_published_total": 0, "racedb_dropped_total": 0}
    # bqueue_batch_size is observed on push and on pop: twice the events.
    AFTER = {"server_events_total": 300, "bqueue_batch_size_sum": 600,
             "server_races_total": 40, "racedb_published_total": 30,
             "racedb_dropped_total": 10}

    def test_serve_counts_reconcile(self):
        self.assertEqual(
            run.reconcile_serve(self.BEFORE, self.AFTER, 0, self.EXIT, 300, 40), [])

    def test_server_events_come_from_server_events_total(self):
        after = dict(self.AFTER, server_events_total=600)
        self.assertEqual(
            len(run.reconcile_serve(self.BEFORE, after, 0, self.EXIT, 300, 40)), 1)

    def test_published_plus_dropped_equals_races_handed_over(self):
        after = dict(self.AFTER, racedb_dropped_total=9)
        self.assertEqual(
            len(run.reconcile_serve(self.BEFORE, after, 0, self.EXIT, 300, 40)), 1)

    def test_server_errors_or_busy_fail_the_run(self):
        for bad in ("errors 1", "busy 2"):
            exit_line = self.EXIT.replace(bad.split()[0] + " 0", bad)
            self.assertEqual(
                len(run.reconcile_serve(self.BEFORE, self.AFTER, 0, exit_line, 300, 40)), 1)
        self.assertEqual(
            len(run.reconcile_serve(self.BEFORE, self.AFTER, 1, self.EXIT, 300, 40)), 1)


class Inputs(unittest.TestCase):
    def test_inputs_follow_the_seed(self):
        for w in run.WORKLOADS:
            self.assertEqual(run.run_inputs(w, 5), run.run_inputs(w, 5))
            self.assertNotEqual(run.run_inputs(w, 5), run.run_inputs(w, 6))
            self.assertTrue(set(run.run_inputs(w, 5)) <= set(run.corpus(w)))

    def test_serve_runs_draw_every_size_equally(self):
        for seed in range(20):
            keys = run.run_inputs("serve-ingest", seed)
            for size in ("4k", "8k", "16k"):
                self.assertEqual(sum(k.startswith(f"ingest{size}-") for k in keys), 3)

    def test_reference_covers_the_corpus(self):
        ref = run.load_reference()
        for w in run.WORKLOADS:
            for key in run.corpus(w):
                self.assertIn(key, ref)

    def test_percentile(self):
        self.assertEqual(run.percentile([3, 1, 2], 0.5), 2)
        self.assertAlmostEqual(run.percentile(list(range(11)), 0.9), 9.0)


def bench(*args, cwd=ROOT):
    r = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                       cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                       timeout=300)
    lines = r.stdout.strip().splitlines()
    return r.returncode, (json.loads(lines[-1]) if lines else None)


class EndToEnd(unittest.TestCase):
    def test_short_runs_are_correct(self):
        for w in run.WORKLOADS:
            for trace in ("0", "1"):
                with self.subTest(workload=w, trace=trace):
                    code, res = bench("--workload", w, "--seed", "1", "--seconds", "1",
                                      "--trace", trace)
                    self.assertEqual(code, 0)
                    self.assertTrue(res["correct"])
                    self.assertEqual(res["failed"], 0)
                    names = run.PER_LAYER if trace == "1" else run.END_TO_END
                    self.assertEqual(set(res["metrics"]), {n for n, _ in names})

    def test_corrupted_reference_fails_the_run(self):
        ref = run.load_reference()
        key = run.run_inputs("check-dense", 1)[0]
        ref[key]["lines_md5"] = "0" * 32
        path = os.path.join(run.WORK, "corrupt-reference.json")
        with open(path, "w") as f:
            json.dump(ref, f)
        code, res = bench("--workload", "check-dense", "--seed", "1", "--seconds", "1",
                          "--reference", path)
        self.assertNotEqual(code, 0)
        self.assertFalse(res["correct"])
        self.assertGreater(res["failed"], 0)
        self.assertLess(res["metrics"]["ok_ratio"]["value"], 1.0)

    def test_outside_a_checkout_it_fails_without_a_result(self):
        bare = os.path.join(ROOT, run.WORK, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("_work"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        code, res = bench("--workload", "check-dense", "--seed", "1", cwd=bare)
        shutil.rmtree(bare)
        self.assertNotEqual(code, 0)
        self.assertIsNone(res)

    def test_host_speed_is_measured(self):
        run.build()
        speed = run.host_speed()
        self.assertGreater(speed, 0.1)
        self.assertLess(speed, 10)

    def test_unknown_flags_are_rejected(self):
        code, res = bench("--workload", "check-dense", "--seed", "1", "--bogus")
        self.assertEqual(code, 2)
        self.assertIsNone(res)


if __name__ == "__main__":
    unittest.main()
