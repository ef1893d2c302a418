"""Tests of the benchmark's own logic in run.py: the statistics, the table
digest check and the conservation check.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import hashlib
import statistics
import unittest

import run

TABLES = (
    "== Table 1 — the IXPs in numbers (latest snapshot, scaled world) ==\n"
    "IXP       Location                Routes-v4  Routes-v6\n"
    "----------------------------------------------------\n"
    "DE-CIX    Frankfurt, Germany      79831      11670\n"
    "LINX      London, United Kingdom  29952      7593\n"
    "\n"
    "== Fig. 1 — IXP-defined vs unknown communities ==\n"
).encode()
STDOUT = (
    b"== pre-flight \xe2\x80\x94 static policy verification (staticheck) ==\n"
    b"workspace  0  703  ok\n\n" + TABLES + b"=== run telemetry ===\ncounters\n"
)


class Statistics(unittest.TestCase):
    def test_percentile_interpolates_between_ranks(self):
        values = [float(x) for x in range(1, 101)]
        self.assertAlmostEqual(run.percentile(values, 50), 50.5)
        self.assertAlmostEqual(run.percentile(values, 95), 95.05)
        self.assertEqual(run.percentile(values, 0), 1.0)
        self.assertEqual(run.percentile(values, 100), 100.0)

    def test_percentile_matches_statistics_inclusive(self):
        values = [3.0, 9.5, 1.25, 7.0, 4.5, 8.0, 2.0]
        cuts = statistics.quantiles(values, n=20, method="inclusive")
        self.assertAlmostEqual(run.percentile(values, 95), cuts[18])
        self.assertAlmostEqual(run.percentile(values, 50), statistics.median(values))

    def test_percentile_ignores_input_order_and_handles_one_value(self):
        self.assertEqual(run.percentile([5.0], 95), 5.0)
        self.assertEqual(run.percentile([4.0, 1.0, 3.0, 2.0], 50), 2.5)
        with self.assertRaises(ValueError):
            run.percentile([], 50)

    def test_median_of_even_and_odd_counts(self):
        self.assertEqual(run.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(run.median([4.0, 1.0, 3.0, 2.0]), 2.5)

    def test_quartile_spread_is_iqr_over_median(self):
        values = [float(x) for x in range(1, 11)]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(run.quartile_spread(values), (q3 - q1) / q2)
        self.assertEqual(run.quartile_spread([2.0] * 10), 0.0)


class Digest(unittest.TestCase):
    def digests(self):
        return {"7": hashlib.sha256(TABLES).hexdigest()}

    def test_tables_exclude_preflight_and_telemetry(self):
        self.assertEqual(run.tables_of(STDOUT), TABLES)

    def test_matching_tables_pass(self):
        ok, _ = run.check_digest(STDOUT, 7, self.digests())
        self.assertTrue(ok)

    def test_one_byte_table_change_fails(self):
        at = STDOUT.index(b"79831")
        changed = STDOUT[:at] + b"8" + STDOUT[at + 1:]
        ok, detail = run.check_digest(changed, 7, self.digests())
        self.assertFalse(ok)
        self.assertIn("!= committed", detail)

    def test_preflight_change_does_not_matter(self):
        changed = STDOUT.replace(b"703", b"704")
        ok, _ = run.check_digest(changed, 7, self.digests())
        self.assertTrue(ok)

    def test_missing_tables_fail_and_unpinned_seed_passes(self):
        self.assertFalse(run.check_digest(b"building world...\n", 7, self.digests())[0])
        self.assertTrue(run.check_digest(STDOUT, 8, self.digests())[0])

    def test_table1_routes_sums_both_route_columns(self):
        self.assertEqual(run.table1_routes(STDOUT), 79831 + 11670 + 29952 + 7593)


class Conservation(unittest.TestCase):
    def test_equal_counts_pass(self):
        chain = [("route_server RIB", 194445), ("looking_glass routes served", 194445),
                 ("analysis routes folded", 194445)]
        self.assertIsNone(run.conservation(chain))

    def test_mismatch_names_its_layer(self):
        chain = [("route_server RIB", 194445), ("looking_glass routes served", 194445),
                 ("collector snapshots", 194444), ("analysis routes folded", 194444)]
        message = run.conservation(chain)
        self.assertIn("collector snapshots", message)
        self.assertIn("194444", message)
        self.assertIn("looking_glass routes served had 194445", message)


if __name__ == "__main__":
    unittest.main()
