import numpy as np
import pytest

from qheine.errors import CapExceeded, DomainError
from qheine.scanner import (
    GridSpec,
    Range,
    ScanRecord,
    records_to_csv,
    scan,
    scan_point,
    soundness_violations,
)


def single_point_grid(a, b, c, q, **kw):
    return GridSpec(a=Range(a, a, 1), b=Range(b, b, 1), c=Range(c, c, 1),
                    q=Range(q, q, 1), **kw)


class TestRange:
    def test_values(self):
        np.testing.assert_allclose(Range(0.1, 0.9, 3).values(), [0.1, 0.5, 0.9])
        assert list(Range(0.4, 0.4, 1).values()) == [0.4]

    def test_validation(self):
        with pytest.raises(DomainError):
            Range(0.1, 0.9, 0)
        with pytest.raises(DomainError):
            Range(0.9, 0.1, 2)


class TestScanPoint:
    def test_reference_point_hypothesis(self):
        grid = single_point_grid(0.9, 0.7, 0.6, 0.8)
        records = scan(grid, threads=1)
        assert len(records) == 1
        assert records[0].hyp_thm1 is True
        assert records[0].empirical_vconvex is True

    def test_disabled_tests_leave_only_hypotheses(self):
        grid = GridSpec(a=Range(0.9, 0.9, 1), b=Range(0.7, 0.7, 1),
                        c=Range(0.6, 0.6, 1), q=Range(0.2, 0.8, 2),
                        run_bn=False, run_vconvex=False, run_kq=False)
        records = scan(grid, threads=1)
        assert len(records) == 2
        for r in records:
            assert isinstance(r.hyp_thm1, bool) and isinstance(r.hyp_thm2, bool)
            assert r.bn_verdict is None
            assert r.empirical_vconvex is None
            assert r.empirical_kq is None
            assert {"bn:disabled", "vconvex:disabled", "kq:disabled"} <= set(r.notes)

    def test_boundary_violation_note(self):
        # straddling a = c: on the boundary the strict inequality fails
        grid = GridSpec(a=Range(0.5, 0.7, 3), b=Range(0.7, 0.7, 1),
                        c=Range(0.6, 0.6, 1), q=Range(0.8, 0.8, 1),
                        run_bn=False, run_vconvex=False, run_kq=False)
        records = scan(grid, threads=1)
        boundary = records[1]  # a = 0.6 = c
        assert boundary.hyp_thm1 is False
        assert any(note.startswith("thm1:") and "a-c>0" in note
                   for note in boundary.notes)
        assert records[2].hyp_thm1 is True

    def test_invalid_params_skipped_not_fatal(self):
        rec = scan_point(0.5, 0.5, 2.0, 0.5, single_point_grid(0.5, 0.5, 2.0, 0.5))
        assert rec.notes == ("invalid-params",)
        assert rec.empirical_vconvex is None


class TestScan:
    def test_lexicographic_order(self):
        grid = GridSpec(a=Range(0.1, 0.2, 2), b=Range(0.3, 0.3, 1),
                        c=Range(0.0, 0.1, 2), q=Range(0.5, 0.6, 2),
                        run_bn=False, run_vconvex=False, run_kq=False)
        records = scan(grid, threads=1)
        keys = [(r.a, r.b, r.c, r.q) for r in records]
        assert keys == sorted(keys)

    def test_cap(self):
        grid = GridSpec(a=Range(0, 0.9, 10), b=Range(0, 0.9, 10),
                        c=Range(0, 0.9, 10), q=Range(0.1, 0.9, 11), cap=10_000)
        with pytest.raises(CapExceeded):
            scan(grid)

    def test_determinism_and_parallel_equivalence(self):
        grid = GridSpec(a=Range(0.2, 0.8, 3), b=Range(0.2, 0.8, 3),
                        c=Range(0.1, 0.5, 2), q=Range(0.3, 0.7, 2),
                        curve_samples=512, kq_radii=8, kq_angles=8)
        serial1 = records_to_csv(scan(grid, threads=1))
        serial2 = records_to_csv(scan(grid, threads=1))
        parallel = records_to_csv(scan(grid, threads=2))
        assert serial1 == serial2 == parallel

    def test_soundness_on_small_grid(self):
        grid = GridSpec(a=Range(0.05, 0.9, 4), b=Range(0.05, 0.9, 4),
                        c=Range(0.05, 0.9, 4), q=Range(0.15, 0.85, 3),
                        curve_samples=512, kq_radii=16, kq_angles=16)
        records = scan(grid, threads=1)
        assert soundness_violations(records) == []
        # sufficient-not-necessary: some hypothesis-false points pass anyway
        assert any((not r.hyp_thm1) and r.empirical_vconvex for r in records)

    def test_soundness_covers_theorem_2(self):
        # the scan tests the shift_a maps under hyp_thm2 as well
        rec = ScanRecord(0.05, 0.05, 0.05, 0.9, False, True, "none", None,
                         False, None, ())
        assert soundness_violations([rec]) == [rec]


class TestCsv:
    def test_header_and_cells(self):
        rec = ScanRecord(0.1, 0.2, 0.3, 0.4, True, False, "none", "neither",
                         None, True, ("vconvex:disabled",))
        text = records_to_csv([rec])
        lines = text.split("\n")
        assert lines[0].startswith("a,b,c,q,hyp_thm1")
        assert lines[1] == ("0.10000000000000001,0.20000000000000001,"
                            "0.29999999999999999,0.40000000000000002,"
                            "true,false,none,neither,skipped,true,vconvex:disabled")
        assert text.endswith("\n")
