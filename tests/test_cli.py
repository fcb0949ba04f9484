import json
import math
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from conftest import identity_map
from qheine.cli import curve_to_csv, curve_to_svg, load_grid_config, main
from qheine.geomtest import BoundaryCurve, boundary_curve
from qheine.scanner import GridSpec, Range

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def run_json(capsys, *argv):
    rc, out, err = run_cli(capsys, *argv)
    return rc, json.loads(out), err


class TestEval:
    def test_phi_at_zero(self, capsys):
        rc, payload, _ = run_json(capsys, "eval", "--phi", "-a", "0.9", "-b", "0.7",
                                  "-c", "0.6", "-q", "0.8", "-z", "0")
        assert rc == 0
        assert payload["schema_version"] == 1
        assert payload["value"] == [1.0, 0.0]
        assert payload["terms_used"] == 1

    def test_gauss(self, capsys):
        rc, payload, _ = run_json(capsys, "eval", "--gauss", "-a", "1", "-b", "1",
                                  "-c", "2", "-q", "0.5", "-z", "0.5")
        assert rc == 0
        assert payload["value"][0] == pytest.approx(1.3862943611198906, rel=1e-11)

    def test_ratio_complex_z(self, capsys):
        rc, payload, _ = run_json(capsys, "eval", "--ratio", "shift_a", "-a", "0.99",
                                  "-b", "0.998", "-c", "0.98", "-q", "0.9",
                                  "-z", "0.3+0.4j")
        assert rc == 0
        assert payload["est_error"] is None

    def test_domain_error_exit_2(self, capsys):
        rc, out, err = run_cli(capsys, "eval", "--phi", "-a", "0.9", "-b", "0.7",
                               "-c", "0.6", "-q", "0.8", "-z", "1.5")
        assert rc == 2
        assert "DomainError" in err

    def test_non_finite_parameter_exit_2(self, capsys):
        rc, _, err = run_cli(capsys, "eval", "-a", "nan", "-b", "0.7",
                             "-c", "0.6", "-q", "0.8", "-z", "0.3")
        assert rc == 2
        assert err.startswith("DomainError: a must be finite")

    def test_bad_z_exit_2(self, capsys):
        rc, _, err = run_cli(capsys, "eval", "--phi", "-a", "0.9", "-b", "0.7",
                             "-c", "0.6", "-q", "0.8", "-z", "zzz")
        assert rc == 2


class TestIdentities:
    def test_pass(self, capsys):
        rc, payload, _ = run_json(capsys, "identities", "-a", "0.9", "-b", "0.7",
                                  "-c", "0.6", "-q", "0.8", "-z", "0.3")
        assert rc == 0
        assert payload["pass"] is True
        assert set(payload["residuals"]) == {"L2.1a", "L2.1b-first",
                                             "L2.1b-second", "Dq-relation"}

    def test_fail_with_absurd_tolerance(self, capsys):
        rc, payload, _ = run_json(capsys, "identities", "-a", "0.9", "-b", "0.7",
                                  "-c", "0.6", "-q", "0.8", "-z", "0.3",
                                  "--tol", "1e-30")
        assert rc == 1
        assert payload["pass"] is False

    def test_escalation_near_unit_circle_passes(self, capsys):
        # the decimal sums need about 7 500 terms here
        rc, payload, _ = run_json(capsys, "identities", "-a", "0.2", "-b", "0.3",
                                  "-c", "0.93", "-q", "0.88", "-z", "0.99")
        assert rc == 0
        assert payload["pass"] is True

    def test_escalation_past_its_term_cap_exit_2(self, capsys):
        # the decimal sums do not settle within MAX_TERMS terms here
        rc, _, err = run_cli(capsys, "identities", "-a", "0.2", "-b", "0.3",
                             "-c", "0.93", "-q", "0.88", "-z=-0.999")
        assert rc == 2
        assert err.startswith("NoConvergence")


class TestGFractionAndMoments:
    def test_gfraction_fields(self, capsys):
        rc, payload, _ = run_json(capsys, "gfraction", "--variant", "shift_bc",
                                  "-a", "0.9", "-b", "0.7", "-c", "0.6",
                                  "-q", "0.8", "-N", "8")
        assert rc == 0
        assert payload["g"][1] == pytest.approx(0.75)
        assert len(payload["partial_numerators"]) == 7
        assert payload["argument_scale"] == 1.0

    def test_gfraction_plain_z_scale(self, capsys):
        args = ("gfraction", "--variant", "shift_bc", "-a", "0.9", "-b", "0.7",
                "-c", "0.6", "-q", "0.8", "-N", "8")
        _, qz, _ = run_json(capsys, *args, "--argument", "qz")
        rc, z, _ = run_json(capsys, *args, "--argument", "z")
        assert rc == 0
        assert z["argument_scale"] == 1.0 / 0.8
        assert z["g"] == qz["g"]
        assert z["partial_numerators"] == qz["partial_numerators"]

    def test_moments_pass(self, capsys):
        rc, payload, _ = run_json(capsys, "moments", "--variant", "shift_a",
                                  "-a", "0.99", "-b", "0.998", "-c", "0.98",
                                  "-q", "0.9", "-N", "12")
        assert rc == 0
        assert payload["totally_monotone"] is True
        assert payload["moments"][0] == 1.0
        assert payload["first_violation"] is None

    def test_moments_nan_tol_exit_2(self, capsys):
        rc, _, err = run_cli(capsys, "moments", "--variant", "shift_a",
                             "-a", "0.916261106974507", "-b", "-0.4121543034970268",
                             "-c", "0.9069117785606575", "-q", "0.7501997147334211",
                             "-N", "30", "--tol", "nan")
        assert rc == 2
        assert err.startswith("DomainError")


class TestCheck:
    def test_hypothesis_failure_names(self, capsys):
        rc, payload, _ = run_json(capsys, "check", "--what", "hypothesis",
                                  "--variant", "shift_bc", "-a", "0.6", "-b", "0.7",
                                  "-c", "0.6", "-q", "0.8")
        assert rc == 1
        assert payload["violations"] == ["a-c>0"]

    def test_kq_route(self, capsys):
        rc, payload, _ = run_json(capsys, "check", "--what", "kq", "-a", "0.5",
                                  "-b", "0.5", "-c", "0.2", "-q", "0.5")
        assert rc == 0
        assert payload["route"] == "t1"

    def test_bn(self, capsys):
        rc, payload, _ = run_json(capsys, "check", "--what", "bn", "-a", "0.5",
                                  "-b", "0.5", "-c", "0.2", "-q", "0.5", "-N", "50")
        assert rc == 0
        assert payload["verdict"] == "decreasing_01"


class TestKq:
    def test_report(self, capsys):
        rc, payload, _ = run_json(capsys, "kq", "-a", "0.5", "-b", "0.5",
                                  "-c", "0.2", "-q", "0.5", "--radii", "16",
                                  "--angles", "16")
        assert rc == 0
        assert payload["max_ratio"] <= 1.0 + 1e-10
        assert len(payload["worst_z"]) == 2

    def test_failing_exit_code(self, capsys):
        rc, payload, _ = run_json(capsys, "kq", "-a", "0.1", "-b", "0.1",
                                  "-c", "0.9", "-q", "0.5", "--radii", "16",
                                  "--angles", "16")
        assert rc == 1
        assert payload["pass"] is False

    @pytest.mark.parametrize("flag", ["--radii=0", "--angles=0", "--r-max=1.5", "--r-max=-0.5"])
    def test_bad_grid_exit_2(self, capsys, flag):
        # the grid is checked before any sampling; outside the unit disk
        # there is nothing to pass
        rc, out, err = run_cli(capsys, "kq", "-a", "0.5", "-b", "0.5",
                               "-c", "0.2", "-q", "0.5", flag)
        assert rc == 2
        assert out == ""
        assert err.startswith("DomainError")


class TestBoundaryAndFigures:
    def test_csv_format_and_determinism(self, capsys, tmp_path):
        out1, out2 = tmp_path / "c1.csv", tmp_path / "c2.csv"
        for out in (out1, out2):
            rc, _, _ = run_json(capsys, "boundary", "--map", "shift_a",
                                "-a", "0.99", "-b", "0.998", "-c", "0.98",
                                "-q", "0.9", "-r", "0.9", "-M", "512",
                                "--format", "csv", "--out", str(out))
            assert rc == 0
        b1, b2 = out1.read_bytes(), out2.read_bytes()
        assert b1 == b2
        lines = b1.decode().split("\n")
        assert lines[0] == "theta,re_w,im_w"
        assert len(lines) == 514  # header + 512 rows + trailing newline
        assert "\r" not in b1.decode()

    @pytest.mark.filterwarnings("error")
    def test_cut_error_exit_2_without_numpy_warnings(self, capsys, tmp_path):
        rc, _, err = run_cli(capsys, "boundary", "--map", "shift_bc_qz", "-a", "0.26",
                             "-b", "0.26", "-c", "0.97", "-q", "0.95", "-r", "0.999",
                             "-M", "4096", "--out", str(tmp_path / "w.csv"))
        assert rc == 2
        assert err == "CutError: shift_bc_qz: non-finite curve sample at index 1176\n"

    @pytest.mark.filterwarnings("error")
    def test_overflowing_gauss_coefficients_exit_2_without_numpy_warnings(self, capsys,
                                                                         tmp_path):
        rc, _, err = run_cli(capsys, "boundary", "--map", "gauss_ratio", "-a", "0.5",
                             "-b", "0.5", "-c", "1e-310", "--out", str(tmp_path / "w.csv"))
        assert rc == 2
        assert err == "NoConvergence: series coefficient 1 is inf\n"

    def test_csv_round_trips_17_digits(self):
        curve = boundary_curve(identity_map(), 0.5, 256)
        text = curve_to_csv(curve)
        row = text.split("\n")[5].split(",")
        k = 4
        assert float(row[1]) == curve.samples[k].real
        assert float(row[2]) == curve.samples[k].imag

    def test_svg_structure(self):
        curve = boundary_curve(identity_map(), 0.5, 256)
        svg = curve_to_svg(curve)
        assert svg.count("<polyline") == 1
        assert 'width="800" height="800"' in svg
        assert svg.count("<line") == 2
        # closed polyline: first point repeated at the end
        pts = svg.split('points="')[1].split('"')[0].split()
        assert pts[0] == pts[-1]

    def test_figure_5_unit_deviation_shrinks(self, capsys, tmp_path):
        rc, p50, _ = run_json(capsys, "figure", "5", "--format", "csv",
                              "--samples", "1024",
                              "--out", str(tmp_path / "f5_50.csv"))
        assert rc == 0
        rc, p500, _ = run_json(capsys, "figure", "5", "--c", "500",
                               "--format", "csv", "--samples", "1024",
                               "--out", str(tmp_path / "f5_500.csv"))
        assert rc == 0
        assert p500["max_unit_deviation"] < p50["max_unit_deviation"]

    def test_figure_2_svg(self, capsys, tmp_path):
        out = tmp_path / "fig2.svg"
        rc, payload, _ = run_json(capsys, "figure", "2", "--samples", "512",
                                  "--out", str(out))
        assert rc == 0
        assert payload["params"] == {"map": "shift_bc", "a": 0.9, "b": 0.7,
                                     "c": 0.6, "q": 0.8}
        svg = out.read_text()
        assert svg.count("<polyline") == 1


def reference_csv(curve):
    """Row-by-row CSV writer the column-wise one must match byte for byte."""
    lines = ["theta,re_w,im_w"]
    for k in range(curve.M):
        w = curve.samples[k]
        theta = 2.0 * math.pi * k / curve.M
        lines.append(f"{theta:.17g},{w.real:.17g},{w.imag:.17g}")
    return "\n".join(lines) + "\n"


def reference_polyline(curve, size=800, margin=60):
    """The SVG polyline points, written point by point."""
    xs, ys = curve.samples.real, curve.samples.imag
    bw = max(float(xs.max()) - float(xs.min()), 1e-30)
    bh = max(float(ys.max()) - float(ys.min()), 1e-30)
    scale = min((size - 2 * margin) / bw, (size - 2 * margin) / bh)
    cx, cy = 0.5 * (float(xs.min()) + float(xs.max())), 0.5 * (float(ys.min()) + float(ys.max()))
    pts = [f"{0.5 * size + (x - cx) * scale:.3f},{0.5 * size - (y - cy) * scale:.3f}"
           for x, y in zip(xs, ys)]
    return " ".join(pts + pts[:1])


class TestCurveWriters:
    @pytest.mark.parametrize("M", [256, 1000, 4096])
    @pytest.mark.parametrize("magnitude", [1e-300, 1.0, 1e300])
    def test_byte_identical_to_row_loop(self, M, magnitude):
        rng = np.random.default_rng(M)
        w = magnitude * (rng.standard_normal(M) + 1j * rng.standard_normal(M))
        w[:8] = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
                 complex(5e-324, -5e-324), complex(-1e-300, 1e-300),
                 complex(1e300, -1e300), complex(-0.0, 1.0), complex(1.0, -0.0)]
        curve = BoundaryCurve(0.9, w)
        assert curve_to_csv(curve) == reference_csv(curve)
        svg = curve_to_svg(curve)
        assert svg.split('points="')[1].split('"')[0] == reference_polyline(curve)


SCAN_CFG = """\
# comment line
a.min=0.3
a.max=0.9
a.steps=3
b.min=0.3
b.max=0.9
b.steps=3
c.min=0.1
c.max=0.7
c.steps=2
q.min=0.2
q.max=0.8
q.steps=2
tests.kq=false
curve.samples=512
"""


class TestScan:
    def test_config_parsing(self, tmp_path):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(SCAN_CFG)
        grid = load_grid_config(str(cfg))
        assert grid.a.steps == 3 and grid.c.steps == 2
        assert grid.run_kq is False and grid.run_bn is True
        assert grid.curve_samples == 512

    def test_ranges_alone_give_grid_defaults(self, tmp_path):
        cfg = tmp_path / "ranges.cfg"
        ranges = [line for line in SCAN_CFG.splitlines()
                  if line.split("=")[0].endswith((".min", ".max", ".steps"))]
        cfg.write_text("\n".join(ranges) + "\n")
        grid = load_grid_config(str(cfg))
        assert grid == GridSpec(a=grid.a, b=grid.b, c=grid.c, q=grid.q)
        assert grid.q == Range(0.2, 0.8, 2)

    @pytest.mark.parametrize("entry", ["curve.r=abc", "bn.n=1.5", "tests.bn=maybe"])
    def test_malformed_value_exit_2(self, capsys, tmp_path, entry):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(SCAN_CFG + entry + "\n")
        rc = main(["scan", "--config", str(cfg), "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        assert entry.split("=")[0] in capsys.readouterr().err

    @pytest.mark.parametrize("entry", ["kq.radii=0", "kq.angles=0", "kq.rmax=1.5",
                                       "curve.r=1.5", "curve.samples=100", "bn.n=1",
                                       "a.min=nan", "q.max=inf"])
    def test_out_of_domain_value_exit_2(self, capsys, tmp_path, entry):
        # rejected at load, before any point gets a per-test error note
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(SCAN_CFG + entry + "\n")  # the later entry wins
        out = tmp_path / "o.csv"
        rc = main(["scan", "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("DomainError")
        assert not out.exists()

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(SCAN_CFG + "bogus.key=1\n")
        rc = main(["scan", "--config", str(cfg), "--out", str(tmp_path / "o.csv")])
        assert rc == 2

    def test_scan_csv_deterministic(self, capsys, tmp_path):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(SCAN_CFG)
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        rc, payload, _ = run_json(capsys, "scan", "--config", str(cfg),
                                  "--out", str(out1), "--threads", "1")
        assert rc == 0
        assert payload["points"] == 36
        rc, _, _ = run_json(capsys, "scan", "--config", str(cfg),
                            "--out", str(out2), "--threads", "1")
        assert rc == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_demo_scan_matches_its_golden(self, capsys, tmp_path, threads):
        out = tmp_path / "scan.csv"
        rc, payload, _ = run_json(capsys, "scan", "--config",
                                  str(ROOT / "scripts" / "demo_scan.cfg"),
                                  "--threads", threads, "--out", str(out))
        assert rc == 0 and payload["points"] == 6**4
        assert out.read_bytes() == (ROOT / "tests" / "golden" / "demo_scan.csv").read_bytes()


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qheine.cli", "eval", "--phi", "-a", "0.9",
             "-b", "0.7", "-c", "0.6", "-q", "0.8", "-z", "0"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["value"] == [1.0, 0.0]

    def test_missing_subcommand_exits_2(self):
        proc = subprocess.run([sys.executable, "-m", "qheine.cli"],
                              capture_output=True, text=True)
        assert proc.returncode == 2
