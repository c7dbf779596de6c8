import os
import subprocess
import sys
from pathlib import Path

import nmrbaker
from nmrbaker import cli, nmr
from nmrbaker.chaos import ExperimentConfig


def run_capture(capsys, argv):
    code = cli.run(argv)
    return code, capsys.readouterr().out


class TestEntropyCommand:
    def test_row_count_and_header(self, capsys):
        code, out = run_capture(capsys, ["entropy", "--preset", "fig2", "--steps", "6", "--seed", "1"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# preset=fig2 map=both")
        assert lines[1] == "step,variant,entropy_bits"
        data = lines[2:]
        assert len(data) == 14  # 7 rows per variant
        assert data[0].startswith("0,chaotic,")
        assert data[7].startswith("0,regular,")

    def test_resolved_config_embedded(self, capsys):
        _, out = run_capture(capsys, ["entropy", "--preset", "fig3", "--steps", "2"])
        header = out.splitlines()[0]
        for token in ("hamiltonian=noxy", "convention=angular", "steps=2",
                      "inv_gamma_c2=0.2"):
            assert token in header

    def test_single_variant_selection(self, capsys):
        _, out = run_capture(capsys, ["entropy", "--preset", "fig2", "--steps", "1",
                                      "--map", "regular"])
        data = out.splitlines()[2:]
        assert len(data) == 2
        assert all(",regular," in ln for ln in data)

    def test_header_reports_artificial_perturbation(self, capsys):
        _, out = run_capture(capsys, ["entropy", "--preset", "fig4", "--steps", "1"])
        assert "artificial_perturbation=True" in out.splitlines()[0].split()

    def test_gamma_overrides(self, capsys):
        _, out = run_capture(capsys, ["entropy", "--preset", "fig2", "--steps", "1",
                                      "--gamma-h", "9.5"])
        assert "inv_gamma_h=9.5" in out.splitlines()[0]

    def test_byte_identical_runs(self, tmp_path):
        argv = ["entropy", "--preset", "fig2", "--steps", "4", "--seed", "1"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.run(argv + ["--out", str(a)]) == 0
        assert cli.run(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert b"\r" not in a.read_bytes()


class TestHyperCommand:
    def test_output_shape(self, capsys):
        code, out = run_capture(capsys, ["hyper", "--preset", "fig5", "--map", "regular"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# preset=fig5 map=regular")
        assert lines[1].startswith("# s_bar_max_bits=")
        assert "frontier_slope=" in lines[1]
        assert lines[2] == "delta_s_bits,i_min_bits,provenance"
        provs = {ln.rsplit(",", 1)[1] for ln in lines[3:]}
        assert provs == {"exhaustive", "greedy"}

    def test_one_group_point_prints_unsigned_zero(self, capsys):
        _, out = run_capture(capsys, ["hyper", "--preset", "fig5"])
        assert out.splitlines()[3] == "0,0,exhaustive"

    def test_frontier_column_sorted(self, capsys):
        _, out = run_capture(capsys, ["hyper", "--preset", "fig5", "--map", "regular"])
        ds = [float(ln.split(",")[0]) for ln in out.splitlines()[3:]
              if ln.endswith("exhaustive")]
        assert ds == sorted(ds)

    def test_header_reports_perturbation_off(self, capsys):
        # the history ensemble never applies the fig4 perturbation channel
        code, out = run_capture(capsys, ["hyper", "--preset", "fig4", "--map", "regular"])
        assert code == 0
        assert "artificial_perturbation=False" in out.splitlines()[0].split()

    def test_determinism(self, tmp_path):
        argv = ["hyper", "--preset", "fig5", "--map", "chaotic", "--seed", "3"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.run(argv + ["--out", str(a)]) == 0
        assert cli.run(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestVerifyCommand:
    def test_all_checks_pass(self, capsys):
        code, out = run_capture(capsys, ["verify"])
        assert code == 0
        assert "FAIL" not in out
        lines = [ln for ln in out.splitlines() if ln.endswith("PASS")]
        assert [ln.split("  ")[0].rstrip() for ln in lines] == [name for name, _, _ in cli.CHECKS]


class TestCompileCommand:
    def test_blocks_and_round_trip(self, capsys):
        code, out = run_capture(capsys, ["compile"])
        assert code == 0
        assert "# gates name=baker_full n_qubits=3 order=execution" in out
        assert "# gates name=baker_simplified" in out
        # split pulse blocks and round-trip each through the parser
        blocks = [b for b in out.split("\n\n") if b.startswith("# name=")]
        assert len(blocks) == 4
        names = set()
        model = nmr.HamiltonianModel()
        for block in blocks:
            seq = nmr.parse_sequence(block)
            names.add(seq.name)
            rebuilt = {
                "t_odd": nmr.t_odd,
                "t_even": nmr.t_even,
                "t_regular": nmr.t_regular,
                "full_baker": nmr.full_baker_appendix,
            }[seq.name](model)
            assert seq.instructions == rebuilt.instructions
        assert names == {"t_odd", "t_even", "t_regular", "full_baker"}

    def test_convention_changes_delays(self, capsys):
        _, ang = run_capture(capsys, ["compile"])
        _, cyc = run_capture(capsys, ["compile", "--convention", "cycles"])
        assert ang != cyc
        assert "convention=cycles" in cyc


class TestExitCodes:
    def test_unknown_flag_exits_two(self, capsys):
        assert cli.run(["entropy", "--bogus-knob", "1"]) == 2

    def test_unknown_subcommand_exits_two(self, capsys):
        assert cli.run(["simulate"]) == 2

    def test_bad_preset_exits_two(self, capsys):
        assert cli.run(["entropy", "--preset", "fig9"]) == 2

    def test_invalid_value_exits_two(self, capsys):
        assert cli.run(["entropy", "--steps", "0"]) == 2
        assert cli.run(["entropy", "--steps", "1", "--gamma-h", "0"]) == 2
        # a history ensemble beyond the exhaustive-scan limit is a
        # configuration error, not a crash
        assert cli.run(["hyper", "--preset", "fig5", "--steps", "4"]) == 2

    def test_oversized_history_rejected_before_work(self, monkeypatch, capsys):
        def forbidden(cfg, n_steps):
            raise AssertionError("history ensemble built for a rejected configuration")

        monkeypatch.setattr(cli.chaos, "history_ensemble", forbidden)
        assert cli.run(["hyper", "--preset", "fig5", "--steps", "4"]) == 2
        assert "partition scan" in capsys.readouterr().err

    def test_io_failure_exits_four(self, tmp_path, capsys):
        path = tmp_path / "does" / "not" / "exist" / "out.csv"
        assert cli.run(["entropy", "--steps", "1", "--out", str(path)]) == 4

    def test_physics_violation_exits_three(self, monkeypatch, capsys):
        # a negative dephasing rate (which NoiseModel itself refuses) makes
        # the delay channel non-CP; the state check after the step catches it
        noise = ExperimentConfig.preset("fig2").noise()
        object.__setattr__(noise, "gamma_c2", -2.5)
        monkeypatch.setattr(ExperimentConfig, "noise", lambda self: noise)
        assert cli.run(["entropy", "--steps", "1"]) == 3
        assert "negative eigenvalue" in capsys.readouterr().err


def test_module_entry_point_runs_without_warning():
    src = str(Path(nmrbaker.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "nmrbaker.cli", "compile"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
