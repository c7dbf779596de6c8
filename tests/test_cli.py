import ast
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nmrbaker
from nmrbaker import baker, chaos, cli, nmr, qstate
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

    @pytest.mark.parametrize("argv", [["entropy", "--steps", "1"],
                                      ["hyper", "--preset", "fig5", "--steps", "1"]],
                             ids=lambda argv: argv[0])
    def test_header_names_every_setting_once(self, argv, capsys):
        _, out = run_capture(capsys, argv)
        keys = [token.split("=", 1)[0] for token in out.splitlines()[0].split()[1:]]
        settings = [f.name for f in dataclasses.fields(ExperimentConfig) if f.name != "map_variant"]
        assert sorted(keys) == sorted(["preset", "map", *settings])

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

    def test_trace_drift_checks_its_six_states_once(self, monkeypatch):
        checked, check = [], qstate.density_matrix_defects
        monkeypatch.setattr(qstate, "density_matrix_defects",
                            lambda rho: checked.append(np.shape(rho)) or check(rho))
        assert cli.check("trace drift over six noisy steps").passed
        assert checked == [(6, 8, 8)]


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

    @pytest.mark.parametrize("convention", ["angular", "cycles"])
    def test_hamiltonian_changes_nothing(self, convention, capsys):
        # the programs read only j1, the C2 offset and the convention
        outs = {run_capture(capsys, ["compile", "--hamiltonian", h, "--convention", convention])
                for h in nmr.VARIANTS}
        assert len(outs) == 1 and outs.pop()[0] == 0

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

    @pytest.mark.parametrize("command", ["entropy", "hyper"])
    def test_negative_seed_rejected_before_work(self, command, monkeypatch, capsys):
        def forbidden(*args, **kwargs):
            raise AssertionError("an experiment ran for a rejected seed")

        monkeypatch.setattr(cli.chaos, "history_ensemble", forbidden)
        monkeypatch.setattr(cli.chaos, "entropy_experiment", forbidden)
        assert cli.run([command, "--preset", "fig5", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "seed=-1" in captured.err

    def test_io_failure_exits_four(self, tmp_path, capsys):
        path = tmp_path / "does" / "not" / "exist" / "out.csv"
        assert cli.run(["entropy", "--steps", "1", "--out", str(path)]) == 4

    @pytest.mark.parametrize("command, module, work", [
        ("entropy", chaos, "entropy_experiment"), ("hyper", chaos, "hypersensitivity_experiment"),
        ("verify", cli, "standard_checks"), ("compile", baker, "baker_gate_sequence")])
    def test_unwritable_out_exits_four_before_any_work(self, command, module, work, tmp_path,
                                                       monkeypatch, capsys):
        def forbidden(*args, **kwargs):
            raise AssertionError(f"{work} ran")

        monkeypatch.setattr(module, work, forbidden)
        for target in (tmp_path / "missing" / "out.txt", tmp_path):  # no such directory; a directory
            assert cli.run([command, "--out", str(target)]) == 4
            with pytest.raises(OSError) as want:
                open(target, "w")
            assert capsys.readouterr() == ("", f"i/o failure: {want.value}\n")
        with pytest.raises(AssertionError, match=f"{work} ran"):  # the patch is live
            cli.run([command, "--out", str(tmp_path / "writable.txt")])
        assert list(tmp_path.iterdir()) == []  # no empty file left behind

    def test_failed_run_leaves_the_target_as_it_was(self, tmp_path, monkeypatch, capsys):
        noise = ExperimentConfig.preset("fig2").noise()
        object.__setattr__(noise, "gamma_c2", -2.5)  # as in test_physics_violation_exits_three
        monkeypatch.setattr(ExperimentConfig, "noise", lambda self: noise)
        existing, new = tmp_path / "existing.csv", tmp_path / "new.csv"
        existing.write_bytes(b"earlier\r\noutput")
        for target in existing, new:
            assert cli.run(["entropy", "--steps", "1", "--out", str(target)]) == 3
        assert existing.read_bytes() == b"earlier\r\noutput"
        assert not new.exists()

    def test_failed_run_through_a_dangling_link_creates_no_file(self, tmp_path, capsys):
        link, target = tmp_path / "out.txt", tmp_path / "target.txt"
        link.symlink_to(target.name)
        assert cli.run(["hyper", "--steps", "100", "--out", str(link)]) == 2
        assert not target.exists()
        assert link.is_symlink() and os.readlink(link) == target.name
        assert sorted(tmp_path.iterdir()) == [link]

    def test_run_writes_through_a_dangling_link(self, tmp_path, capsys):
        link, target = tmp_path / "out.txt", tmp_path / "target.txt"
        link.symlink_to(target.name)
        assert cli.run(["entropy", "--steps", "1", "--out", str(link)]) == 0
        assert link.is_symlink() and os.readlink(link) == target.name
        cli.run(["entropy", "--steps", "1"])
        assert target.read_text() == capsys.readouterr().out != ""

    @pytest.mark.parametrize("argv, message", [
        (["hyper", "--steps", "100000000"], "2**100000000 histories"),
        # a stack of about 1e18 bytes: past any 64-bit address space, so
        # nothing is allocated whatever the overcommit mode
        (["entropy", "--steps", "1000000000000000"], "Unable to allocate")], ids=["hyper", "entropy"])
    def test_huge_step_count_exits_two(self, argv, message, capsys):
        assert cli.run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("invalid configuration: ") and message in captured.err

    def test_last_kick_is_checked(self, monkeypatch, capsys):
        # a kick that scales the state breaks its trace; only the kicked
        # state shows it, and its entropy must not be printed
        kick = chaos._averaged_kick
        monkeypatch.setattr(chaos, "_averaged_kick", lambda rho, z: 1.01 * kick(rho, z))
        assert cli.run(["entropy", "--preset", "fig4", "--steps", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "physics violation" in captured.err and "deviates from 1 by 1.000e-02" in captured.err

    @pytest.mark.parametrize("argv", [
        ["entropy", "--preset", "fig2", "--steps", "1", "--gamma-h", "1e-300"],
        ["hyper", "--preset", "fig5", "--gamma-c2", "1e-300"]], ids=["entropy", "hyper"])
    def test_non_finite_state_exits_three(self, argv, capsys):
        # a 1e300/s dephasing rate overflows expm of the full generator to NaN
        assert cli.run([*argv, "--hamiltonian", "full"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "physics violation" in captured.err and "non-finite" in captured.err

    @pytest.mark.parametrize("hamiltonian, inv_gamma_h", [
        ("noxy", "5e-10"), ("full", "1e-9"),
        pytest.param("full", "5e-10", marks=pytest.mark.xfail(strict=True, reason=(
            "ROADMAP item 5: expm of the dense full generator at 2e9 /s loses the trace by 3.3e-9")))])
    def test_short_dephasing_time_runs(self, hamiltonian, inv_gamma_h, capsys):
        # the same rates evolve on a diagonal generator; only the full one fails
        assert cli.run(["entropy", "--steps", "1", "--hamiltonian", hamiltonian, "--gamma-h", inv_gamma_h]) == 0

    def test_physics_violation_exits_three(self, monkeypatch, capsys):
        # a negative dephasing rate (which NoiseModel itself refuses) makes
        # the delay channel non-CP; the state check after the step catches it
        noise = ExperimentConfig.preset("fig2").noise()
        object.__setattr__(noise, "gamma_c2", -2.5)
        monkeypatch.setattr(ExperimentConfig, "noise", lambda self: noise)
        assert cli.run(["entropy", "--steps", "1"]) == 3
        assert "negative eigenvalue" in capsys.readouterr().err


def run_python(*args):
    """A fresh interpreter with this checkout's package on its path."""
    src = str(Path(nmrbaker.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120)


def test_module_entry_point_runs_without_warning():
    proc = run_python("-W", "error::RuntimeWarning", "-m", "nmrbaker.cli", "compile")
    assert proc.returncode == 0, proc.stderr


def test_compile_process_diagonalises_nothing():
    # the initial state's entropy is taken on first use, not at import
    proc = run_python("-c", "import os, numpy as np; calls, eigvalsh = [], np.linalg.eigvalsh; "
                            "np.linalg.eigvalsh = lambda a: calls.append(a) or eigvalsh(a); "
                            "from nmrbaker import cli; print(cli.run(['compile', '--out', os.devnull]), len(calls))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 0\n"


def test_package_import_loads_every_module_but_cli():
    # the benchmark's tracer wraps functions in the modules `import nmrbaker`
    # loads, and `python -m nmrbaker.cli` warns if the package loaded cli
    proc = run_python("-c", "import sys, nmrbaker; print(sorted(m for m in sys.modules"
                            " if m.startswith('nmrbaker.')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == str(
        [f"nmrbaker.{m}" for m in ("baker", "chaos", "lindblad", "nmr", "qstate")]) + "\n"


# the last stderr line of a child that ran `cli.run(argv)`: its exit code
# and every scipy module it had loaded
SCIPY_PROBE = (
    "import sys; from nmrbaker import cli; code = cli.run(sys.argv[1:]); "
    "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), file=sys.stderr)"
)


def run_cli_loaded_scipy(*argv):
    proc = run_python("-c", SCIPY_PROBE, *argv)
    assert proc.returncode == 0, proc.stderr
    code, loaded = proc.stderr.splitlines()[-1].split(" ", 1)
    return int(code), ast.literal_eval(loaded)


def test_package_import_loads_no_scipy():
    proc = run_python("-c", "import sys, nmrbaker; print([m for m in sys.modules"
                            " if m.split('.')[0] == 'scipy'])")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("argv", [("entropy", "--steps", "1"), ("hyper", "--steps", "1"),
                                  ("verify",), ("compile", "--hamiltonian", "full")],
                         ids=" ".join)
def test_commands_without_full_generator_load_no_scipy(argv):
    # a diagonal generator (noxy, simplified) is exponentiated elementwise, and
    # compile never builds a generator, whatever its Hamiltonian
    assert run_cli_loaded_scipy(*argv) == (0, [])


NUMPY_MA_PROBE = (
    "import sys; from nmrbaker import cli; code = cli.run(sys.argv[1:]); "
    "print(code, 'numpy.ma' in sys.modules, file=sys.stderr)"
)


@pytest.mark.parametrize("variant", ["noxy", "full"])
def test_hyper_process_loads_no_numpy_ma(variant):
    # numpy 2.4's np.unique imports numpy.ma, 13-16 ms of a cold process, and
    # so does scipy.linalg, which a full generator's expm does not import
    proc = run_python("-c", NUMPY_MA_PROBE, "hyper", "--steps", "1", "--hamiltonian", variant)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == "0 False"


@pytest.mark.parametrize("command", ["entropy", "hyper"])
def test_full_generator_loads_only_the_expm_kernels(command):
    # the compiled Pade kernels' extension, by its path: neither scipy's nor
    # scipy.linalg's __init__ runs, nor the numpy namespace clone under it
    code, loaded = run_cli_loaded_scipy(command, "--steps", "1", "--hamiltonian", "full")
    assert code == 0
    assert "scipy.linalg._matfuncs_expm" in loaded
    assert "scipy.linalg" not in loaded and "scipy._lib._array_api" not in loaded


def test_expm_kernels_are_the_module_a_later_scipy_linalg_imports():
    # _expm loads the extension first; scipy.linalg then finds it in
    # sys.modules, so its expm runs the same kernels to the same bytes
    proc = run_python("-c", """if True:
        import sys
        from nmrbaker import chaos, lindblad
        cfg = chaos.ExperimentConfig.preset("fig2", hamiltonian="full")
        gen = cfg.engine()._generator * cfg.model().tau1
        ours = lindblad._expm(gen).tobytes()
        kernels = sys.modules["scipy.linalg._matfuncs_expm"]
        assert "scipy.linalg" not in sys.modules
        import scipy.linalg
        assert scipy.linalg._matfuncs.pick_pade_structure is kernels.pick_pade_structure
        print(scipy.linalg.expm(gen).tobytes() == ours)""")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True\n"


# the last stderr line of a child that imported the package and, given
# arguments, ran `cli.run(argv)`: its exit code and how many partition
# layouts it built
LAYOUT_PROBE = """
import sys
import nmrbaker
code = 0
if sys.argv[1:]:
    from nmrbaker import cli
    code = cli.run(sys.argv[1:])
print(code, nmrbaker.chaos._partition_layout.cache_info().currsize, file=sys.stderr)
"""


@pytest.mark.parametrize("argv, layouts", [((), 0), (("verify",), 0), (("compile",), 0),
                                           (("hyper", "--steps", "1"), 1)],
                         ids=lambda v: " ".join(v) if isinstance(v, tuple) else str(v))
def test_partition_layout_is_built_only_by_a_scan(argv, layouts):
    # the layout is built on a scan's first use, never on the import path
    proc = run_python("-c", LAYOUT_PROBE, *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == f"0 {layouts}"


def test_importtime_lists_no_scipy():
    proc = run_python("-X", "importtime", "-m", "nmrbaker.cli", "entropy")
    assert proc.returncode == 0, proc.stderr
    assert "nmrbaker.lindblad" in proc.stderr  # the import timings were printed
    assert [line for line in proc.stderr.splitlines() if "scipy" in line] == []
