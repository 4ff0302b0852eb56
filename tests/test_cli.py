"""End-to-end tests of the command-line interface.

Each test invokes ``langdei.cli.main`` directly and inspects exit codes,
stderr, and output files. Exit-code contract: 0 success, 1 undefined metric,
2 invalid input.
"""

import csv
import gc
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from langdei import allocator, cli, io
from langdei.cli import SUBCOMMANDS, build_parser, main
from langdei.commands.report import count_trace, load_plan
from langdei.io import bundled_path, load_curve_registry


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def write(path, text):
    path.write_text(text)
    return str(path)


EVAL_LINE = "eval mode=best-source clamp=false m=0.5 gini=0 surrogate=true\n"


@pytest.fixture()
def data(tmp_path):
    """Paths of bundled inputs plus a scratch directory."""
    return {
        "speakers": str(bundled_path("speakers.csv")),
        "tasks": str(bundled_path("tasks.csv")),
        "goods": str(bundled_path("goods.csv")),
        "curves": str(bundled_path("curves_muril.txt")),
        "perf": str(bundled_path("fixtures_ner_equal.csv")),
        "amrs": str(bundled_path("amrs_printed.csv")),
        "tmp": tmp_path,
    }


class TestMetricsCommand:
    def test_one_clamp_warning_per_task(self, data):
        # Seven clamped scores over two tasks and two rows each: a fresh
        # process, so stderr shows what a user sees (one line per warning).
        cells = [("ner", "m", "en", lang, 98.0 + i) for i, lang in enumerate(("hi", "bn", "ta", "te"))]
        cells += [("ner", "n", "en", "hi", 99.0), ("pos", "m", "en", "hi", 97.5), ("pos", "n", "hi", "ur", 97.25)]
        cells += [("nli", "m", "en", "hi", 50.0)]
        perf = write(data["tmp"] / "perf.csv", "task,model,train_lang,target_lang,score\n"
                     + "".join(",".join(map(str, c)) + "\n" for c in cells))
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        result = subprocess.run(
            [sys.executable, "-m", "langdei.cli", "metrics", "--perf", perf, "--tasks", data["tasks"],
             "--tau", "0", "--out", str(data["tmp"] / "sc.csv")],
            capture_output=True, text=True, env=env, check=False,
        )
        assert result.returncode == 0
        assert result.stderr.splitlines() == [
            "warning: scores above task 'ner' maximum 97.6: 5 (largest 101.0); clamping their utility to 1.0",
            "warning: scores above task 'pos' maximum 97.0: 2 (largest 97.5); clamping their utility to 1.0",
        ]

    def test_bundled_ner_fixture(self, data):
        out = data["tmp"] / "sc.csv"
        rc = main([
            "metrics", "--perf", data["perf"], "--tasks", data["tasks"],
            "--speakers", data["speakers"], "--tau", "1", "--out", str(out),
        ])
        assert rc == 0
        (row,) = read_csv(out)
        assert float(row["gini"]) == pytest.approx(13 / 23, abs=5e-5)
        assert float(row["m_tau"]) == pytest.approx(70.73, abs=0.05)

    def test_tau_zero_single_perfect_language_percent_scale(self, data):
        perf = write(
            data["tmp"] / "perf.csv",
            "task,model,train_lang,target_lang,score\nner,m,en,hi,97.6\n",
        )
        out = data["tmp"] / "sc.csv"
        rc = main(["metrics", "--perf", perf, "--tasks", data["tasks"], "--tau", "0", "--out", str(out)])
        assert rc == 0
        (row,) = read_csv(out)
        assert float(row["m_tau"]) == pytest.approx(100 / 23, abs=1e-6)

    def test_missing_speakers_file_names_it(self, data, capsys):
        rc = main([
            "metrics", "--perf", data["perf"], "--tasks", data["tasks"],
            "--speakers", str(data["tmp"] / "missing_speakers.csv"),
            "--tau", "1", "--out", str(data["tmp"] / "x.csv"),
        ])
        assert rc == 2
        assert "missing_speakers.csv" in capsys.readouterr().err

    def test_tau_positive_without_speakers_flag(self, data, capsys):
        rc = main([
            "metrics", "--perf", data["perf"], "--tasks", data["tasks"],
            "--tau", "1", "--out", str(data["tmp"] / "x.csv"),
        ])
        assert rc == 2
        assert "--speakers" in capsys.readouterr().err

    def test_tested_only_switches_mode(self, data):
        out_all = data["tmp"] / "all.csv"
        out_tested = data["tmp"] / "tested.csv"
        base = [
            "metrics", "--perf", data["perf"], "--tasks", data["tasks"],
            "--speakers", data["speakers"], "--tau", "1",
        ]
        assert main(base + ["--out", str(out_all)]) == 0
        assert main(base + ["--tested-only", "--out", str(out_tested)]) == 0
        all_row, tested_row = read_csv(out_all)[0], read_csv(out_tested)[0]
        assert int(tested_row["universe"]) == 10
        # Equal utilities on every tested language: dispersion collapses to 0.
        assert float(tested_row["gini"]) == pytest.approx(0.0, abs=1e-9)
        assert float(tested_row["m_tau"]) > float(all_row["m_tau"])

    def test_unit_scale_output(self, data):
        perf = write(
            data["tmp"] / "perf.csv",
            "task,model,train_lang,target_lang,score\nner,m,en,hi,0.976\n",
        )
        out = data["tmp"] / "sc.csv"
        rc = main(["metrics", "--perf", perf, "--tasks", data["tasks"], "--tau", "0",
                   "--scale", "unit", "--out", str(out)])
        assert rc == 0
        (row,) = read_csv(out)
        assert float(row["m_tau"]) == pytest.approx(1 / 23, abs=1e-9)

    def test_lorenz_output(self, data):
        out = data["tmp"] / "sc.csv"
        lorenz = data["tmp"] / "lz.csv"
        rc = main([
            "metrics", "--perf", data["perf"], "--tasks", data["tasks"],
            "--speakers", data["speakers"], "--out", str(out), "--lorenz-out", str(lorenz),
        ])
        assert rc == 0
        rows = read_csv(lorenz)
        assert len(rows) == 24  # 23 languages + origin point
        assert rows[0]["population_fraction"] == "0"
        assert rows[-1]["cumulative_share"] == "1"

    def test_each_benchmarked_layer_runs_once(self, data, monkeypatch):
        # The benchmark times layers by replacing these module attributes
        # (bench/trace_cli.py), so the subcommand must reach each of them
        # through its module, once, or its span would read 0.
        from langdei import metrics

        calls = {}
        for module, name in ((io, "load_performance"), (metrics, "dei_scorecard"), (io, "render_lorenz")):
            def spy(*args, _fn=getattr(module, name), _name=name, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(module, name, spy)
        rc = main(["metrics", "--perf", data["perf"], "--tasks", data["tasks"], "--speakers", data["speakers"],
                   "--out", str(data["tmp"] / "sc.csv"), "--lorenz-out", str(data["tmp"] / "lz.csv")])
        assert rc == 0
        assert calls == {"load_performance": 1, "dei_scorecard": 1, "render_lorenz": 1}

    def test_failure_leaves_no_output_file(self, data, tmp_path):
        bad_perf = write(tmp_path / "bad.csv", "task,model,train_lang,target_lang,score\nner,m,en,hi,abc\n")
        out = tmp_path / "never.csv"
        rc = main(["metrics", "--perf", bad_perf, "--tasks", data["tasks"], "--tau", "0", "--out", str(out)])
        assert rc == 2
        assert not out.exists()

    def test_non_utf8_input_exit_2(self, data, tmp_path, capsys):
        tasks = tmp_path / "latin1.csv"
        tasks.write_bytes("task,max_performance\nner\u00e9,90\n".encode("latin-1"))
        out = tmp_path / "never.csv"
        rc = main(["metrics", "--perf", data["perf"], "--tasks", str(tasks), "--tau", "0", "--out", str(out)])
        assert rc == 2
        assert "latin1.csv: not UTF-8" in capsys.readouterr().err
        assert not out.exists()

    def test_oversized_csv_cell_exit_2(self, data, tmp_path, capsys):
        # Past the csv module's field size limit (131,072 characters).
        tasks = write(tmp_path / "huge.csv", 'task,max_performance\n"' + "x" * 200_000 + '",90\n')
        out = tmp_path / "never.csv"
        rc = main(["metrics", "--perf", data["perf"], "--tasks", tasks, "--tau", "0", "--out", str(out)])
        assert rc == 2
        assert "huge.csv:2: malformed CSV" in capsys.readouterr().err
        assert not out.exists()

    def test_directory_output_rejected_before_any_write(self, data, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "DIR").mkdir()
        rc = main([
            "metrics", "--perf", data["perf"], "--tasks", data["tasks"], "--tau", "0",
            "--out", "ok.csv", "--lorenz-out", "DIR",
        ])
        assert rc == 2
        assert "--lorenz-out names a directory: DIR" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["DIR"]
        assert list((tmp_path / "DIR").iterdir()) == []

    def test_unwritable_second_output_leaves_no_first_output(self, data, tmp_path):
        out = tmp_path / "sc.csv"
        lorenz = tmp_path / "no_such_dir" / "lz.csv"
        rc = main([
            "metrics", "--perf", data["perf"], "--tasks", data["tasks"],
            "--speakers", data["speakers"], "--out", str(out), "--lorenz-out", str(lorenz),
        ])
        assert rc == 2
        assert not out.exists()
        assert list(tmp_path.iterdir()) == []

    def test_all_zero_scores_exit_code_1(self, data, tmp_path):
        perf = write(tmp_path / "perf.csv", "task,model,train_lang,target_lang,score\nner,m,en,hi,0\n")
        out = tmp_path / "never.csv"
        rc = main(["metrics", "--perf", perf, "--tasks", data["tasks"], "--tau", "0", "--out", str(out)])
        assert rc == 1
        assert not out.exists()

    @pytest.mark.parametrize("zero_model", ["a", "c"], ids=["zero-row-first", "zero-row-last"])
    def test_bad_input_exits_2_before_undefined_gini(self, data, tmp_path, capsys, zero_model):
        # An all-zero row (exit 1 alone) and a row naming `qq`, outside the
        # universe (exit 2 alone): bad input wins whichever row sorts first.
        universe = write(tmp_path / "universe.txt", "hi\nbn\n")
        perf = write(tmp_path / "perf.csv", "task,model,train_lang,target_lang,score\n"
                     f"ner,{zero_model},en,hi,0\nner,b,en,qq,50\n")
        rc = main(["metrics", "--perf", perf, "--tasks", data["tasks"], "--universe", universe, "--tau", "0",
                   "--out", str(tmp_path / "sc.csv"), "--lorenz-out", str(tmp_path / "lz.csv")])
        assert rc == 2
        assert "outside the universe: qq" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["perf.csv", "universe.txt"]

    def test_overflowing_speaker_total_exit_1(self, data, tmp_path, capsys):
        # Two finite speaker counts whose total overflows: demand is
        # undefined (exit 1), not all-zero weights that give m_tau 0.
        universe = write(tmp_path / "universe.txt", "hi\nbn\n")
        speakers = write(tmp_path / "speakers.csv", "lang,speakers_millions\nhi,1e308\nbn,1e308\n")
        perf = write(tmp_path / "perf.csv", "task,model,train_lang,target_lang,score\nner,m,en,hi,50\nner,m,en,bn,60\n")
        rc = main(["metrics", "--perf", perf, "--tasks", data["tasks"], "--universe", universe, "--tau", "1",
                   "--speakers", speakers, "--out", str(tmp_path / "sc.csv"), "--lorenz-out", str(tmp_path / "lz.csv")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: demand is undefined: the sum of the speaker counts to the power tau overflows a float\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["perf.csv", "speakers.csv", "universe.txt"]


class TestEfficiencyCommand:
    def test_perf_only_weights_reproduce_perf_column(self, data):
        out = data["tmp"] / "eff.csv"
        rc = main(["efficiency", "--goods", data["goods"], "--weights", "1,0,0", "--out", str(out)])
        assert rc == 0
        for row in read_csv(out):
            assert float(row["efficiency"]) == pytest.approx(float(row["perf"]))

    def test_printed_override_spot_value(self, data, tmp_path):
        goods = write(
            tmp_path / "goods.csv",
            "model,group,task,throughput,memory_gb,perf\nmuril_base,regional,qa,15.7,0.9,76.1\n",
        )
        out = tmp_path / "eff.csv"
        rc = main(["efficiency", "--goods", goods, "--amrs-override", data["amrs"], "--out", str(out)])
        assert rc == 0
        (row,) = read_csv(out)
        assert float(row["efficiency"]) == pytest.approx(79.37, abs=0.05)

    def test_zero_override_rate_rejected(self, data, tmp_path):
        override = write(tmp_path / "amrs.csv", "group,task,metric,amrs\nregional,qa,throughput,0\n")
        rc = main(["efficiency", "--goods", data["goods"], "--amrs-override", override,
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_singleton_group_names_it(self, tmp_path, capsys):
        goods = write(
            tmp_path / "goods.csv",
            "model,group,task,throughput,memory_gb,perf\nonly,alone,ner,10,1,50\n",
        )
        rc = main(["efficiency", "--goods", goods, "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "alone" in capsys.readouterr().err

    def test_amrs_out_written(self, data):
        out = data["tmp"] / "eff.csv"
        amrs_out = data["tmp"] / "amrs.csv"
        rc = main(["efficiency", "--goods", data["goods"], "--out", str(out), "--amrs-out", str(amrs_out)])
        assert rc == 0
        assert len(read_csv(amrs_out)) == 16  # 2 groups x 4 tasks x 2 metrics

    def test_zero_substitution_rate_exit_1(self, tmp_path, capsys):
        # Equal throughput in a group: the average rate is 0, so the scores are undefined.
        goods = write(
            tmp_path / "goods.csv",
            "model,group,task,throughput,memory_gb,perf\na,g,t,10,1,50\nb,g,t,10,2,70\n",
        )
        rc = main(["efficiency", "--goods", goods, "--out", str(tmp_path / "eff.csv"),
                   "--amrs-out", str(tmp_path / "amrs.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "substitution rate is 0" in err
        assert "warning:" not in err
        assert list(tmp_path.iterdir()) == [tmp_path / "goods.csv"]

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_memory_ceiling_exit_2(self, data, tmp_path, capsys, value):
        out = tmp_path / "eff.csv"
        rc = main(["efficiency", "--goods", data["goods"], "--amrs-override", data["amrs"],
                   "--max-memory", value, "--out", str(out)])
        assert rc == 2
        assert "max memory must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    def test_custom_memory_ceiling(self, data, tmp_path):
        goods = write(
            tmp_path / "goods.csv",
            "model,group,task,throughput,memory_gb,perf\na,g,t,10,1,50\nb,g,t,20,2,70\n",
        )
        out = tmp_path / "eff.csv"
        rc = main(["efficiency", "--goods", goods, "--max-memory", "8", "--out", str(out)])
        assert rc == 0
        by_model = {r["model"]: r for r in read_csv(out)}
        assert float(by_model["a"]["memory_saved"]) == 7.0
        assert float(by_model["b"]["memory_saved"]) == 6.0


def synth_trajectories(tmp_path, pairs=(("bn", "hi"), ("en", "hi"), ("ta", "hi"))):
    lines = ["source,target,samples,score"]
    coeffs = {"bn": (0.9, -8.0, 0.35), "en": (1.1, -5.0, 0.25), "ta": (0.8, -12.0, 0.45)}
    for source, target in pairs:
        a, b, c = coeffs[source]
        for k in range(1, 31):
            x = 320 * k
            lines.append(f"{source},{target},{x},{100 * (a + b * x ** (-c))}")
    return write(tmp_path / "traj.csv", "\n".join(lines) + "\n")


class TestFitCommand:
    def test_noiseless_pairs_recovered(self, tmp_path):
        traj = synth_trajectories(tmp_path)
        out = tmp_path / "curves.txt"
        rc = main(["fit", "--trajectories", traj, "--out", str(out)])
        assert rc == 0
        registry = load_curve_registry(out)
        assert len(registry) == 3
        for curve in registry.values():
            assert curve.r_squared >= 1 - 1e-9
        assert registry[("bn", "hi")].a == pytest.approx(0.9, rel=1e-3)

    def test_short_pair_listed_in_rejects(self, tmp_path):
        traj = synth_trajectories(tmp_path)
        with open(traj, "a") as fh:
            fh.write("ur,hi,320,40\nur,hi,640,50\n")
        out = tmp_path / "curves.txt"
        rc = main(["fit", "--trajectories", traj, "--out", str(out)])
        assert rc == 0
        text = out.read_text()
        assert "# reject source=ur target=hi" in text
        assert len(load_curve_registry(out)) == 3

    def test_empty_trajectories_exit_2(self, tmp_path):
        traj = write(tmp_path / "traj.csv", "source,target,samples,score\n")
        rc = main(["fit", "--trajectories", traj, "--out", str(tmp_path / "x.txt")])
        assert rc == 2

    def test_c_range_flag(self, tmp_path):
        traj = synth_trajectories(tmp_path, pairs=(("bn", "hi"),))
        out = tmp_path / "curves.txt"
        rc = main(["fit", "--trajectories", traj, "--c-range", "0:2", "--out", str(out)])
        assert rc == 0
        assert 0.0 <= load_curve_registry(out)[("bn", "hi")].c <= 2.0

    def test_nan_c_range_rejected_without_a_fit(self, tmp_path):
        # Every pair is too short to fit, so only the option check can fail.
        traj = write(tmp_path / "traj.csv", "source,target,samples,score\nbn,hi,320,40\nbn,hi,640,50\n")
        out = tmp_path / "curves.txt"
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--trajectories", traj, "--c-range", "nan:nan", "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    def test_oversized_sample_count_exit_2(self, tmp_path, capsys):
        # No float holds 10**400: bad input (exit 2), not an OverflowError traceback.
        traj = write(tmp_path / "traj.csv", f"source,target,samples,score\nbn,hi,1,50\nbn,hi,10,60\nbn,hi,{10**400},70\n")
        out = tmp_path / "curves.txt"
        assert main(["fit", "--trajectories", traj, "--out", str(out)]) == 2
        assert "traj.csv:4: sample count must be at most 1.79769e+308" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_fit_exit_1(self, tmp_path, capsys):
        # The squared deviations of 1e160 overflow a float: the fit is
        # undefined (exit 1), not a NaN r-squared rejected as input (exit 2).
        traj = write(tmp_path / "traj.csv", "source,target,samples,score\nbn,hi,1,1\nbn,hi,10,1e160\nbn,hi,100,2\n")
        out = tmp_path / "curves.txt"
        assert main(["fit", "--trajectories", traj, "--scale", "unit", "--out", str(out)]) == 1
        assert "fit of (bn, hi) is undefined: its sums overflow a float" in capsys.readouterr().err
        assert not out.exists()

    def test_unit_scale_trajectories(self, tmp_path):
        lines = ["source,target,samples,score"]
        for k in range(1, 31):
            x = 320 * k
            lines.append(f"bn,hi,{x},{0.9 - 8.0 * x ** -0.35}")
        traj = write(tmp_path / "traj.csv", "\n".join(lines) + "\n")
        out = tmp_path / "curves.txt"
        rc = main(["fit", "--trajectories", traj, "--scale", "unit", "--out", str(out)])
        assert rc == 0
        fitted = load_curve_registry(out)[("bn", "hi")]
        assert fitted.a == pytest.approx(0.9, rel=1e-3)
        assert fitted.b == pytest.approx(-8.0, rel=1e-3)


class TestAllocateCommand:
    def test_egalitarian_budget_seven(self, data):
        out = data["tmp"] / "plan.txt"
        rc = main([
            "allocate", "--curves", data["curves"], "--budget", "7",
            "--strategy", "egalitarian", "--tau", "0", "--missing", "permissive",
            "--out", str(out),
        ])
        assert rc == 0
        plan = load_plan(out)
        assert set(plan.counts.values()) == {1}

    def test_single_source_hi(self, data):
        out = data["tmp"] / "plan.txt"
        rc = main([
            "allocate", "--curves", data["curves"], "--budget", "5000",
            "--strategy", "single:hi", "--tau", "0", "--missing", "permissive",
            "--out", str(out),
        ])
        assert rc == 0
        plan = load_plan(out)
        assert plan.counts["hi"] == 5000
        assert sum(plan.counts.values()) == 5000

    def test_greedy_near_uniform_budget_1000(self, data):
        out = data["tmp"] / "plan.txt"
        trace = data["tmp"] / "trace.csv"
        rc = main([
            "allocate", "--curves", data["curves"], "--budget", "1000",
            "--strategy", "greedy", "--tau", "1", "--speakers", data["speakers"],
            "--missing", "permissive", "--out", str(out), "--trace-out", str(trace),
        ])
        assert rc == 0
        plan = load_plan(out)
        assert all(107 <= n <= 179 for n in plan.counts.values())
        assert sum(plan.counts.values()) == 1000
        with open(trace) as fh:
            assert sum(1 for _ in fh) == 1001  # header + one row per step

    def test_strict_missing_curve_lists_pairs(self, data, capsys):
        rc = main([
            "allocate", "--curves", data["curves"], "--budget", "10",
            "--strategy", "greedy", "--tau", "0", "--out", str(data["tmp"] / "x.txt"),
        ])
        assert rc == 2
        assert "(ur, en)" in capsys.readouterr().err

    @pytest.mark.parametrize(("budget", "rc"), [(3, 1), (2, 0)])
    def test_zero_prediction_fails_only_when_allocated(self, tmp_path, capsys, budget, rc):
        # z predicts exactly 0 at k = 2 (0.5 - 1 * 2^-1). Budget 3 gives z a
        # second sample and fails: Gini of an all-zero vector (exit 1).
        # Budget 2 gives z one sample and never reaches its k = 2 state.
        curves = write(tmp_path / "curves.txt", (
            "curve source=a target=t a=1 b=-0.5 c=0.5 r2=0.9\n"
            "curve source=z target=t a=0.5 b=-1 c=1 r2=0.9\n"
        ))
        out = tmp_path / "plan.txt"
        assert main([
            "allocate", "--curves", curves, "--budget", str(budget), "--strategy", "greedy",
            "--tau", "0", "--out", str(out),
        ]) == rc
        if rc:
            assert "all-zero" in capsys.readouterr().err
            assert not out.exists()
        else:
            assert load_plan(out).counts == {"a": 1, "z": 1}

    @pytest.mark.parametrize("strategy", ["greedy", "egalitarian"])
    def test_overflowing_speaker_total_exit_1(self, tmp_path, capsys, strategy):
        # Two finite speaker counts whose total overflows: demand is
        # undefined (exit 1), not all-zero weights that give a plan with m=0.
        curves = write(tmp_path / "curves.txt", "".join(
            f"curve source={s} target={t} a=0.9 b=-0.5 c=0.5 r2=0.9\n" for s in ("hi", "bn") for t in ("hi", "bn")))
        speakers = write(tmp_path / "speakers.csv", "lang,speakers_millions\nhi,1e308\nbn,1e308\n")
        assert main(["allocate", "--curves", curves, "--budget", "4", "--strategy", strategy, "--tau", "1",
                     "--speakers", speakers, "--out", str(tmp_path / "plan.txt")]) == 1
        assert capsys.readouterr().err == (
            "error: demand is undefined: the sum of the speaker counts to the power tau overflows a float\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["curves.txt", "speakers.csv"]

    def test_overflowing_gini_exit_1(self, tmp_path, capsys):
        # a's first state predicts 1e308 on both targets: the total of its
        # absolute predictions overflows, so its Gini is undefined (exit 1),
        # not a NaN that quietly gives a no samples.
        curves = write(tmp_path / "curves.txt", "".join(
            f"curve source={s} target={t} {coeffs} r2=0.9\n"
            for s, coeffs in (("a", "a=1e308 b=0 c=0.5"), ("b", "a=1 b=-0.5 c=0.5")) for t in ("x", "y")
        ))
        out = tmp_path / "plan.txt"
        assert main([
            "allocate", "--curves", curves, "--budget", "4", "--strategy", "greedy",
            "--tau", "0", "--out", str(out),
        ]) == 1
        assert "Gini is undefined for values whose sums overflow" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("strategy", ["greedy", "egalitarian"])
    def test_undefined_evaluation_exit_1(self, tmp_path, capsys, strategy):
        # Both sources are funded; their predictions 0.5 and -0.5 have a mean
        # utility of 0, whose Gini is undefined.
        curves = write(tmp_path / "curves.txt", "curve source=n target=t a=-0.5 b=0 c=0 r2=0.9\n"
                       "curve source=p target=t a=0.5 b=0 c=0 r2=0.9\n")
        out = tmp_path / "plan.txt"
        assert main([
            "allocate", "--curves", curves, "--budget", "2", "--strategy", strategy,
            "--tau", "0", "--composition", "mean", "--out", str(out),
        ]) == 1
        assert capsys.readouterr().err == "error: Gini is undefined for an all-zero vector\n"
        assert not out.exists()

    @pytest.mark.parametrize("strategy", ["egalitarian", "single:hi"])
    def test_oversized_budget_exit_2(self, data, capsys, strategy):
        # No float holds 10**400: bad input (exit 2), not an OverflowError traceback.
        out = data["tmp"] / "plan.txt"
        assert main([
            "allocate", "--curves", data["curves"], "--budget", str(10**400), "--strategy", strategy,
            "--tau", "0", "--missing", "permissive", "--out", str(out),
        ]) == 2
        assert "budget must be at most 1.79769e+308" in capsys.readouterr().err
        assert not out.exists()

    def test_speakers_file_loaded_at_tau_zero(self, data, capsys):
        rc = main([
            "allocate", "--curves", data["curves"], "--budget", "10",
            "--strategy", "egalitarian", "--tau", "0", "--missing", "permissive",
            "--speakers", str(data["tmp"] / "missing_speakers.csv"),
            "--out", str(data["tmp"] / "x.txt"),
        ])
        assert rc == 2
        assert "missing_speakers.csv" in capsys.readouterr().err

    def test_tau_positive_requires_speakers(self, data, capsys):
        rc = main([
            "allocate", "--curves", data["curves"], "--budget", "10",
            "--strategy", "egalitarian", "--missing", "permissive",
            "--out", str(data["tmp"] / "x.txt"),
        ])
        assert rc == 2
        assert "--speakers" in capsys.readouterr().err

    def test_unknown_strategy_rejected(self, data, capsys):
        rc = main([
            "allocate", "--curves", data["curves"], "--budget", "10",
            "--strategy", "zigzag", "--tau", "0", "--missing", "permissive",
            "--out", str(data["tmp"] / "x.txt"),
        ])
        assert rc == 2
        assert "zigzag" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--alpha", "nan"), ("--beta", "inf")])
    def test_non_finite_weight_exit_2(self, data, capsys, flag, value):
        out = data["tmp"] / "plan.txt"
        trace = data["tmp"] / "trace.csv"
        rc = main([
            "allocate", "--curves", data["curves"], "--budget", "10", "--strategy", "greedy",
            "--tau", "0", "--missing", "permissive", f"{flag}={value}",
            "--out", str(out), "--trace-out", str(trace),
        ])
        assert rc == 2
        assert "objective weights must be finite" in capsys.readouterr().err
        assert not out.exists() and not trace.exists()

    def test_output_named_like_another_outputs_staging_file(self, data, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = main([
            "allocate", "--curves", data["curves"], "--budget", "10", "--strategy", "greedy",
            "--tau", "0", "--missing", "permissive", "--out", "a.tmp", "--trace-out", "a",
        ])
        assert rc == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a", "a.tmp"]
        assert load_plan(tmp_path / "a.tmp").budget == 10
        assert len(read_csv(tmp_path / "a")) == 10

    def test_trace_built_only_for_trace_out(self, data, monkeypatch):
        built, trace_step = [], allocator.TraceStep

        def counting(*args):
            built.append(args[0])
            return trace_step(*args)

        monkeypatch.setattr(allocator, "TraceStep", counting)
        argv = ["allocate", "--curves", data["curves"], "--budget", "40", "--strategy", "greedy",
                "--tau", "0", "--missing", "permissive", "--out", str(data["tmp"] / "plan.txt")]
        assert main(argv) == 0
        assert built == []
        assert main(argv + ["--trace-out", str(data["tmp"] / "trace.csv")]) == 0
        assert built == list(range(1, 41))

    def test_source_and_target_subsets(self, data):
        out = data["tmp"] / "plan.txt"
        rc = main([
            "allocate", "--curves", data["curves"], "--budget", "10",
            "--strategy", "greedy", "--tau", "0",
            "--sources", "bn,hi", "--targets", "bn,hi,ta",
            "--out", str(out),
        ])
        assert rc == 0
        plan = load_plan(out)
        assert set(plan.counts) == {"bn", "hi"}
        assert set(plan.evaluation.utilities) == {"bn", "hi", "ta"}

    def test_plan_contains_surrogate_evaluation(self, data):
        out = data["tmp"] / "plan.txt"
        rc = main([
            "allocate", "--curves", data["curves"], "--budget", "100",
            "--strategy", "egalitarian", "--tau", "0", "--missing", "permissive",
            "--composition", "mean", "--out", str(out),
        ])
        assert rc == 0
        assert "surrogate=true" in out.read_text()
        assert load_plan(out).evaluation.mode == "mean"


class TestReportCommand:
    def run_pipeline(self, data, where):
        # Relative output paths: report bytes must not depend on the absolute
        # location of the run directory.
        where.mkdir(exist_ok=True)
        sc, lz = "out/scorecard.csv", "out/lorenz.csv"
        eff, amrs = "out/efficiency.csv", "out/amrs.csv"
        plan, trace = "out/plan.txt", "out/trace.csv"
        report = "out/report.md"
        assert main(["metrics", "--perf", data["perf"], "--tasks", data["tasks"],
                     "--speakers", data["speakers"], "--out", sc, "--lorenz-out", lz]) == 0
        assert main(["efficiency", "--goods", data["goods"], "--out", eff,
                     "--amrs-out", amrs]) == 0
        assert main(["allocate", "--curves", data["curves"], "--budget", "50",
                     "--strategy", "greedy", "--tau", "1", "--speakers", data["speakers"],
                     "--missing", "permissive", "--out", plan, "--trace-out", trace]) == 0
        assert main(["report", "--scorecard", sc, "--lorenz", lz,
                     "--amrs", amrs, "--efficiency", eff,
                     "--curves", data["curves"], "--plan", plan, "--trace", trace,
                     "--out", report]) == 0
        return where / "report.md"

    def test_full_pipeline_deterministic(self, data, tmp_path, monkeypatch):
        # Same relative paths from two working directories: bytes must match.
        outputs = []
        for name in ("run1", "run2"):
            base = tmp_path / name
            base.mkdir()
            monkeypatch.chdir(base)
            self.run_pipeline(data, base / "out")
            files = sorted(p.name for p in (base / "out").iterdir())
            outputs.append({f: (base / "out" / f).read_bytes() for f in files})
        assert outputs[0] == outputs[1]

    def test_report_mentions_surrogate_and_lorenz(self, data, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        report = self.run_pipeline(data, tmp_path / "out")
        text = report.read_text()
        assert "Surrogate evaluation" in text
        assert "not measured" in text
        assert "lorenz.csv" in text
        assert "sha256" in text

    def test_non_utf8_scorecard_exit_2(self, data, tmp_path, capsys):
        scorecard = tmp_path / "sc.csv"
        scorecard.write_bytes(b"task,model\n\xff,m\n")
        out = tmp_path / "r.md"
        rc = main(["report", "--scorecard", str(scorecard), "--out", str(out)])
        assert rc == 2
        assert "sc.csv: not UTF-8" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("role", ["scorecard", "amrs", "efficiency"])
    @pytest.mark.parametrize("text", ["", "\n \n"])
    def test_empty_csv_artifact_exit_2(self, tmp_path, capsys, role, text):
        artifact = write(tmp_path / "empty.csv", text)
        out = tmp_path / "r.md"
        rc = main(["report", f"--{role}", artifact, "--out", str(out)])
        assert rc == 2
        assert f"{artifact}: empty file" in capsys.readouterr().err
        assert not out.exists()

    def test_trace_rows_counted_not_kept(self, tmp_path, monkeypatch):
        built = []
        monkeypatch.setattr(io, "TraceStep", lambda *args: built.append(args))
        # Rows 3 and 4 sum to inf - inf, a NaN no field holds.
        trace = write(tmp_path / "trace.csv", "step,source,marginal_gain,gm,gini\n1,bn,inf,0.4,0.3\n"
                      "2,hi,0.5,0.6,0.2\n3,hi,-inf,inf,0.2\n3,bn,inf,-inf,0.5\n")
        out = tmp_path / "r.md"
        assert main(["report", "--trace", trace, "--out", str(out)]) == 0
        assert "4 greedy steps recorded." in out.read_text()
        assert built == []

    @pytest.mark.parametrize(("row", "message"), [
        ("x,bn,0.5,0.6,0.2", "trace.csv:3: malformed integer 'x'"),
        ("2,hi,nan,0.6,0.2", "trace.csv:3: number must not be NaN"),
        ("2,hi,0.5,nan,0.2", "trace.csv:3: number must not be NaN"),
        ("2,hi,inf,0.6,nan", "trace.csv:3: number must not be NaN"),
        ("2,hi,0.5,0.6", "trace.csv:3: expected 5 fields, got 4"),
    ])
    def test_malformed_trace_row_exit_2(self, tmp_path, capsys, row, message):
        trace = write(tmp_path / "trace.csv", f"step,source,marginal_gain,gm,gini\n1,bn,inf,0.4,0.3\n{row}\n")
        out = tmp_path / "r.md"
        assert main(["report", "--trace", trace, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_missing_artifact_exit_2(self, data, capsys):
        rc = main(["report", "--scorecard", str(data["tmp"] / "ghost.csv"),
                   "--out", str(data["tmp"] / "r.md")])
        assert rc == 2
        assert "ghost.csv" in capsys.readouterr().err

    def test_no_inputs_rejected(self, data):
        assert main(["report", "--out", str(data["tmp"] / "r.md")]) == 2

    def test_pipe_in_id_stays_in_its_cell(self, data, tmp_path):
        # Ids may hold '|', which would end a markdown cell unescaped.
        perf = write(tmp_path / "perf.csv", "task,model,train_lang,target_lang,score\nner,m|x,en,hi,80\n")
        plan = write(tmp_path / "plan.txt", "plan strategy=single:s|1 budget=2 alpha=1 beta=1 missing=strict\n"
                     "alloc source=s|1 samples=2 gm=0.5 gini=0\n" + EVAL_LINE)
        sc, out = tmp_path / "sc.csv", tmp_path / "r.md"
        assert main(["metrics", "--perf", perf, "--tasks", data["tasks"], "--tau", "0", "--out", str(sc)]) == 0
        assert main(["report", "--scorecard", str(sc), "--plan", plan, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        header = lines.index("| task | model | train_lang | m_tau | gini | tested | universe |")
        row = lines[header + 2]
        assert row.startswith("| ner | m\\|x | en |")
        assert len(re.split(r"(?<!\\)\|", row)) - 2 == 7  # the cells between unescaped pipes
        assert "| s\\|1 | 2 |" in lines

    @pytest.mark.parametrize(("text", "message"), [
        ("plan strategy=greedy budget=-7 alpha=-1 beta=inf missing=whatever\nalloc source=bn samples=-3\n"
         "alloc source=hi samples=5\neval mode=median clamp=false m=0.5 gini=0 surrogate=true\n"
         "pred target=hi utility=0.5\npred target=hi utility=0.6\n", "plan.txt:2: sample count must be >= 0, got -3"),
        ("plan strategy=greedy budget=5 alpha=1 beta=1 missing=strict\nalloc source=bn samples=2 gm=0.5 gini=0\n"
         "alloc source=hi samples=2 gm=0.5 gini=0\n" + EVAL_LINE,
         "plan.txt: alloc samples sum to 4, not the budget 5"),
        ("plan strategy=greedy budget=2 alpha=1 beta=1 missing=strict\nalloc source=bn samples=2 gm=0.5 gini=0\n"
         "eval mode=median clamp=false m=0.5 gini=0 surrogate=true\n", "composition mode must be one of"),
        ("plan strategy=greedy budget=2 alpha=1 beta=1 missing=strict\nalloc source=bn samples=2 gm=0.5 gini=0\n",
         "plan.txt: plan has no eval line"),
        ("plan strategy=bogus budget=2 alpha=1 beta=1 missing=strict\nalloc source=bn samples=0 gm=0.5 gini=0.1\n"
         "alloc source=hi samples=2\n" + EVAL_LINE + "pred target=zz utility=0.5\n",
         "plan.txt:2: source 'bn' has no samples, so no gm or gini"),
        ("plan strategy=bogus budget=2 alpha=1 beta=1 missing=strict\nalloc source=hi samples=2 gm=0.5 gini=0\n"
         + EVAL_LINE, "plan.txt: unknown strategy 'bogus'"),
    ], ids=["found-plan", "sum", "mode-median", "no-eval", "found-strategy-plan", "strategy"])
    def test_plan_allocate_could_not_write_exit_2(self, tmp_path, capsys, text, message):
        plan = write(tmp_path / "plan.txt", text)
        out = tmp_path / "r.md"
        assert main(["report", "--plan", plan, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


HOSTILE_CURVE = "curve source=a,b target=hi a=1 b=-1 c=0.5 r2=0.9\n"

# subcommand: (input file, its text, the line holding the bad id, arguments
# before --out with INPUT standing for the file)
HOSTILE_INPUTS = {
    "metrics": (
        "perf.csv", 'task,model,train_lang,target_lang,score\nner,"m,1",en,hi,80\n', 2,
        ["--perf", "INPUT", "--tasks", str(bundled_path("tasks.csv")), "--tau", "0"],
    ),
    "efficiency": (
        "goods.csv", 'model,group,task,throughput,memory_gb,perf\n"a,1",g,t,10,1,50\nb,g,t,20,2,70\n', 2,
        ["--goods", "INPUT"],
    ),
    "fit": (
        "traj.csv", 'source,target,samples,score\n"e n",hi,320,50\n"e n",hi,640,60\n"e n",hi,1280,65\n', 2,
        ["--trajectories", "INPUT"],
    ),
    "allocate": (
        "curves.txt", HOSTILE_CURVE, 1,
        ["--curves", "INPUT", "--budget", "3", "--strategy", "greedy", "--tau", "0"],
    ),
    "report": ("curves.txt", HOSTILE_CURVE, 1, ["--curves", "INPUT"]),
}


@pytest.mark.parametrize("subcommand", sorted(HOSTILE_INPUTS))
def test_hostile_id_exits_2_with_location(subcommand, tmp_path, capsys):
    name, text, line, args = HOSTILE_INPUTS[subcommand]
    source = write(tmp_path / name, text)
    out = tmp_path / "out"
    rc = main([subcommand, *(source if a == "INPUT" else a for a in args), "--out", str(out)])
    assert rc == 2
    assert f"{name}:{line}: invalid" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["metrics", "--perf", str(bundled_path("fixtures_ner_equal.csv")), "--tasks", str(bundled_path("tasks.csv")),
     "--tau", "0", "--out", "x.csv", "--lorenz-out", "x.csv"],
    ["efficiency", "--goods", str(bundled_path("goods.csv")), "--out", "x.csv", "--amrs-out", "./x.csv"],
    ["allocate", "--curves", str(bundled_path("curves_muril.txt")), "--budget", "10", "--strategy", "greedy",
     "--tau", "0", "--missing", "permissive", "--out", "x.csv", "--trace-out", "x.csv"],
], ids=["metrics", "efficiency", "allocate"])
def test_repeated_output_path_rejected(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert "name the same file" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("out", ["nodir/p.txt", "file.txt/p.txt"], ids=["missing", "file"])
def test_output_in_no_directory_rejected_before_any_input_is_read(out, data, tmp_path, monkeypatch, capsys):
    # No warning of the registry's dropped pair either: nothing was read. The
    # message names the flag and the path as given, so it is the same on
    # every run.
    monkeypatch.chdir(tmp_path)
    write(tmp_path / "file.txt", "")
    argv = ["allocate", "--curves", data["curves"], "--budget", "10", "--strategy", "greedy", "--tau", "0",
            "--missing", "permissive", "--out", out]
    errors = []
    for _ in range(2):
        assert main(argv) == 2
        errors.append(capsys.readouterr().err)
    assert errors == [f"error: --out names a file in a directory that does not exist: {out}\n"] * 2
    assert [p.name for p in tmp_path.iterdir()] == ["file.txt"]


def test_write_error_names_the_output(data, tmp_path, monkeypatch, capsys):
    # Not the file the trace was staged in, whose name changes on every run;
    # the plan, staged before it, is removed too.
    write_text = io.write_text

    def refuse_trace(path, text):
        if Path(path).name.startswith("trace.csv."):
            raise PermissionError(13, "Permission denied", str(path))
        write_text(path, text)

    monkeypatch.setattr(io, "write_text", refuse_trace)
    monkeypatch.chdir(tmp_path)
    rc = main(["allocate", "--curves", data["curves"], "--budget", "10", "--strategy", "greedy", "--tau", "0",
               "--missing", "permissive", "--out", "plan.txt", "--trace-out", "trace.csv"])
    assert rc == 2
    assert capsys.readouterr().err.splitlines()[-1] == "error: [Errno 13] Permission denied: 'trace.csv'"
    assert list(tmp_path.iterdir()) == []


# subcommand: arguments, one output naming one of the inputs (copied into the
# run directory under these names)
OUTPUT_OVER_INPUT = {
    "metrics": ["metrics", "--perf", "perf.csv", "--tasks", "tasks.csv", "--tau", "0", "--out", "perf.csv"],
    "efficiency": ["efficiency", "--goods", "goods.csv", "--out", "eff.csv", "--amrs-out", "./goods.csv"],
    "fit": ["fit", "--trajectories", "traj.csv", "--out", "traj.csv"],
    "allocate": ["allocate", "--curves", "curves.txt", "--budget", "10", "--strategy", "greedy", "--tau", "0",
                 "--missing", "permissive", "--out", "plan.txt", "--trace-out", "curves.txt"],
    "report": ["report", "--curves", "curves.txt", "--trace", "trace.csv", "--out", "trace.csv"],
}


@pytest.mark.parametrize("subcommand", sorted(OUTPUT_OVER_INPUT))
def test_output_naming_an_input_rejected(subcommand, data, tmp_path, monkeypatch, capsys):
    for name, source in (("perf.csv", data["perf"]), ("tasks.csv", data["tasks"]), ("goods.csv", data["goods"]),
                         ("curves.txt", data["curves"])):
        shutil.copy(source, tmp_path / name)
    synth_trajectories(tmp_path)  # traj.csv
    write(tmp_path / "trace.csv", "step,source,marginal_gain,gm,gini\n1,bn,inf,0.4,0.3\n")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    monkeypatch.chdir(tmp_path)
    assert main(OUTPUT_OVER_INPUT[subcommand]) == 2
    assert "name the same file" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("argv", [
    ["metrics", "--perf", "PERF", "--tasks", "TASKS", "--tau", "1.5"],
    ["metrics", "--perf", "PERF", "--tasks", "TASKS", "--tau", "nan"],
    ["allocate", "--curves", "CURVES", "--budget", "0", "--strategy", "greedy", "--tau", "0"],
    ["efficiency", "--goods", "GOODS", "--weights=-1,0,0"],  # one token: "-1,0,0" alone reads as a flag
    ["efficiency", "--goods", "GOODS", "--weights", "nan,0,0"],
    ["fit", "--trajectories", "TRAJ", "--c-range", "2:1"],
], ids=["tau-1.5", "tau-nan", "budget-0", "weights-negative", "weights-nan", "c-range-2:1"])
def test_out_of_range_option_exit_2(argv, data, tmp_path, monkeypatch):
    inputs = {"PERF": data["perf"], "TASKS": data["tasks"], "CURVES": data["curves"],
              "GOODS": data["goods"], "TRAJ": synth_trajectories(tmp_path)}
    outdir = tmp_path / "out"
    outdir.mkdir()
    monkeypatch.chdir(outdir)
    try:
        rc = main([inputs.get(a, a) for a in argv] + ["--out", "result"])
    except SystemExit as exc:  # rejected by argparse
        rc = exc.code
    assert rc == 2
    assert list(outdir.iterdir()) == []


def test_cli_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["metrics", "--tau", "7", "--perf", "x", "--tasks", "y", "--out", "z"])
    assert exc.value.code == 2


# Start-up: only curves needs numpy, and only fit imports it. metrics,
# allocator, greedy and scalar need no numpy.
NUMERIC_MODULES = {"numpy", "langdei.curves"}


def run_with_exit_hook(code, cwd, *options):
    """The finished fresh interpreter that ran ``code``: a string for
    ``python -c``, or the arguments of ``python -m langdei.cli``, which is
    how the benchmark runs a subcommand. A sitecustomize module prints, when
    the interpreter exits, the names in sys.modules on one line and
    ``gc.get_freeze_count()`` on the next, after all else on stdout."""
    with tempfile.TemporaryDirectory() as hook:
        Path(hook, "sitecustomize.py").write_text(
            "import atexit, gc, sys\n"
            "atexit.register(lambda: print(' '.join(sys.modules), gc.get_freeze_count(), sep='\\n'))\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(Path(__file__).resolve().parents[1] / "src"), hook]))
        command = ["-c", code] if isinstance(code, str) else ["-m", "langdei.cli", *code]
        return subprocess.run([sys.executable, *options, *command], capture_output=True, text=True, env=env, cwd=cwd)


def modules_after(code, cwd):
    """The names in sys.modules of a fresh interpreter that ran ``code``
    (see ``run_with_exit_hook``) when it exits."""
    result = run_with_exit_hook(code, cwd)
    assert result.returncode == 0, result.stderr
    return set(result.stdout.splitlines()[-2].split())


def test_import_cli_loads_no_numeric_module(tmp_path):
    loaded = modules_after("import langdei.cli", tmp_path)
    assert "langdei.io" in loaded
    assert loaded & NUMERIC_MODULES == set()
    # loaded by the subcommands that use them
    assert loaded & {"langdei.allocator", "langdei.metrics", "langdei.scalar", "langdei.efficiency"} == set()


@pytest.mark.parametrize("module, unwanted", [
    ("langdei.cli", {"logging", "dataclasses", "inspect"}),
    ("langdei.allocator", {"logging", "dataclasses", "inspect", "numpy"}),
    ("langdei.metrics", {"logging", "dataclasses", "inspect", "numpy"}),
    ("langdei.greedy", {"logging", "dataclasses", "inspect", "numpy"}),
], ids=["langdei.cli", "langdei.allocator", "langdei.metrics", "langdei.greedy"])
def test_import_loads_no_logging(module, unwanted, tmp_path):
    # Data events are warnings, which main prints, and records are
    # records.Record, not dataclasses: logging, and dataclasses with the
    # inspect it loads, would only add start-up time. numpy loads inspect
    # itself; none of these modules needs numpy.
    assert modules_after(f"import {module}", tmp_path) & unwanted == set()


SPEAKERS = str(bundled_path("speakers.csv"))
MURIL = str(bundled_path("curves_muril.txt"))


@pytest.mark.parametrize("argv", [
    ["efficiency", "--goods", str(bundled_path("goods.csv")), "--amrs-out", "amrs.csv", "--out", "eff.csv"],
    ["report", "--plan", "plan.txt", "--trace", "trace.csv", "--curves", MURIL, "--out", "report.md"],
    ["allocate", "--curves", MURIL, "--budget", "1000", "--strategy", "egalitarian", "--tau", "1",
     "--speakers", SPEAKERS, "--missing", "permissive", "--out", "plan.txt"],
    ["allocate", "--curves", MURIL, "--budget", "1000", "--strategy", "single:hi", "--tau", "1",
     "--speakers", SPEAKERS, "--missing", "permissive", "--out", "plan.txt"],
    ["allocate", "--curves", MURIL, "--budget", "1000", "--strategy", "greedy", "--tau", "1",
     "--speakers", SPEAKERS, "--missing", "permissive", "--out", "plan.txt"],
    ["allocate", "--curves", MURIL, "--budget", "1000", "--strategy", "greedy", "--tau", "0", "--beta", "0",
     "--missing", "permissive", "--trace-out", "trace.csv", "--out", "plan.txt"],
    ["metrics", "--perf", str(bundled_path("fixtures_ner_equal.csv")), "--tasks", str(bundled_path("tasks.csv")),
     "--tau", "1", "--speakers", SPEAKERS, "--lorenz-out", "lorenz.csv", "--out", "scorecard.csv"],
    ["metrics", "--perf", str(bundled_path("fixtures_ner_equal.csv")), "--tasks", str(bundled_path("tasks.csv")),
     "--tau", "0", "--tested-only", "--out", "scorecard.csv"],
], ids=["efficiency", "report", "egalitarian", "single", "greedy", "greedy-trace", "metrics", "metrics-tested-only"])
def test_subcommand_runs_without_numpy(argv, tmp_path):
    write(tmp_path / "plan.txt", "plan strategy=greedy budget=2 alpha=1 beta=1 missing=strict\n"
          "alloc source=bn samples=2 gm=0.5 gini=0.1\n" + EVAL_LINE)
    write(tmp_path / "trace.csv", "step,source,marginal_gain,gm,gini\n1,bn,inf,0.4,0.3\n2,bn,0.1,0.5,0.1\n")
    loaded = modules_after(f"from langdei.cli import main\nassert main({argv!r}) == 0", tmp_path)
    assert (tmp_path / argv[-1]).is_file()
    assert "numpy" not in loaded
    if "greedy" in argv:
        assert "langdei.greedy" in loaded
        assert load_plan(tmp_path / "plan.txt").strategy == "greedy"
    if "--trace-out" in argv:
        assert count_trace(tmp_path / "trace.csv") == 1000


@pytest.mark.parametrize("argv", [
    ["fit", "--trajectories", "traj.csv", "--out", "curves.txt"],
], ids=["fit"])
def test_numeric_subcommand_leaves_numpy_ma_unloaded(argv, tmp_path):
    # np.unique imports numpy.ma on its first call; no subcommand needs it.
    synth_trajectories(tmp_path)
    loaded = modules_after(f"from langdei.cli import main\nassert main({argv!r}) == 0", tmp_path)
    assert (tmp_path / argv[-1]).is_file()
    assert "numpy" in loaded and "numpy.ma" not in loaded


# The langdei modules each run loads, run as the benchmark runs it, beside
# those every run loads. Under ``python -m`` the cli is ``__main__``, so a
# module that imported ``langdei.cli`` would compile all of it again.
EVERY_RUN = {"langdei", "langdei.errors", "langdei.records", "langdei.io", "langdei.commands"}
OWN_MODULES = {
    "metrics": (["metrics", "--perf", str(bundled_path("fixtures_ner_equal.csv")), "--tasks",
                 str(bundled_path("tasks.csv")), "--tau", "1", "--speakers", SPEAKERS, "--lorenz-out", "lorenz.csv",
                 "--out", "scorecard.csv"], {"commands.metrics", "metrics", "scalar"}),
    "efficiency": (["efficiency", "--goods", str(bundled_path("goods.csv")), "--amrs-out", "amrs.csv",
                    "--out", "eff.csv"], {"commands.efficiency", "efficiency"}),
    "fit": (["fit", "--trajectories", "traj.csv", "--out", "curves.txt"], {"commands.fit", "curves"}),
    "egalitarian": (["allocate", "--curves", MURIL, "--budget", "1000", "--strategy", "egalitarian", "--tau", "1",
                     "--speakers", SPEAKERS, "--missing", "permissive", "--out", "plan.txt"],
                    {"commands.allocate", "allocator", "scalar"}),
    "greedy": (["allocate", "--curves", MURIL, "--budget", "1000", "--strategy", "greedy", "--tau", "0",
                "--beta", "0", "--missing", "permissive", "--trace-out", "trace.csv", "--out", "plan.txt"],
               {"commands.allocate", "allocator", "scalar", "greedy"}),
    "report": (["report", "--plan", "plan.txt", "--trace", "trace.csv", "--curves", MURIL, "--out", "report.md"],
               {"commands.report"}),
}


@pytest.mark.parametrize("run", list(OWN_MODULES))
def test_each_run_loads_only_its_own_modules(run, tmp_path):
    argv, own = OWN_MODULES[run]
    write(tmp_path / "plan.txt", "plan strategy=greedy budget=2 alpha=1 beta=1 missing=strict\n"
          "alloc source=bn samples=2 gm=0.5 gini=0.1\n" + EVAL_LINE)
    write(tmp_path / "trace.csv", "step,source,marginal_gain,gm,gini\n1,bn,inf,0.4,0.3\n2,bn,0.1,0.5,0.1\n")
    synth_trajectories(tmp_path)
    loaded = {name for name in modules_after(argv, tmp_path) if name.split(".")[0] == "langdei"}
    assert (tmp_path / argv[-1]).is_file()
    assert loaded == EVERY_RUN | {f"langdei.{name}" for name in own}
    assert "langdei.cli" not in loaded
    if run == "report":
        assert loaded & {"langdei.allocator", "langdei.scalar", "langdei.metrics"} == set()
    if run == "egalitarian":
        assert "langdei.greedy" not in loaded


# The same bytes on every interpreter. Every subcommand but fit runs without
# numpy, so each runs under the pyenv interpreters found here, which need not
# have numpy, and must write what the interpreter running the tests writes.
# Paths are relative to each run's directory, so the reports agree too. The
# wide registry has a source that covers 136 targets, so its greedy states
# take numpy's pairwise sum in halves.
PERF, TASKS, GOODS = (str(bundled_path(name)) for name in ("fixtures_ner_equal.csv", "tasks.csv", "goods.csv"))
EVERY_SUBCOMMAND_BUT_FIT = [
    ["metrics", "--perf", PERF, "--tasks", TASKS, "--tau", "1", "--speakers", SPEAKERS,
     "--lorenz-out", "lorenz.csv", "--out", "scorecard.csv"],
    ["metrics", "--perf", PERF, "--tasks", TASKS, "--tau", "0", "--out", "scorecard_tau0.csv"],
    ["metrics", "--perf", PERF, "--tasks", TASKS, "--tau", "1", "--speakers", SPEAKERS, "--tested-only",
     "--out", "scorecard_tested.csv"],
    ["efficiency", "--goods", GOODS, "--amrs-out", "amrs.csv", "--out", "efficiency.csv"],
    ["allocate", "--curves", MURIL, "--budget", "1000", "--strategy", "greedy", "--tau", "1", "--speakers", SPEAKERS,
     "--missing", "permissive", "--trace-out", "trace.csv", "--out", "greedy.txt"],
    ["allocate", "--curves", MURIL, "--budget", "1000", "--strategy", "egalitarian", "--tau", "1",
     "--speakers", SPEAKERS, "--missing", "permissive", "--out", "egalitarian.txt"],
    ["allocate", "--curves", "wide_curves.txt", "--budget", "1000", "--strategy", "greedy", "--tau", "0",
     "--beta", "1", "--missing", "permissive", "--trace-out", "wide_trace.csv", "--out", "wide_greedy.txt"],
    ["report", "--scorecard", "scorecard.csv", "--lorenz", "lorenz.csv", "--amrs", "amrs.csv",
     "--efficiency", "efficiency.csv", "--curves", MURIL, "--plan", "greedy.txt", "--plan", "egalitarian.txt",
     "--trace", "trace.csv", "--out", "report.md"],
]


def outputs_under(python, cwd):
    """{file name: bytes} of the outputs of EVERY_SUBCOMMAND_BUT_FIT, run
    in one ``python`` process in ``cwd``."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    write(cwd / "wide_curves.txt", "".join(
        f"curve source={source} target=t{j:03d} a={0.5 + j % 7 / 10:g} b={-1 - j % 5:g} c={0.1 + j % 9 / 20:g} r2=0.9\n"
        for source, n in (("s0", 136), ("s1", 12), ("s2", 12)) for j in range(n)))
    code = f"from langdei.cli import main\nfor argv in {EVERY_SUBCOMMAND_BUT_FIT!r}:\n    assert main(argv) == 0, argv"
    subprocess.run([str(python), "-c", code], capture_output=True, env=env, cwd=cwd, check=True)
    return {path.name: path.read_bytes() for path in cwd.iterdir()}


def pyenv_python(version):
    """The newest pyenv interpreter of ``version`` (such as "3.12"), or None."""
    root = Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv")
    found = sorted(root.glob(f"versions/{version}.*/bin/python{version}"))
    return found[-1] if found else None


@pytest.fixture(scope="module")
def own_outputs(tmp_path_factory):
    return outputs_under(sys.executable, tmp_path_factory.mktemp("own"))


@pytest.mark.parametrize("version", ["3.10", "3.12", "3.13"])
def test_same_bytes_on_every_interpreter(version, own_outputs, tmp_path):
    python = pyenv_python(version)
    if python is None:
        pytest.skip(f"no pyenv Python {version}")
    outputs = outputs_under(python, tmp_path)
    assert sorted(outputs) == sorted(own_outputs)
    assert [name for name in outputs if outputs[name] != own_outputs[name]] == []


# The process entry (cli.run_process) freezes the GC before the interpreter
# exits, so the shutdown collections skip every object; main never freezes.
ENTRY_RUNS = [  # (argv, exit status)
    (["efficiency", "--goods", GOODS, "--amrs-out", "amrs.csv", "--out", "efficiency.csv"], 0),
    (["report", "--out", "report.md"], 2),  # no inputs: a handled error
    (["efficiency", "--goods", "ghost.csv", "--out", "efficiency.csv"], 2),
    (["allocate", "--curves", MURIL, "--bud", "10"], 2),  # a usage error
    (["--help"], 0),
]


@pytest.mark.parametrize("argv, status", ENTRY_RUNS, ids=["ok", "no-inputs", "missing-input", "usage", "help"])
def test_process_entry_freezes_and_changes_no_output(argv, status, tmp_path):
    entry = run_with_exit_hook(argv, tmp_path)
    plain = run_with_exit_hook(f"import sys\nfrom langdei.cli import main\nsys.exit(main({argv!r}))", tmp_path)
    assert int(entry.stdout.splitlines()[-1]) > 0
    assert int(plain.stdout.splitlines()[-1]) == 0
    assert entry.returncode == plain.returncode == status
    assert entry.stdout.splitlines()[:-2] == plain.stdout.splitlines()[:-2]
    assert entry.stderr == plain.stderr


def test_main_in_process_does_not_freeze(tmp_path):
    before = gc.get_freeze_count()
    assert main(["efficiency", "--goods", GOODS, "--out", str(tmp_path / "efficiency.csv")]) == 0
    assert main(["report", "--out", str(tmp_path / "report.md")]) == 2
    with pytest.raises(SystemExit):
        main(["allocate", "--curves", MURIL, "--bud", "10"])
    assert gc.get_freeze_count() == before


def test_console_script_is_the_process_entry():
    # Read as text: Python 3.10 has no tomllib.
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    assert re.findall(r'^langdei = "langdei\.cli:(\w+)"$', text, re.M) == ["run_process"]
    assert callable(cli.run_process)


def test_no_file_is_left_for_shutdown_to_close(tmp_path):
    # A frozen process skips the shutdown collections that would close a
    # file left open in a reference cycle, so every run must close the files
    # it opens; -X dev reports any file that only its finalizer closes.
    write(tmp_path / "wide_curves.txt", "".join(
        f"curve source=s0 target=t{j:03d} a=0.5 b=-1 c=0.1 r2=0.9\n" for j in range(3)))
    synth_trajectories(tmp_path)
    for argv in [*EVERY_SUBCOMMAND_BUT_FIT, OWN_MODULES["fit"][0]]:
        result = run_with_exit_hook(argv, tmp_path, "-X", "dev", "-W", "error::ResourceWarning")
        assert result.returncode == 0, (argv, result.stderr)
        assert "ResourceWarning" not in result.stderr, argv


# Each subcommand with valid arguments, then argvs that print help or a usage
# error: the parser of one subcommand must parse each as the full parser does.
PARSER_ARGVS = [
    *EVERY_SUBCOMMAND_BUT_FIT, OWN_MODULES["fit"][0],
    [], ["--help"], *([name, "--help"] for name in SUBCOMMANDS),
    ["metrics", "--perf", "p.csv", "--out", "x.csv"],
    ["efficiency", "--goods", "g.csv", "--out", "x.csv", "--bogus"],
    ["allocate", "--curves", "c.txt", "--bud", "10", "--strategy", "greedy", "--out", "x.txt"],
    ["metrics", "--perf", "p.csv", "--tasks", "t.csv", "--tau", "7", "--out", "x.csv"],
    ["allocate", "--curves", "c.txt", "--budget", "10", "--strategy", "greedy", "--tau", "x", "--out", "x.txt"],
    ["bogus", "--out", "x"],
]


def parse_outcome(parser, argv, capsys):
    """(exit status or None, stdout, stderr, Namespace or None) of parsing ``argv``."""
    try:
        namespace, status = parser.parse_args(argv), None
    except SystemExit as exc:
        namespace, status = None, exc.code
    return (status, *capsys.readouterr(), namespace)


@pytest.mark.parametrize("argv", PARSER_ARGVS, ids=lambda argv: " ".join(argv[:2]))
def test_one_subcommand_parser_parses_as_the_full_parser(argv, capsys):
    outcome = parse_outcome(build_parser(argv), argv, capsys)
    assert outcome == parse_outcome(build_parser(), argv, capsys)
    assert outcome[0] in (None, 0, 2)


def test_parser_of_a_subcommand_has_no_other():
    with pytest.raises(SystemExit):
        build_parser(["metrics"]).parse_args(["fit", "--help"])
