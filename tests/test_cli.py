"""End-to-end tests of the command-line interface.

Each test invokes ``langdei.cli.main`` directly and inspects exit codes,
stderr, and output files. Exit-code contract: 0 success, 1 undefined metric,
2 invalid input.
"""

import contextlib
import csv
import gc
import importlib.util
import itertools
import os
import re
import shutil
import subprocess
import sys
import tempfile
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from langdei import allocator, cli, io
from langdei.cli import SUBCOMMANDS, build_parser, main
from langdei.commands import parse_tau
from langdei.commands.allocate import _comma_list
from langdei.commands.efficiency import _weights
from langdei.commands.fit import _c_range
from langdei.commands.report import load_plan
from langdei.io import bundled_path, load_curve_registry


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def write(path, text):
    path.write_text(text)
    return str(path)


EVAL_LINE = "eval mode=best-source clamp=false m=0.5 gini=0 surrogate=true\n"
PLAN_HEADER = "plan strategy=greedy budget=2 alpha=1 beta=1 missing=strict\n"
PLAN_ALLOC = "alloc source=bn samples=2 gm=0.5 gini=0\n"


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

    def test_header_only_table_exit_2(self, data, tmp_path, monkeypatch, capsys):
        # A metric over no rows is undefined, so an empty input is bad input, as for fit and allocate.
        write(tmp_path / "perf.csv", "task,model,train_lang,target_lang,score\n")
        monkeypatch.chdir(tmp_path)
        rc = main(["metrics", "--perf", "perf.csv", "--tasks", data["tasks"], "--tau", "0",
                   "--out", "sc.csv", "--lorenz-out", "lz.csv"])
        assert rc == 2
        assert capsys.readouterr().err == "error: perf.csv: no performance rows\n"
        assert list(tmp_path.iterdir()) == [tmp_path / "perf.csv"]

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

    @pytest.mark.parametrize("rows, message", [
        (["ner,m,en,hi,60", "ner,m,en,xx,60", "ner,m,en,yy,60"],
         "perf.csv:3: performance rows for (ner, m, en) name languages outside the universe: xx, yy"),
        (["ner,m,en,hi,60", "zz,m2,en,hi,60", "zz,m,en,hi,60"], "perf.csv:4: unknown task id 'zz' in performance table"),
    ], ids=["outside-universe", "unknown-task"])
    def test_scorecard_row_fault_names_its_line(self, data, tmp_path, monkeypatch, capsys, rows, message):
        # The first row that breaks the rule, of the first key in sorted order that does.
        write(tmp_path / "perf.csv", "task,model,train_lang,target_lang,score\n" + "\n".join(rows) + "\n")
        monkeypatch.chdir(tmp_path)
        rc = main(["metrics", "--perf", "perf.csv", "--tasks", data["tasks"], "--tau", "0", "--out", "sc.csv"])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_all_zero_key_names_its_first_line(self, data, tmp_path, monkeypatch, capsys):
        shutil.copy(data["perf"], tmp_path / "p.csv")
        with open(tmp_path / "p.csv", "a") as fh:
            fh.write("ner,zm,en,hi,0\nner,zm,en,bn,0\n")
        monkeypatch.chdir(tmp_path)
        assert main(["metrics", "--perf", "p.csv", "--tasks", data["tasks"], "--tau", "0", "--out", "sc.csv"]) == 1
        assert capsys.readouterr().err == "error: p.csv:12: (ner, zm, en): Gini is undefined for an all-zero vector\n"

    def test_gini_of_equal_scores_is_zero(self, data):
        # 30.01 on all 23 languages: the formula, summed as numpy sums,
        # rounds this Gini to -3.1e-16, which must not be written.
        from langdei.metrics import DEFAULT_UNIVERSE

        perf = write(data["tmp"] / "perf.csv", "task,model,train_lang,target_lang,score\n"
                     + "".join(f"ner,m,en,{lang},30.01\n" for lang in DEFAULT_UNIVERSE))
        out = data["tmp"] / "sc.csv"
        assert main(["metrics", "--perf", perf, "--tasks", data["tasks"], "--tau", "0", "--out", str(out)]) == 0
        (row,) = read_csv(out)
        assert (row["gini"], row["tested"]) == ("0", "23")

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

    def test_header_only_goods_exit_2(self, tmp_path, monkeypatch, capsys):
        write(tmp_path / "goods.csv", "model,group,task,throughput,memory_gb,perf\n")
        monkeypatch.chdir(tmp_path)
        rc = main(["efficiency", "--goods", "goods.csv", "--out", "eff.csv", "--amrs-out", "amrs.csv"])
        assert rc == 2
        assert capsys.readouterr().err == "error: goods.csv: no goods rows\n"
        assert list(tmp_path.iterdir()) == [tmp_path / "goods.csv"]

    def test_model_above_ceiling_exit_2_before_an_undefined_rate(self, tmp_path, monkeypatch, capsys):
        # Group a's throughput rate is 0 (exit 1), but b2 above the ceiling is
        # bad input, reported before any rate is computed.
        write(tmp_path / "g2.csv", "model,group,task,throughput,memory_gb,perf\n"
              "a1,a,ner,5,1,10\na2,a,ner,5,2,20\nb1,b,ner,5,1,10\nb2,b,ner,6,20,30\n")
        monkeypatch.chdir(tmp_path)
        rc = main(["efficiency", "--goods", "g2.csv", "--out", "e.csv"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: g2.csv:5: model 'b2' uses 20.0 GB on task 'ner', above the 16.0 GB ceiling\n")
        assert list(tmp_path.iterdir()) == [tmp_path / "g2.csv"]

    @pytest.mark.parametrize("rows, code, message", [
        (["a1,g,ner,5,2,40", "a2,g,ner,6,3,40"], 2,
         "g.csv:3: (g, ner): models 'a1' and 'a2' have equal performance (40.0); substitution rate undefined"),
        (["a1,g,ner,5,2,40", "a2,g,ner,5,2,50"], 1,
         "g.csv:2: (g, ner, throughput): average substitution rate is 0; efficiency scores would divide by zero"),
        (["a1,g,ner,5,2,40", "b1,h,ner,5,2,40", "a2,g,ner,6,3,50"], 2,
         "g.csv:3: group 'h' has a single model for task 'ner'; substitution rates need >= 2"),
    ], ids=["equal-performance", "zero-average", "single-model"])
    def test_group_fault_names_its_line(self, tmp_path, monkeypatch, capsys, rows, code, message):
        # Equal performance is at the later row of the two; a group's other faults at its first row.
        write(tmp_path / "g.csv", "\n".join(["model,group,task,throughput,memory_gb,perf", *rows]) + "\n")
        monkeypatch.chdir(tmp_path)
        assert main(["efficiency", "--goods", "g.csv", "--out", "e.csv"]) == code
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_bundled_goods_with_a_model_above_ceiling_names_its_line(self, data, tmp_path, monkeypatch, capsys):
        shutil.copy(data["goods"], tmp_path / "g.csv")
        with open(tmp_path / "g.csv", "a") as fh:
            fh.write("big,regional,ner,5,20,40\n")
        monkeypatch.chdir(tmp_path)
        assert main(["efficiency", "--goods", "g.csv", "--out", "e.csv"]) == 2
        assert capsys.readouterr().err == (
            "error: g.csv:22: model 'big' uses 20.0 GB on task 'ner', above the 16.0 GB ceiling\n")

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


# One faulty row injected into a small valid input: the error names the line
# of the row it is about, counted here from the text written.

def run_in(directory, files, argv):
    """(exit code, stderr) of ``cli.main(argv)`` in ``directory``, with
    ``files`` ({name: lines}) written there first."""
    for name, lines in files.items():
        Path(directory, name).write_text("\n".join(lines) + "\n")
    cwd, err = os.getcwd(), StringIO()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return code, err.getvalue()


@st.composite
def with_blank_lines(draw, rows):
    """``rows`` in order, with a blank line drawn before each now and then."""
    return [line for row in rows for line in ([""] if draw(st.integers(0, 4)) == 0 else []) + [row]]


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from(["task", "lang", "zero"]))
def test_faulty_performance_row_is_named_at_its_line(data, fault):
    from langdei.metrics import DEFAULT_UNIVERSE

    rows = []
    for model in ("m0", "m1", "m2")[:data.draw(st.integers(1, 3))]:
        for lang in data.draw(st.lists(st.sampled_from(DEFAULT_UNIVERSE), min_size=1, max_size=4, unique=True)):
            rows.append(f"ner,{model},en,{lang},{data.draw(st.integers(1, 97))}")
    model = data.draw(st.sampled_from(["m0", "zm"]))
    bad, code, message = {
        "task": ("zz,m0,en,hi,50", 2, "unknown task id 'zz' in performance table"),
        "lang": (f"ner,{model},en,qq,50", 2,
                 f"performance rows for (ner, {model}, en) name languages outside the universe: qq"),
        "zero": ("ner,zm,en,hi,0", 1, "(ner, zm, en): Gini is undefined for an all-zero vector"),
    }[fault]
    rows.insert(data.draw(st.integers(0, len(rows))), bad)
    lines = ["task,model,train_lang,target_lang,score", *data.draw(with_blank_lines(rows))]
    with tempfile.TemporaryDirectory() as directory:
        outcome = run_in(directory, {"perf.csv": lines},
                         ["metrics", "--perf", "perf.csv", "--tasks", TASKS, "--tau", "0", "--out", "sc.csv"])
    assert outcome == (code, f"error: perf.csv:{lines.index(bad) + 1}: {message}\n")


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_goods_row_above_the_memory_ceiling_is_named_at_its_line(data):
    rows = []
    for group in ("g0", "g1")[:data.draw(st.integers(1, 2))]:
        perfs = data.draw(st.lists(st.integers(1, 99), min_size=2, max_size=4, unique=True))
        rows += [f"{group}m{i},{group},t,{data.draw(st.integers(1, 50))},{i + 1},{perf}"
                 for i, perf in enumerate(perfs)]
    memory = data.draw(st.sampled_from(["16.5", "20", "1e3"]))
    bad = f"big,{data.draw(st.sampled_from(['g0', 'new']))},t,5,{memory},40"
    rows.insert(data.draw(st.integers(0, len(rows))), bad)
    lines = ["model,group,task,throughput,memory_gb,perf", *data.draw(with_blank_lines(rows))]
    with tempfile.TemporaryDirectory() as directory:
        outcome = run_in(directory, {"goods.csv": lines}, ["efficiency", "--goods", "goods.csv", "--out", "e.csv"])
    assert outcome == (2, f"error: goods.csv:{lines.index(bad) + 1}: model 'big' uses {float(memory)} GB on task 't', "
                          "above the 16.0 GB ceiling\n")


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_goods_row_without_an_override_rate_is_named_at_its_line(data):
    # efficiency_score meets each row's throughput rate, then its memory rate.
    groups = ("g0", "g1")[:data.draw(st.integers(1, 2))]
    rows = data.draw(st.permutations([f"{group}m{i},{group},t,{10 + i},{i + 1},{20 + i}"
                                      for group in groups for i in range(data.draw(st.integers(1, 3)))]))
    rates = [f"{group},t,{metric},{data.draw(st.sampled_from(['0.5', '2']))}"
             for group in groups for metric in ("throughput", "memory")]
    group, _, metric, _ = rates.pop(data.draw(st.integers(0, len(rates) - 1))).split(",")
    lines = ["model,group,task,throughput,memory_gb,perf", *data.draw(with_blank_lines(rows))]
    first = next(n for n, line in enumerate(lines, 1) if line.split(",")[1:2] == [group])
    with tempfile.TemporaryDirectory() as directory:
        outcome = run_in(directory, {"goods.csv": lines, "o.csv": ["group,task,metric,amrs", *rates]},
                         ["efficiency", "--goods", "goods.csv", "--amrs-override", "o.csv", "--out", "e.csv"])
    assert outcome == (2, f"error: goods.csv:{first}: no substitution rate for group={group!r} task='t' "
                          f"metric={metric!r}\n")


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
        flags, plans = [], []
        picks, greedy_allocate = allocator._picks, allocator.greedy_allocate

        def tracing(request, trace):
            flags.append(trace)
            return picks(request, trace)

        def allocating(*args, **kwargs):
            plans.append(greedy_allocate(*args, **kwargs))
            return plans[-1]

        monkeypatch.setattr(allocator, "_picks", tracing)
        monkeypatch.setattr(allocator, "greedy_allocate", allocating)
        argv = ["allocate", "--curves", data["curves"], "--budget", "40", "--strategy", "greedy",
                "--tau", "0", "--missing", "permissive", "--out", str(data["tmp"] / "plan.txt")]
        assert main(argv) == 0
        assert flags == [False] and plans[-1].trace == ()
        assert main(argv + ["--trace-out", str(data["tmp"] / "trace.csv")]) == 0
        assert flags == [False, True]
        assert [step for step, *_ in plans[-1].trace] == list(range(1, 41))

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

    # A small valid file of each CSV role: ids and numbers as langdei writes them.
    CSV_ARTIFACTS = {
        "scorecard": "task,model,train_lang,m_tau,gini,tested,universe\nner,m|1,en,50.5,0,1,1\n",
        "lorenz": "task,model,train_lang,population_fraction,cumulative_share\nner,m|1,en,0,0\nner,m|1,en,1,1\n",
        "amrs": "group,task,metric,amrs\ng,ner,throughput,1.5\ng,ner,memory,2.5e-05\n",
        "efficiency": "task,model,group,perf,throughput,memory_saved,efficiency\nner,m|1,g,50,10,4,1e-05\n",
    }

    def assert_report_fails(self, tmp_path, capsys, role, text, message):
        artifact = write(tmp_path / "artifact.csv", text)
        out = tmp_path / "r.md"
        assert main(["report", f"--{role}", artifact, "--out", str(out)]) == 2
        assert f"{artifact}{message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("role", ["scorecard", "amrs", "efficiency"])
    @pytest.mark.parametrize("text", ["", "\n \n"])
    def test_empty_csv_artifact_exit_2(self, tmp_path, capsys, role, text):
        # A blank line is skipped; a line of spaces is read as a header row.
        header = self.CSV_ARTIFACTS[role].split("\n")[0]
        message = f":2: expected header {header!r}, got ' '" if text else ": empty file"
        self.assert_report_fails(tmp_path, capsys, role, text, message)

    @pytest.mark.parametrize("roles", [["scorecard"], ["lorenz"], ["efficiency"], ["scorecard", "lorenz"]],
                             ids=["scorecard", "lorenz", "efficiency", "scorecard-lorenz"])
    def test_header_only_csv_artifact_exit_2(self, tmp_path, capsys, roles):
        # metrics and efficiency never write a file without rows; the first
        # role read is reported, before the Lorenz rule runs.
        paths = {role: write(tmp_path / f"{role}.csv", self.CSV_ARTIFACTS[role].split("\n")[0] + "\n")
                 for role in roles}
        out = tmp_path / "r.md"
        assert main(["report", *(arg for role in roles for arg in (f"--{role}", paths[role])), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {paths[roles[0]]}: no {roles[0]} rows\n"
        assert not out.exists()

    def test_header_only_amrs_trace_and_empty_registry_accepted(self, tmp_path):
        # An empty AMRS override is efficiency's to accept, egalitarian
        # allocate writes a header-only trace, and fit a registry without
        # curves when it rejects every pair.
        amrs = write(tmp_path / "amrs.csv", "group,task,metric,amrs\n")
        trace = write(tmp_path / "trace.csv", "step,source,marginal_gain,gm,gini\n")
        curves = write(tmp_path / "curves.txt", "")
        out = tmp_path / "r.md"
        assert main(["report", "--amrs", amrs, "--curves", curves, "--trace", trace, "--out", str(out)]) == 0
        text = out.read_text()
        assert "0 fitted curves." in text and "0 greedy steps recorded." in text

    def test_each_csv_artifact_renders_as_read(self, tmp_path):
        args = []
        for role, text in self.CSV_ARTIFACTS.items():
            args += [f"--{role}", write(tmp_path / f"{role}.csv", text)]
        out = tmp_path / "r.md"
        assert main(["report", *args, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert "| ner | m\\|1 | en | 50.5 | 0 | 1 | 1 |" in lines
        assert "| g | ner | memory | 2.5e-05 |" in lines
        assert "| ner | m\\|1 | g | 50 | 10 | 4 | 1e-05 |" in lines

    @pytest.mark.parametrize(("role", "other"), list(itertools.permutations(CSV_ARTIFACTS, 2)))
    def test_another_roles_csv_exit_2(self, tmp_path, capsys, role, other):
        header, other_header = (self.CSV_ARTIFACTS[r].split("\n")[0] for r in (role, other))
        self.assert_report_fails(tmp_path, capsys, role, self.CSV_ARTIFACTS[other],
                                 f":1: expected header {header!r}, got {other_header!r}")

    @pytest.mark.parametrize("role", CSV_ARTIFACTS)
    def test_csv_row_one_field_too_wide_exit_2(self, tmp_path, capsys, role):
        header, row = self.CSV_ARTIFACTS[role].split("\n")[:2]
        width = header.count(",") + 1
        self.assert_report_fails(tmp_path, capsys, role, f"{header}\n{row},1\n",
                                 f":2: expected {width} fields, got {width + 1}")

    @pytest.mark.parametrize("role", CSV_ARTIFACTS)
    @pytest.mark.parametrize("cell", ['"n\nx"', '"n x"', '""'], ids=["line-break", "space", "empty"])
    def test_csv_cell_that_is_no_id_or_number_exit_2(self, tmp_path, capsys, role, cell):
        # A quoted cell may span lines; the row is reported at the line it starts on.
        # efficiency.load_amrs checks an AMRS file, with its own message.
        header, row, *rest = self.CSV_ARTIFACTS[role].split("\n")
        text = "\n".join([header, "", cell + row[row.index(","):], *rest])
        what = "group:" if role == "amrs" else f"{header.split(',')[0]} cell"
        self.assert_report_fails(tmp_path, capsys, role, text, f":3: invalid {what}")

    @pytest.mark.parametrize(("role", "row", "message"), [
        ("scorecard", "ner,m,en,abc,7,1.5,x", ":2: malformed number 'abc'"),
        ("scorecard", "ner,m,en,50.5,0.2,1.5,23", ":2: malformed integer '1.5'"),
        ("scorecard", "ner,m,en,50.5,0.2,3,x", ":2: malformed integer 'x'"),
        ("lorenz", "ner,m,en,0,0\nner,m,en,x,1", ":3: malformed number 'x'"),
        ("amrs", "g,ner,throughput,1.5\ng,ner,memory,nan", ":3: number must not be NaN"),
        ("efficiency", "ner,m,g,50,10,abc,1e-05", ":2: malformed number 'abc'"),
        ("scorecard", 'ner,m,en,"5 0",0,1,1', ":2: malformed number '5 0'"),
    ], ids=["scorecard-real", "scorecard-tested", "scorecard-universe", "lorenz", "amrs", "efficiency",
            "scorecard-quoted-space"])
    def test_csv_number_cell_that_is_no_number_exit_2(self, tmp_path, capsys, role, row, message):
        header = self.CSV_ARTIFACTS[role].split("\n")[0]
        self.assert_report_fails(tmp_path, capsys, role, f"{header}\n{row}\n", message)

    @pytest.mark.parametrize(("role", "row", "message"), [
        ("scorecard", "ner,m,en,50,7,-3,2", ":2: gini must be in [0, 1), got 7"),
        ("scorecard", "ner,m,en,100.5,0.2,3,23", ":2: m_tau must be in [0, 100], got 100.5"),
        ("scorecard", "ner,m,en,50,0.2,0,23", ":2: tested must be >= 1, got 0"),
        ("scorecard", "ner,m,en,50,0.2,5,3", ":2: tested must be <= universe, got 5 > 3"),
        ("lorenz", "ner,m,en,0,0\nner,m,en,1,1.5", ":3: cumulative_share must be in [0, 1], got 1.5"),
        ("lorenz", "ner,m,en,-0.5,0", ":2: population_fraction must be in [0, 1], got -0.5"),
        ("amrs", "g,ner,throughput,1.5\ng,ner,memory,-4",
         ":3: substitution rate for ('g', 'ner', 'memory') must be positive, got -4.0"),
        ("efficiency", "ner,m,g,-5,10,4,1", ":2: perf must be finite and >= 0, got -5"),
        ("efficiency", "ner,m,g,50,0,4,1", ":2: throughput must be finite and > 0, got 0"),
        ("efficiency", "ner,m,g,50,10,-1,1", ":2: memory_saved must be finite and >= 0, got -1"),
        ("efficiency", "ner,m,g,50,10,4,-1e-05", ":2: efficiency must be >= 0, got -1e-05"),
    ], ids=["gini", "m_tau", "tested", "tested-universe", "share", "fraction", "amrs", "perf", "throughput",
            "memory_saved", "efficiency"])
    def test_csv_number_out_of_its_writers_range_exit_2(self, tmp_path, capsys, role, row, message):
        header = self.CSV_ARTIFACTS[role].split("\n")[0]
        self.assert_report_fails(tmp_path, capsys, role, f"{header}\n{row}\n", message)

    @pytest.mark.parametrize(("role", "rows", "message"), [
        ("scorecard", ["ner,m,en,50,0,1,1", "ner,m,hi,50,0,1,1", "ner,m,en,60,0.5,1,2"],
         ":4: duplicate row for ('ner', 'm', 'en')"),
        ("lorenz", ["ner,m,en,0,0", "ner,m,en,1,1", "ner,m,en,1,0.5"], ":4: duplicate row for ('ner', 'm', 'en', '1')"),
        ("efficiency", ["ner,m,g,50,10,4,1", "ner,m,g2,40,5,2,0.5"], ":3: duplicate row for ('ner', 'm')"),
    ], ids=["scorecard", "lorenz", "efficiency"])
    def test_csv_row_repeating_a_key_exit_2(self, tmp_path, capsys, role, rows, message):
        # metrics writes one scorecard row per (task, model, train_lang) and one
        # Lorenz point per population fraction of it; efficiency one row per (task, model).
        header = self.CSV_ARTIFACTS[role].split("\n")[0]
        self.assert_report_fails(tmp_path, capsys, role, "\n".join([header, *rows]) + "\n", message)

    @pytest.mark.parametrize(("rows", "message"), [
        (["g,ner,latency,2.0", "g,ner,latency,3.0"], ":2: metric must be one of ('throughput', 'memory'), got 'latency'"),
        (["g,ner,throughput,2.0", "g,ner,memory,1", "g,ner,throughput,3.0"],
         ":4: duplicate substitution rate for ('g', 'ner', 'throughput')"),
    ], ids=["unknown-metric", "repeated-key"])
    def test_amrs_file_that_efficiency_rejects_exit_2_with_its_message(self, tmp_path, capsys, rows, message):
        # report checks an AMRS file by the rule efficiency reads an override with.
        text = "\n".join(["group,task,metric,amrs", *rows]) + "\n"
        self.assert_report_fails(tmp_path, capsys, "amrs", text, message)
        goods = write(tmp_path / "goods.csv", "model,group,task,throughput,memory_gb,perf\na1,g,ner,10,4,50\n")
        artifact, out = tmp_path / "artifact.csv", tmp_path / "e.csv"
        assert main(["efficiency", "--goods", goods, "--amrs-override", str(artifact), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {artifact}{message}\n"

    def test_lorenz_row_without_a_scorecard_row_exit_2(self, tmp_path, capsys):
        scorecard = write(tmp_path / "scorecard.csv", self.CSV_ARTIFACTS["scorecard"])
        lorenz = write(tmp_path / "lorenz.csv", self.CSV_ARTIFACTS["lorenz"] + "zz,m|1,en,0,0\n")
        out = tmp_path / "r.md"
        assert main(["report", "--scorecard", scorecard, "--lorenz", lorenz, "--out", str(out)]) == 2
        assert f"{lorenz}:4: no scorecard row for ('zz', 'm|1', 'en')" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(("scorecard", "lorenz", "message"), [
        (["ner,m,en,50,0.2,3,23"], ["ner,m,en,0,0", "ner,m,en,1,1"],
         "scorecard.csv:2: ('ner', 'm', 'en') has 2 Lorenz points, expected universe + 1 = 24"),
        (["ner,m,en,50,0,1,1"], ["ner,m,en,0,0", "ner,m,en,0.5,0.5", "ner,m,en,1,1"],
         "scorecard.csv:2: ('ner', 'm', 'en') has 3 Lorenz points, expected universe + 1 = 2"),
        (["ner,m,en,50,0,1,1", "ner,m2,en,50,0,1,1"], ["ner,m,en,0,0", "ner,m,en,1,1"],
         "scorecard.csv:3: ('ner', 'm2', 'en') has 0 Lorenz points, expected universe + 1 = 2"),
        (["ner,m,en,50,0,1,1"], ["ner,m,en,0.5,0", "ner,m,en,1,1"],
         "lorenz.csv:2: the Lorenz points of ('ner', 'm', 'en') must run from (0, 0) to (1, 1), got (0.5, 0)"),
        (["ner,m,en,50,0,1,1"], ["ner,m,en,0,0", "ner,m,en,1,0.5"],
         "lorenz.csv:3: the Lorenz points of ('ner', 'm', 'en') must run from (0, 0) to (1, 1), got (1, 0.5)"),
        (["ner,m,en,50,0,1,2"], ["ner,m,en,0,0", "ner,m,en,0,0", "ner,m,en,1,1"],
         "lorenz.csv:3: duplicate row for ('ner', 'm', 'en', '0')"),
        (["ner,m,en,50,0,2,2"], ["ner,m,en,0,0", "ner,m,en,0.0,0", "ner,m,en,1,1"],
         "lorenz.csv:3: Lorenz point 1 of ('ner', 'm', 'en') must have population_fraction 0.5, got 0.0"),
        (["ner,m,en,50,0,2,3"], ["ner,m,en,0,0", "ner,m,en,0.666666666667,0.5", "ner,m,en,0.333333333333,0.6",
                                 "ner,m,en,1,1"],
         "lorenz.csv:3: Lorenz point 1 of ('ner', 'm', 'en') must have population_fraction 0.333333333333, "
         "got 0.666666666667"),
        (["ner,m,en,50,0,2,3"], ["ner,m,en,0,0", "ner,m,en,0.333333333333,0.5", "ner,m,en,0.666666666667,0.4",
                                 "ner,m,en,1,1"],
         "lorenz.csv:4: the cumulative_share of ('ner', 'm', 'en') must not decrease, got 0.4 after 0.5"),
    ], ids=["too-few", "too-many", "none", "first", "last", "repeated", "fraction-repeated-in-value",
            "fractions-swapped", "share-decreasing"])
    def test_scorecard_row_without_its_lorenz_points_exit_2(self, tmp_path, monkeypatch, capsys, scorecard, lorenz,
                                                            message):
        # metrics writes universe + 1 points for each row, from (0, 0) to (1, 1).
        monkeypatch.chdir(tmp_path)
        for name, rows in (("scorecard", scorecard), ("lorenz", lorenz)):
            write(tmp_path / f"{name}.csv", "\n".join([self.CSV_ARTIFACTS[name].split("\n")[0], *rows]) + "\n")
        assert main(["report", "--scorecard", "scorecard.csv", "--lorenz", "lorenz.csv", "--out", "r.md"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "r.md").exists()

    @pytest.mark.parametrize(("lorenz", "message"), [
        (["ner,m,en,0,0.9", "ner,m,en,0.0,0", "ner,m,en,1,0.2"],
         "lorenz.csv:2: the Lorenz points of ('ner', 'm', 'en') must run from (0, 0) to (1, 1), got (0, 0.9)"),
        (["ner,m,en,0,0", "ner,m,en,1,0.5"],
         "lorenz.csv:3: the Lorenz points of ('ner', 'm', 'en') must run from (0, 0) to (1, 1), got (1, 0.5)"),
        (["ner,m,en,0,0", "ner,m,en,0.0,0", "ner,m,en,1,1"],
         "lorenz.csv:3: Lorenz point 1 of ('ner', 'm', 'en') must have population_fraction 0.5, got 0.0"),
        (["ner,m,en,0,0", "ner,m,en,0.333333333333,0.5", "ner,m,en,0.666666666667,0.4", "ner,m,en,1,1"],
         "lorenz.csv:4: the cumulative_share of ('ner', 'm', 'en') must not decrease, got 0.4 after 0.5"),
        (["ner,m,en,0,0", "ner,m2,en,0,0", "ner,m,en,1,1"],
         "lorenz.csv:3: ('ner', 'm2', 'en') has 1 Lorenz point, expected at least 2"),
        (["ner,m2,en,0,0", "ner,m,en,0,0", "ner,m,en,0.5,0.5", "ner,m2,en,1,0.5", "ner,m,en,1,1"],
         "lorenz.csv:5: the Lorenz points of ('ner', 'm2', 'en') must run from (0, 0) to (1, 1), got (1, 0.5)"),
    ], ids=["first", "last", "fraction-repeated-in-value", "share-decreasing", "one-point", "keys-interleaved"])
    def test_lorenz_points_without_a_scorecard_exit_2(self, tmp_path, monkeypatch, capsys, lorenz, message):
        # Without a scorecard, each key's n is its own point count - 1.
        monkeypatch.chdir(tmp_path)
        write(tmp_path / "lorenz.csv", "\n".join([self.CSV_ARTIFACTS["lorenz"].split("\n")[0], *lorenz]) + "\n")
        assert main(["report", "--lorenz", "lorenz.csv", "--out", "r.md"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "r.md").exists()

    @pytest.mark.parametrize(("row", "message"), [
        ("x,bn,0.5,0.6,0.2", "trace.csv:3: malformed integer 'x'"),
        ("2,hi,nan,0.6,0.2", "trace.csv:3: number must not be NaN"),
        ("2,hi,0.5,nan,0.2", "trace.csv:3: number must not be NaN"),
        ("2,hi,inf,0.6,nan", "trace.csv:3: number must not be NaN"),
        ("2,hi,0.5,0.6", "trace.csv:3: expected 5 fields, got 4"),
        ("2,h i,0.5,0.6,0.2", "trace.csv:3: invalid source language: 'h i'"),
        ("2,,0.5,0.6,0.2", "trace.csv:3: invalid source language: ''"),
    ])
    def test_malformed_trace_row_exit_2(self, tmp_path, capsys, row, message):
        trace = write(tmp_path / "trace.csv", f"step,source,marginal_gain,gm,gini\n1,bn,inf,0.4,0.3\n{row}\n")
        out = tmp_path / "r.md"
        assert main(["report", "--trace", trace, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(("steps", "message"), [
        ((5, 3, 3), "trace.csv:2: expected step 1, got 5"),
        ((1, 2, 2), "trace.csv:4: expected step 3, got 2"),
        ((1, 3), "trace.csv:3: expected step 2, got 3"),
        ((0, 1), "trace.csv:2: expected step 1, got 0"),
    ], ids=["first", "repeated", "skipped", "from-0"])
    def test_trace_step_out_of_place_exit_2(self, tmp_path, capsys, steps, message):
        # allocate writes step i on data row i.
        rows = [f"{step},hi,0.5,0.6,0.2" for step in steps]
        trace = write(tmp_path / "trace.csv", "\n".join(["step,source,marginal_gain,gm,gini", *rows]) + "\n")
        out = tmp_path / "r.md"
        assert main(["report", "--trace", trace, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {tmp_path / message}\n"
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
        (PLAN_HEADER * 2 + PLAN_ALLOC + EVAL_LINE, "plan.txt:2: duplicate plan header"),
        (PLAN_HEADER + PLAN_ALLOC + EVAL_LINE * 2, "plan.txt:4: duplicate eval line"),
        (PLAN_ALLOC + EVAL_LINE, "plan.txt: missing plan header"),
    ], ids=["found-plan", "sum", "mode-median", "no-eval", "found-strategy-plan", "strategy", "duplicate-header",
            "duplicate-eval", "no-header"])
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


def test_interrupted_write_propagates_and_leaves_no_file(data, tmp_path, monkeypatch):
    # Only an OSError becomes an exit status; an interrupt while the second
    # output is written still removes the first output's staged file.
    write_text = io.write_text

    def interrupt_trace(path, text):
        if Path(path).name.startswith("trace.csv."):
            raise KeyboardInterrupt
        write_text(path, text)

    monkeypatch.setattr(io, "write_text", interrupt_trace)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(KeyboardInterrupt):
        main(["allocate", "--curves", data["curves"], "--budget", "10", "--strategy", "greedy", "--tau", "0",
              "--missing", "permissive", "--out", "plan.txt", "--trace-out", "trace.csv"])
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


# Each file flag of each subcommand, as its OPTIONS declare the roles, and
# a value for each required flag that names no file. The checks run before
# any input is read, so the inputs need not exist.
FILE_FLAGS = [(name, flag) for name in SUBCOMMANDS
              for flag, spec in cli._command(name).OPTIONS.items() if "role" in spec]
INPUT_FLAGS = [(name, flag) for name, flag in FILE_FLAGS if cli._command(name).OPTIONS[flag]["role"] == "input"]
REQUIRED_SETTINGS = {"--budget": "10", "--strategy": "greedy"}


def with_required_flags(name, *given):
    """The argv of subcommand ``name``: the ``given`` tokens, then each required flag they lack."""
    argv = [name, *given]
    for flag, spec in cli._command(name).OPTIONS.items():
        if spec.get("required") and flag not in argv:
            argv += [flag, REQUIRED_SETTINGS.get(flag, f"{flag[2:]}.txt")]
    return argv


@pytest.mark.parametrize(("name", "flag"), INPUT_FLAGS, ids=[" ".join(case) for case in INPUT_FLAGS])
def test_each_input_flag_naming_the_output_rejected(name, flag, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(with_required_flags(name, flag, "same.txt", "--out", "same.txt")) == 2
    assert capsys.readouterr().err == f"error: {flag} and --out name the same file: same.txt\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(("name", "flag"), FILE_FLAGS, ids=[" ".join(case) for case in FILE_FLAGS])
def test_each_file_flag_naming_no_file_rejected(name, flag, tmp_path, monkeypatch, capsys):
    # An empty path would resolve to the run's directory, or be skipped.
    monkeypatch.chdir(tmp_path)
    assert main(with_required_flags(name, flag, "")) == 2
    assert capsys.readouterr().err == f"error: {flag} names no file\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(("argv", "flag"), [
    (["allocate", "--speakers", "x.txt", "--curves", "x.txt", "--budget", "10", "--strategy", "greedy"], "--curves"),
    (["report", "--curves", "x.txt", "--scorecard", "x.txt"], "--scorecard"),
], ids=["allocate", "report"])
def test_a_collision_names_the_first_input_flag_in_options_order(argv, flag, tmp_path, monkeypatch, capsys):
    # Not the first given: the first in the subcommand's OPTIONS.
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--out", "x.txt"]) == 2
    assert capsys.readouterr().err == f"error: {flag} and --out name the same file: x.txt\n"
    assert list(tmp_path.iterdir()) == []


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


CURVE_BN_HI = "curve source=bn target=hi a=1 b=-0.5 c=0.5 r2=0.9\n"
ALLOCATE = ["allocate", "--curves", "curves.txt", "--budget", "3", "--strategy", "greedy", "--tau", "0"]

# id: (files written in the run directory, arguments before --out, message)
BAD_INPUTS = {
    "empty-registry": ({"curves.txt": "# no curves\n"}, ALLOCATE, "curves.txt: registry contains no curves"),
    "registry-token": ({"curves.txt": "curve source=bn target=hi a=1 b=-0.5 c=0.5 r2\n"},
                       ["report", "--curves", "curves.txt"], "curves.txt:1: expected key=value token, got 'r2'"),
    "registry-duplicate-key": ({"curves.txt": "curve source=bn source=hi target=hi a=1 b=-0.5 c=0.5 r2=0.9\n"},
                               ["report", "--curves", "curves.txt"], "curves.txt:1: duplicate key 'source'"),
    "registry-record": ({"curves.txt": CURVE_BN_HI + "alloc source=bn samples=1\n"},
                        ["report", "--curves", "curves.txt"],
                        "curves.txt:2: expected a 'curve' record, got 'alloc source=bn samples=1'"),
    "duplicate-sources": ({"curves.txt": CURVE_BN_HI}, [*ALLOCATE, "--sources", "bn,bn"], "duplicate source languages"),
    "duplicate-targets": ({"curves.txt": CURVE_BN_HI}, [*ALLOCATE, "--targets", "hi,hi"], "duplicate target languages"),
    "registry-infinite-coefficient": ({"curves.txt": "curve source=bn target=hi a=inf b=-0.5 c=0.5 r2=0.9\n"},
                                      ["report", "--curves", "curves.txt"],
                                      "curves.txt:1: curve coefficient a must be finite, got inf"),
    "permissive-source-without-curve": ({"curves.txt": CURVE_BN_HI},
                                        [*ALLOCATE, "--sources", "bn,ta", "--missing", "permissive"],
                                        "source 'ta' has no curve for any target"),
    "empty-universe": ({"u.txt": "# no codes\n\n"},
                       ["metrics", "--perf", str(bundled_path("fixtures_ner_equal.csv")), "--tasks",
                        str(bundled_path("tasks.csv")), "--tau", "0", "--universe", "u.txt"], "u.txt: no language codes"),
    "duplicate-task": ({"tasks.csv": "task,max_performance\nner,100\nner,90\n"},
                       ["metrics", "--perf", str(bundled_path("fixtures_ner_equal.csv")), "--tasks", "tasks.csv",
                        "--tau", "0"], "tasks.csv:3: duplicate task 'ner'"),
    "duplicate-amrs-override": ({"amrs.csv": "group,task,metric,amrs\ng,ner,throughput,1\ng,ner,throughput,2\n"},
                                ["efficiency", "--goods", str(bundled_path("goods.csv")), "--amrs-override", "amrs.csv"],
                                "amrs.csv:3: duplicate substitution rate for ('g', 'ner', 'throughput')"),
}


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_bad_input_exits_2_with_its_message(case, tmp_path, monkeypatch, capsys):
    files, argv, message = BAD_INPUTS[case]
    for name, text in files.items():
        write(tmp_path / name, text)
    monkeypatch.chdir(tmp_path)
    before = sorted(p.name for p in tmp_path.iterdir())
    assert main([*argv, "--out", "result"]) == 2
    assert f"error: {message}\n" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == before


@pytest.mark.parametrize("argv, message", [
    (["efficiency", "--goods", "GOODS", "--weights", "1,1"], "expected W_PERF,W_THROUGHPUT,W_MEMORY, got '1,1'"),
    (["efficiency", "--goods", "GOODS", "--weights", "a,0,0"], "expected numbers, got 'a,0,0'"),
    (["fit", "--trajectories", "TRAJ", "--c-range", "1"], "expected LO:HI, got '1'"),
    (["fit", "--trajectories", "TRAJ", "--c-range", "a:1"], "expected numbers in LO:HI, got 'a:1'"),
    (["allocate", "--curves", "CURVES", "--budget", "3", "--strategy", "greedy", "--sources", ","],
     "expected a comma-separated list of language codes"),
], ids=["weights-count", "weights-number", "c-range-form", "c-range-number", "sources-empty"])
def test_malformed_option_is_a_usage_error(argv, message, data, tmp_path, monkeypatch, capsys):
    inputs = {"CURVES": data["curves"], "GOODS": data["goods"], "TRAJ": synth_trajectories(tmp_path)}
    monkeypatch.chdir(tmp_path)
    before = sorted(p.name for p in tmp_path.iterdir())
    with pytest.raises(SystemExit) as info:
        main([inputs.get(a, a) for a in argv] + ["--out", "result"])
    assert info.value.code == 2
    assert message in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == before


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
    ("langdei.cli", {"logging", "dataclasses", "inspect", "argparse", "gettext", "locale"}),
    ("langdei.allocator", {"logging", "dataclasses", "inspect", "numpy"}),
    ("langdei.metrics", {"logging", "dataclasses", "inspect", "numpy"}),
], ids=["langdei.cli", "langdei.allocator", "langdei.metrics"])
def test_import_loads_no_logging(module, unwanted, tmp_path):
    # Data events are warnings, which main prints, and records are
    # records.Record, not dataclasses: logging, and dataclasses with the
    # inspect it loads, would only add start-up time. numpy loads inspect
    # itself; none of these modules needs numpy. argparse, with the gettext
    # and locale its messages load, is imported only to print help or a
    # usage error.
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
    assert loaded & {"numpy", "argparse", "gettext", "locale"} == set()
    if "greedy" in argv:
        assert load_plan(tmp_path / "plan.txt").strategy == "greedy"
    if "--trace-out" in argv:
        assert len(io.load_trace(tmp_path / "trace.csv")) == 1000


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
               {"commands.allocate", "allocator", "scalar"}),
    "report": (["report", "--plan", "plan.txt", "--trace", "trace.csv", "--curves", MURIL, "--out", "report.md"],
               {"commands.report"}),
    "report --amrs": (["report", "--amrs", str(bundled_path("amrs_printed.csv")), "--out", "report.md"],
                      {"commands.report", "efficiency"}),
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
        assert loaded & {"langdei.allocator", "langdei.scalar", "langdei.metrics", "langdei.efficiency"} == set()


def test_readme_states_the_lines_each_run_compiles():
    # README's "Start-up" figures: a run compiles its modules, which the test
    # above pins, and cli.py, which runs as __main__ under its own name. README
    # names a run by its subcommand, or by its key here if that starts with it.
    text = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8").split())
    stated = text.split("compiles these many lines of `langdei` source: ", 1)[1].split(". ", 1)[0]
    figures = {name: int(n.replace(",", "")) for name, n in re.findall(r"`(\w+(?: --\w+)?)`\D*?(\d+(?:,\d{3})*)",
                                                                       stated)}
    names = {run: run if run.split()[0] == argv[0] else argv[0] for run, (argv, _) in OWN_MODULES.items()}
    for run, (argv, own) in OWN_MODULES.items():
        files = [importlib.util.find_spec(name).origin for name in EVERY_RUN | {f"langdei.{name}" for name in own}]
        counted = sum(len(Path(path).read_text(encoding="utf-8").splitlines()) for path in [*files, cli.__file__])
        assert (run, counted) == (run, figures[names[run]])
    assert set(figures) == set(names.values())


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


def write_wide_curves(cwd):
    write(cwd / "wide_curves.txt", "".join(
        f"curve source={source} target=t{j:03d} a={0.5 + j % 7 / 10:g} b={-1 - j % 5:g} c={0.1 + j % 9 / 20:g} r2=0.9\n"
        for source, n in (("s0", 136), ("s1", 12), ("s2", 12)) for j in range(n)))


def outputs_under(python, cwd):
    """{file name: bytes} of the outputs of EVERY_SUBCOMMAND_BUT_FIT, run
    in one ``python`` process in ``cwd``."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    write_wide_curves(cwd)
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
# Only help and a usage error are parsed by argparse, which loads gettext
# and locale for its messages, with the parser of every subcommand, which
# imports each subcommand's module but no module that computes.
ENTRY_RUNS = {  # id: (argv, exit status)
    "ok": (["efficiency", "--goods", GOODS, "--amrs-out", "amrs.csv", "--out", "efficiency.csv"], 0),
    "no-inputs": (["report", "--out", "report.md"], 2),  # a handled error
    "missing-input": (["efficiency", "--goods", "ghost.csv", "--out", "efficiency.csv"], 2),
    "usage": (["allocate", "--curves", MURIL, "--bud", "10"], 2),  # a usage error
    "help": (["--help"], 0),
}
ARGPARSE_MODULES = {"argparse", "gettext", "locale"}


@pytest.mark.parametrize("run", list(ENTRY_RUNS))
def test_process_entry_freezes_and_changes_no_output(run, tmp_path):
    argv, status = ENTRY_RUNS[run]
    entry = run_with_exit_hook(argv, tmp_path)
    plain = run_with_exit_hook(f"import sys\nfrom langdei.cli import main\nsys.exit(main({argv!r}))", tmp_path)
    assert int(entry.stdout.splitlines()[-1]) > 0
    assert int(plain.stdout.splitlines()[-1]) == 0
    assert entry.returncode == plain.returncode == status
    assert entry.stdout.splitlines()[:-2] == plain.stdout.splitlines()[:-2]
    assert entry.stderr == plain.stderr
    loaded = set(entry.stdout.splitlines()[-2].split())
    assert loaded & ARGPARSE_MODULES == (ARGPARSE_MODULES if run in ("usage", "help") else set())
    if run in ("usage", "help"):
        commands = {f"langdei.commands.{name}" for name in SUBCOMMANDS}
        assert {name for name in loaded if name.split(".")[0] == "langdei"} == EVERY_RUN | commands
        assert "numpy" not in loaded


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
# error: the parser parses each, or exits 0 for help or 2 for a usage error.
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


@pytest.mark.parametrize("argv", PARSER_ARGVS, ids=lambda argv: " ".join(argv[:2]))
def test_one_subcommand_parser_parses_as_the_full_parser(argv):
    try:
        build_parser().parse_args(argv)
    except SystemExit as exc:
        assert exc.code in (0, 2)


# A plain argv is parsed by cli._fast_args, without argparse; anything else
# by argparse. Each OPTIONS spec may use only what _fast_args reads.
@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_options_use_only_what_the_fast_parser_reads(name):
    for flag, spec in cli._command(name).OPTIONS.items():
        assert re.fullmatch(r"--[a-z]+(-[a-z]+)*", flag), flag
        assert spec.keys() <= {"required", "type", "default", "choices", "action", "help", "role"}, flag
        assert spec.get("role", "input") in ("input", "output"), flag
        assert spec.get("action", "store_true") in ("store_true", "append"), flag
        # argparse would pass a string default through the type; _fast_args does not.
        assert not ("type" in spec and isinstance(spec.get("default"), str)), flag


def parsed(namespace):
    """The attributes of a namespace by name, as reprs, so that NaN equals NaN."""
    return {name: repr(value) for name, value in vars(namespace).items()}


def argparse_parsed(argv):
    """``parsed`` of argparse's namespace for ``argv``, or None if argparse exits."""
    with contextlib.redirect_stdout(StringIO()), contextlib.redirect_stderr(StringIO()):
        try:
            return parsed(build_parser().parse_args(argv))
        except SystemExit:
            return None


def assert_fast_args_agree(argv):
    """_fast_args declines ``argv`` or parses it as argparse does; True if it parsed it."""
    fast = cli._fast_args(argv)
    if fast is not None:
        assert parsed(fast) == argparse_parsed(argv), argv
    return fast is not None


@pytest.mark.parametrize("argv", [*PARSER_ARGVS, *(argv for argv, _ in ENTRY_RUNS.values())],
                         ids=lambda argv: " ".join(argv[:2]))
def test_fast_args_parse_as_argparse(argv):
    plain = [*EVERY_SUBCOMMAND_BUT_FIT, OWN_MODULES["fit"][0],
             *(ENTRY_RUNS[run][0] for run in ("ok", "no-inputs", "missing-input"))]
    assert assert_fast_args_agree(argv) == (argv in plain)


def main_outcomes(argvs, cwd, capsys, monkeypatch):
    """(exit status, stdout, stderr) of ``main`` on each of ``argvs``, run in
    order in ``cwd``, and {file name: bytes} of ``cwd`` after them."""
    write_wide_curves(cwd)
    synth_trajectories(cwd)
    monkeypatch.chdir(cwd)
    outcomes = []
    for argv in argvs:
        try:
            status = main(list(argv))
        except SystemExit as exc:
            status = exc.code
        outcomes.append((status, *capsys.readouterr()))
    return outcomes, {path.name: path.read_bytes() for path in cwd.iterdir()}


def test_main_prints_and_writes_what_argparse_alone_gave(tmp_path, monkeypatch, capsys):
    argvs = [*PARSER_ARGVS, *(argv for argv, _ in ENTRY_RUNS.values())]
    (tmp_path / "fast").mkdir()
    (tmp_path / "argparse").mkdir()
    fast = main_outcomes(argvs, tmp_path / "fast", capsys, monkeypatch)
    monkeypatch.setattr(cli, "_fast_args", lambda argv: None)
    assert main_outcomes(argvs, tmp_path / "argparse", capsys, monkeypatch) == fast


# Option values that each argument type accepts, and tokens no type accepts
# or that read as a flag.
VALID_VALUE = {None: "f.csv", int: "7", float: "0.5", parse_tau: "1", _comma_list: "bn,hi", _weights: "1,0,0",
               _c_range: "0:1"}
OTHER_VALUES = ["0", "1", "-1", "1.5", "nan", "inf", "", "x", ",", "a,b", "2:1", "1,1", "percent", "unit",
                "strict", "permissive", "mean", "-", "--", "-x"]


@st.composite
def subcommand_argvs(draw, name):
    """An argv of subcommand ``name``: its required flags (each dropped one
    time in twenty) and others, any of them repeated, each spelt in full,
    abbreviated or as ``--flag=value``, with a valid or another value."""
    options = cli._command(name).OPTIONS
    flags = [flag for flag, spec in options.items() if spec.get("required") and draw(st.integers(0, 19))]
    flags += draw(st.lists(st.sampled_from(list(options)), max_size=6))
    argv = [name]
    for flag in draw(st.permutations(flags)):
        spec = options[flag]
        valid = spec.get("choices", [VALID_VALUE[spec.get("type")]])
        value = draw(st.sampled_from(OTHER_VALUES if draw(st.integers(0, 5)) == 0 else valid))
        form = draw(st.sampled_from(["full"] * 18 + ["abbreviated", "equals"]))
        spelt = flag[:draw(st.integers(3, len(flag) - 1))] if form == "abbreviated" else flag
        if form == "equals":
            argv.append(f"{spelt}={value}")
        elif spec.get("action") == "store_true":
            argv.append(spelt)
        else:
            argv += [spelt, value]
    return argv


@pytest.mark.parametrize("name", SUBCOMMANDS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_fast_args_parse_generated_argvs_as_argparse(name, data):
    assert_fast_args_agree(data.draw(subcommand_argvs(name)))
