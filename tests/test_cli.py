"""Command-line pipeline: verbs, exit codes, artifacts on disk."""

from __future__ import annotations

import argparse
import csv
import errno
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cardioprompt
from cardioprompt import cli, experiment, manifest
from cardioprompt.cli import main
from cardioprompt.data import load_csv, write_atomic, write_imputed_csv
from cardioprompt.errors import StratificationError, ValidationError
from cardioprompt.experiment import (
    ExperimentConfig,
    ReportRow,
    dk_grid_from_models,
    emit_report,
    prepare_data,
    run_ml_baselines,
    run_prompt_grid,
    save_rows,
    write_report,
)
from cardioprompt.gateway import RuleMock
from cardioprompt.metrics import MetricsRow
from cardioprompt.models import FAMILIES, feature_importance, save_model, train
from cardioprompt.schema import FEATURE_NAMES, TARGET_NAME
from cardioprompt.synthetic import synthetic_raw
from conftest import ok_body, small_dataset


def write_raw_csv(path: Path, n: int = 70, seed: int = 3, missing: float = 0.05):
    raw = synthetic_raw(n_rows=n, missing_fraction=missing, seed=seed)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        for row, target in zip(raw.matrix, raw.targets):
            cells = ["?" if np.isnan(v) else repr(float(v)) for v in row]
            writer.writerow(cells + [int(target)])
    return raw


def make_workdir(tmp_path: Path) -> dict:
    data = tmp_path / "heart.csv"
    write_raw_csv(data)
    cfg = {
        "data_path": str(data),
        "seed": 3,
        "test_fraction": 0.25,
        "impute_k": 3,
        "search_iters": 1,
        "search_folds": 2,
        "n_ex_grid": [0, 2],
        "output_dir": str(tmp_path / "runs"),
        "cache_path": str(tmp_path / "runs" / "completions.jsonl"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    return {"tmp": tmp_path, "cfg": cfg_path, "data": data, "runs": tmp_path / "runs"}


@pytest.fixture
def workdir(tmp_path):
    return make_workdir(tmp_path)


class TestParsing:
    def test_missing_verb_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["--bogus", "prepare-data"])
        assert exc.value.code == 2


N_EX_OF_TRAIN = "config key n_ex_grid: {} examples from the train split:"


class TestPrepareData:
    def test_writes_imputed_csv(self, workdir, capsys):
        code = main(["--config", str(workdir["cfg"]), "prepare-data"])
        assert code == 0
        out = capsys.readouterr().out
        assert "rows: 70" in out
        assert "train/test:" in out
        imputed = load_csv(workdir["runs"] / "imputed.csv")
        assert imputed.n_rows == 70
        assert imputed.n_with_missing == 0

    def test_missing_data_file_exits_one(self, workdir, capsys):
        code = main(["--config", str(workdir["cfg"]), "--data-path", "nope.csv", "prepare-data"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_a_directory_as_data_path_exits_one(self, workdir, capsys):
        code = main(["--config", str(workdir["cfg"]), "--data-path", str(workdir["tmp"]), "prepare-data"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.endswith(f"Is a directory: '{workdir['tmp']}'\n")
        assert not workdir["runs"].exists()

    @pytest.mark.parametrize("text", ["", ",".join([*FEATURE_NAMES, TARGET_NAME]) + "\n"], ids=["empty", "header-only"])
    def test_a_csv_without_data_rows_exits_one(self, workdir, capsys, text):
        workdir["data"].write_text(text)
        assert main(["--config", str(workdir["cfg"]), "prepare-data"]) == 1
        assert capsys.readouterr().err == f"error: {workdir['data']}: no data rows\n"
        assert not workdir["runs"].exists()

    def test_a_config_with_dk_families_exits_one(self, workdir, capsys):
        # the DK source families are dk.SOURCE_TAGS, not a setting
        bad = workdir["tmp"] / "bad.json"
        bad.write_text(json.dumps({**json.loads(workdir["cfg"].read_text()), "dk_families": ["RF", "LR", "GBT"]}))
        assert main(["--config", str(bad), "prepare-data"]) == 1
        assert capsys.readouterr().err == "error: unknown config keys: ['dk_families']\n"
        assert not workdir["runs"].exists()

    @pytest.mark.parametrize("families", [["KNN"], ["RF", "XYZ"]])
    def test_a_dk_family_without_a_source_tag_exits_one(self, workdir, capsys, families):
        bad = workdir["tmp"] / "bad.json"
        bad.write_text(json.dumps({**json.loads(workdir["cfg"].read_text()), "dk_families": families}))
        assert main(["--config", str(bad), "prepare-data"]) == 1
        assert capsys.readouterr().err == "error: unknown config keys: ['dk_families']\n"
        assert not workdir["runs"].exists()

    def test_a_config_with_impute_k_zero_exits_one(self, workdir, capsys):
        bad = workdir["tmp"] / "bad.json"
        bad.write_text(json.dumps({**json.loads(workdir["cfg"].read_text()), "impute_k": 0}))
        assert main(["--config", str(bad), "prepare-data"]) == 1
        assert capsys.readouterr().err == "error: config key impute_k must be >= 1, not 0\n"
        assert not workdir["runs"].exists()

    @pytest.mark.parametrize(
        "field, literal", [("temperature", "NaN"), ("timeout", "0"), ("backoff_base", "-Infinity")]
    )
    def test_bad_llm_value_exits_one(self, workdir, capsys, field, literal):
        bad = workdir["tmp"] / "bad.json"
        bad.write_text(f'{{"llm": {{"{field}": {literal}}}}}')  # NaN and Infinity are literals json accepts
        assert main(["--config", str(bad), "--live", "run-grid"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err

    @pytest.mark.parametrize("verb", ["train-models", "run-grid"])
    @pytest.mark.parametrize("flag, value", [("--data-path", "nope.csv"), ("--impute-k", "3"), ("--impute-k", "0")])
    def test_data_flags_outside_prepare_data_exit_one(self, workdir, capsys, verb, flag, value):
        cfg = str(workdir["cfg"])
        assert main(["--config", cfg, "prepare-data"]) == 0
        capsys.readouterr()
        assert main(["--config", cfg, flag, value, verb]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and flag in err

    @pytest.mark.parametrize("verb", ["prepare-data", "train-models", "gen-dk", "report"])
    @pytest.mark.parametrize("flag", [["--live"], ["--paper-faithful"], ["--cache-path", "x.jsonl"]], ids=" ".join)
    def test_run_grid_flags_on_another_verb_exit_one(self, workdir, capsys, verb, flag):
        assert main(["--config", str(workdir["cfg"]), *flag, verb]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{flag[0]} is read only by run-grid, not by {verb}" in err
        assert not workdir["runs"].exists()  # refused before the verb ran

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_cost_weight_exits_one(self, workdir, capsys, literal):
        bad = workdir["tmp"] / "bad.json"
        bad.write_text(f'{{"weights": {{"w_fp": {literal}}}}}')
        assert main(["--config", str(bad), "train-models"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "weights" in err

    @pytest.mark.parametrize(
        "doc, verb, key",
        [({"weights": {"w_fp": "0.2"}}, "prepare-data", "weights.w_fp"), ({"search_iters": "3"}, "train-models", "search_iters")],
    )
    def test_wrong_json_type_exits_one(self, workdir, capsys, doc, verb, key):
        bad = workdir["tmp"] / "bad.json"
        bad.write_text(json.dumps({**json.loads(workdir["cfg"].read_text()), **doc}))
        assert main(["--config", str(bad), verb]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"config key {key} must be" in err

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"search_iters": 0}, "config key search_iters must be >= 1, not 0"),
            ({"search_folds": 1}, "config key search_folds must be >= 2, not 1"),
            ({"n_ex_grid": [0, -1]}, "config key n_ex_grid must hold counts >= 0, not [0, -1]"),
            ({"n_ex_grid": [0, 100]}, f"{N_EX_OF_TRAIN.format(100)} asked for 100 examples from 52 rows"),
            ({"n_ex_grid": [50]}, f"{N_EX_OF_TRAIN.format(50)} need 25 negative examples, have 24"),
            ({"search_folds": 40}, "config key search_folds: 40 folds of the train split: class 0 has fewer members than folds"),
            ({"test_fraction": 0.001}, "test_fraction 0.001 of 70 rows leaves the test split empty"),
            ({"test_fraction": 0.999}, "test_fraction 0.999 of 70 rows leaves the train split empty"),
        ],
        ids=[
            "iters",
            "folds",
            "negative-n_ex",
            "n_ex-over-rows",
            "n_ex-over-a-class",
            "folds-over-a-class",
            "empty-test-split",
            "empty-train-split",
        ],
    )
    def test_a_config_value_the_split_refutes_exits_one_at_prepare_data(self, workdir, capsys, doc, message):
        bad = workdir["tmp"] / "bad.json"
        bad.write_text(json.dumps({**json.loads(workdir["cfg"].read_text()), **doc}))
        assert main(["--config", str(bad), "prepare-data"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not workdir["runs"].exists()

    @pytest.mark.parametrize("data", [b'{"seed": 3,', b"\xff"], ids=["not-json", "not-utf-8"])
    def test_a_config_file_that_is_not_utf8_json_exits_one_naming_it(self, workdir, capsys, data):
        bad = workdir["tmp"] / "bad.json"
        bad.write_bytes(data)
        assert main(["--config", str(bad), "prepare-data"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config file {bad} is not UTF-8 JSON: ") and err.count("\n") == 1
        assert not workdir["runs"].exists()

    def test_unknown_nested_config_key_exits_one(self, workdir, capsys):
        bad = workdir["tmp"] / "bad.json"
        bad.write_text(json.dumps({"data_path": str(workdir["data"]), "llm": {"model": "gpt-3.5-turbo"}}))
        assert main(["--config", str(bad), "prepare-data"]) == 1
        assert "llm.model" in capsys.readouterr().err


class TestStageOrdering:
    def test_gen_dk_requires_artifacts(self, workdir, capsys):
        code = main(["--config", str(workdir["cfg"]), "gen-dk"])
        assert code == 1
        assert "train-models first" in capsys.readouterr().err

    def test_train_models_and_run_grid_require_imputed_data(self, workdir, capsys):
        runs = workdir["runs"]
        for verb, line in (
            ("train-models", f"missing {runs / 'imputed.csv'} and {runs / 'split.json'}; run prepare-data first"),
            (
                "run-grid",
                f"missing {runs / 'imputed.csv'} and {runs / 'split.json'} and {runs / 'dk.json'}; "
                "run prepare-data and gen-dk first",
            ),
        ):
            assert main(["--config", str(workdir["cfg"]), verb]) == 1
            assert capsys.readouterr().err == f"error: {line}\n"

    def test_run_grid_requires_dk(self, workdir, capsys):
        assert main(["--config", str(workdir["cfg"]), "prepare-data"]) == 0
        code = main(["--config", str(workdir["cfg"]), "run-grid"])
        assert code == 1
        assert "gen-dk first" in capsys.readouterr().err

    def test_gen_dk_rejects_a_ranking_outside_the_schema(self, workdir, capsys):
        # model artifacts are files; one naming a feature the schema lacks must not reach dk text
        cfg = ExperimentConfig.from_json(workdir["cfg"])
        std_train = prepare_data(cfg).std_train
        models_dir = workdir["runs"] / "models"
        models_dir.mkdir(parents=True)
        for family, hyper in (("RF", {"n_estimators": 2, "max_depth": 2}), ("LR", {}), ("GBT", {"n_estimators": 2})):
            save_model(feature_importance(train(family, std_train, hyper), std_train), models_dir / f"{family}.json")
        doc = json.loads((models_dir / "RF.json").read_text())
        doc["importance"]["entries"][0][0] = "shoe_size"
        (models_dir / "RF.json").write_text(json.dumps(doc))
        assert main(["--config", str(workdir["cfg"]), "gen-dk"]) == 1
        assert "shoe_size" in capsys.readouterr().err
        assert not (workdir["runs"] / "dk.json").exists()

    def test_report_requires_row_artifacts(self, workdir, capsys):
        cfg, runs = str(workdir["cfg"]), workdir["runs"]
        assert main(["--config", cfg, "report"]) == 1
        both = f"{runs / 'ml_rows.json'} and {runs / 'grid_rows.json'}"
        assert capsys.readouterr().err == f"error: missing {both}; run train-models and run-grid first\n"
        save_rows(runs / "ml_rows.json", [])
        assert main(["--config", cfg, "report"]) == 1
        assert capsys.readouterr().err == f"error: missing {runs / 'grid_rows.json'}; run run-grid first\n"


@pytest.fixture(scope="class")
def finished_run(tmp_path_factory):
    """A work directory after prepare-data, train-models, gen-dk and run-grid."""
    workdir = make_workdir(tmp_path_factory.mktemp("finished"))
    for argv in (["prepare-data"], ["train-models"], ["gen-dk"], ["run-grid", "--mock", "rule"]):
        assert main(["--config", str(workdir["cfg"]), *argv]) == 0
    return workdir


# the verb that writes each stage artifact
WRITERS = {
    "imputed.csv": "prepare-data",
    "split.json": "prepare-data",
    "models/RF.json": "train-models",
    "ml_rows.json": "train-models",
    "grid_rows.json": "run-grid",
    "dk.json": "gen-dk",
}


def with_and_without_manifest(cases: list[tuple]) -> list:
    """Each case as run with the manifest the verbs wrote, then without it,
    as artifacts written before the manifest existed are read."""
    return [
        pytest.param(*case, manifest, id="-".join(case) + ("" if manifest else "-no-manifest"))
        for manifest in (True, False)
        for case in cases
    ]


# each stage artifact, with a verb that reads it
READERS = [
    ("imputed.csv", "train-models"),
    ("split.json", "run-grid"),
    ("models/RF.json", "gen-dk"),
    ("ml_rows.json", "report"),
    ("grid_rows.json", "report"),
    ("dk.json", "run-grid"),
]


class TestMalformedArtifacts:
    """A malformed artifact exits 1 with an error line, never a traceback."""

    def _run(self, finished_run, tmp_path, name: str, verb: str, damage, manifest: bool = True):
        runs = tmp_path / "runs"
        shutil.copytree(finished_run["runs"], runs)
        if not manifest:  # as written before the manifest: the parse, not the writer's sha256, finds the damage
            (runs / "manifest.json").unlink()
        damage(runs / name)
        assert main(["--config", str(finished_run["cfg"]), "--output-dir", str(runs), verb]) == 1

    @pytest.mark.parametrize("name, verb, manifest", with_and_without_manifest(READERS))
    def test_torn_in_half_exits_one(self, finished_run, tmp_path, capsys, name, verb, manifest):
        def tear(path: Path):
            data = path.read_bytes()
            path.write_bytes(data[: len(data) // 2])

        self._run(finished_run, tmp_path, name, verb, tear, manifest)
        err = capsys.readouterr().err
        assert err.startswith("error:") and name in err and f"rerun {WRITERS[name]}" in err
        assert ("changed since" in err) == manifest

    @pytest.mark.parametrize(
        "name, verb, key, writer, manifest",
        with_and_without_manifest(
            [
                ("models/RF.json", "gen-dk", "params", "train-models"),
                ("dk.json", "run-grid", "source", "gen-dk"),
                ("ml_rows.json", "report", "unparseable", "train-models"),
                ("grid_rows.json", "report", "metrics", "run-grid"),
            ]
        ),
    )
    def test_missing_key_names_the_file_and_its_writer(
        self, finished_run, tmp_path, capsys, name, verb, key, writer, manifest
    ):
        def drop_key(path: Path):
            doc = json.loads(path.read_text())
            del (doc[-1] if isinstance(doc, list) else doc)[key]
            path.write_text(json.dumps(doc))

        self._run(finished_run, tmp_path, name, verb, drop_key, manifest)
        err = capsys.readouterr().err
        assert err.startswith("error:") and name in err and f"rerun {writer}" in err
        assert ("changed since" in err) == manifest

    @pytest.mark.parametrize("name, verb", READERS)
    def test_bytes_that_are_not_utf8_name_the_file_and_its_writer(self, finished_run, tmp_path, capsys, name, verb):
        def garble(path: Path):
            path.write_bytes(b"\xff" + path.read_bytes())

        self._run(finished_run, tmp_path, name, verb, garble, manifest=False)
        err, writer = capsys.readouterr().err, WRITERS[name]
        assert err.startswith(f"error: {tmp_path / 'runs' / name} is not as {writer} writes it (")
        assert err.endswith(f"); rerun {writer}\n") and err.count("\n") == 1

    @pytest.mark.parametrize("doc", [[], [{"variant": "NO", "source": "", "text": ""}] * 7], ids=["empty", "seven-dk0"])
    def test_a_dk_json_that_is_not_the_grid_of_gen_dk_exits_one(self, finished_run, tmp_path, capsys, doc):
        self._run(finished_run, tmp_path, "dk.json", "run-grid", lambda path: path.write_text(json.dumps(doc)), False)
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'runs' / 'dk.json'} is not as gen-dk writes it (ValidationError: "
            "not dk0 then MLFI and MLFI-ord of each of RF, LR, GBT); rerun gen-dk\n"
        )

    @pytest.mark.parametrize("line, why", [("?", "missing cells"), ("2", "targets must be binary, found [2]")])
    def test_an_imputed_csv_prepare_data_could_not_have_written_exits_one(
        self, finished_run, tmp_path, capsys, line, why
    ):
        def edit_first_row(path: Path):
            lines = path.read_text().splitlines()
            cells = lines[1].split(",")
            cells[0 if line == "?" else -1] = line
            path.write_text("\n".join([lines[0], ",".join(cells), *lines[2:]]) + "\n")

        self._run(finished_run, tmp_path, "imputed.csv", "train-models", edit_first_row, False)
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path / 'runs' / 'imputed.csv'} is not as prepare-data writes it (")
        assert why in err and err.endswith("; rerun prepare-data\n")

    @pytest.mark.parametrize(
        "rows",
        [[], [3, 70], list(range(70)), [3, 3, 9], [9, 3], [3, 9.0], {"3": 9}],
        ids=["empty", "past-the-end", "every-row", "repeated", "unsorted", "float", "object"],
    )
    @pytest.mark.parametrize("verb", ["train-models", "run-grid"])
    def test_a_split_json_prepare_data_could_not_have_written_exits_one(
        self, finished_run, tmp_path, capsys, verb, rows
    ):
        self._run(finished_run, tmp_path, "split.json", verb, lambda path: path.write_text(json.dumps(rows)), False)
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'runs' / 'split.json'} is not as prepare-data writes it (ValidationError: "
            "not row numbers below 70 in order, each once, with a row left on each side); rerun prepare-data\n"
        )


def artifact_writers() -> list[tuple[str, object]]:
    """(file name, write(path)) for each stage artifact writer, with fixed content."""
    ds = small_dataset(40, seed=2)
    model = train("LR", ds)
    rows = [ReportRow(label="RF", dk_type="-", dk_source="-", n_ex=None, metrics=MetricsRow(*[0.5] * 7))]
    return [
        ("imputed.csv", lambda path: write_imputed_csv(ds, path)),
        ("LR.json", lambda path: save_model(model, path)),
        ("ml_rows.json", lambda path: save_rows(path, rows)),
        ("dk.json", lambda path: write_atomic(path, json.dumps([{"variant": "NO", "source": "", "text": ""}] * 40))),
        ("report.csv", lambda path: write_report(rows, path.parent)),
    ]


def fail_each_write_half_way(out: str):
    """Rewrite each artifact in `out` with the file size limit at half its
    size; print which writes raised. Run in a child: the limit is per process."""
    import resource
    import signal

    signal.signal(signal.SIGXFSZ, signal.SIG_IGN)  # the write then fails with EFBIG
    soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
    raised = {}
    for name, write in artifact_writers():
        path = Path(out) / name
        resource.setrlimit(resource.RLIMIT_FSIZE, (path.stat().st_size // 2, hard))
        try:
            write(path)
        except OSError as exc:
            raised[name] = exc.errno
        finally:
            resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
    print(json.dumps(raised))


class TestAtomicWrites:
    @pytest.mark.skipif(sys.platform == "win32", reason="RLIMIT_FSIZE is POSIX")
    def test_a_write_failing_half_way_keeps_the_previous_artifact(self, tmp_path):
        before = {}
        for name, write in artifact_writers():
            write(tmp_path / name)
            before[name] = (tmp_path / name).read_bytes()
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        code = f"import test_cli; test_cli.fail_each_write_half_way({str(tmp_path)!r})"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == {name: errno.EFBIG for name in before}
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before  # and no temp file left

    def test_a_rerun_removes_what_a_killed_write_left(self, workdir):
        cfg = str(workdir["cfg"])
        assert main(["--config", cfg, "prepare-data"]) == 0
        runs = workdir["runs"]
        leftover, not_ours = runs / ".imputed.csv.0123456789abcdef.tmp", runs / ".imputed.csv.tmp"
        for planted in (leftover, not_ours):
            planted.write_text("half an artifact")
        assert main(["--config", cfg, "prepare-data"]) == 0
        assert not leftover.exists() and not_ours.exists()

    def test_leftovers_matched_by_the_artifact_name_as_written(self, tmp_path):
        ours, other = tmp_path / ".a[1].json.0123456789abcdef.tmp", tmp_path / ".a1.json.0123456789abcdef.tmp"
        for planted in (ours, other):
            planted.write_text("half an artifact")
        write_atomic(tmp_path / "a[1].json", "[]")
        assert sorted(p.name for p in tmp_path.iterdir()) == [other.name, "a[1].json"]

    def test_an_artifact_gets_the_permissions_of_a_plain_write(self, tmp_path):
        write_atomic(tmp_path / "atomic.json", "[]")
        (tmp_path / "plain.json").write_text("[]")
        assert (tmp_path / "atomic.json").stat().st_mode == (tmp_path / "plain.json").stat().st_mode


class TestPipeline:
    def test_end_to_end_offline(self, workdir, capsys):
        cfg = str(workdir["cfg"])
        runs = workdir["runs"]

        assert main(["--config", cfg, "prepare-data"]) == 0
        assert main(["--config", cfg, "train-models"]) == 0
        models_dir = runs / "models"
        assert sorted(p.name for p in models_dir.glob("*.json")) == [
            "ADA.json",
            "GBT.json",
            "KNN.json",
            "LR.json",
            "MLP.json",
            "RF.json",
        ]
        table = (runs / "report.csv").read_text().splitlines()
        assert len(table) == 1 + 10  # header + 6 models + average + 3 baselines

        assert main(["--config", cfg, "gen-dk"]) == 0
        dk_docs = json.loads((runs / "dk.json").read_text())
        assert len(dk_docs) == 7
        assert dk_docs[0] == {"variant": "NO", "source": "", "text": ""}
        assert dk_docs[1]["source"] == "randomforestclassifier"
        assert dk_docs[2]["variant"] == "MLFI-ord"
        out = capsys.readouterr().out
        assert "dk0: None" in out

        assert main(["--config", cfg, "run-grid", "--mock", "oracle"]) == 0
        grid = json.loads((runs / "grid_rows.json").read_text())
        assert len(grid) == 2 * 8  # (7 prompts + average) x two example counts
        for row in grid:
            assert row["metrics"][3] == 1.0  # oracle accuracy

        assert main(["--config", cfg, "report", "--format", "markdown"]) == 0
        md = (runs / "report.md").read_text().splitlines()
        assert md[0].startswith("| Model |")
        assert len(md) == 2 + 10 + 16

    def test_rule_mock_grid(self, workdir):
        cfg = str(workdir["cfg"])
        assert main(["--config", cfg, "prepare-data"]) == 0
        assert main(["--config", cfg, "train-models"]) == 0
        assert main(["--config", cfg, "gen-dk"]) == 0
        assert main(["--config", cfg, "run-grid", "--mock", "rule"]) == 0
        grid = json.loads((workdir["runs"] / "grid_rows.json").read_text())
        accs = {row["metrics"][3] for row in grid}
        assert len(accs) == 1  # rule ignores dk and examples: same verdicts per cell

    def test_report_assembles_the_rows_earlier_stages_wrote(self, workdir):
        cfg_path = str(workdir["cfg"])
        for argv in (
            ["prepare-data"],
            ["train-models"],
            ["gen-dk"],
            ["run-grid", "--mock", "rule"],
            ["report", "--format", "markdown"],
        ):
            assert main(["--config", cfg_path, *argv]) == 0
        cfg = ExperimentConfig.from_json(cfg_path)
        prepared = prepare_data(cfg)
        ml_rows, models = run_ml_baselines(cfg, prepared)
        dks = dk_grid_from_models(models)
        grid_rows = run_prompt_grid(cfg, prepared, dks, backend=RuleMock("oldpeak", 1.0))
        assert (workdir["runs"] / "report.md").read_text() == emit_report(ml_rows + grid_rows, "markdown")

    def test_flag_overrides_config(self, workdir):
        other = workdir["tmp"] / "elsewhere"
        code = main(["--config", str(workdir["cfg"]), "--output-dir", str(other), "prepare-data"])
        assert code == 0
        assert (other / "imputed.csv").exists()


class TestLiveFailures:
    def _live_cfg(self, workdir, cache_name: str, base_url: str = "http://127.0.0.1:9") -> Path:
        doc = json.loads(workdir["cfg"].read_text())
        doc["cache_path"] = str(workdir["tmp"] / cache_name)
        doc["llm"] = {"base_url": base_url, "max_retries": 0, "timeout": 2.0, "max_in_flight": 1}
        path = workdir["tmp"] / "live.json"
        path.write_text(json.dumps(doc))
        return path

    def _prime(self, workdir):
        cfg = str(workdir["cfg"])
        assert main(["--config", cfg, "prepare-data"]) == 0
        assert main(["--config", cfg, "train-models"]) == 0
        assert main(["--config", cfg, "gen-dk"]) == 0

    def test_unreachable_endpoint_exits_two(self, workdir, monkeypatch, capsys):
        monkeypatch.setenv("OPENAI_API_KEY", "k")
        self._prime(workdir)
        live = self._live_cfg(workdir, "empty-cache.jsonl")
        code = main(["--config", str(live), "--live", "run-grid"])
        assert code == 2
        assert "transport failure" in capsys.readouterr().err

    def test_partial_cache_exits_three(self, workdir, monkeypatch, capsys, stub):
        # two answers reach the cache, then the server fails
        monkeypatch.setenv("OPENAI_API_KEY", "k")
        self._prime(workdir)
        stub.script = [(200, ok_body("1")), (200, ok_body("0")), (503, {})]
        live = self._live_cfg(workdir, "cache.jsonl", base_url=stub.url)
        code = main(["--config", str(live), "--live", "run-grid"])
        assert code == 3
        assert "rerun to resume" in capsys.readouterr().err
        assert len((workdir["tmp"] / "cache.jsonl").read_text().splitlines()) == 2

    def test_prefilled_cache_without_progress_exits_two(self, workdir, monkeypatch, capsys, stub):
        monkeypatch.setenv("OPENAI_API_KEY", "k")
        self._prime(workdir)
        stub.script = [(503, {})]
        live = self._live_cfg(workdir, "warm-cache.jsonl", base_url=stub.url)
        (workdir["tmp"] / "warm-cache.jsonl").write_text(
            json.dumps(
                {"prompt_hash": "h", "model_name": "m", "raw_response": "1", "timestamp": 1.0, "attempt_count": 1}
            )
            + "\n"
        )
        code = main(["--config", str(live), "--live", "run-grid"])
        assert code == 2
        err = capsys.readouterr().err
        assert "transport failure" in err and "rerun to resume" not in err

    def test_body_cut_short_exits_two(self, workdir, monkeypatch, capsys, short_body_server):
        monkeypatch.setenv("OPENAI_API_KEY", "k")
        self._prime(workdir)
        live = self._live_cfg(workdir, "cache.jsonl", base_url=short_body_server.url)
        assert main(["--config", str(live), "--live", "run-grid"]) == 2
        assert "IncompleteRead" in capsys.readouterr().err
        assert short_body_server.requests == 1

    def test_an_unparseable_answer_is_warned_and_counted_on_its_row(self, workdir, monkeypatch, capsys, stub):
        monkeypatch.setenv("OPENAI_API_KEY", "k")
        self._prime(workdir)
        answers = iter(["no idea"])  # the first prompt sent (one in flight: prompt-0 at N_ex=0), then "1"
        stub.script = [lambda doc: (200, ok_body(next(answers, "1")))]
        live = self._live_cfg(workdir, "cache.jsonl", base_url=stub.url)
        capsys.readouterr()
        assert main(["--config", str(live), "--live", "run-grid"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "warning: 1 unparseable responses counted as positive ({'prompt-0/N_ex=0': 1})"
        grid = json.loads((workdir["runs"] / "grid_rows.json").read_text())
        assert [row["unparseable"] for row in grid] == [1] + [0] * 15
        assert main(["--config", str(live), "report"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "warning: unparseable responses counted as positive: {'prompt-0/N_ex=0': 1}"

    def test_a_line_break_in_the_api_key_exits_one_before_any_request(self, workdir, monkeypatch, capsys, stub):
        monkeypatch.setenv("OPENAI_API_KEY", "k\r\nX-Injected: 1")
        self._prime(workdir)
        stub.script = [(200, ok_body("1"))]
        live = self._live_cfg(workdir, "cache.jsonl", base_url=stub.url)
        capsys.readouterr()
        assert main(["--config", str(live), "--live", "run-grid"]) == 1
        assert capsys.readouterr().err == "error: the endpoint URL or a request header holds a control character\n"
        assert (stub.requests, stub.dropped) == ([], 0)

    def test_an_api_key_outside_latin_1_exits_one_before_any_request(self, workdir, monkeypatch, capsys, stub):
        monkeypatch.setenv("OPENAI_API_KEY", "sk-\u2713")
        self._prime(workdir)
        stub.script = [(200, ok_body("1"))]
        live = self._live_cfg(workdir, "cache.jsonl", base_url=stub.url)
        capsys.readouterr()
        assert main(["--config", str(live), "--live", "run-grid"]) == 1
        assert capsys.readouterr().err == "error: a request header holds a character outside latin-1\n"
        assert (stub.requests, stub.dropped) == ([], 0)

    @pytest.mark.parametrize(
        "base_url",
        [
            "http://",
            "http://h:99999",
            "http://h:abc",
            "http://127.0.0.1:9/\u2713",  # the request line goes out in ASCII
            "http://ex..ample/",  # the Host header in IDNA, which has no empty label
            f"http://{'a' * 64}.example/",  # nor one of 64 characters or more
        ],
    )
    def test_a_base_url_without_a_host_or_port_exits_one_as_the_config_loads(self, workdir, capsys, base_url):
        live = self._live_cfg(workdir, "cache.jsonl", base_url=base_url)
        assert main(["--config", str(live), "--live", "run-grid"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: base_url {base_url!r} ") and err.count("\n") == 1

    def test_mock_run_never_opens_the_cache(self, workdir):
        self._prime(workdir)
        cache = workdir["runs"] / "completions.jsonl"
        cache.write_bytes(b"not a cache record\n")
        assert main(["--config", str(workdir["cfg"]), "run-grid", "--mock", "rule"]) == 0
        assert cache.read_bytes() == b"not a cache record\n"

    def test_only_the_live_flag_builds_the_http_backend(self, workdir, monkeypatch, capsys):
        self._prime(workdir)
        built = []

        def http_backend(*args, **kwargs):
            built.append(args)
            raise ValidationError("HttpBackend built")

        monkeypatch.setattr(cli, "HttpBackend", http_backend)
        keyed = workdir["tmp"] / "live-key.json"
        keyed.write_text(json.dumps({**json.loads(workdir["cfg"].read_text()), "live": True}))
        capsys.readouterr()
        assert main(["--config", str(keyed), "run-grid"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'live'" in err
        assert main(["--config", str(workdir["cfg"]), "run-grid", "--mock", "rule"]) == 0
        assert built == []
        assert main(["--config", str(workdir["cfg"]), "--live", "run-grid"]) == 1
        assert len(built) == 1

    def test_offline_never_touches_network(self, workdir, monkeypatch):
        # without --live the dead endpoint must not matter
        monkeypatch.delenv("OPENAI_API_KEY", raising=False)
        self._prime(workdir)
        live = self._live_cfg(workdir, "unused-cache.jsonl")
        assert main(["--config", str(live), "run-grid", "--mock", "oracle"]) == 0


# runs each argv through main in one process; prints [exit code, http.client loaded, selectors loaded] after each
_VERBS_IN_ONE_PROCESS = """
import json, sys
from cardioprompt.cli import main
print(json.dumps([[main(argv), "http.client" in sys.modules, "selectors" in sys.modules] for argv in json.loads(sys.argv[1])]))
"""


class TestHttpStackLoading:
    """`http.client` and `selectors` are imported only when a live prompt misses the cache."""

    def _run(self, argvs: list[list[str]]) -> list[list]:
        env = {**os.environ, "OPENAI_API_KEY": "k", "PYTHONPATH": str(Path(cardioprompt.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-c", _VERBS_IN_ONE_PROCESS, json.dumps(argvs)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[-1])

    def test_loaded_only_on_a_cache_miss(self, workdir, stub):
        stub.script = [(200, ok_body("1"))]
        doc = json.loads(workdir["cfg"].read_text())
        doc["llm"] = {"base_url": stub.url, "max_retries": 0, "timeout": 5.0}
        live = workdir["tmp"] / "live.json"
        live.write_text(json.dumps(doc))
        fresh = workdir["tmp"] / "fresh.json"
        fresh.write_text(json.dumps({**doc, "cache_path": str(workdir["tmp"] / "fresh.jsonl")}))
        doc["llm"]["base_url"] = "http://127.0.0.1:9"  # nothing listens there
        dead = workdir["tmp"] / "dead.json"
        dead.write_text(json.dumps(doc))
        cfg = str(workdir["cfg"])
        offline = [
            ["--config", cfg, "prepare-data"],
            ["--config", cfg, "train-models"],
            ["--config", cfg, "gen-dk"],
            ["--config", cfg, "run-grid", "--mock", "rule"],
            ["--config", cfg, "run-grid", "--mock", "oracle"],
            ["--config", cfg, "report"],
        ]
        # the offline verbs, then a live grid from an empty cache (train-models' worker pool loads selectors)
        runs = self._run([*offline, ["--config", str(live), "--live", "run-grid"]])
        assert [run[:2] for run in runs] == [[0, False]] * 6 + [[0, True]]
        assert len(stub.requests) > 0
        # the same grid again, answered in full by the cache it filled
        assert self._run([["--config", str(dead), "--live", "run-grid"]]) == [[0, False, False]]
        # a live grid from an empty cache, alone in its interpreter
        assert self._run([["--config", str(fresh), "--live", "run-grid"]]) == [[0, True, True]]


def use_cpus(monkeypatch, n: int):
    """Make the family pool see `n` usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


# in a fresh interpreter: which pool modules `import cardioprompt.cli` loads, then
# the exit code of the verb in argv at one usable CPU and which it has loaded after
_POOL_MODULES_AT_ONE_CPU = """
import json, os, sys
os.sched_getaffinity = lambda pid: {0}
import cardioprompt.cli
def loaded():
    return [name in sys.modules for name in ("multiprocessing", "concurrent.futures", "numpy.ma")]
before = loaded()
print(json.dumps([before, cardioprompt.cli.main(sys.argv[1:]), loaded()]))
"""

# in a fresh interpreter: train-models at two usable CPUs, where the worker tuning KNN kills itself
_KNN_WORKER_KILLED = """
import os, signal, sys
from cardioprompt import cli, experiment
from cardioprompt.cli import main
os.sched_getaffinity = lambda pid: {0, 1}
search = experiment.randomized_search
def killed_on_knn(family, *args, **kwargs):
    if family == "KNN":
        os.kill(os.getpid(), signal.SIGKILL)
    return search(family, *args, **kwargs)
experiment.randomized_search = killed_on_knn
sys.exit(main(sys.argv[1:]))
"""


class TestFamilyPool:
    """train-models tunes the families in worker processes, one per usable CPU."""

    def _child(self, code: str, argv: list[str]) -> subprocess.CompletedProcess:
        env = {**os.environ, "PYTHONPATH": str(Path(cardioprompt.__file__).parents[1])}
        return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env, timeout=120)

    def test_same_bytes_at_one_and_two_workers(self, workdir, monkeypatch):
        doc = {**json.loads(workdir["cfg"].read_text()), "search_iters": 2, "search_folds": 2}
        workdir["cfg"].write_text(json.dumps(doc))
        assert main(["--config", str(workdir["cfg"]), "prepare-data"]) == 0
        pids = workdir["tmp"] / "pids"
        search = experiment.randomized_search

        def recording_pid(family, *args, **kwargs):
            with pids.open("a") as fh:
                fh.write(f"{os.getpid()}\n")
            return search(family, *args, **kwargs)

        monkeypatch.setattr(experiment, "randomized_search", recording_pid)
        out, searched_in = {}, {}
        for n in (1, 2):
            runs = workdir["tmp"] / f"runs{n}"
            shutil.copytree(workdir["runs"], runs)
            use_cpus(monkeypatch, n)
            pids.write_text("")
            assert main(["--config", str(workdir["cfg"]), "--output-dir", str(runs), "train-models"]) == 0
            names = [f"models/{family}.json" for family in FAMILIES] + ["ml_rows.json", "report.csv"]
            out[n] = {name: (runs / name).read_bytes() for name in names}
            searched_in[n] = set(pids.read_text().split())
        assert out[1] == out[2]
        assert searched_in[1] == {str(os.getpid())}
        assert searched_in[2] and str(os.getpid()) not in searched_in[2]

    def test_workers_run_one_blas_thread(self, workdir, monkeypatch):
        # a forked worker would keep this process's OpenBLAS thread count, one per CPU
        lib = experiment._openblas()
        getter = getattr(lib, "scipy_openblas_get_num_threads64_", None) or getattr(lib, "openblas_get_num_threads", None)
        assert main(["--config", str(workdir["cfg"]), "prepare-data"]) == 0
        threads = workdir["tmp"] / "threads"
        search = experiment.randomized_search

        def recording_threads(family, *args, **kwargs):
            with threads.open("a") as fh:
                fh.write(f"{getter() if getter else None}\n")
            return search(family, *args, **kwargs)

        monkeypatch.setattr(experiment, "randomized_search", recording_threads)
        use_cpus(monkeypatch, 2)
        assert main(["--config", str(workdir["cfg"]), "train-models"]) == 0
        assert set(threads.read_text().split()) == {"1" if getter else "None"}

    def test_worker_error_is_the_same_at_one_and_two_workers(self, workdir, monkeypatch, capsys):
        cfg = str(workdir["cfg"])
        assert main(["--config", cfg, "prepare-data"]) == 0
        capsys.readouterr()
        search = experiment.randomized_search

        def failing_knn(family, *args, **kwargs):  # a forked worker inherits it
            if family == "KNN":
                raise StratificationError("class 0 has fewer members than folds")
            return search(family, *args, **kwargs)

        monkeypatch.setattr(experiment, "randomized_search", failing_knn)
        errs = []
        for n in (1, 2):
            use_cpus(monkeypatch, n)
            assert main(["--config", cfg, "train-models"]) == 1
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1] == "error: class 0 has fewer members than folds\n"

    def test_killed_worker_exits_one_naming_it(self, workdir):
        cfg = str(workdir["cfg"])
        assert main(["--config", cfg, "prepare-data"]) == 0
        proc = self._child(_KNN_WORKER_KILLED, ["--config", cfg, "train-models"])
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("error: a worker process died; not tuned: ")
        assert "KNN" in proc.stderr and "rerun train-models" in proc.stderr and "Traceback" not in proc.stderr
        assert not (workdir["runs"] / "ml_rows.json").exists()

    def test_pool_modules_load_only_for_a_pool(self, workdir):
        cfg = str(workdir["cfg"])
        assert main(["--config", cfg, "prepare-data"]) == 0
        proc = self._child(_POOL_MODULES_AT_ONE_CPU, ["--config", cfg, "train-models"])
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == [[False, False, False], 0, [False, False, False]]


class TestConsoleScript:
    def test_help_runs(self):
        env = {**os.environ, "PYTHONPATH": str(Path(cardioprompt.__file__).parents[1])}  # the package under test
        proc = subprocess.run(
            [sys.executable, "-m", "cardioprompt.cli", "--help"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert "prepare-data" in proc.stdout



class TestReadme:
    def test_every_script_it_names_exists(self):
        root = Path(__file__).parents[1]
        named = set(re.findall(r"\b(?:scripts|bench)/[\w/]+\.py\b", (root / "README.md").read_text()))
        assert named and [name for name in sorted(named) if not (root / name).is_file()] == []

    def test_it_names_every_flag(self):
        text = (Path(__file__).parents[1] / "README.md").read_text()
        parser = cli.build_parser()
        verbs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
        flags = {f for p in (parser, *verbs.values()) for a in p._actions for f in a.option_strings} - {"-h", "--help"}
        assert {"--config", "--cache-path", "--mock", "--format"} <= flags
        names = flags | verbs.keys() | manifest.writers(cli.VERBS).keys()  # and every verb and stage artifact
        assert sorted(f for f in names if not re.search(re.escape(f) + r"(?![\w-])", text)) == []
