"""The run manifest: a verb whose config, arguments, program, inputs and
outputs still match its last entry is up to date and does not run; any
change among them runs it again; a read artifact must be the one its writer
recorded."""

from __future__ import annotations

import csv
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import cardioprompt
from cardioprompt import cli, experiment, gateway, manifest
from cardioprompt.cli import main
from cardioprompt.config import ExperimentConfig
from cardioprompt.data import load_csv
from cardioprompt.models import FAMILIES
from conftest import ok_body
from test_cli import make_workdir, use_cpus, write_raw_csv

README = (["prepare-data"], ["train-models"], ["gen-dk"], ["run-grid", "--mock", "rule"], ["report"])
ARGV = {argv[0]: argv for argv in README}
# the artifacts each verb's entry records as written (train-models' report.csv is not among them)
OUTPUTS = {
    "prepare-data": ["imputed.csv", "split.json"],
    "train-models": ["models/RF.json", "models/KNN.json", "ml_rows.json"],
    "gen-dk": ["dk.json"],
    "run-grid": ["grid_rows.json"],
    "report": ["report.csv"],
}


@pytest.fixture(scope="module")
def finished(tmp_path_factory):
    """A work directory after the README sequence, with the rule mock."""
    workdir = make_workdir(tmp_path_factory.mktemp("readme"))
    for argv in README:
        assert main(["--config", str(workdir["cfg"]), *argv]) == 0
    return workdir


@pytest.fixture
def runs(finished, tmp_path) -> Path:
    """A copy of the finished run directory, run with --output-dir."""
    return shutil.copytree(finished["runs"], tmp_path / "runs")


def run(config: Path, runs: Path, capsys, *argv: str) -> tuple[int, list[str], str]:
    """(exit code, standard output lines, standard error) of one verb."""
    capsys.readouterr()
    code = main(["--config", str(config), "--output-dir", str(runs), *argv])
    captured = capsys.readouterr()
    return code, captured.out.splitlines(), captured.err


def up_to_date(runs: Path, verb: str) -> list[str]:
    return [f"{verb} is up to date: config, arguments, inputs and outputs match {runs / 'manifest.json'}"]


def ran(code: int, out: list[str]) -> bool:
    return code == 0 and not any("up to date" in line for line in out)


def files(runs: Path) -> dict:
    """Every file's bytes and modification time."""
    return {p.relative_to(runs): (p.read_bytes(), p.stat().st_mtime_ns) for p in runs.rglob("*") if p.is_file()}


def entries(runs: Path) -> dict:
    return json.loads((runs / "manifest.json").read_text())


def test_the_report_lists_every_row_in_order(finished):
    ml = ["RF", "LR", "MLP", "KNN", "XGB", "AdaBoost", "Average ML", "Random", "Maj0", "Maj1"]
    grid = [f"prompt-{k}" for k in range(7)]
    labels = [*ml, *grid, "Average (N_ex=0)", *grid, "Average (N_ex=2)"]
    report = (finished["runs"] / "report.csv").read_text().splitlines()
    assert [row[0] for row in csv.reader(report)] == ["Model", *labels]


def test_each_verb_records_the_stage_artifacts_its_row_writes(finished, runs, capsys, stub, tmp_path, monkeypatch):
    doc = entries(finished["runs"])
    # the stage artifacts, by their top-level name: what the verbs read from the output directory
    read = {name.split("/")[0] for entry in doc.values() for name in entry["inputs"]} - set(cli.EXTERNAL_INPUTS)
    assert read == manifest.writers(cli.VERBS).keys()
    for verb, entry in doc.items():
        assert {name.split("/")[0] for name in entry["outputs"]} & read == set(cli.VERBS[verb].writes), verb
        assert all(manifest.writers(cli.VERBS).get(name.split("/")[0], verb) == verb for name in entry["outputs"]), verb
        assert entry["inputs"].keys() == set(cli.VERBS[verb].reads), verb
    assert {f"models/{family}.json" for family in FAMILIES} <= doc["train-models"]["outputs"].keys()
    # every stage artifact a row reads is written by an earlier verb, so a walk up the writers ends
    order = list(cli.VERBS)
    for verb, row in cli.VERBS.items():
        stage = [name for name in row.reads if name not in cli.EXTERNAL_INPUTS]
        assert all(order.index(manifest.writers(cli.VERBS)[name.split("/")[0]]) < order.index(verb) for name in stage), verb
    monkeypatch.setenv("OPENAI_API_KEY", "k")
    stub.script = [(200, ok_body("1"))]
    assert ran(*run(live_config(finished, tmp_path, stub.url), runs, capsys, "--live", "run-grid")[:2])
    assert entries(runs)["run-grid"]["inputs"].keys() == {*cli.VERBS["run-grid"].reads, "cache_path"}


class TestUpToDate:
    @pytest.fixture
    def calls(self, monkeypatch) -> list[str]:
        """The names called among those an up-to-date verb must not reach."""
        use_cpus(monkeypatch, 1)  # searches run in this process, where the recorder sees them
        seen = []
        for owner, name in (
            (experiment, "randomized_search"),
            (gateway, "assemble_prompt"),
            (experiment, "load_csv"),
            (cli, "load_csv"),
            (cli, "load_model"),
            (cli, "load_rows"),
            (cli, "JsonlCache"),
        ):
            original = getattr(owner, name)

            def recorded(*args, _name=name, _original=original, **kwargs):
                seen.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, name, recorded)
        return seen

    @pytest.mark.parametrize("argv", README, ids=lambda argv: argv[0])
    def test_an_unchanged_rerun_is_a_no_op(self, finished, runs, capsys, calls, argv):
        # in a copy of the run directory: output_dir is a location, not content
        before = files(runs)
        assert run(finished["cfg"], runs, capsys, *argv) == (0, up_to_date(runs, argv[0]), "")
        assert calls == []
        assert files(runs) == before

    def test_an_unchanged_live_rerun_opens_no_cache_and_sends_nothing(
        self, finished, runs, capsys, calls, stub, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("OPENAI_API_KEY", "k")
        stub.script = [(200, ok_body("1"))]
        live = live_config(finished, tmp_path, stub.url)
        assert ran(*run(live, runs, capsys, "--live", "run-grid")[:2])
        sent, before = len(stub.requests), files(runs)
        del calls[:]
        assert run(live, runs, capsys, "--live", "run-grid") == (0, up_to_date(runs, "run-grid"), "")
        assert calls == [] and len(stub.requests) == sent
        assert files(runs) == before

    def test_an_up_to_date_report_hashes_each_file_once(self, finished, runs, capsys, monkeypatch):
        # each walk up from ml_rows.json and grid_rows.json reaches imputed.csv, which is hashed once all the same
        hashed = []
        monkeypatch.setattr(manifest, "_sha256", lambda path, _sha256=manifest._sha256: hashed.append(path) or _sha256(path))
        assert run(finished["cfg"], runs, capsys, "report") == (0, up_to_date(runs, "report"), "")
        doc = entries(runs)
        walked = {name for verb in ("report", "run-grid", "gen-dk", "train-models") for name in doc[verb]["inputs"]}
        assert sorted(Path(path).relative_to(runs).as_posix() for path in hashed) == sorted({"report.csv", *walked})

    def test_an_up_to_date_verb_imports_no_numpy(self, finished, runs):
        # in a fresh interpreter: [exit code, numpy loaded] after each argv
        code = "import json, sys; from cardioprompt.cli import main; " + (
            'print(json.dumps([[main(a), "numpy" in sys.modules] for a in json.loads(sys.argv[1])]))'
        )
        argvs = [["--config", str(finished["cfg"]), "--output-dir", str(runs), *argv] for argv in README]
        env = {**os.environ, "PYTHONPATH": str(Path(cardioprompt.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == [[0, False]] * len(README)


def live_config(finished, tmp_path: Path, url: str) -> Path:
    """The finished run's config with a live endpoint and a cache of its own."""
    doc = json.loads(finished["cfg"].read_text())
    doc["cache_path"] = str(tmp_path / "cache.jsonl")
    doc["llm"] = {"base_url": url, "max_retries": 0, "timeout": 5.0, "max_in_flight": 1}
    path = tmp_path / "live.json"
    path.write_text(json.dumps(doc))
    return path


class TestRunsAgain:
    @pytest.mark.parametrize("argv", README, ids=lambda argv: argv[0])
    def test_a_changed_seed(self, finished, runs, capsys, argv):
        # the split is prepare-data's split.json, which the others only read; gen-dk and report read no seed
        config = entries(runs)[argv[0]]["config"]
        code, out, _ = run(finished["cfg"], runs, capsys, "--seed", "4", *argv)
        if argv[0] in ("gen-dk", "report"):
            assert (code, out) == (0, up_to_date(runs, argv[0]))
        else:
            assert ran(code, out)
            assert entries(runs)[argv[0]]["config"] != config
        assert all({"seed", "test_fraction"}.isdisjoint(entry) for entry in entries(runs).values())

    @pytest.mark.parametrize("argv", README, ids=lambda argv: argv[0])
    def test_another_program(self, finished, runs, capsys, monkeypatch, argv):
        monkeypatch.setattr(manifest, "program_identity", lambda: "another program")
        # the stage artifacts a verb reads are those of its row, which were checked before it ran
        read, original = [], manifest.Trace.read

        def recorded(trace, name, parse):
            read.append(name)
            return original(trace, name, parse)

        monkeypatch.setattr(manifest.Trace, "read", recorded)
        assert ran(*run(finished["cfg"], runs, capsys, *argv)[:2])
        assert entries(runs)[argv[0]]["program"] == "another program"
        assert read == [name for name in cli.VERBS[argv[0]].reads if name not in cli.EXTERNAL_INPUTS]

    @pytest.mark.parametrize("verb, name", [(verb, name) for verb, names in OUTPUTS.items() for name in names])
    @pytest.mark.parametrize("damage", ["deleted", "edited"])
    def test_an_output_deleted_or_edited(self, finished, runs, capsys, verb, name, damage):
        path = runs / name
        if damage == "deleted":
            path.unlink()
        else:
            path.write_bytes(path.read_bytes() + b"\n")
        assert ran(*run(finished["cfg"], runs, capsys, *ARGV[verb])[:2])
        assert path.read_bytes() == (finished["runs"] / name).read_bytes()
        assert run(finished["cfg"], runs, capsys, *ARGV[verb])[:2] == (0, up_to_date(runs, verb))

    @pytest.mark.parametrize(
        "upstream, argv, stale",
        [
            (["--data-path", "{other}", "prepare-data"], ARGV["train-models"], None),
            (["--seed", "4", "train-models"], ARGV["gen-dk"], None),
            # dk.json's models were trained on the imputed.csv replaced since
            (
                ["--data-path", "{other}", "prepare-data"],
                ARGV["run-grid"],
                "models/GBT.json was made from a imputed.csv that has changed since; rerun train-models and gen-dk",
            ),
            (["run-grid", "--mock", "oracle"], ARGV["report"], None),
        ],
        ids=["train-models", "gen-dk", "run-grid", "report"],
    )
    def test_an_input_rewritten_by_its_writer_with_other_settings(
        self, finished, runs, capsys, tmp_path, upstream, argv, stale
    ):
        other = tmp_path / "other.csv"
        write_raw_csv(other, seed=5)
        assert ran(*run(finished["cfg"], runs, capsys, *[a.format(other=other) for a in upstream])[:2])
        if stale:
            assert run(finished["cfg"], runs, capsys, *argv) == (1, [], f"error: {stale}\n")
            for redo in (ARGV["train-models"], ARGV["gen-dk"], argv, ARGV["report"]):
                assert ran(*run(finished["cfg"], runs, capsys, *redo)[:2]), redo
        else:
            assert ran(*run(finished["cfg"], runs, capsys, *argv)[:2])
        assert run(finished["cfg"], runs, capsys, *argv)[:2] == (0, up_to_date(runs, argv[0]))

    def test_an_entry_without_one_of_its_reads_runs_again(self, finished, runs, capsys):
        # the manifest check reads such an entry, as it reads one from before split.json existed
        doc = entries(runs)
        del doc["train-models"]["inputs"]["split.json"]
        (runs / "manifest.json").write_text(json.dumps(doc))
        assert ran(*run(finished["cfg"], runs, capsys, *ARGV["train-models"])[:2])
        assert run(finished["cfg"], runs, capsys, *ARGV["train-models"])[:2] == (0, up_to_date(runs, "train-models"))

    def test_prepare_data_after_its_csv_changed(self, tmp_path, capsys):
        workdir = make_workdir(tmp_path)
        argv = (workdir["cfg"], workdir["runs"], capsys, "prepare-data")
        assert ran(*run(*argv)[:2])
        assert run(*argv)[:2] == (0, up_to_date(workdir["runs"], "prepare-data"))
        write_raw_csv(workdir["data"], seed=5)
        assert ran(*run(*argv)[:2])

    def test_each_backend_and_rule(self, finished, runs, capsys, stub, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENAI_API_KEY", "k")
        stub.script = [(200, ok_body("1"))]
        live = live_config(finished, tmp_path, stub.url)  # one config for every backend
        rule, oracle = ["run-grid", "--mock", "rule"], ["run-grid", "--mock", "oracle"]
        assert run(live, runs, capsys, *rule)[:2] == (0, up_to_date(runs, "run-grid"))  # as the finished run left it
        for argv in (oracle, ["--live", "run-grid"], rule):
            assert ran(*run(live, runs, capsys, *argv)[:2]), argv
            assert run(live, runs, capsys, *argv)[:2] == (0, up_to_date(runs, "run-grid")), argv

    def test_llm_settings_count_only_for_a_live_grid(self, finished, runs, capsys, stub, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENAI_API_KEY", "k")
        stub.script = [(200, ok_body("1"))]
        live = live_config(finished, tmp_path, stub.url)  # the finished run's config but for its llm settings
        for argv in README:
            assert run(live, runs, capsys, *argv)[:2] == (0, up_to_date(runs, argv[0])), argv
        assert ran(*run(live, runs, capsys, "--live", "run-grid")[:2])
        for llm in ({"timeout": 6.0}, {"model_name": "another-model"}):
            doc = json.loads(live.read_text())
            doc["llm"].update(llm)
            live.write_text(json.dumps(doc))
            assert ran(*run(live, runs, capsys, "--live", "run-grid")[:2]), llm
            assert run(live, runs, capsys, "--live", "run-grid")[:2] == (0, up_to_date(runs, "run-grid")), llm

    def test_a_record_appended_to_the_cache(self, finished, runs, capsys, stub, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENAI_API_KEY", "k")
        stub.script = [(200, ok_body("1"))]
        live = live_config(finished, tmp_path, stub.url)
        assert ran(*run(live, runs, capsys, "--live", "run-grid")[:2])
        sent = len(stub.requests)
        record = {"prompt_hash": "h", "model_name": "m", "raw_response": "1", "timestamp": 1.0, "attempt_count": 1}
        with (tmp_path / "cache.jsonl").open("a") as fh:
            fh.write(json.dumps(record) + "\n")
        assert ran(*run(live, runs, capsys, "--live", "run-grid")[:2])
        assert len(stub.requests) == sent  # every prompt is still cached
        assert run(live, runs, capsys, "--live", "run-grid")[:2] == (0, up_to_date(runs, "run-grid"))

    def test_an_interrupted_live_grid_resumes_with_the_prompts_it_lacks(
        self, finished, runs, capsys, stub, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("OPENAI_API_KEY", "k")
        stub.script = [(200, ok_body("1")), (200, ok_body("0")), (503, {})]
        live = live_config(finished, tmp_path, stub.url)
        code, _, err = run(live, runs, capsys, "--live", "run-grid")
        assert code == 3 and "rerun to resume" in err
        stub.script = [(200, ok_body("1"))]
        sent = len(stub.requests)
        assert ran(*run(live, runs, capsys, "--live", "run-grid")[:2])
        prompts = len((tmp_path / "cache.jsonl").read_text().splitlines())
        assert len(stub.requests) - sent == prompts - 2
        assert run(live, runs, capsys, "--live", "run-grid")[:2] == (0, up_to_date(runs, "run-grid"))

    @pytest.mark.parametrize("kill", ["after_a_few_answers", "halfway_through_an_append"])
    def test_a_live_grid_killed_while_it_appends_resumes_to_the_rows_of_an_uninterrupted_run(
        self, finished, runs, capsys, stub, tmp_path, monkeypatch, kill
    ):
        monkeypatch.setenv("OPENAI_API_KEY", "k")
        stub.script = [fixed_answer]
        whole, killed = tmp_path / "whole", tmp_path / "killed"
        for place in (whole, killed):
            shutil.copytree(runs, place / "runs")
        assert ran(*run(live_config(finished, whole, stub.url), whole / "runs", capsys, "--live", "run-grid")[:2])
        prompts = len(gateway.JsonlCache(whole / "cache.jsonl"))
        live = live_config(finished, killed, stub.url)
        argv = ["--config", str(live), "--output-dir", str(killed / "runs"), "--live", "run-grid"]
        env = {**os.environ, "PYTHONPATH": str(Path(cardioprompt.__file__).parents[1])}
        quiet = {"stdout": subprocess.DEVNULL, "stderr": subprocess.DEVNULL}
        if kill == "halfway_through_an_append":
            code = [sys.executable, "-c", _KILLED_HALFWAY_THROUGH_AN_APPEND]
            child = subprocess.run([*code, *argv], env=env, timeout=60, **quiet)
            assert not (killed / "cache.jsonl").read_text().endswith("\n")
        else:
            sent = len(stub.requests)
            child = subprocess.Popen([sys.executable, "-m", "cardioprompt.cli", *argv], env=env, **quiet)
            deadline = time.monotonic() + 60
            while len(stub.requests) < sent + 3 and child.poll() is None and time.monotonic() < deadline:
                time.sleep(0.001)
            child.send_signal(signal.SIGKILL)
            child.wait(timeout=60)
        assert child.returncode == -signal.SIGKILL
        assert 0 < (killed / "cache.jsonl").read_bytes().count(b"\n") < prompts  # killed mid-grid
        code, out, err = run(live, killed / "runs", capsys, "--live", "run-grid")  # resumes from what the kill left
        assert ran(code, out)
        assert "dropped a torn last line" in err or kill == "after_a_few_answers"  # where that kill lands is chance
        assert len(gateway.JsonlCache(killed / "cache.jsonl")) == prompts
        assert (killed / "runs" / "grid_rows.json").read_bytes() == (whole / "runs" / "grid_rows.json").read_bytes()


# in a fresh interpreter: a live run-grid that writes half of its fourth cache record, then kills itself
_KILLED_HALFWAY_THROUGH_AN_APPEND = """
import json, os, signal, sys
from cardioprompt import gateway
from cardioprompt.cli import main
put = gateway.JsonlCache.put
def torn(self, rec):
    if len(self) == 3:
        line = json.dumps(vars(rec)) + "\\n"
        with open(self.path, "a") as fh:
            fh.write(line[: len(line) // 2])
        os.kill(os.getpid(), signal.SIGKILL)
    put(self, rec)
gateway.JsonlCache.put = torn
sys.exit(main(sys.argv[1:]))
"""


def fixed_answer(doc: dict) -> tuple[int, dict]:
    """The stub's reply to a prompt: 1 or 0, fixed by the prompt alone."""
    digest = hashlib.sha256(json.dumps(doc["messages"]).encode()).digest()
    return 200, ok_body(str(digest[0] % 2))


def edited_config(finished, tmp_path: Path, **edits) -> Path:
    """The finished run's config with `edits` applied."""
    path = tmp_path / "edited.json"
    path.write_text(json.dumps({**json.loads(finished["cfg"].read_text()), **edits}))
    return path


class TestConfigEdits:
    @pytest.mark.parametrize("key, reader", [("paper_faithful", "run-grid"), ("data_path", "prepare-data")])
    def test_a_setting_one_verb_reads_reruns_that_verb_alone(self, finished, runs, capsys, tmp_path, key, reader):
        value = True if key == "paper_faithful" else str(shutil.copy(finished["data"], tmp_path))  # the same bytes
        config = edited_config(finished, tmp_path, **{key: value})
        for argv in README:
            code, out, _ = run(config, runs, capsys, *argv)
            assert ran(code, out) if argv[0] == reader else (code, out) == (0, up_to_date(runs, argv[0])), argv

    @pytest.mark.parametrize(
        "edit",
        [
            {"paper_faithful": True},  # read by run-grid alone
            {"impute_k": 5},  # read by prepare-data alone
            {"weights": {"w_fp": 0.5, "w_fn": 0.5}},
            {"n_ex_grid": [2]},
            {"search_iters": 2},
            {"seed": 4},
            {"test_fraction": 0.3},
            {"search_folds": 3},
            {"data_path": "{other}"},  # another CSV
        ],
        ids=lambda edit: next(iter(edit)),
    )
    def test_every_output_after_an_edit_equals_a_fresh_run_of_the_edited_config(
        self, finished, runs, capsys, tmp_path, edit
    ):
        other = tmp_path / "other.csv"
        write_raw_csv(other, seed=5)
        edit = {key: str(other) if value == "{other}" else value for key, value in edit.items()}
        config, fresh = edited_config(finished, tmp_path, **edit), tmp_path / "fresh"
        for argv in README:
            assert run(config, runs, capsys, *argv)[0] == 0, argv
            assert run(config, fresh, capsys, *argv)[0] == 0, argv
        for verb, entry in entries(fresh).items():
            outputs = entries(runs)[verb]["outputs"]
            assert outputs == entry["outputs"], verb
            assert all((runs / name).read_bytes() == (fresh / name).read_bytes() for name in outputs), verb

    def test_an_n_ex_grid_edit_leaves_train_models_and_gen_dk_up_to_date(self, finished, runs, capsys, tmp_path):
        config = edited_config(finished, tmp_path, n_ex_grid=[2])
        for argv in README:
            code, out, _ = run(config, runs, capsys, *argv)
            skipped = argv[0] in ("train-models", "gen-dk")
            assert (code, out) == (0, up_to_date(runs, argv[0])) if skipped else ran(code, out), argv

    def test_every_config_key_is_read_by_a_verb_or_is_a_location(self):
        fields = set(ExperimentConfig.__dataclass_fields__)
        keys = [key for row in cli.VERBS.values() for key in row.keys]
        assert set(keys) <= fields
        assert fields - set(keys) == {"output_dir", "cache_path"}

    @pytest.mark.parametrize("verb", list(ARGV))
    def test_a_test_fraction_outside_zero_one_exits_one_and_writes_nothing(
        self, finished, runs, capsys, tmp_path, verb
    ):
        # in the config file, which every verb loads; as a flag, only prepare-data takes it
        before = {path: path.read_bytes() for path in runs.rglob("*") if path.is_file()}
        config = edited_config(finished, tmp_path, test_fraction=1.5)
        code, out, err = run(config, runs, capsys, *ARGV[verb])
        assert (code, out, err) == (1, [], "error: config key test_fraction must be in (0, 1), not 1.5\n")
        assert run(finished["cfg"], runs, capsys, "--test-fraction", "1.5", "prepare-data") == (1, [], err)
        assert {path: path.read_bytes() for path in runs.rglob("*") if path.is_file()} == before

    @pytest.mark.parametrize("verb", [verb for verb in ARGV if verb != "prepare-data"])
    def test_a_test_fraction_flag_on_another_verb_than_prepare_data_exits_one(self, finished, runs, capsys, verb):
        before = files(runs)
        code, out, err = run(finished["cfg"], runs, capsys, "--test-fraction", "0.3", *ARGV[verb])
        assert (code, out, err) == (1, [], f"error: --test-fraction is read only by prepare-data, not by {verb}\n")
        assert files(runs) == before

    @pytest.mark.parametrize(
        "verb, edit, line",
        [
            ("train-models", {"search_folds": 60}, "search_folds: 60 folds of the train split: class 0 has fewer"
             " members than folds"),
            ("run-grid", {"n_ex_grid": [0, 2, 500]}, "n_ex_grid: 500 examples from the train split: asked for 500"
             " examples from 52 rows"),
        ],
        ids=["search_folds", "n_ex_grid"],
    )
    def test_a_value_the_split_refutes_exits_one_before_its_verb_trains_or_sends(
        self, finished, runs, capsys, stub, tmp_path, monkeypatch, verb, edit, line
    ):
        monkeypatch.setenv("OPENAI_API_KEY", "k")
        stub.script = [(200, ok_body("1"))]
        searched = []
        monkeypatch.setattr(experiment, "randomized_search", lambda *args, **kwargs: searched.append(args))
        doc = {**json.loads(live_config(finished, tmp_path, stub.url).read_text()), **edit}
        config = edited_config(finished, tmp_path, **doc)
        argv = ["--live", "run-grid"] if verb == "run-grid" else [verb]
        before = files(runs)
        assert run(config, runs, capsys, *argv) == (1, [], f"error: config key {line}\n")
        assert (searched, stub.requests) == ([], [])
        assert files(runs) == before and not (tmp_path / "cache.jsonl").exists()


class TestMismatchedInputs:
    @pytest.mark.parametrize("split", [["--seed", "4"], ["--test-fraction", "0.3"]], ids=["seed", "test-fraction"])
    def test_a_new_split_takes_prepare_data_and_reruns_every_verb_that_read_the_old(
        self, finished, runs, capsys, stub, tmp_path, monkeypatch, split
    ):
        assert ran(*run(finished["cfg"], runs, capsys, *split, "prepare-data")[:2])
        monkeypatch.setenv("OPENAI_API_KEY", "k")
        stub.script = [(200, ok_body("1"))]
        live, before = live_config(finished, tmp_path, stub.url), files(runs)
        stale = "models/GBT.json was made from a split.json that has changed since; rerun train-models and gen-dk"
        assert run(live, runs, capsys, "--live", "run-grid") == (1, [], f"error: {stale}\n")
        assert stub.requests == [] and not (tmp_path / "cache.jsonl").exists()
        assert files(runs) == before
        stale = "ml_rows.json was made from a split.json that has changed since"
        assert run(finished["cfg"], runs, capsys, "report") == (
            1, [], f"error: {stale}; rerun train-models and gen-dk and run-grid\n"
        )
        for argv in (ARGV["train-models"], ARGV["gen-dk"], ARGV["run-grid"], ARGV["report"]):
            assert ran(*run(finished["cfg"], runs, capsys, *argv)[:2]), argv

    def test_an_edited_imputed_csv_asks_each_backend_to_rerun_prepare_data_alone(
        self, finished, runs, capsys, stub, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("OPENAI_API_KEY", "k")
        stub.script = [(200, ok_body("1"))]
        live, path = live_config(finished, tmp_path, stub.url), runs / "imputed.csv"
        path.write_bytes(path.read_bytes() + b"\n")
        err = f"error: {path} changed since prepare-data wrote it; rerun prepare-data\n"
        for argv in (ARGV["run-grid"], ["--live", "run-grid"]):
            assert run(live, runs, capsys, *argv) == (1, [], err), argv
        assert stub.requests == [] and not (tmp_path / "cache.jsonl").exists()

    def test_a_changed_seed_scores_the_rows_of_split_json(self, finished, runs, capsys, monkeypatch):
        scored, grid = [], cli.run_prompt_grid

        def recorded(cfg, prepared, *args):
            scored.append(prepared.test.matrix)
            return grid(cfg, prepared, *args)

        monkeypatch.setattr(cli, "run_prompt_grid", recorded)
        assert ran(*run(finished["cfg"], runs, capsys, "--seed", "4", *ARGV["run-grid"])[:2])
        test_rows = json.loads((runs / "split.json").read_text())
        assert (scored[0] == load_csv(runs / "imputed.csv").matrix[test_rows]).all()
        # the rule answers from the query alone: the same rows score the same
        assert (runs / "grid_rows.json").read_bytes() == (finished["runs"] / "grid_rows.json").read_bytes()

    @pytest.mark.parametrize("verb", ["train-models", "run-grid"])
    def test_an_edited_split_json_exits_one_naming_prepare_data(self, finished, runs, capsys, verb):
        path = runs / "split.json"
        path.write_text(json.dumps(json.loads(path.read_text())[1:]))
        code, _, err = run(finished["cfg"], runs, capsys, *ARGV[verb])
        assert (code, err) == (1, f"error: {path} changed since prepare-data wrote it; rerun prepare-data\n")

    def test_report_of_rows_from_two_imputed_files_names_the_stale_one(self, finished, runs, capsys, tmp_path):
        other = tmp_path / "other.csv"
        write_raw_csv(other, seed=5)
        assert ran(*run(finished["cfg"], runs, capsys, "--data-path", str(other), "prepare-data")[:2])
        err = "error: models/GBT.json was made from a imputed.csv that has changed since; rerun train-models and gen-dk"
        assert run(finished["cfg"], runs, capsys, *ARGV["run-grid"]) == (1, [], err + "\n")
        # ml rows of the new imputed.csv beside grid rows graded with the texts of the old one's models
        assert ran(*run(finished["cfg"], runs, capsys, *ARGV["train-models"])[:2])
        err = "error: dk.json was made from a models/GBT.json that has changed since; rerun gen-dk and run-grid\n"
        assert run(finished["cfg"], runs, capsys, "report") == (1, [], err)

    @pytest.mark.parametrize(
        "verb, stale, rerun",
        [
            ("gen-dk", "models/RF.json", "train-models"),
            ("run-grid", "models/GBT.json", "train-models and gen-dk"),  # through dk.json
            ("report", "ml_rows.json", "train-models and gen-dk and run-grid"),  # grid_rows.json's lineage too
        ],
        ids=["gen-dk-models/RF.json", "run-grid-models/GBT.json", "report-ml_rows.json"],
    )
    def test_a_verb_downstream_of_a_new_imputed_file_is_not_up_to_date(
        self, finished, runs, capsys, tmp_path, verb, stale, rerun
    ):
        # the skip walks each input's lineage as the read does, so it reaches the same verdict
        other = tmp_path / "other.csv"
        write_raw_csv(other, seed=5)
        assert ran(*run(finished["cfg"], runs, capsys, "--data-path", str(other), "prepare-data")[:2])
        err = f"error: {stale} was made from a imputed.csv that has changed since; rerun {rerun}\n"
        assert run(finished["cfg"], runs, capsys, *ARGV[verb]) == (1, [], err)

    def test_dk_texts_from_models_trained_since_exit_one_naming_gen_dk(self, finished, runs, capsys):
        assert ran(*run(finished["cfg"], runs, capsys, "--seed", "4", "train-models")[:2])
        code, _, err = run(finished["cfg"], runs, capsys, "--seed", "4", *ARGV["run-grid"])
        stale = "dk.json was made from a models/GBT.json that has changed since; rerun gen-dk"
        assert (code, err) == (1, f"error: {stale}\n")
        # grid rows of seed 3, graded with the texts of the replaced models
        assert run(finished["cfg"], runs, capsys, "--seed", "4", "report") == (1, [], f"error: {stale} and run-grid\n")
        for argv in (ARGV["gen-dk"], ARGV["run-grid"], ARGV["report"]):
            assert ran(*run(finished["cfg"], runs, capsys, "--seed", "4", *argv)[:2]), argv

    @pytest.mark.parametrize(
        "upstream, flags, verb, advice",
        [
            (["--seed", "4", "prepare-data"], [], "run-grid", "rerun train-models and gen-dk"),
            (["--data-path", "{other}", "prepare-data"], [], "run-grid", "rerun train-models and gen-dk"),
            (["--data-path", "{other}", "prepare-data"], [], "report", "rerun train-models and gen-dk and run-grid"),
            (["--seed", "4", "train-models"], ["--seed", "4"], "report", "rerun gen-dk and run-grid"),
            ("rows-deleted", [], "report", "run train-models and run-grid first"),
            ("imputed-torn", [], "run-grid", "rerun prepare-data"),
            ("model-deleted", [], "run-grid", "rerun train-models"),
        ],
        ids=[
            "split-run-grid", "imputed-run-grid", "imputed-report", "models-report", "rows-report", "torn-run-grid",
            "model-run-grid",
        ],
    )
    def test_running_the_verbs_an_error_names_once_lets_its_read_pass(
        self, finished, runs, capsys, tmp_path, upstream, flags, verb, advice
    ):
        other = tmp_path / "other.csv"
        write_raw_csv(other, seed=5)
        if upstream == "rows-deleted":
            (runs / "ml_rows.json").unlink()
            (runs / "grid_rows.json").unlink()
        elif upstream == "imputed-torn":
            lines = (runs / "imputed.csv").read_text().splitlines(keepends=True)
            (runs / "imputed.csv").write_text("".join(lines[: len(lines) // 2]))
        elif upstream == "model-deleted":
            (runs / "models" / "RF.json").unlink()
        elif upstream:
            assert ran(*run(finished["cfg"], runs, capsys, *[a.format(other=other) for a in upstream])[:2])
        code, _, err = run(finished["cfg"], runs, capsys, *flags, *ARGV[verb])
        assert (code, err.rpartition("; ")[2]) == (1, f"{advice}\n")
        for redo in advice.removeprefix("re").removeprefix("run ").removesuffix(" first").split(" and "):
            assert ran(*run(finished["cfg"], runs, capsys, *flags, *ARGV[redo])[:2]), redo
        # in one round: the verb runs, or is up to date where its writer wrote the recorded bytes again
        code, out, _ = run(finished["cfg"], runs, capsys, *flags, *ARGV[verb])
        if upstream in ("imputed-torn", "model-deleted"):
            assert (code, out) == (0, up_to_date(runs, verb))
        else:
            assert ran(code, out)

    def test_a_model_deleted_since_gen_dk_read_it_is_named_missing(self, finished, runs, capsys):
        (runs / "models" / "RF.json").unlink()
        code, _, err = run(finished["cfg"], runs, capsys, *ARGV["run-grid"])
        assert (code, err) == (1, f"error: missing {runs / 'models' / 'RF.json'}; rerun train-models\n")

    def test_rows_without_an_entry_are_read_as_before(self, finished, runs, capsys):
        doc = entries(runs)
        del doc["train-models"]
        (runs / "manifest.json").write_text(json.dumps(doc))
        assert ran(*run(finished["cfg"], runs, capsys, "run-grid", "--mock", "oracle")[:2])  # other grid rows
        assert ran(*run(finished["cfg"], runs, capsys, "report")[:2])

    @pytest.mark.parametrize("verb", ["train-models", "run-grid"])
    def test_imputed_csv_torn_at_a_line_boundary_exits_one(self, finished, runs, capsys, verb):
        path = runs / "imputed.csv"
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[: len(lines) // 2]))
        code, _, err = run(finished["cfg"], runs, capsys, *ARGV[verb])
        assert code == 1
        assert err == f"error: {path} changed since prepare-data wrote it; rerun prepare-data\n"

    @pytest.mark.parametrize(
        "text",
        [
            "{",
            "[]",
            '{"gen-dk": {"inputs": []}}',
            # prepare-data made from dk.json, which its row does not read: a walk from it would go round in a circle
            "cycle",
        ],
    )
    def test_a_malformed_manifest_exits_one(self, finished, runs, capsys, text):
        if text == "cycle":
            doc = entries(runs)
            doc["prepare-data"]["inputs"]["dk.json"] = doc["gen-dk"]["outputs"]["dk.json"]
            text = json.dumps(doc)
        (runs / "manifest.json").write_text(text)
        code, _, err = run(finished["cfg"], runs, capsys, "gen-dk")
        assert code == 1
        assert err.startswith(f"error: {runs / 'manifest.json'} is not a manifest")
        assert err.endswith("; delete it to run every verb again\n")

    def test_a_manifest_written_before_split_json_is_not_refused(self, finished, runs, capsys):
        # its entries record each split's seed and test fraction, and no split.json
        doc = entries(runs)
        for entry in doc.values():
            entry.update(seed=3, test_fraction=0.25, program="an earlier program")
            for files_of in (entry["inputs"], entry["outputs"]):
                files_of.pop("split.json", None)
        (runs / "manifest.json").write_text(json.dumps(doc))
        (runs / "split.json").unlink()
        missing = f"error: missing {runs / 'split.json'}; run prepare-data first\n"
        assert run(finished["cfg"], runs, capsys, *ARGV["train-models"]) == (1, [], missing)
        for argv in README:
            assert ran(*run(finished["cfg"], runs, capsys, *argv)[:2]), argv
