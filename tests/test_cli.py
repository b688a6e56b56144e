"""Command-line contract: config parsing, usage errors, output files and
byte-level determinism of every subcommand."""

from pathlib import Path

import numpy as np
import pytest

from elliptical.cli import (
    COMMANDS,
    Option,
    UsageError,
    _parse_bool,
    _parse_str,
    load_config,
    main,
    parse_config_text,
)

#: a small model for commands that only need a checkpoint or a quick failure
TINY = ["--set", "layers=2", "--set", "heads=1", "--set", "head_dim=4",
        "--set", "embed_dim=4", "--set", "ff_dim=8", "--set", "context=8",
        "--set", "corpus_length=1024"]


def _run(tmp_path, monkeypatch, *argv):
    monkeypatch.setenv("ELLIPTICAL_OUT", str(tmp_path))
    return main(list(argv))


def _snapshot(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestConfigParsing:
    def test_key_value_lines(self):
        cfg = parse_config_text("# comment\n\nn = 10\nname = hello world\n")
        assert cfg == {"n": "10", "name": "hello world"}

    def test_malformed_line_rejected(self):
        with pytest.raises(UsageError):
            parse_config_text("just some text")

    def test_unknown_key_rejected(self):
        class Args:
            config = None
            set = ["bogus=1"]

        with pytest.raises(UsageError, match="bogus"):
            load_config({"n": Option(int, required=True)}, Args())

    def test_missing_required_key_named(self):
        class Args:
            config = None
            set = []

        with pytest.raises(UsageError, match="'n'"):
            load_config({"n": Option(int, required=True)}, Args())

    def test_bad_value_names_key(self):
        class Args:
            config = None
            set = ["n=abc"]

        with pytest.raises(UsageError, match="'n'"):
            load_config({"n": Option(int, required=True)}, Args())


_S, _B = _parse_str, _parse_bool
_CORPUS = {
    "corpus": (_S, "synthetic"), "corpus_file": (_S, ""), "corpus_length": (int, 8192),
    "corpus_symbols": (int, 12), "corpus_order": (int, 2),
}
#: every key of every subcommand as (parser, default); a default of None
#: marks a required key
SCHEMAS = {
    "nw-sparse": {
        "n": (int, None), "dim": (int, 5), "seeds": (int, 20), "seed": (int, 0),
        "noise_std": (float, 0.3), "n_queries": (int, 500),
        "weights_source": (_S, "oracle"), "scaling": (_S, "maxscale"),
        "truth": (_S, "sparse"), "out": (_S, "out/nw-sparse"),
    },
    "edge-preserve": {
        "n": (int, None), "seeds": (int, 20), "seed": (int, 0), "noise_std": (float, 0.3),
        "query_offset": (float, 0.3), "est_t": (float, 0.1), "est_points": (int, 2000),
        "out": (_S, "out/edge-preserve"),
    },
    "estimator-bench": {
        "seeds": (int, 20), "seed": (int, 0), "n": (int, 2048), "delta": (float, 1.0),
        "noise_std": (float, 0.01), "out": (_S, "out/estimator-bench"),
    },
    "train-lm": {
        **_CORPUS, "steps": (int, None), "eval_tokens": (int, 1024), "layers": (int, 4),
        "heads": (int, 2), "head_dim": (int, 16), "embed_dim": (int, 32),
        "ff_dim": (int, 64), "context": (int, 64), "elliptical": (_B, False),
        "scaling": (_S, "maxscale"), "delta": (float, 1.0), "seed": (int, 0),
        "lr": (float, 3e-4), "batch_size": (int, 8), "corrupt": (_B, False),
        "corrupt_rate": (float, 0.025), "resume": (_S, ""), "out": (_S, "out/train-lm"),
    },
    "diagnose": {
        **_CORPUS, "checkpoint": (_S, None), "eval_tokens": (int, 512),
        "epsilons": (_S, "0.01,0.1,1.0"), "corrupt_rate": (float, 0.025),
        "seed": (int, 0), "out": (_S, "out/diagnose"),
    },
    "verify": {"seed": (int, 0), "kappa_offset": (float, 0.0), "out": (_S, "out/verify")},
}


class TestSchemas:
    @pytest.mark.parametrize("command", sorted(SCHEMAS))
    def test_keys_parsers_and_defaults_are_pinned(self, command):
        # train-lm keys come from ModelConfig and TrainParams fields, so a new
        # field shows up here as a CLI change
        schema = COMMANDS[command][0]
        got = {
            key: (opt.parse, None if opt.required else opt.default)
            for key, opt in schema.items()
        }
        assert got == SCHEMAS[command]
        for key, opt in schema.items():
            assert opt.required == (SCHEMAS[command][key][1] is None), key
            assert type(opt.default) is type(SCHEMAS[command][key][1]), key

    def test_every_command_is_pinned(self):
        assert sorted(COMMANDS) == sorted(SCHEMAS)


class TestUsageErrors:
    def test_missing_required_key_exits_2(self, tmp_path, monkeypatch, capsys):
        code = _run(tmp_path, monkeypatch, "nw-sparse")
        assert code == 2
        assert "'n'" in capsys.readouterr().err

    def test_unknown_key_exits_2(self, tmp_path, monkeypatch, capsys):
        code = _run(tmp_path, monkeypatch, "train-lm", "--set", "steps=1", "--set", "zap=1")
        assert code == 2
        assert "zap" in capsys.readouterr().err

    @pytest.mark.parametrize("count", [0, -5, 1])
    @pytest.mark.parametrize("command", ["train-lm", "diagnose"])
    def test_eval_tokens_below_two_exits_2(self, tmp_path, monkeypatch, capsys, command, count):
        # tokens[-0:] is the whole corpus, and one token leaves nothing to predict
        if command == "train-lm":
            args = ["train-lm", "--set", "steps=1", *TINY]
        else:
            assert _run(tmp_path, monkeypatch, "train-lm", "--set", "steps=0",
                        "--set", "out=m", *TINY) == 0
            args = ["diagnose", "--set", f"checkpoint={tmp_path / 'm' / 'checkpoint.bin'}",
                    "--set", "corpus_length=1024"]
        capsys.readouterr()
        code = _run(tmp_path, monkeypatch, *args, "--set", f"eval_tokens={count}",
                    "--set", "out=bad")
        assert code == 2
        assert "'eval_tokens'" in capsys.readouterr().err
        assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize("epsilons", ["abc", "0", "nan"])
    def test_bad_epsilons_exit_2(self, tmp_path, monkeypatch, capsys, epsilons):
        # a zero scale makes 0/0 ratios, and a NaN scale leaves no finite softmax row
        assert _run(tmp_path, monkeypatch, "train-lm", "--set", "steps=0",
                    "--set", "out=m", *TINY) == 0
        capsys.readouterr()
        code = _run(tmp_path, monkeypatch, "diagnose",
                    "--set", f"checkpoint={tmp_path / 'm' / 'checkpoint.bin'}",
                    "--set", "corpus_length=1024", "--set", f"epsilons={epsilons}",
                    "--set", "out=bad")
        assert code == 2
        err = capsys.readouterr().err
        assert "'epsilons'" in err and "Traceback" not in err
        assert not (tmp_path / "bad").exists()

    def test_missing_checkpoint_is_file_error(self, tmp_path, monkeypatch, capsys):
        code = _run(
            tmp_path, monkeypatch, "diagnose", "--set", "checkpoint=/nonexistent/x.bin"
        )
        assert code == 1
        assert "file error" in capsys.readouterr().err


def _damaged_checkpoint(tmp_path, damage):
    assert main(["train-lm", "--set", "steps=0", "--set", "out=m", *TINY]) == 0
    path = tmp_path / "m" / "checkpoint.bin"
    path.write_bytes(damage(path.read_bytes()))
    return ["diagnose", "--set", f"checkpoint={path}", "--set", "corpus_length=1024"]


def _short_corpus(tmp_path):
    (tmp_path / "short.txt").write_text("hello world")  # 11 characters
    return ["train-lm", "--set", "steps=1", *TINY, "--set", "corpus=file",
            "--set", f"corpus_file={tmp_path / 'short.txt'}"]


#: bad inputs that are not config syntax errors: each names its cause on one
#: line and exits 1
FAILURE_PROBES = {
    "truncated-checkpoint": lambda tmp: _damaged_checkpoint(tmp, lambda b: b[:-100]),
    "checkpoint-bad-magic": lambda tmp: _damaged_checkpoint(tmp, lambda b: b"NOT A CKPT\n" + b),
    "checkpoint-is-directory": lambda tmp: ["diagnose", "--set", f"checkpoint={tmp}"],
    "corpus-too-short": _short_corpus,
    "heads-mismatch": lambda tmp: ["train-lm", "--set", "steps=1", *TINY, "--set", "heads=3"],
    "bad-scaling": lambda tmp: ["train-lm", "--set", "steps=1", *TINY, "--set", "scaling=bogus"],
    "diverging-lr": lambda tmp: ["train-lm", "--set", "steps=3", *TINY, "--set", "lr=1e9"],
    "too-few-seeds": lambda tmp: ["nw-sparse", "--set", "n=40", "--set", "seeds=2",
                                  "--set", "n_queries=20", "--set", "dim=2"],
}


class TestCleanFailures:
    @pytest.mark.parametrize("probe", sorted(FAILURE_PROBES))
    def test_exits_1_with_one_line(self, tmp_path, monkeypatch, capsys, probe):
        monkeypatch.setenv("ELLIPTICAL_OUT", str(tmp_path))
        argv = FAILURE_PROBES[probe](tmp_path)
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err
        assert err.startswith("error: ") and "Traceback" not in err


    def test_failed_run_leaves_the_directory_unchanged(self, tmp_path, monkeypatch):
        # a run that fails must not touch a finished run's files, its config echo included
        monkeypatch.setenv("ELLIPTICAL_OUT", str(tmp_path))
        assert main(["train-lm", "--set", "steps=1", *TINY, "--set", "out=run"]) == 0
        before = _snapshot(tmp_path / "run")
        assert "config_echo.txt" in before
        diverging = ["train-lm", "--set", "steps=3", *TINY, "--set", "lr=1e9", "--set", "out=run"]
        assert main(diverging) == 1
        assert _snapshot(tmp_path / "run") == before


class TestVerifyCommand:
    def test_default_run_passes(self, tmp_path, monkeypatch, capsys):
        code = _run(tmp_path, monkeypatch, "verify", "--set", "out=v1")
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 4
        assert (tmp_path / "v1" / "verify.csv").exists()

    def test_kappa_corruption_fails_jacobian_suite(self, tmp_path, monkeypatch, capsys):
        code = _run(
            tmp_path, monkeypatch, "verify",
            "--set", "out=v2", "--set", "kappa_offset=-1.0",
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "masa-jacobian: FAIL" in out

    def test_exit_status_contract(self, tmp_path, monkeypatch):
        assert _run(tmp_path, monkeypatch, "verify", "--set", "out=v3") == 0


class TestTrainCommand:
    def _args(self, extra=()):
        base = [
            "train-lm",
            "--set", "steps=4",
            "--set", "layers=2",
            "--set", "heads=2",
            "--set", "head_dim=4",
            "--set", "embed_dim=8",
            "--set", "ff_dim=16",
            "--set", "context=16",
            "--set", "corpus_length=1024",
            "--set", "eval_tokens=128",
            "--set", "batch_size=2",
        ]
        return base + list(extra)

    def test_writes_expected_files(self, tmp_path, monkeypatch):
        code = _run(tmp_path, monkeypatch, *self._args(["--set", "out=t1"]))
        assert code == 0
        out = tmp_path / "t1"
        for name in ("checkpoint.bin", "loss.csv", "metrics.csv", "config_echo.txt"):
            assert (out / name).exists()
        loss_lines = (out / "loss.csv").read_text().splitlines()
        assert loss_lines[0] == "step,loss"
        assert len(loss_lines) == 5

    def test_zero_steps_checkpoint_equals_initialization(self, tmp_path, monkeypatch):
        from elliptical import model

        code = _run(
            tmp_path, monkeypatch, *self._args(["--set", "out=t2", "--set", "steps=0"])
        )
        assert code == 0
        ckpt = model.load_checkpoint(tmp_path / "t2" / "checkpoint.bin")
        fresh = model.init_params(ckpt.cfg)
        for k, p in fresh.items():
            assert np.array_equal(p.value, ckpt.params[k].value)

    def test_corrupt_flag_changes_only_eval_metrics(self, tmp_path, monkeypatch):
        _run(tmp_path, monkeypatch, *self._args(["--set", "out=t3"]))
        _run(tmp_path, monkeypatch, *self._args(["--set", "out=t4", "--set", "corrupt=true"]))
        a, b = tmp_path / "t3", tmp_path / "t4"
        assert (a / "checkpoint.bin").read_bytes() == (b / "checkpoint.bin").read_bytes()
        assert (a / "loss.csv").read_bytes() == (b / "loss.csv").read_bytes()
        ma = (a / "metrics.csv").read_text().splitlines()
        mb = (b / "metrics.csv").read_text().splitlines()
        assert ma[1] == mb[1]  # ppl_clean row identical
        assert any(line.startswith("ppl_corrupt") for line in mb)
        assert not any(line.startswith("ppl_corrupt") for line in ma)

    def test_resume_reproduces_longer_run_bitwise(self, tmp_path, monkeypatch):
        _run(tmp_path, monkeypatch, *self._args(["--set", "out=full", "--set", "steps=6"]))
        _run(tmp_path, monkeypatch, *self._args(["--set", "out=head", "--set", "steps=3"]))
        code = _run(
            tmp_path, monkeypatch,
            *self._args(
                [
                    "--set", "out=tail", "--set", "steps=3",
                    "--set", f"resume={tmp_path / 'head' / 'checkpoint.bin'}",
                ]
            ),
        )
        assert code == 0
        full = (tmp_path / "full" / "checkpoint.bin").read_bytes()
        resumed = (tmp_path / "tail" / "checkpoint.bin").read_bytes()
        assert full == resumed


class TestDiagnoseCommand:
    def test_outputs_and_heatmap_scaling(self, tmp_path, monkeypatch):
        train_args = [
            "train-lm", "--set", "out=m", "--set", "steps=3",
            "--set", "layers=2", "--set", "heads=2", "--set", "head_dim=4",
            "--set", "embed_dim=8", "--set", "ff_dim=16", "--set", "context=16",
            "--set", "corpus_length=1024", "--set", "eval_tokens=128",
            "--set", "batch_size=2",
        ]
        assert _run(tmp_path, monkeypatch, *train_args) == 0
        code = _run(
            tmp_path, monkeypatch, "diagnose",
            "--set", f"checkpoint={tmp_path / 'm' / 'checkpoint.bin'}",
            "--set", "out=d", "--set", "corpus_length=1024",
            "--set", "eval_tokens=64", "--set", "epsilons=0.1",
        )
        assert code == 0
        out = tmp_path / "d"
        diag = (out / "diagnostics.csv").read_text().splitlines()
        assert diag[0] == "metric,layer,value"
        body = [line.split(",") for line in diag[1:]]
        by_metric: dict[str, int] = {}
        for metric, _, _ in body:
            by_metric[metric] = by_metric.get(metric, 0) + 1
        assert all(count == 2 for count in by_metric.values())  # layers rows per metric
        heatmaps = sorted(out.glob("heatmap_*.csv"))
        assert len(heatmaps) == 4  # layers x heads
        text = heatmaps[0].read_text().splitlines()
        assert text[0].startswith("#")
        rows = np.array([[float(v) for v in line.split(",")[1:]] for line in text[2:]])
        live = rows.max(axis=1) > 0
        np.testing.assert_allclose(rows[live].max(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(rows.min(axis=1), 0.0, atol=1e-12)

    def test_runs_the_model_on_one_sequence_once(self, tmp_path, monkeypatch):
        # the heatmaps come from the diagnose report, not from a second pass
        from elliptical import model

        train_args = [
            "train-lm", "--set", "out=m", "--set", "steps=2",
            "--set", "layers=2", "--set", "heads=2", "--set", "head_dim=4",
            "--set", "embed_dim=8", "--set", "ff_dim=16", "--set", "context=16",
            "--set", "corpus_length=1024", "--set", "eval_tokens=64",
            "--set", "batch_size=2",
        ]
        assert _run(tmp_path, monkeypatch, *train_args) == 0
        shapes = []
        original = model.forward

        def counted(tokens, *args, **kwargs):
            shapes.append(np.shape(tokens))
            return original(tokens, *args, **kwargs)

        monkeypatch.setattr(model, "forward", counted)
        code = _run(
            tmp_path, monkeypatch, "diagnose",
            "--set", f"checkpoint={tmp_path / 'm' / 'checkpoint.bin'}",
            "--set", "out=d", "--set", "corpus_length=1024",
            "--set", "eval_tokens=64", "--set", "epsilons=0.1",
        )
        assert code == 0
        assert [s for s in shapes if len(s) == 1] == [(16,)]
        assert len(list((tmp_path / "d").glob("heatmap_*.csv"))) == 4


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["nw-sparse", "--set", "n=80", "--set", "seeds=5", "--set", "n_queries=40",
             "--set", "dim=3", "--set", "out=r"],
            ["edge-preserve", "--set", "n=60", "--set", "seeds=5",
             "--set", "est_points=200", "--set", "out=r"],
            ["estimator-bench", "--set", "seeds=3", "--set", "n=256", "--set", "out=r"],
            ["train-lm", "--set", "steps=3", "--set", "layers=2", "--set", "heads=2",
             "--set", "head_dim=4", "--set", "embed_dim=8", "--set", "ff_dim=16",
             "--set", "context=16", "--set", "corpus_length=1024",
             "--set", "eval_tokens=128", "--set", "batch_size=2", "--set", "out=r"],
            ["verify", "--set", "out=r"],
        ],
        ids=["nw-sparse", "edge-preserve", "estimator-bench", "train-lm", "verify"],
    )
    def test_rerun_is_byte_identical(self, tmp_path, monkeypatch, argv):
        first_root = tmp_path / "one"
        second_root = tmp_path / "two"
        for root in (first_root, second_root):
            monkeypatch.setenv("ELLIPTICAL_OUT", str(root))
            code = main(list(argv))
            assert code in (0, 1)
        assert _snapshot(first_root) == _snapshot(second_root)

    def test_diagnose_rerun_is_byte_identical(self, tmp_path, monkeypatch):
        train_args = [
            "train-lm", "--set", "out=m", "--set", "steps=3",
            "--set", "layers=2", "--set", "heads=2", "--set", "head_dim=4",
            "--set", "embed_dim=8", "--set", "ff_dim=16", "--set", "context=16",
            "--set", "corpus_length=1024", "--set", "eval_tokens=128",
            "--set", "batch_size=2",
        ]
        monkeypatch.setenv("ELLIPTICAL_OUT", str(tmp_path))
        assert main(list(train_args)) == 0
        ckpt = tmp_path / "m" / "checkpoint.bin"
        argv = [
            "diagnose", "--set", f"checkpoint={ckpt}", "--set", "corpus_length=1024",
            "--set", "eval_tokens=64", "--set", "epsilons=0.1,1.0", "--set", "out=r",
        ]
        first_root = tmp_path / "one"
        second_root = tmp_path / "two"
        for root in (first_root, second_root):
            monkeypatch.setenv("ELLIPTICAL_OUT", str(root))
            assert main(list(argv)) == 0
        assert _snapshot(first_root) == _snapshot(second_root)

    def test_config_echo_round_trip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ELLIPTICAL_OUT", str(tmp_path))
        argv = ["verify", "--set", "out=a", "--set", "seed=5"]
        assert main(argv) == 0
        echo = tmp_path / "a" / "config_echo.txt"
        assert main(["verify", "--config", str(echo), "--set", "out=b"]) == 0
        a = (tmp_path / "a" / "verify.csv").read_bytes()
        b = (tmp_path / "b" / "verify.csv").read_bytes()
        assert a == b
