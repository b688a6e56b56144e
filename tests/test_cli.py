"""Command-line contract: config parsing, usage errors, output files and
byte-level determinism of every subcommand."""

import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elliptical.cli import (
    COMMANDS,
    _PARSERS,
    UsageError,
    _parse_bool,
    load_config,
    main,
    parse_config_text,
)
from elliptical.numerics import derive_rng

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
            load_config({"n": int}, Args())

    def test_missing_required_key_named(self):
        class Args:
            config = None
            set = []

        with pytest.raises(UsageError, match="'n'"):
            load_config({"n": int}, Args())

    def test_bad_value_names_key(self):
        class Args:
            config = None
            set = ["n=abc"]

        with pytest.raises(UsageError, match="'n'"):
            load_config({"n": int}, Args())


_VALUES = st.sampled_from(["0", "-1", "2.5", "1e999", "nan", "true", "off", "", "9" * 5000])


def _config_lines(keys):
    """Lines of mostly known keys, with values each parser accepts or rejects,
    plus unknown keys and arbitrary text."""
    line = st.builds("{}{}{}".format, st.sampled_from(keys) | st.text(max_size=6),
                     st.sampled_from(["=", " = ", "==", " "]), _VALUES | st.text(max_size=12))
    return line | st.text(max_size=24)


class TestConfigFuzz:
    @given(st.text())
    @settings(max_examples=300, deadline=None)
    def test_config_text_parses_or_is_usage_error(self, text):
        try:
            cfg = parse_config_text(text)
        except UsageError:
            return
        assert all(key == key.strip() and value == value.strip() for key, value in cfg.items())

    @given(st.data(), st.sampled_from(sorted(COMMANDS)), st.none() | st.binary(max_size=64))
    @settings(max_examples=300, deadline=None)
    def test_config_file_and_set_items_load_or_are_usage_error(self, tmp_path_factory, data, command, raw):
        # a --config file (its lines, or raw bytes) plus --set items, for every subcommand
        schema = COMMANDS[command][0]
        lines = data.draw(st.lists(_config_lines(sorted(schema)), max_size=6))
        sets = data.draw(st.lists(_config_lines(sorted(schema)), max_size=3))
        path = tmp_path_factory.getbasetemp() / "fuzz.cfg"
        path.write_bytes("\n".join(lines).encode() if raw is None else raw)
        try:
            cfg = load_config(schema, SimpleNamespace(config=str(path), set=sets))
        except UsageError:
            return
        assert sorted(cfg) == sorted(schema)
        assert all(np.isfinite(v) for v in cfg.values() if isinstance(v, float)), cfg


_CORPUS = {
    "corpus": "synthetic", "corpus_file": "", "corpus_length": 8192,
    "corpus_symbols": 12, "corpus_order": 2,
}
#: every key of every subcommand and its default; a type in place of a default
#: marks a required key of that type
SCHEMAS = {
    "nw-sparse": {
        "n": int, "dim": 5, "seeds": 20, "seed": 0, "noise_std": 0.3, "n_queries": 500,
        "weights_source": "oracle", "scaling": "maxscale", "truth": "sparse",
        "out": "out/nw-sparse",
    },
    "edge-preserve": {
        "n": int, "seeds": 20, "seed": 0, "noise_std": 0.3, "query_offset": 0.3,
        "est_t": 0.1, "est_points": 2000, "out": "out/edge-preserve",
    },
    "estimator-bench": {
        "seeds": 20, "seed": 0, "n": 2048, "delta": 1.0, "noise_std": 0.01,
        "out": "out/estimator-bench",
    },
    "train-lm": {
        **_CORPUS, "steps": int, "eval_tokens": 1024, "layers": 4, "heads": 2,
        "head_dim": 16, "embed_dim": 32, "ff_dim": 64, "context": 64, "elliptical": False,
        "scaling": "maxscale", "delta": 1.0, "seed": 0, "lr": 3e-4, "batch_size": 8,
        "corrupt": False, "corrupt_rate": 0.025, "resume": "", "out": "out/train-lm",
    },
    "diagnose": {
        **_CORPUS, "checkpoint": str, "eval_tokens": 512, "epsilons": "0.01,0.1,1.0",
        "corrupt_rate": 0.025, "seed": 0, "out": "out/diagnose",
    },
    "verify": {"seed": 0, "out": "out/verify"},
}


def _parsers(schema):
    """Each key's default (or required type) and its parser, so 1 and 1.0
    (or 0 and False) differ."""
    return {
        key: (spec, _PARSERS[spec if isinstance(spec, type) else type(spec)])
        for key, spec in schema.items()
    }


class TestSchemas:
    @pytest.mark.parametrize("command", sorted(SCHEMAS))
    def test_keys_parsers_and_defaults_are_pinned(self, command):
        # train-lm keys come from ModelConfig and TrainParams fields, so a new
        # field shows up here as a CLI change
        assert _parsers(COMMANDS[command][0]) == _parsers(SCHEMAS[command])

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

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    @pytest.mark.parametrize("command", sorted(SCHEMAS))
    def test_seed_outside_64_bits_exits_2_with_one_line(
        self, tmp_path, monkeypatch, capsys, command, seed
    ):
        # the rng key holds 64 seed bits: -1 would run as 2**64 - 1, and 2**64 as 0
        assert "seed" in SCHEMAS[command]
        required = {"nw-sparse": ["--set", "n=40"], "edge-preserve": ["--set", "n=40"],
                    "train-lm": ["--set", "steps=1", *TINY],
                    "diagnose": ["--set", f"checkpoint={tmp_path / 'missing.bin'}"]}
        code = _run(tmp_path, monkeypatch, command, *required.get(command, []),
                    "--set", f"seed={seed}", "--set", "out=bad")
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "Traceback" not in err, err
        assert err.startswith(f"usage error: bad value for key 'seed': need 0 <= seed < 2**64, got {seed}")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_jobs_is_not_an_option_where_it_does_nothing(self, tmp_path, monkeypatch, capsys, command):
        assert _run(tmp_path, monkeypatch, command, "--jobs", "2") == 2
        err = capsys.readouterr().err
        assert err.splitlines() == ["usage error: unrecognized arguments: --jobs 2"], err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv",
        [["nw-sparse", "--jobs", "abc"], [], ["bogus"], ["verify", "--bogus"]],
        ids=["jobs-abc", "no-command", "unknown-command", "unknown-flag"],
    )
    def test_argparse_errors_are_one_usage_line(self, tmp_path, monkeypatch, capsys, argv):
        assert _run(tmp_path, monkeypatch, *argv) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("usage error: "), err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [["--help"], ["train-lm", "--help"]])
    def test_help_still_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out

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


def _vocab_mismatch(tmp_path):
    assert main(["train-lm", "--set", "steps=2", "--set", "out=m", *TINY]) == 0  # vocab 13
    (tmp_path / "short.txt").write_text("hello world")  # vocab 9
    return ["diagnose", "--set", f"checkpoint={tmp_path / 'm' / 'checkpoint.bin'}",
            "--set", "corpus=file", "--set", f"corpus_file={tmp_path / 'short.txt'}"]


def _header_edit(old: bytes, new: bytes):
    """A checkpoint damage that changes one config value in the JSON header."""
    def damage(data: bytes) -> bytes:
        magic, header, rest = data.split(b"\n", 2)
        assert old in header
        return b"\n".join([magic, header.replace(old, new), rest])
    return damage


def _resume_with_count(tmp_path, key: str, value: str):
    """train-lm resumed from a 2-step checkpoint whose header has ``key`` (step
    or adam_t) set to the JSON text ``value``."""
    assert main(["train-lm", "--set", "steps=2", "--set", "out=m", *TINY]) == 0
    path = tmp_path / "m" / "checkpoint.bin"
    edit = _header_edit(f'"{key}": 2'.encode(), f'"{key}": {value}'.encode())
    path.write_bytes(edit(path.read_bytes()))
    return _train_with(f"resume={path}", "out=r")


def _train_with(*items):
    return ["train-lm", "--set", "steps=3", *TINY, *(a for kv in items for a in ("--set", kv))]


def _diagnose_with(tmp_path, item):
    return [*_damaged_checkpoint(tmp_path, lambda b: b), "--set", item]


def _one_character_corpus(tmp_path):
    (tmp_path / "one.txt").write_text("a" * 2048)
    return _train_with("corpus=file", f"corpus_file={tmp_path / 'one.txt'}")


def _random_bytes_corpus(tmp_path):
    (tmp_path / "noise.bin").write_bytes(np.random.default_rng(0).bytes(4096))
    return ["train-lm", "--set", "steps=1", *TINY, "--set", "corpus=file",
            "--set", f"corpus_file={tmp_path / 'noise.bin'}"]


#: bad inputs that are not config syntax errors: each names its cause on one
#: line and exits 1
FAILURE_PROBES = {
    "truncated-checkpoint": lambda tmp: _damaged_checkpoint(tmp, lambda b: b[:-100]),
    # a header that disagrees with the tables: the config has a layer, a
    # context length or a hidden width the weights do not
    "checkpoint-header-layers": lambda tmp: _damaged_checkpoint(
        tmp, _header_edit(b'"layers": 2', b'"layers": 3')),
    "checkpoint-header-context": lambda tmp: _damaged_checkpoint(
        tmp, _header_edit(b'"context": 8', b'"context": 12')),
    "checkpoint-header-ff-dim": lambda tmp: _damaged_checkpoint(
        tmp, _header_edit(b'"ff_dim": 8', b'"ff_dim": 6')),
    # a resumed step or Adam count that is not an int >= 0, bools included
    "checkpoint-step-string": lambda tmp: _resume_with_count(tmp, "step", '"2"'),
    "checkpoint-adam_t-string": lambda tmp: _resume_with_count(tmp, "adam_t", '"3"'),
    "checkpoint-step-float": lambda tmp: _resume_with_count(tmp, "step", "2.5"),
    "checkpoint-adam_t-negative": lambda tmp: _resume_with_count(tmp, "adam_t", "-1"),
    "checkpoint-step-bool": lambda tmp: _resume_with_count(tmp, "step", "true"),
    # an Adam count other than the step would resume with the wrong bias correction
    "checkpoint-adam_t-mismatch": lambda tmp: _resume_with_count(tmp, "adam_t", "7"),
    # a config value of the wrong JSON type: an int field given a float, a bool given an int
    "checkpoint-header-seed-float": lambda tmp: _damaged_checkpoint(
        tmp, _header_edit(b'"seed": 0', b'"seed": 1.5')),
    "checkpoint-header-vocab-float": lambda tmp: _damaged_checkpoint(
        tmp, _header_edit(b'"vocab_size": 13', b'"vocab_size": 13.0')),
    "checkpoint-header-elliptical-int": lambda tmp: _damaged_checkpoint(
        tmp, _header_edit(b'"elliptical": false', b'"elliptical": 1')),
    "corpus-not-utf8": _random_bytes_corpus,
    "checkpoint-bad-magic": lambda tmp: _damaged_checkpoint(tmp, lambda b: b"NOT A CKPT\n" + b),
    "checkpoint-is-directory": lambda tmp: ["diagnose", "--set", f"checkpoint={tmp}"],
    "corpus-too-short": _short_corpus,
    "heads-mismatch": lambda tmp: ["train-lm", "--set", "steps=1", *TINY, "--set", "heads=3"],
    "bad-scaling": lambda tmp: ["train-lm", "--set", "steps=1", *TINY, "--set", "scaling=bogus"],
    # random is not a scaling mode, on the command line or in a checkpoint header
    "train-scaling-random": lambda tmp: _train_with("elliptical=true", "scaling=random"),
    "checkpoint-header-scaling-random": lambda tmp: _damaged_checkpoint(
        tmp, _header_edit(b'"scaling": "maxscale"', b'"scaling": "random"')),
    "diverging-lr": lambda tmp: ["train-lm", "--set", "steps=3", *TINY, "--set", "lr=1e9"],
    # an lr large enough to overflow inside a step, before the loss is formed
    "diverging-lr-1e150": lambda tmp: _train_with("elliptical=true", "lr=1e150"),
    "diverging-lr-1e300": lambda tmp: _train_with("elliptical=true", "lr=1e300"),
    "batch-size-zero": lambda tmp: _train_with("batch_size=0"),
    "batch-size-negative": lambda tmp: _train_with("batch_size=-1"),
    "steps-negative": lambda tmp: _train_with("steps=-1"),
    "lr-negative": lambda tmp: _train_with("lr=-1"),
    # a scale whose perturbation norm overflows, alone or after a good scale
    "epsilons-overflow": lambda tmp: _diagnose_with(tmp, "epsilons=1e200"),
    "epsilons-overflow-second": lambda tmp: _diagnose_with(tmp, "epsilons=0.0001,1e308"),
    # the first scale's norm overflows at layer 0, before the second scale's draw would
    "epsilons-overflow-before-a-later-draw": lambda tmp: _diagnose_with(tmp, "epsilons=1e200,1e308"),
    # a scale so small that the perturbation's norm underflows to 0
    "epsilons-underflow": lambda tmp: _diagnose_with(tmp, "epsilons=1e-200"),
    "corpus-vocab-mismatch": _vocab_mismatch,
    "too-few-seeds": lambda tmp: ["nw-sparse", "--set", "n=40", "--set", "seeds=2",
                                  "--set", "n_queries=20", "--set", "dim=2"],
    "no-queries": lambda tmp: ["nw-sparse", "--set", "n=40", "--set", "seeds=5",
                               "--set", "n_queries=0", "--set", "dim=2"],
    "no-est-points": lambda tmp: ["edge-preserve", "--set", "n=40", "--set", "seeds=5",
                                  "--set", "est_points=0"],
    "edge-est-t-zero": lambda tmp: ["edge-preserve", "--set", "n=60", "--set", "est_t=0"],
    "edge-n-zero": lambda tmp: ["edge-preserve", "--set", "n=0"],
    "edge-n-below-folds": lambda tmp: ["edge-preserve", "--set", "n=3"],
    "sparse-n-zero": lambda tmp: ["nw-sparse", "--set", "n=0", "--set", "dim=2"],
    "sparse-n-below-folds": lambda tmp: ["nw-sparse", "--set", "n=3", "--set", "dim=2"],
    "bench-noise-std-negative": lambda tmp: ["estimator-bench", "--set", "noise_std=-1"],
    "sparse-noise-std-negative": lambda tmp: ["nw-sparse", "--set", "n=40", "--set", "noise_std=-1"],
    "edge-noise-std-negative": lambda tmp: ["edge-preserve", "--set", "n=40", "--set", "noise_std=-1"],
    # model sizes below 1: numpy would raise on them, training diverge, or the FFN vanish
    "model-ff-dim-negative": lambda tmp: _train_with("ff_dim=-3"),
    "model-ff-dim-zero": lambda tmp: _train_with("ff_dim=0"),
    "model-heads-negative": lambda tmp: _train_with("heads=-1", "head_dim=-32", "embed_dim=32"),
    "model-heads-zero": lambda tmp: _train_with("heads=0", "embed_dim=0"),
    "model-head-dim-zero": lambda tmp: _train_with("head_dim=0", "embed_dim=0"),
    "model-layers-zero": lambda tmp: _train_with("layers=0"),
    "model-layers-one-elliptical": lambda tmp: _train_with("elliptical=true", "layers=1"),
    "train-corpus-length-negative": lambda tmp: _train_with("corpus_length=-5"),
    "diagnose-corpus-length-negative": lambda tmp: _diagnose_with(tmp, "corpus_length=-5"),
    "diagnose-corpus-length-one": lambda tmp: _diagnose_with(tmp, "corpus_length=1"),
    "corpus-symbols-one": lambda tmp: _train_with("corpus_symbols=1"),
    "corpus-order-zero": lambda tmp: _train_with("corpus_order=0"),
    # transition tables past model.MAX_TRANSITION_ENTRIES, rejected before a draw
    "corpus-table-order-20": lambda tmp: _train_with("corpus_order=20"),
    "corpus-table-26-symbols-order-12": lambda tmp: _train_with("corpus_symbols=26", "corpus_order=12"),
    # a 7.1 PiB draw, beyond the address space, so it fails at once
    "corpus-length-unallocatable": lambda tmp: _train_with("corpus_length=1000000000000000"),
    "corpus-one-character": _one_character_corpus,
    "sparse-weights-source-unknown": lambda tmp: ["nw-sparse", "--set", "n=40", "--set", "seeds=5",
                                                  "--set", "n_queries=20", "--set", "dim=2",
                                                  "--set", "weights_source=bogus"],
    # random is not a scaling mode, nor is bogus; both fail before a seed runs
    **{f"sparse-scaling-{mode}": lambda tmp, mode=mode: [
        "nw-sparse", "--set", "n=40", "--set", "seeds=5", "--set", "n_queries=20",
        "--set", "dim=2", "--set", f"scaling={mode}"] for mode in ("random", "bogus")},
    "edge-seeds-zero": lambda tmp: ["edge-preserve", "--set", "n=40", "--set", "seeds=0"],
    "bench-delta-zero": lambda tmp: ["estimator-bench", "--set", "seeds=1", "--set", "n=64",
                                     "--set", "delta=0"],
    # a step that overflows to inf puts a key at infinity, where the target is NaN
    "bench-delta-overflow": lambda tmp: ["estimator-bench", "--set", "seeds=1", "--set", "n=8",
                                         "--set", "delta=1.7e308"],
    # noise so large that a value overflows to inf, which the dataset or the estimator rejects
    **{f"{name}-noise-std-overflow": lambda tmp, command=command: [
        command, "--set", "n=10", "--set", "seeds=5", "--set", "noise_std=1e308"]
       for name, command in (("sparse", "nw-sparse"), ("edge", "edge-preserve"))},
    "bench-noise-std-overflow": lambda tmp: ["estimator-bench", "--set", "seeds=1", "--set", "n=10",
                                             "--set", "noise_std=1e308"],
}

#: what a probe's line must name: the step that diverged, the scale that overflows or
#: underflows, or the config key out of range
PROBES_NAME = {
    "diverging-lr-1e150": "error: step 1: ", "diverging-lr-1e300": "error: step 1: ",
    "epsilons-overflow": "scale 1e+200 ", "epsilons-overflow-second": "scale 1e+308 ",
    "epsilons-overflow-before-a-later-draw": "scale 1e+200 ",
    "epsilons-underflow": "error: epsilon scale 1e-200 underflows ",
    "no-queries": "n_queries", "no-est-points": "est_points", "edge-est-t-zero": "error: est_t ",
    "edge-n-zero": "error: n ", "edge-n-below-folds": "error: n ",
    "sparse-n-zero": "error: n ", "sparse-n-below-folds": "error: n ",
    "bench-noise-std-negative": "error: noise_std ",
    "sparse-noise-std-negative": "error: noise_std must be nonnegative",
    "edge-noise-std-negative": "error: noise_std must be nonnegative",
    **{f"{name}-noise-std-overflow": "error: matrix entries must be finite"
       for name in ("sparse", "edge", "bench")},
    "model-ff-dim-negative": "error: ff_dim must be at least 1, got -3",
    "model-ff-dim-zero": "error: ff_dim must be at least 1, got 0",
    "model-heads-negative": "error: heads must be at least 1, got -1",
    "model-heads-zero": "error: heads must be at least 1, got 0",
    "model-head-dim-zero": "error: head_dim must be at least 1, got 0",
    "model-layers-zero": "error: layers must be at least 1, got 0",
    "model-layers-one-elliptical": "error: need layers >= 2 for the metric-weighted variant",
    "train-corpus-length-negative": "error: length must be nonnegative, got -5",
    "diagnose-corpus-length-negative": "error: length must be nonnegative, got -5",
    "diagnose-corpus-length-one": "error: need at least two eval tokens",
    "corpus-symbols-one": "error: n_symbols must be in [2, 26]",
    "corpus-order-zero": "error: order must be at least 1",
    "corpus-table-order-20":
        "error: order 20 over n_symbols 12 needs a transition table of more than 4194304 entries",
    "corpus-table-26-symbols-order-12":
        "error: order 12 over n_symbols 26 needs a transition table of more than 4194304 entries",
    "corpus-length-unallocatable": "error: out of memory: ",
    "corpus-one-character": "error: corpus needs at least two distinct characters",
    "sparse-weights-source-unknown": "error: unknown weights_source 'bogus'",
    "sparse-scaling-random": "error: scaling must be one of maxscale, meanscale, unscaled, identity; got 'random'",
    "sparse-scaling-bogus": "error: scaling must be one of maxscale, meanscale, unscaled, identity; got 'bogus'",
    "edge-seeds-zero": "error: need at least one seed",
    "bench-delta-zero": "error: delta must be positive",
    "bench-delta-overflow": "error: separable_sinusoid produced non-finite output",
    **dict.fromkeys(
        ("checkpoint-step-string", "checkpoint-adam_t-string", "checkpoint-step-float",
         "checkpoint-adam_t-negative", "checkpoint-step-bool"),
        "checkpoint.bin: malformed checkpoint header (step ",
    ),
    "checkpoint-adam_t-mismatch": "checkpoint.bin: malformed checkpoint header (adam_t 7 differs from step 2)",
    "checkpoint-header-seed-float": "checkpoint.bin: malformed checkpoint header (seed must be int, got 1.5)",
    "checkpoint-header-vocab-float": "checkpoint.bin: malformed checkpoint header (vocab_size must be int, got 13.0)",
    "checkpoint-header-elliptical-int": "checkpoint.bin: malformed checkpoint header (elliptical must be bool, got 1)",
    "train-scaling-random": "error: unknown scaling mode 'random'",
    "checkpoint-header-scaling-random":
        "checkpoint.bin: malformed checkpoint header (unknown scaling mode 'random')",
}

#: rates outside [0, 1]: each is a usage error that names its key, before a
#: model is trained or anything is written
OUT_OF_RANGE_PROBES = {
    "train-lm-corrupt-rate-above-one": lambda tmp: _train_with("corrupt=true", "corrupt_rate=1.5"),
    "train-lm-corrupt-rate-negative": lambda tmp: _train_with("corrupt=true", "corrupt_rate=-0.5"),
    "diagnose-corrupt-rate-five": lambda tmp: _diagnose_with(tmp, "corrupt_rate=5"),
}

#: counts below their minimum: each is a usage error that names its key,
#: before any work is done
BELOW_MINIMUM_PROBES = {
    "nw-sparse-dim-zero": (["nw-sparse", "--set", "n=40", "--set", "dim=0"], "dim"),
    "estimator-bench-seeds-zero": (["estimator-bench", "--set", "seeds=0"], "seeds"),
    "estimator-bench-n-zero": (["estimator-bench", "--set", "n=0"], "n"),
}

#: float values that are not finite numbers: each is a usage error that names
#: its key, before any work is done
NON_FINITE_PROBES = {
    "nw-sparse-noise-nan": (["nw-sparse", "--set", "n=40", "--set", "seeds=5", "--set", "dim=2",
                             "--set", "noise_std=nan"], "noise_std"),
    "edge-preserve-noise-nan": (["edge-preserve", "--set", "n=40", "--set", "seeds=5",
                                 "--set", "noise_std=nan"], "noise_std"),
    "edge-preserve-offset-nan": (["edge-preserve", "--set", "n=40", "--set", "seeds=5",
                                  "--set", "query_offset=nan"], "query_offset"),
    "train-lm-delta-nan": (_train_with("elliptical=true", "delta=nan", "context=32"), "delta"),
    "train-lm-delta-inf": (_train_with("elliptical=true", "delta=inf"), "delta"),
    "train-lm-corrupt-rate-nan": (_train_with("corrupt=true", "corrupt_rate=nan"), "corrupt_rate"),
    "estimator-bench-delta-overflow": (["estimator-bench", "--set", "delta=1e999"], "delta"),
}


def _resume_other_config(tmp_path):
    """train-lm resumed from a checkpoint trained with another ``delta``."""
    assert main(["train-lm", "--set", "steps=2", "--set", "out=m", *TINY]) == 0
    return _train_with(f"resume={tmp_path / 'm' / 'checkpoint.bin'}", "delta=0.5", "out=r")


#: values and files a run cannot use, each rejected before anything is written:
#: (argv, exit status, the start of the one stderr line)
REJECTED_INPUT_PROBES = {
    "corrupt-not-a-boolean": (lambda tmp: _train_with("corrupt=maybe"), 2,
                              "usage error: bad value for key 'corrupt': not a boolean: 'maybe'"),
    "corpus-unknown": (lambda tmp: _train_with("corpus=bogus"), 2,
                       "usage error: bad value for key 'corpus': 'bogus'"),
    "resume-other-config": (_resume_other_config, 2,
                            "usage error: resume checkpoint was trained with a different config"),
    "config-file-missing": (lambda tmp: ["verify", "--config", str(tmp / "none.cfg")], 1,
                            "file error: config file "),
    "resume-missing": (lambda tmp: _train_with(f"resume={tmp / 'none.bin'}"), 1,
                       "file error: checkpoint "),
    "truth-unknown": (lambda tmp: ["nw-sparse", "--set", "n=40", "--set", "truth=bogus"], 2,
                      "usage error: bad value for key 'truth': 'bogus'"),
    "corpus-file-missing": (lambda tmp: _train_with("corpus=file", f"corpus_file={tmp / 'none.txt'}"),
                            1, "file error: corpus file "),
    "corpus-file-unset": (lambda tmp: _train_with("corpus=file"), 1,
                          "file error: corpus file '' does not exist"),
}


class TestCleanFailures:
    @pytest.mark.parametrize("probe", sorted(FAILURE_PROBES))
    def test_exits_1_with_one_line(self, tmp_path, monkeypatch, capsys, probe):
        monkeypatch.setenv("ELLIPTICAL_OUT", str(tmp_path))
        argv = FAILURE_PROBES[probe](tmp_path)
        before = _snapshot(tmp_path)
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err
        assert err.startswith("error: ") and "Traceback" not in err
        assert PROBES_NAME.get(probe, "") in err
        assert _snapshot(tmp_path) == before  # no output file, new or changed

    @pytest.mark.parametrize("probe", sorted(NON_FINITE_PROBES))
    def test_non_finite_float_exits_2_with_one_line(self, tmp_path, monkeypatch, capsys, probe):
        argv, key = NON_FINITE_PROBES[probe]
        before = _snapshot(tmp_path)
        code = _run(tmp_path, monkeypatch, *argv)
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err
        assert err.startswith(f"usage error: bad value for key {key!r}: not a finite number")
        assert _snapshot(tmp_path) == before

    @pytest.mark.parametrize("probe", sorted(OUT_OF_RANGE_PROBES))
    def test_rate_out_of_range_exits_2_with_one_line(self, tmp_path, monkeypatch, capsys, probe):
        monkeypatch.setenv("ELLIPTICAL_OUT", str(tmp_path))
        argv = OUT_OF_RANGE_PROBES[probe](tmp_path)
        before = _snapshot(tmp_path)
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err
        assert err.startswith("usage error: bad value for key 'corrupt_rate': need 0 <= corrupt_rate <= 1")
        assert _snapshot(tmp_path) == before

    @pytest.mark.parametrize("probe", sorted(BELOW_MINIMUM_PROBES))
    def test_count_below_minimum_exits_2_with_one_line(self, tmp_path, monkeypatch, capsys, probe):
        argv, key = BELOW_MINIMUM_PROBES[probe]
        before = _snapshot(tmp_path)
        code = _run(tmp_path, monkeypatch, *argv)
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err
        assert err.startswith(f"usage error: bad value for key {key!r}: need at least 1")
        assert _snapshot(tmp_path) == before

    @pytest.mark.parametrize("probe", sorted(REJECTED_INPUT_PROBES))
    def test_rejected_input_exits_with_one_line(self, tmp_path, monkeypatch, capsys, probe):
        monkeypatch.setenv("ELLIPTICAL_OUT", str(tmp_path))
        make_argv, status, line = REJECTED_INPUT_PROBES[probe]
        argv = make_argv(tmp_path)
        before = _snapshot(tmp_path)
        capsys.readouterr()
        assert main(argv) == status
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err
        assert err.startswith(line) and "Traceback" not in err
        assert _snapshot(tmp_path) == before

    def test_corrupt_off_parses_as_false(self, tmp_path, monkeypatch, capsys):
        assert [_parse_bool(t) for t in ("off", "0", "False", " no ")] == [False] * 4
        assert _run(tmp_path, monkeypatch, *_train_with("corrupt=off")) == 0
        assert capsys.readouterr().err == ""
        metrics = (tmp_path / "out" / "train-lm" / "metrics.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in metrics] == ["metric", "ppl_clean"]
        echo = (tmp_path / "out" / "train-lm" / "config_echo.txt").read_text()
        assert "corrupt = false" in echo.splitlines()

    def test_config_file_not_utf8_is_usage_error(self, tmp_path, monkeypatch, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(b"seed = 0\n\xff\n")
        code = _run(tmp_path, monkeypatch, "verify", "--config", str(bad))
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err
        assert err.startswith("usage error: ") and str(bad) in err

    def test_failed_run_leaves_the_directory_unchanged(self, tmp_path, monkeypatch):
        # a run that fails must not touch a finished run's files, its config echo included
        monkeypatch.setenv("ELLIPTICAL_OUT", str(tmp_path))
        assert main(["train-lm", "--set", "steps=1", *TINY, "--set", "out=run"]) == 0
        before = _snapshot(tmp_path / "run")
        assert "config_echo.txt" in before
        diverging = ["train-lm", "--set", "steps=3", *TINY, "--set", "lr=1e9", "--set", "out=run"]
        assert main(diverging) == 1
        assert _snapshot(tmp_path / "run") == before


    def test_failed_run_into_a_fresh_directory_leaves_none(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ELLIPTICAL_OUT", str(tmp_path))
        diverging = ["train-lm", "--set", "steps=3", *TINY, "--set", "lr=1e9", "--set", "out=fresh"]
        assert main(diverging) == 1
        assert not (tmp_path / "fresh").exists()


class TestVerifyCommand:
    def test_default_run_passes(self, tmp_path, monkeypatch, capsys):
        code = _run(tmp_path, monkeypatch, "verify", "--set", "out=v1")
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 4
        assert (tmp_path / "v1" / "verify.csv").exists()

    def test_kappa_corruption_fails_jacobian_suite(self, tmp_path, monkeypatch, capsys):
        # negative control: coefficients one below the true ones must break the envelope
        from elliptical import verification

        true_kappa = verification.compute_kappa
        monkeypatch.setattr(verification, "compute_kappa", lambda keys: true_kappa(keys) - 1.0)
        code = _run(tmp_path, monkeypatch, "verify", "--set", "out=v2")
        assert code == 1
        out = capsys.readouterr().out
        assert "masa-jacobian: FAIL" in out

    def test_identity_metric_off_by_an_ulp_fails_identity_suite(self, tmp_path, monkeypatch, capsys):
        # negative control: identity rows one ulp above 1 must break the bitwise reduction
        from elliptical import model

        true_scale_rows = model.scale_rows

        def off_by_an_ulp(raw, mode):
            rows = true_scale_rows(raw, mode)
            return np.full_like(rows, np.nextafter(1.0, 2.0)) if mode == "identity" else rows

        monkeypatch.setattr(model, "scale_rows", off_by_an_ulp)
        code = _run(tmp_path, monkeypatch, "verify", "--set", "out=v4")
        assert code == 1
        out = capsys.readouterr().out
        assert "identity-reduction: FAIL" in out and out.count("PASS") == 3

    def test_exit_status_contract(self, tmp_path, monkeypatch):
        assert _run(tmp_path, monkeypatch, "verify", "--set", "out=v3") == 0

    def _count_kernel_calls(self, monkeypatch) -> list:
        from elliptical import attention, verification

        calls = []
        true_kernel = attention.weighted_kernel

        def counting(*args, **kwargs):
            calls.append(1)
            return true_kernel(*args, **kwargs)

        monkeypatch.setattr(attention, "weighted_kernel", counting)
        monkeypatch.setattr(verification, "weighted_kernel", counting)
        return calls

    def test_jacobian_suite_calls_masa_at_most_four_times_per_instance(self, monkeypatch):
        # the suite keeps its masa-jacobian name; it runs the kernel once inside the
        # analytic Jacobian and three times for all central differences
        from elliptical import verification

        calls = self._count_kernel_calls(monkeypatch)
        assert verification.suite_masa_jacobian(n_instances=25).passed
        assert 0 < len(calls) <= 4 * 25

    def test_jacobian_suite_calls_masa_at_most_four_times_per_shape(self, monkeypatch):
        # one stack per (n, d) shape: one kernel call in the analytic Jacobian, three
        # for the oracle
        from elliptical import verification

        rng = derive_rng(0, 21, 1)  # the suite's stream at seed 0
        shapes = {verification._random_instance(rng)[1].shape for _ in range(200)}
        calls = self._count_kernel_calls(monkeypatch)
        assert verification.suite_masa_jacobian(n_instances=200).passed
        assert 0 < len(calls) <= 4 * len(shapes)


class TestNWSparseCommand:
    def test_equal_truth_passes_when_the_gap_is_within_noise(self, tmp_path, monkeypatch, capsys):
        # truth=equal: every coordinate matters, so no metric should beat Euclidean
        code = _run(tmp_path, monkeypatch, "nw-sparse", "--set", "truth=equal",
                    "--set", "n=100", "--set", "seeds=5", "--set", "out=nw")
        assert code == 0
        out = capsys.readouterr().out
        assert re.fullmatch(r"nw-sparse direction: PASS \(\|gap\|=\S+ vs 2\*pooled_se=\S+\)\n", out), out
        last = (tmp_path / "nw" / "results.csv").read_text().splitlines()[-1]
        assert last.split(",")[-2:] == ["direction_pass", "1.0"]


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

    def test_alternating_corpus_trains_on_two_symbols(self, tmp_path, monkeypatch):
        from elliptical import model

        code = _run(tmp_path, monkeypatch,
                    *self._args(["--set", "out=alt", "--set", "corpus=alternating"]))
        assert code == 0
        ckpt = model.load_checkpoint(tmp_path / "alt" / "checkpoint.bin")
        assert ckpt.cfg.vocab_size == 3  # "ab" plus the corruption token

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


    def test_rerun_with_fewer_heads_removes_stale_heatmaps(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ELLIPTICAL_OUT", str(tmp_path))
        for heads in (2, 1):
            train = ["train-lm", "--set", "steps=0", *TINY, "--set", f"heads={heads}",
                     "--set", f"embed_dim={4 * heads}", "--set", f"out=m{heads}"]
            assert main(train) == 0
            diag = ["diagnose", "--set", f"checkpoint={tmp_path / f'm{heads}' / 'checkpoint.bin'}",
                    "--set", "corpus_length=1024", "--set", "epsilons=0.1", "--set", "out=d"]
            assert main(diag) == 0
            maps = sorted(p.name for p in (tmp_path / "d").glob("heatmap_*.csv"))
            assert maps == [f"heatmap_l{li}_h{h}.csv" for li in (1, 2) for h in range(heads)]


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
