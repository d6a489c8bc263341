"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.cli import build_parser, main

SOURCE = "int square(int x) { return x * x; }\nint main() { return square(5); }\n"


@pytest.fixture()
def source_file(tmp_path):
    path = tmp_path / "prog.c"
    path.write_text(SOURCE)
    return str(path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "x.c"])
        assert args.isa == "x86like"
        assert not args.psr and not args.hipstr
        assert args.opt_level == 3


class TestCommands:
    def test_run_native(self, source_file, capsys):
        code = main(["run", source_file])
        assert code == 25
        assert "[native/x86like] exit=25" in capsys.readouterr().out

    def test_run_armlike(self, source_file, capsys):
        code = main(["run", source_file, "--isa", "armlike"])
        assert code == 25

    def test_run_psr(self, source_file, capsys):
        code = main(["run", source_file, "--psr", "--seed", "7"])
        assert code == 25
        out = capsys.readouterr().out
        assert "[psr/x86like] exit=25" in out
        assert "units=" in out

    def test_run_hipstr(self, source_file, capsys):
        code = main(["run", source_file, "--hipstr"])
        assert code == 25
        assert "migrations=" in capsys.readouterr().out

    def test_stdin_file(self, source_file, tmp_path, capsys):
        stdin_path = tmp_path / "input.bin"
        stdin_path.write_bytes(b"ignored")
        code = main(["run", source_file, "--stdin-file", str(stdin_path)])
        assert code == 25

    def test_disasm(self, source_file, capsys):
        assert main(["disasm", source_file]) == 0
        out = capsys.readouterr().out
        assert "_start:" in out
        assert "square:" in out
        assert "call" in out

    def test_gadgets(self, source_file, capsys):
        assert main(["gadgets", source_file]) == 0
        out = capsys.readouterr().out
        assert "x86like" in out and "armlike" in out

    def test_gadgets_with_psr(self, source_file, capsys):
        assert main(["gadgets", source_file, "--psr"]) == 0
        assert "obfuscated" in capsys.readouterr().out

    def test_experiment_fig7(self, capsys):
        assert main(["experiment", "fig7"]) == 0
        assert "Entropy" in capsys.readouterr().out

    def test_experiment_unknown(self, capsys):
        assert main(["experiment", "nope"]) == 2

    def test_exploit_demo(self, capsys):
        assert main(["exploit-demo"]) == 0
        out = capsys.readouterr().out
        assert "shell spawned = True" in out
        assert "shell spawned = False" in out


class TestRuntimeFlags:
    def test_experiment_accepts_runtime_flags(self):
        args = build_parser().parse_args(
            ["experiment", "fig3", "-j", "4", "--no-cache",
             "--cache-dir", "/tmp/x", "--cache-stats"])
        assert args.workers == 4
        assert args.no_cache and args.cache_stats
        assert args.cache_dir == "/tmp/x"

    def test_experiment_with_workers(self, capsys):
        assert main(["experiment", "fig3", "--workers", "2"]) == 0
        assert "Classic ROP" in capsys.readouterr().out

    def test_experiment_cache_stats(self, capsys):
        assert main(["experiment", "fig3", "--cache-stats"]) == 0
        assert "[cache]" in capsys.readouterr().out


class TestDurableFlags:
    def test_parser_accepts_journal_flags(self):
        args = build_parser().parse_args(
            ["experiment", "fig3", "--journal", "/tmp/j",
             "--breaker", "2", "--force"])
        assert args.journal == "/tmp/j"
        assert args.force
        assert args.breaker == 2

    def test_runs_without_directory_errors(self, capsys):
        assert main(["runs", "list"]) == 2
        assert "REPRO_JOURNAL" in capsys.readouterr().err

    def test_resume_without_directory_errors(self, capsys):
        assert main(["resume", "latest"]) == 2
        assert "REPRO_JOURNAL" in capsys.readouterr().err

    def test_resume_unknown_run_errors(self, tmp_path, capsys):
        assert main(["resume", "nope", "--journal", str(tmp_path)]) == 2
        assert "no run" in capsys.readouterr().err

    def test_journaled_experiment_and_runs_list(self, tmp_path, capsys):
        journal_dir = str(tmp_path / "journal")
        assert main(["experiment", "table2", "--journal", journal_dir]) == 0
        out = capsys.readouterr().out
        assert "[journal] run" in out
        assert "resumed=0 recomputed=0" in out
        assert main(["runs", "list", "--journal", journal_dir]) == 0
        listing = capsys.readouterr().out
        assert "finished" in listing
        assert "experiment table2" in listing

    def test_journal_env_var(self, tmp_path, capsys, monkeypatch):
        journal_dir = tmp_path / "journal-env"
        monkeypatch.setenv("REPRO_JOURNAL", str(journal_dir))
        assert main(["experiment", "table2"]) == 0
        assert journal_dir.is_dir()
        assert list(journal_dir.glob("*.journal.jsonl"))


class TestTypedErrors:
    """Bad input must print one ``error:`` line and exit 1 — never a
    traceback (the ``report`` convention, now shared by transpile,
    chaos, and resume)."""

    def test_chaos_missing_corpus(self, capsys):
        assert main(["chaos", "--corpus", "/does/not/exist.json"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_chaos_bad_rate_scale(self, capsys):
        assert main(["chaos", "--rate-scale", "-2",
                     "--iterations", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "must be in [0, 1]" in err

    def test_transpile_missing_corpus(self, capsys):
        assert main(["transpile", "--corpus",
                     "/does/not/exist.json"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_transpile_malformed_corpus(self, tmp_path, capsys):
        bad = tmp_path / "corpus.json"
        bad.write_text("{not json")
        assert main(["transpile", "--corpus", str(bad)]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_resume_argv_mismatch_is_typed(self, tmp_path, capsys):
        # tamper a journal so its argv no longer re-digests to the
        # recorded config digest; this used to escape cmd_resume as a
        # ResumeMismatchError traceback
        import json
        from repro.runtime.durable import RunJournal
        journal = RunJournal.create(tmp_path,
                                    argv=["experiment", "fig7"])
        journal.append("job_started", slot=0, key="k")
        journal.close()                      # interrupted, resumable
        lines = journal.path.read_text().splitlines()
        doctored = []
        for line in lines:
            record = json.loads(line)
            if record.get("type") == "run_started":
                record["argv"] = ["experiment", "fig8"]
            doctored.append(json.dumps(record, sort_keys=True))
        journal.path.write_text("\n".join(doctored) + "\n")
        assert main(["resume", "latest", "--journal",
                     str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "refusing to replay" in err
        assert "Traceback" not in err

    def test_resume_of_a_removed_command_is_typed(self, tmp_path, capsys):
        # a journal recorded by an older version whose command line this
        # parser rejects: one error line, no usage dump, journal untouched
        from repro.runtime.durable import RunJournal
        journal = RunJournal.create(tmp_path,
                                    argv=["bench", "--benchmarks", "mcf"])
        journal.append("job_started", slot=0, key="k")
        journal.close()                      # interrupted, resumable
        before = journal.path.read_bytes()
        assert main(["resume", "latest", "--journal",
                     str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert len(captured.err.splitlines()) == 1
        assert journal.run_id in captured.err
        assert "bench --benchmarks mcf'" in captured.err
        assert "usage:" not in captured.err + captured.out
        assert "[journal] resuming" not in captured.out
        assert journal.path.read_bytes() == before


class TestServeParser:
    def test_serve_flags_parse(self):
        args = build_parser().parse_args(
            ["serve", "--journal", "/tmp/j", "--port", "0",
             "--tenant-quota", "3", "--queue-limit", "16",
             "--breaker-cooldown", "2.5", "--deadline-ms", "4000",
             "--allow-kill"])
        assert args.journal == "/tmp/j"
        assert args.tenant_quota == 3
        assert args.breaker_cooldown == 2.5
        assert args.allow_kill

    def test_serve_requires_journal(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_JOURNAL", raising=False)
        assert main(["serve"]) == 2
        assert "--journal" in capsys.readouterr().err

    def test_chaos_serve_flags_parse(self):
        args = build_parser().parse_args(
            ["chaos", "--serve", "--requests", "12",
             "--serve-clients", "2", "--tenant-quota", "5"])
        assert args.serve and args.requests == 12
        assert args.serve_clients == 2 and args.tenant_quota == 5

    def test_breaker_cooldown_flag_on_experiment(self):
        args = build_parser().parse_args(
            ["experiment", "fig3", "--breaker-cooldown", "1.5"])
        assert args.breaker_cooldown == 1.5
