"""Unit tests for the command-line interface."""

from __future__ import annotations

import io
import json
import textwrap

import pytest

from repro.api.errors import ReproError
from repro.cli import build_parser, load_classes_from_file, main

APP_SOURCE = textwrap.dedent(
    '''
    """A tiny application used by the CLI tests."""

    from repro.core.introspect import native


    class Ledger:
        RATE = 3

        def __init__(self, owner):
            self.owner = owner
            self.balance = 0

        def credit(self, amount):
            self.balance = self.balance + amount
            return self.balance

        @staticmethod
        def convert(amount):
            return amount * Ledger.RATE


    class NativeBridge:
        @native
        def poke(self, register):
            return register
    '''
)


@pytest.fixture
def app_file(tmp_path):
    path = tmp_path / "ledger_app.py"
    path.write_text(APP_SOURCE, encoding="utf-8")
    return path


def run_cli(*argv: str) -> tuple[int, str]:
    buffer = io.StringIO()
    code = main(list(argv), out=buffer)
    return code, buffer.getvalue()


class TestClassLoading:
    def test_loads_only_classes_defined_in_the_file(self, app_file):
        classes = load_classes_from_file(app_file)
        assert {cls.__name__ for cls in classes} == {"Ledger", "NativeBridge"}

    def test_subset_selection(self, app_file):
        classes = load_classes_from_file(app_file, ["Ledger"])
        assert [cls.__name__ for cls in classes] == ["Ledger"]

    def test_missing_class_is_an_error(self, app_file):
        with pytest.raises(ReproError):
            load_classes_from_file(app_file, ["Ghost"])

    def test_missing_file_is_an_error(self, tmp_path):
        with pytest.raises(ReproError):
            load_classes_from_file(tmp_path / "nope.py")


class TestAnalyzeCommand:
    def test_analyze_reports_both_outcomes(self, app_file):
        code, output = run_cli("analyze", str(app_file))
        assert code == 0
        assert "[ok]   Ledger" in output
        assert "[skip] NativeBridge" in output
        assert "native" in output

    def test_analyze_subset(self, app_file):
        code, output = run_cli("analyze", str(app_file), "--classes", "Ledger")
        assert code == 0
        assert "NativeBridge" not in output

    def test_analyze_missing_file_reports_error(self, tmp_path):
        code, output = run_cli("analyze", str(tmp_path / "missing.py"))
        assert code == 2
        assert "error:" in output


class TestEmitCommand:
    def test_emit_prints_generated_artifacts(self, app_file):
        code, output = run_cli("emit", str(app_file), "--cls", "Ledger")
        assert code == 0
        assert "Ledger_O_Int" in output
        assert "Ledger_O_Local" in output
        assert "Ledger_O_Factory" in output
        assert "that.set_owner(owner)" in output

    def test_emit_respects_transport_selection(self, app_file):
        code, output = run_cli("emit", str(app_file), "--cls", "Ledger", "--transports", "corba")
        assert code == 0
        assert "Ledger_O_Proxy_CORBA" in output
        assert "Ledger_O_Proxy_SOAP" not in output

    def test_emit_for_non_transformable_class_fails(self, app_file):
        code, output = run_cli("emit", str(app_file), "--cls", "NativeBridge")
        assert code == 1
        assert "was not transformed" in output


class TestReportCommand:
    def test_report_without_policy(self, app_file):
        code, output = run_cli("report", str(app_file))
        assert code == 0
        assert "RAFDA transformed application" in output
        assert "Ledger" in output

    def test_report_with_policy_file(self, app_file, tmp_path):
        policy_path = tmp_path / "policy.json"
        policy_path.write_text(
            json.dumps(
                {"classes": {"Ledger": {"placement": "remote", "node": "server"}}}
            ),
            encoding="utf-8",
        )
        code, output = run_cli("report", str(app_file), "--policy", str(policy_path))
        assert code == 0
        assert "instances on 'server'" in output


class TestCorpusAndTemplateCommands:
    def test_corpus_study_smoke(self):
        code, output = run_cli("corpus-study", "--seed", "7")
        assert code == 0
        assert "corpus classes            : 8200" in output
        assert "%" in output

    def test_policy_template_round_robin(self):
        code, output = run_cli(
            "policy-template", "--classes", "A,B,C", "--nodes", "n1,n2", "--transport", "soap"
        )
        assert code == 0
        config = json.loads(output)
        assert config["classes"]["A"]["node"] == "n1"
        assert config["classes"]["B"]["node"] == "n2"
        assert config["classes"]["C"]["node"] == "n1"
        assert config["classes"]["A"]["transport"] == "soap"

    def test_policy_template_requires_arguments(self):
        code, output = run_cli("policy-template", "--classes", "", "--nodes", "n1")
        assert code == 1

    def test_parser_lists_all_subcommands(self):
        parser = build_parser()
        help_text = parser.format_help()
        for command in (
            "analyze",
            "emit",
            "report",
            "corpus-study",
            "policy-template",
            "bench-batching",
            "bench-pipelining",
            "bench-replication",
            "bench-partition",
        ):
            assert command in help_text


class TestBenchPipeliningCommand:
    def test_reports_speedup_per_transport(self):
        code, output = run_cli(
            "bench-pipelining", "--transports", "rmi", "--orders", "64",
            "--batch-size", "16", "--window", "4", "--shards", "2",
        )
        assert code == 0
        assert "rmi" in output
        assert "x" in output  # a speedup column was printed

    def test_rejects_unknown_transports(self):
        code, output = run_cli("bench-pipelining", "--transports", "carrier-pigeon")
        assert code == 1
        assert "unknown transports" in output

    def test_rejects_degenerate_window(self):
        code, output = run_cli("bench-pipelining", "--window", "1")
        assert code == 1
        assert "--window" in output


def _row(output: str, *prefix: str) -> list[str]:
    """The columns of the one output line whose leading columns are ``prefix``."""
    rows = [
        line.split()
        for line in output.splitlines()
        if line.split()[: len(prefix)] == list(prefix)
    ]
    assert len(rows) == 1, output
    return rows[0]


class TestBenchBatchingCommand:
    def test_reports_speedup_per_transport(self):
        code, output = run_cli(
            "bench-batching", "--transports", "rmi", "--orders", "64", "--batch-size", "16",
        )
        assert code == 0
        speedup = _row(output, "rmi")[-1]
        assert speedup.endswith("x")
        assert float(speedup[:-1]) > 1.0

    def test_rejects_degenerate_batch_size(self):
        code, output = run_cli("bench-batching", "--batch-size", "1")
        assert code == 1
        assert "--batch-size" in output


class TestBenchCachingCommand:
    def test_reports_hit_rate_and_zero_stale_reads(self):
        code, output = run_cli("bench-caching", "--transports", "rmi", "--rounds", "4")
        assert code == 0
        columns = _row(output, "rmi")
        assert columns[-2].endswith("%")  # the hit rate
        assert columns[-1] == "0"  # stale reads

    def test_rejects_unknown_mode(self):
        code, output = run_cli("bench-caching", "--mode", "psychic")
        assert code == 1
        assert "--mode" in output


class TestBenchLoadCommand:
    def test_sweep_reports_each_point_and_the_knee(self):
        code, output = run_cli("bench-load", "--duration", "0.5")
        assert code == 0
        points = [line for line in output.splitlines() if line.split()[0].endswith("/s")]
        assert len(points) == 4  # one row per default offered-load multiple
        assert "saturation knee at" in output

    def test_rejects_non_numeric_loads(self):
        code, output = run_cli("bench-load", "--loads", "0.5,lots")
        assert code == 1
        assert "--loads" in output


class TestBenchMiddlewareCommand:
    def test_rate_limit_protects_the_polite_tenant(self):
        code, output = run_cli("bench-middleware", "--duration", "0.5")
        assert code == 0
        unlimited = _row(output, "unlimited", "polite")[-1]
        limited = _row(output, "limited", "polite")[-1]
        assert float(limited.rstrip("%")) > float(unlimited.rstrip("%"))

    def test_rejects_unknown_transport(self):
        code, output = run_cli("bench-middleware", "--transport", "carrier-pigeon")
        assert code == 1
        assert "unknown transport" in output


class TestBenchReplicationCommand:
    def test_kill_run_reports_zero_losses(self):
        code, output = run_cli(
            "bench-replication", "--transports", "rmi", "--orders", "64",
            "--batch-size", "16", "--window", "4",
        )
        assert code == 0
        assert "killing 'shard-0'" in output
        lines = [line for line in output.splitlines() if line.startswith("rmi")]
        assert len(lines) == 1
        columns = lines[0].split()
        assert columns[1] == "64"  # every order accepted
        assert columns[2] == "0"  # zero client-visible failures
        assert columns[3] == "1"  # exactly one failover

    def test_no_kill_steady_state(self):
        code, output = run_cli(
            "bench-replication", "--transports", "rmi", "--orders", "32", "--no-kill",
        )
        assert code == 0
        assert "killing" not in output

    def test_rejects_unknown_transports(self):
        code, output = run_cli("bench-replication", "--transports", "carrier-pigeon")
        assert code == 1
        assert "unknown transports" in output

    def test_rejects_single_shard(self):
        code, output = run_cli("bench-replication", "--shards", "1")
        assert code == 1
        assert "--shards" in output

    def test_rejects_unknown_sync_mode(self):
        code, output = run_cli("bench-replication", "--sync", "psychic")
        assert code == 1
        assert "--sync" in output


class TestBenchPartitionCommand:
    def test_single_cell_reports_safety(self):
        code, output = run_cli(
            "bench-partition", "--transports", "inproc", "--cells", "A",
        )
        assert code == 0
        assert "every cell safe" in output
        assert "FAIL" not in output
        lines = [line for line in output.splitlines() if line.startswith("inproc")]
        assert len(lines) == 1
        columns = lines[0].split()
        assert columns[3] == "0"  # zero acknowledged writes lost
        assert columns[4] == "0"  # zero stale cached reads
        assert columns[6] == "1"  # cell A promotes exactly once

    def test_cells_are_case_insensitive(self):
        code, output = run_cli(
            "bench-partition", "--transports", "inproc", "--cells", "b",
        )
        assert code == 0
        assert " B " in output

    def test_rejects_unknown_transports(self):
        code, output = run_cli("bench-partition", "--transports", "carrier-pigeon")
        assert code == 1
        assert "unknown transports" in output

    def test_rejects_unknown_cells(self):
        code, output = run_cli("bench-partition", "--cells", "Z")
        assert code == 1
        assert "unknown cells" in output
