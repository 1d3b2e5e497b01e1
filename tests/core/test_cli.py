"""Tests for the command-line interface."""

from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_subcommands_registered(self):
        parser = build_parser()
        for command in ("matrix", "vantage", "risk", "syria", "sav", "ethics"):
            args = parser.parse_args([command] if command != "risk"
                                     else [command, "--technique", "spam"])
            assert args.command == command

    def test_risk_technique_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["risk", "--technique", "nonsense"])


class TestCommands:
    def test_ethics(self, capsys):
        assert main(["ethics", "--prefix", "16"]) == 0
        out = capsys.readouterr().out
        assert "65536" in out

    def test_ethics_custom_prefix(self, capsys):
        assert main(["ethics", "--prefix", "24", "--queries-per-ip", "2"]) == 0
        assert "512" in capsys.readouterr().out

    def test_sav(self, capsys):
        assert main(["sav", "--clients", "2000", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "can spoof within /24" in out

    def test_syria(self, capsys):
        assert main(["syria", "--population", "5000"]) == 0
        out = capsys.readouterr().out
        assert "users touching censored content" in out

    def test_vantage(self, capsys):
        assert main(["vantage", "--duration", "20", "--domains",
                     "twitter.com", "example.org"]) == 0
        out = capsys.readouterr().out
        assert "INJECTED" in out
        assert "open" in out

    def test_vantage_open_network(self, capsys):
        assert main(["vantage", "--open", "--duration", "20", "--domains",
                     "twitter.com"]) == 0
        out = capsys.readouterr().out
        assert "INJECTED" not in out

    def test_vantage_unknown_domain_warns(self, capsys):
        assert main(["vantage", "--duration", "5", "--domains", "unknown.example"]) == 0
        assert "skipping" in capsys.readouterr().err

    def test_risk_spam_evades(self, capsys):
        assert main(["risk", "--technique", "spam", "--duration", "60"]) == 0
        out = capsys.readouterr().out
        assert "evaded (paper criterion)" in out
        assert "True" in out

    def test_risk_overt_attributed(self, capsys):
        assert main(["risk", "--technique", "overt-dns", "--duration", "60"]) == 0
        out = capsys.readouterr().out
        assert "attributed alerts" in out


class TestMatrixCommand:
    def test_matrix_runs_and_reports(self, capsys):
        assert main(["matrix", "--duration", "30", "--cover", "4"]) == 0
        out = capsys.readouterr().out
        assert "accuracy/evasion matrix" in out
        assert "SUCCESS" in out
        assert "fails-evasion" in out  # the overt baseline row


    def test_matrix_rejects_negative_cover(self, capsys):
        assert main(["matrix", "--cover", "-3"]) == 1
        assert capsys.readouterr().err.startswith("error: cover must be >= 0")


class TestDeckCommand:
    def test_deck_stealthy(self, capsys):
        assert main(["deck", "--posture", "stealthy", "--duration", "60",
                     "--domains", "twitter.com", "example.org"]) == 0
        out = capsys.readouterr().out
        assert "deck results" in out
        assert "blocked domains: twitter.com" in out
        assert "evaded=True" in out

    def test_deck_json_output(self, capsys):
        assert main(["deck", "--posture", "stealthy", "--duration", "60",
                     "--domains", "twitter.com", "--json"]) == 0
        out = capsys.readouterr().out
        assert '"kind": "campaign"' in out


class TestSweepArgumentValidation:
    """Bad sweep arguments are usage errors (exit 2) caught before the
    campaign journal is created."""

    SPEC = str(Path(__file__).parents[2] / "examples" / "sweep_smoke.json")

    @pytest.mark.parametrize("flag,value", [
        ("--point-retries", "-1"),
        ("--workers", "0"),
        ("--partial-every", "0"),
    ])
    def test_rejected_before_any_file_is_written(self, tmp_path, capsys,
                                                 flag, value):
        prefix = tmp_path / "campaign"
        with pytest.raises(SystemExit) as exc:
            main(["sweep", self.SPEC, "--serial", "--out", str(prefix),
                  flag, value])
        assert exc.value.code == 2
        assert f"argument {flag}: must be >=" in capsys.readouterr().err
        assert not (tmp_path / "campaign.journal.jsonl").exists()
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("body, names", [
        ('{"seeds": 5}', "seeds"),
        ('{"techniques": "scan"}', "techniques"),
        ('{"cover": -3}', "cover"),
        ('{"seeds": [', "spec.json"),
    ])
    def test_malformed_spec_is_one_error_line(self, tmp_path, capsys, body, names):
        spec = tmp_path / "spec.json"
        spec.write_text(body)
        assert main(["sweep", str(spec), "--serial",
                     "--out", str(tmp_path / "campaign")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert names in err
        assert list(tmp_path.iterdir()) == [spec]
