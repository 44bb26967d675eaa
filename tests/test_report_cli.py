"""Report documents and the command-line front end."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qkdsim import (
    SessionConfig,
    build_document,
    identity_translucent,
    run_session,
    translucent_swap_attack,
)
from qkdsim.cli import _EVES, _RUN_DEFAULTS, main
from qkdsim.report import strategy_label

EXPECTED_FIELDS = [
    "schema_version",
    "protocol",
    "n_pulses",
    "seed",
    "sifted_count",
    "disclosed_count",
    "error_rate",
    "aborted",
    "abort_reason",
    "reconciled_length",
    "leaked_bits",
    "final_key_length",
    "final_key_alice",
    "final_key_bob",
    "eve_guess_accuracy",
    "eve_final_key_info_estimate",
    "config_protocol",
    "config_n_pulses",
    "config_theta",
    "config_flip_p",
    "config_loss_p",
    "config_multi_p",
    "config_eve",
    "config_eve_fraction",
    "config_sample_fraction",
    "config_r_max",
    "config_block_policy",
    "config_n_clean",
    "config_max_passes",
    "config_sec_param",
    "config_seed",
    "transcript_digest",
]


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestReportDocument:
    def test_field_order_is_frozen(self):
        cfg = SessionConfig("bb84", 500, seed=150)
        doc = build_document(run_session(cfg), cfg)
        assert list(doc.keys()) == EXPECTED_FIELDS

    def test_consistency_invariant(self):
        cfg = SessionConfig("bb84", 2000, seed=151, sec_param=5)
        doc = build_document(run_session(cfg), cfg)
        assert doc["final_key_length"] == doc["reconciled_length"] - doc["leaked_bits"] - 5
        assert doc["final_key_alice"] == doc["final_key_bob"]

    @pytest.mark.xfail(
        strict=True, reason="the echo names a translucent coupling by its label only (ROADMAP item 14)"
    )
    def test_equal_config_echoes_mean_equal_reports(self):
        # Two couplings under one label: error rate 0.0 against 0.405, 518 final bits against 0.
        theta = math.pi / 8
        docs = []
        for strategy in (identity_translucent(theta), translucent_swap_attack(theta)):
            cfg = SessionConfig("b92", 2000, theta=theta, eve=strategy, seed=8, r_max=1.0)
            docs.append(build_document(run_session(cfg), cfg))
        echoes = [{key: value for key, value in doc.items() if key.startswith("config_")} for doc in docs]
        assert echoes[0] != echoes[1] or docs[0] == docs[1]

    @pytest.mark.parametrize("name", list(_EVES))
    def test_eve_name_round_trips(self, name):
        # The report names each eavesdropper as --eve does.
        assert strategy_label(_EVES[name](dict(_RUN_DEFAULTS))) == name


class TestRunCommand:
    def test_clean_run_reports_zero_error(self, capsys):
        code, out, _ = run_cli(
            capsys, ["run", "--protocol", "bb84", "--n", "2000", "--seed", "1", "--eve", "none"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["aborted"] is False
        assert doc["error_rate"] == 0.0

    def test_byte_identical_reports(self, capsys):
        argv = [
            "run", "--protocol", "bb84", "--n", "3000", "--seed", "9",
            "--eve", "opaque", "--eve-frac", "0.5",
        ]
        first = run_cli(capsys, argv)
        second = run_cli(capsys, argv)
        assert first == second

    def test_aborted_run_is_exit_zero(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["run", "--protocol", "bb84", "--n", "4000", "--seed", "2", "--eve", "opaque"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["aborted"] is True
        assert doc["abort_reason"] == "error_rate_exceeds_threshold"

    def test_summary_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, ["run", "--n", "500", "--seed", "3", "--summary"]
        )
        assert code == 0
        assert "final key bits" in out
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)

    def test_config_file_overridden_by_flags(self, capsys, tmp_path):
        cfg_file = tmp_path / "session.cfg"
        cfg_file.write_text(
            "# sample configuration\nprotocol = b92\nn = 500\nseed = 9\ntheta = 0.5\n"
            "eve = entangle\n"
        )
        code, out, _ = run_cli(capsys, ["run", "--config", str(cfg_file), "--n", "800"])
        assert code == 0
        doc = json.loads(out)
        assert doc["protocol"] == "b92"
        assert doc["n_pulses"] == 800  # flag wins
        assert doc["config_theta"] == 0.5
        assert doc["config_eve"] == "entangle"

    def test_config_file_bad_value_names_its_line(self, capsys, tmp_path):
        cfg_file = tmp_path / "session.cfg"
        cfg_file.write_text("protocol = bb84\nn = 1e4\n")
        code, out, err = run_cli(capsys, ["run", "--config", str(cfg_file)])
        assert code == 2
        assert out == ""
        assert f"{cfg_file}:2:" in err
        assert "'n'" in err and "'1e4'" in err

    def test_config_file_unknown_eve_is_usage_error(self, capsys, tmp_path):
        # Config values bypass argparse's choices; the eve table must refuse the name.
        cfg_file = tmp_path / "session.cfg"
        cfg_file.write_text("eve = opaqe\nn = 300\n")
        code, out, err = run_cli(capsys, ["run", "--config", str(cfg_file)])
        assert code == 2
        assert out == ""
        assert "unknown eve 'opaqe'; choose from none, opaque, translucent, entangle, pns" in err

    @pytest.mark.parametrize(
        "text, code, message",
        [
            ("n = 300\nbogus = 1\n", 2, ":2: unknown key 'bogus'"),
            ("n = 300\nprotocol b92\n", 2, ":2: expected 'key = value'"),
            (None, 1, "No such file"),
        ],
        ids=["unknown-key", "no-equals", "missing-file"],
    )
    def test_config_file_errors(self, capsys, tmp_path, text, code, message):
        cfg_file = tmp_path / "session.cfg"
        if text is not None:
            cfg_file.write_text(text)
        got, out, err = run_cli(capsys, ["run", "--config", str(cfg_file)])
        assert got == code
        assert out == ""
        assert message in err
        assert str(cfg_file) in err

    def test_config_file_sets_every_key(self, capsys, tmp_path):
        # Every run flag's spelling is a config key, parsed with its default's type.
        settings = {
            "protocol": ("b92", "config_protocol", "b92"),
            "n": ("300", "config_n_pulses", 300),
            "seed": ("5", "config_seed", 5),
            "flip": ("0.01", "config_flip_p", 0.01),
            "loss": ("0.1", "config_loss_p", 0.1),
            "multi": ("0.02", "config_multi_p", 0.02),
            "theta": ("0.5", "config_theta", 0.5),
            "eve": ("opaque", "config_eve", "opaque"),
            "eve-frac": ("0.5", "config_eve_fraction", 0.5),
            "sample-frac": ("0.2", "config_sample_fraction", 0.2),
            "rmax": ("0.3", "config_r_max", 0.3),
            "sec-param": ("4", "config_sec_param", 4),
        }
        cfg_file = tmp_path / "session.cfg"
        cfg_file.write_text("".join(f"{key} = {text}\n" for key, (text, _, _) in settings.items()))
        code, out, _ = run_cli(capsys, ["run", "--config", str(cfg_file)])
        assert code == 0
        doc = json.loads(out)
        for _, field, want in settings.values():
            assert doc[field] == want
            assert type(doc[field]) is type(want)

    def test_dump_transcript(self, capsys, tmp_path):
        # Each pa-subset payload is the hex of a nonempty packed row over the
        # reconciled key, its bits from reconciled_length on cleared; none
        # of the three keys (126, 873 and 1716 bits) fills its last byte.
        for n in ("300", "2000", "4000"):
            path = tmp_path / f"transcript-{n}.log"
            code, out, _ = run_cli(
                capsys, ["run", "--n", n, "--seed", "4", "--dump-transcript", str(path)]
            )
            assert code == 0
            doc = json.loads(out)
            body = path.read_text()
            assert body
            length, pa_lines = doc["reconciled_length"], 0
            for line in body.splitlines():
                sender, tag, payload_hex = line.split("\t")
                assert sender in ("alice", "bob")
                payload = bytes.fromhex(payload_hex)
                if tag == "pa-subset":
                    row = int.from_bytes(bytes.fromhex(payload.decode("ascii")), "big")
                    assert len(payload) == 2 * math.ceil(length / 8)
                    assert row and row % 2 ** (-length % 8) == 0
                    pa_lines += 1
            assert pa_lines == doc["final_key_length"]
            assert hashlib.sha256(path.read_bytes()).hexdigest() == doc["transcript_digest"]

    def test_full_interception_signature(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["run", "--protocol", "bb84", "--n", "80000", "--seed", "1",
             "--eve", "opaque", "--eve-frac", "1.0"],
        )
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["error_rate"] - 0.25) < 0.02

    def test_translucent_b92_run(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["run", "--protocol", "b92", "--n", "2000", "--seed", "11",
             "--eve", "translucent", "--rmax", "1.0"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["config_eve"] == "translucent"
        assert doc["eve_guess_accuracy"] is not None

    def test_usage_error_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--eve", "mallory"])
        assert exc.value.code == 2

    def test_negative_seed_is_usage_error(self, capsys):
        # A negative seed would replay the session of its absolute value.
        code, out, err = run_cli(capsys, ["run", "--n", "2000", "--seed", "-2"])
        assert code == 2
        assert out == ""
        assert "seed must be non-negative, got -2" in err

    @pytest.mark.parametrize("theta", ["nan", "inf"])
    def test_non_finite_theta_is_usage_error(self, capsys, theta):
        # Refused when the config is built, before any session runs.
        with pytest.raises(ValueError, match="theta"):
            SessionConfig("bb84", 100, theta=float(theta))
        code, out, err = run_cli(capsys, ["run", "--n", "100", "--theta", theta])
        assert code == 2
        assert out == ""
        assert "theta must be finite" in err

    def test_module_entry_point(self, capsys):
        # `python -m qkdsim` runs the same command line as the installed script.
        argv = ["run", "--protocol", "bb84", "--n", "24", "--seed", "55", "--sec-param", "0"]
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-m", "qkdsim", *argv], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        assert proc.stdout == out

    def test_translucent_on_bb84_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, ["run", "--protocol", "bb84", "--eve", "translucent", "--n", "100"]
        )
        assert code == 2
        assert "b92" in err


class TestFixtureCommand:
    def test_all_fixtures_pass(self, capsys):
        for name in ("fig6a", "fig6b", "vernam"):
            code, out, _ = run_cli(capsys, ["fixture", name])
            assert code == 0
            assert out.strip().endswith("PASS")

    def test_unknown_fixture(self, capsys):
        code, _, err = run_cli(capsys, ["fixture", "fig7"])
        assert code == 2
        assert "unknown fixture" in err


class TestOtpCommand:
    def _write(self, path, data):
        path.write_bytes(data)
        return str(path)

    def test_round_trip_and_ledger(self, capsys, tmp_path):
        plain = os.urandom(1024)
        key = os.urandom(1024)
        infile = self._write(tmp_path / "plain.bin", plain)
        keyfile = self._write(tmp_path / "key.bin", key)
        cipher = tmp_path / "cipher.bin"
        back = tmp_path / "back.bin"
        ledger = tmp_path / "ledger.txt"

        code, _, _ = run_cli(
            capsys,
            ["otp", "encrypt", "--in", infile, "--key", keyfile, "--out", str(cipher), "--ledger", str(ledger)],
        )
        assert code == 0
        assert cipher.read_bytes() != plain
        lines = ledger.read_text().splitlines()
        assert len(lines) == 1
        fingerprint, stamp = lines[0].split("\t")
        assert len(fingerprint) == 64

        code, _, _ = run_cli(
            capsys,
            ["otp", "decrypt", "--in", str(cipher), "--key", keyfile, "--out", str(back), "--ledger", str(ledger)],
        )
        assert code == 0
        assert back.read_bytes() == plain
        assert len(ledger.read_text().splitlines()) == 1  # decrypt never writes

    def test_key_reuse_refused(self, capsys, tmp_path):
        key = os.urandom(64)
        infile = self._write(tmp_path / "a.bin", os.urandom(64))
        keyfile = self._write(tmp_path / "key.bin", key)
        ledger = tmp_path / "ledger.txt"
        argv = ["otp", "encrypt", "--in", infile, "--key", keyfile, "--out", str(tmp_path / "c1"), "--ledger", str(ledger)]
        assert run_cli(capsys, argv)[0] == 0
        code, _, err = run_cli(
            capsys,
            ["otp", "encrypt", "--in", infile, "--key", keyfile, "--out", str(tmp_path / "c2"), "--ledger", str(ledger)],
        )
        assert code == 3
        assert "reuse" in err
        assert len(ledger.read_text().splitlines()) == 1

    def test_key_whose_record_fails_is_never_used(self, capsys, tmp_path):
        infile = self._write(tmp_path / "a.bin", os.urandom(64))
        keyfile = self._write(tmp_path / "key.bin", os.urandom(64))
        cipher = tmp_path / "c1"
        ledger = tmp_path / "missing" / "ledger.txt"
        code, _, err = run_cli(
            capsys,
            ["otp", "encrypt", "--in", infile, "--key", keyfile, "--out", str(cipher), "--ledger", str(ledger)],
        )
        assert code == 1
        assert "ledger.txt" in err
        assert not cipher.exists()  # the unrecorded key has padded nothing

    def test_length_mismatch(self, capsys, tmp_path):
        infile = self._write(tmp_path / "a.bin", b"abcdef")
        keyfile = self._write(tmp_path / "k.bin", b"ab")
        code, _, err = run_cli(
            capsys,
            ["otp", "encrypt", "--in", infile, "--key", keyfile, "--out", str(tmp_path / "c"), "--ledger", str(tmp_path / "l")],
        )
        assert code == 1
        assert "bytes" in err


class TestSweepCommand:
    def test_header_and_row_count(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["sweep", "--protocol", "bb84", "--n", "2000", "--seed", "5",
             "--vary", "flip", "--from", "0.0", "--to", "0.04", "--steps", "3"],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "param,mean_error_rate,mean_conclusive_rate,mean_final_len,aborted_frac"
        assert len(lines) == 4

    def test_opaque_fraction_linearity(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["sweep", "--protocol", "bb84", "--n", "6000", "--seed", "6",
             "--vary", "eve-frac", "--from", "0.0", "--to", "1.0", "--steps", "5",
             "--eve", "opaque", "--repeats", "2"],
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert len(rows) == 5
        for row in rows:
            fraction = float(row[0])
            mean_rate = float(row[1])
            assert abs(mean_rate - fraction / 4) < 0.05
        # High-interception rows abort, and the CSV still carries them.
        assert float(rows[-1][4]) == 1.0

    def test_theta_conclusive_rate(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["sweep", "--protocol", "b92", "--n", "5000", "--seed", "7",
             "--vary", "theta", "--from", "0.15", "--to", "0.7", "--steps", "3"],
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        for row in rows:
            theta = float(row[0])
            conclusive = float(row[2])
            assert abs(conclusive - (1 - math.cos(2 * theta))) < 0.02

    @pytest.mark.parametrize("flag", ["--steps", "--repeats"])
    def test_non_positive_count_is_usage_error(self, capsys, flag):
        argv = ["sweep", "--n", "100", "--vary", "flip", "--from", "0", "--to", "0.1", "--steps", "2"]
        code, out, err = run_cli(capsys, [*argv, flag, "0"])
        assert code == 2
        assert out == ""
        assert f"{flag} must be at least 1" in err

    def test_negative_seed_is_usage_error(self, capsys):
        # Seeds -3 to 3 would average the sessions of seeds 1 to 3 twice.
        argv = ["sweep", "--n", "100", "--vary", "flip", "--from", "0", "--to", "0.1", "--steps", "2"]
        code, out, err = run_cli(capsys, [*argv, "--seed", "-3", "--repeats", "7"])
        assert code == 2
        assert out == ""
        assert "seed must be non-negative, got -3" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--protocol", "b92", "--vary", "theta", "--from", "0.3", "--to", "0.9"], "theta must lie in (0, pi/4)"),
            (["--protocol", "bb84", "--vary", "flip", "--from", "0", "--to", "1.5"], "flip_p must lie in [0, 1]"),
        ],
        ids=["b92-theta", "bb84-flip"],
    )
    def test_invalid_last_point_is_usage_error(self, capsys, argv, message):
        # Every grid point is checked before the header, so no partial CSV is printed.
        code, out, err = run_cli(capsys, ["sweep", "--n", "300", "--steps", "3", *argv])
        assert code == 2
        assert out == ""
        assert message in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--protocol", "bb84", "--vary", "theta", "--from", "0.2", "--to", "0.6"], "--vary theta needs --protocol b92"),
            (["--vary", "theta", "--from", "0.2", "--to", "0.6", "--eve", "opaque"], "--vary theta needs --protocol b92"),
            (["--protocol", "bb84", "--vary", "eve-frac", "--from", "0", "--to", "1"], "--vary eve-frac needs --eve opaque"),
            (["--protocol", "b92", "--vary", "eve-frac", "--from", "0", "--to", "1", "--eve", "pns"], "--vary eve-frac needs --eve opaque"),
        ],
        ids=["bb84-theta", "default-protocol-theta", "no-eve-frac", "pns-eve-frac"],
    )
    def test_swept_value_the_session_ignores_is_usage_error(self, capsys, argv, message):
        # Rows that differ only by seed would pass for a sweep of the value.
        code, out, err = run_cli(capsys, ["sweep", "--n", "300", "--steps", "3", *argv])
        assert code == 2
        assert out == ""
        assert message in err

    def test_swept_protocol_and_eve_may_come_from_the_config_file(self, capsys, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("protocol = b92\neve = opaque\n", encoding="utf-8")
        for vary in ("theta", "eve-frac"):
            code, out, _ = run_cli(
                capsys,
                ["sweep", "--config", str(config), "--n", "300", "--vary", vary,
                 "--from", "0.3", "--to", "0.5", "--steps", "2"],
            )
            assert code == 0
            assert len(out.strip().splitlines()) == 3

    def test_single_step_single_row(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["sweep", "--protocol", "bb84", "--n", "1000", "--seed", "8",
             "--vary", "flip", "--from", "0.01", "--to", "0.05", "--steps", "1"],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("0.01,")
