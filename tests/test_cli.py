"""Command-line front-end tests driven through main()."""

import csv
import json

import pytest

from interposim import presets
from interposim.attacks import extra_templates, load_scenarios
from interposim.cli import main
from interposim.coherence import Directory, ProtocolAssertionError
from interposim.harness import (
    EXIT_CONFIG, EXIT_PROTOCOL, REPORT_SCHEMA, ConfigError, Simulator,
)


class TestRun:
    def test_run_writes_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main([
            "run", "--preset", "desk-scale", "--seed", "1",
            "--ops", "60", "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["schema"] == REPORT_SCHEMA
        assert report["halt"]["cause"] == "completed"
        assert report["config"]["seed"] == 1
        summary = capsys.readouterr().out
        assert "halt: completed" in summary
        assert "latency (ticks):" in summary

    def test_run_with_flag_overrides(self, tmp_path):
        out = tmp_path / "r.json"
        code = main([
            "run", "--preset", "desk-scale", "--ops", "40",
            "--width", "128", "--vc-per-vnet", "6", "--sni", "off",
            "--out", str(out),
        ])
        assert code == 0
        cfg = json.loads(out.read_text(encoding="utf-8"))["config"]
        assert cfg["interposer_width"] == 128
        assert cfg["vc_per_vnet"] == 6
        assert cfg["sni_enabled"] is False

    def test_run_attack_file_halts(self, tmp_path, topo8):
        attacks = tmp_path / "attacks.json"
        attacks.write_text(json.dumps([{
            "name": "spoof",
            "expected_threat": "masquerading",
            "src_core": 0,
            "msg_type": 1,
            "requester": 8,
            "destination": 64,
            "vnet": 0,
            "address": "0x40",
        }]), encoding="utf-8")
        code = main([
            "run", "--preset", "baseline-128", "--workload", "idle",
            "--permissions", "attack-demo", "--attacks", str(attacks),
        ])
        assert code == 2

    def test_forged_wb_ack_is_a_stray(self, tmp_path):
        """A WB_ACK that no eviction awaits, let through with the SNIs
        off, is counted and dropped: the run completes."""
        attacks = tmp_path / "forged.json"
        attacks.write_text(json.dumps([{
            "name": "forged-wb-ack",
            "expected_threat": "masquerading",
            "src_core": 0,
            "msg_type": 3,
            "requester": 64,
            "destination": 2,
            "vnet": 1,
            "address": "0x40",
        }]), encoding="utf-8")
        out = tmp_path / "r.json"
        code = main([
            "run", "--preset", "desk-scale", "--sni", "off", "--ops", "5",
            "--attacks", str(attacks), "--out", str(out),
        ])
        assert code == 0
        assert json.loads(out.read_text(encoding="utf-8"))["halt"]["cause"] == "completed"

    def test_protocol_error_is_exit_70(self, monkeypatch, capsys):
        def broken(self):
            raise ProtocolAssertionError("core 0 transaction on 0x40 finished without data")

        monkeypatch.setattr(Simulator, "run", broken)
        code = main(["run", "--preset", "desk-scale", "--ops", "5"])
        assert code == EXIT_PROTOCOL == 70
        assert capsys.readouterr().err == (
            "error: core 0 transaction on 0x40 finished without data\n"
        )

    def test_key_error_in_a_run_is_not_bad_configuration(self, monkeypatch):
        """Only bad input exits 64: a KeyError raised inside the simulator
        is a bug and propagates."""
        def broken(self, msg, tick):
            raise KeyError(msg.address)

        monkeypatch.setattr(Directory, "_handle_request", broken)
        with pytest.raises(KeyError):
            main(["run", "--preset", "desk-scale", "--ops", "2"])

    def test_unknown_preset_is_a_config_error(self):
        with pytest.raises(ConfigError, match="unknown preset 'nope'"):
            presets.get("nope")


class TestCompare:
    def test_compare_sni_csv(self, tmp_path):
        out = tmp_path / "cmp.csv"
        code = main([
            "compare", "--preset", "desk-scale", "--ops", "60",
            "--what", "sni", "--out", str(out),
        ])
        assert code == 0
        rows = list(csv.DictReader(out.open(encoding="utf-8")))
        assert [r["sni"] for r in rows] == ["1", "0"]
        assert all(float(r["mean_total"]) > 0 for r in rows)

    def test_compare_width(self, tmp_path):
        out = tmp_path / "w.csv"
        code = main([
            "compare", "--preset", "desk-scale", "--ops", "40",
            "--what", "width", "--out", str(out),
        ])
        assert code == 0
        rows = list(csv.DictReader(out.open(encoding="utf-8")))
        assert [r["width"] for r in rows] == ["64", "128"]


class TestAttackSuite:
    def test_all_templates_detected(self, capsys):
        code = main([
            "attack-suite", "--preset", "desk-scale",
            "--permissions", "attack-demo", "--ops", "30",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "all detected" in out
        for threat in ("masquerading", "passive_reading", "modifying",
                       "diverting", "malformed"):
            assert threat in out

    def test_default_table_replaces_the_presets(self, capsys):
        """Without --permissions the suite runs on the attack-demo table,
        although desk-scale carries a table of its own."""
        code = main(["attack-suite", "--preset", "desk-scale", "--ops", "30"])
        out = capsys.readouterr().out
        assert code == 0
        assert "all detected" in out

    def test_explicit_all_rw_is_a_usage_error(self, capsys):
        """A table that denies nothing leaves no attack to launch."""
        code = main([
            "attack-suite", "--preset", "desk-scale",
            "--permissions", "all-rw", "--ops", "30",
        ])
        assert code == EXIT_CONFIG
        assert "both grant and deny" in capsys.readouterr().err


class TestValidate:
    def test_valid_config(self, capsys):
        assert main(["validate-config", "--preset", "desk-scale"]) == 0
        assert "configuration ok" in capsys.readouterr().out

    def test_invalid_workload(self, capsys):
        code = main([
            "validate-config", "--preset", "desk-scale", "--workload", "trace",
        ])
        assert code == EXIT_CONFIG
        assert "error" in capsys.readouterr().err

    def test_bad_trace_record(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("0 0 X 0x80\n", encoding="utf-8")
        code = main([
            "run", "--preset", "desk-scale", "--workload", "trace",
            "--trace", str(path),
        ])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "bad record" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "record",
        [None, "0 0 X 0x80", "0 999 R 0x80", "0 0 R 0x100000000000000000",
         "0 0 R -64"],
        ids=["missing-file", "bad-record", "unknown-core", "address-over-64-bits",
             "negative-address"],
    )
    def test_bad_trace_file_fails_validation(self, tmp_path, capsys, record):
        """A missing trace file, a bad record, an unknown core and an
        address the wire format cannot carry fail validation as they fail
        a run."""
        path = tmp_path / "trace.txt"
        if record is not None:
            path.write_text(record + "\n", encoding="utf-8")
        code = main([
            "validate-config", "--preset", "desk-scale", "--workload", "trace",
            "--trace", str(path),
        ])
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "configuration ok" not in captured.out
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err

    def test_bad_permission_directive(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("garbage line here\n", encoding="utf-8")
        code = main([
            "validate-config", "--preset", "desk-scale",
            "--permissions", str(path),
        ])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_attack_file_not_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json\n", encoding="utf-8")
        code = main([
            "validate-config", "--preset", "desk-scale",
            "--attacks", str(path),
        ])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("command", ["run", "validate-config"])
    @pytest.mark.parametrize("fields", [
        {"msg_type": 1, "requester": 300, "vnet": 0},
        {"msg_type": 19, "requester": 0, "vnet": 2, "data": "abcd"},
        {"msg_type": 19, "requester": 0, "vnet": 2},
    ], ids=["requester-300", "2-byte-data", "data-missing"])
    def test_attack_entry_beyond_wire_format(self, tmp_path, capsys, command,
                                             fields):
        """A message the wire format cannot carry is refused when the file
        is read, not at its trigger tick."""
        path = tmp_path / "attacks.json"
        path.write_text(json.dumps([{"name": "fine", "expected_threat": "masquerading",
                                     "src_core": 0, "msg_type": 1, "requester": 8,
                                     "destination": 64, "vnet": 0, "address": "0x40"},
                                    {"expected_threat": "diverting", "src_core": 0,
                                     "destination": 2, "address": "0x40", **fields}]),
                        encoding="utf-8")
        args = [command, "--preset", "desk-scale", "--ops", "2", "--attacks", str(path)]
        assert main(args) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "configuration ok" not in captured.out
        assert captured.err.startswith("error: attack file entry 1: ")
        assert "Traceback" not in captured.err

    def test_attack_address_beyond_table_loads(self, tmp_path, topo8):
        """The address-overflow template fits in 64 bits: it loads, and the
        SNIs judge it."""
        table = presets.attack_demo_table()
        template = next(s for s in extra_templates(topo8, table)
                        if s.name == "address-overflow")
        msg = template.msg
        path = tmp_path / "attacks.json"
        path.write_text(json.dumps([{
            "name": template.name, "expected_threat": template.expected_threat.value,
            "src_core": template.src_core, "msg_type": int(msg.msg_type),
            "requester": msg.requester_id, "destination": msg.destination_id,
            "vnet": msg.vnet, "address": hex(msg.address),
        }]), encoding="utf-8")
        assert load_scenarios(str(path), topo8)[0].msg == msg
        assert main(["validate-config", "--preset", "baseline-128",
                     "--attacks", str(path)]) == 0

    def test_missing_permission_file(self, capsys):
        code = main([
            "run", "--preset", "desk-scale",
            "--permissions", "/nonexistent/perm.map",
        ])
        assert code == EXIT_CONFIG

    def test_permission_map_file(self, tmp_path):
        path = tmp_path / "perm.map"
        path.write_text(
            "regions 8\nshift 29\ndefault = RW,RW,RW,RW,RW,RW,RW,RW\n",
            encoding="utf-8",
        )
        code = main([
            "validate-config", "--preset", "desk-scale",
            "--permissions", str(path),
        ])
        assert code == 0

    @pytest.mark.parametrize("command", ["run", "validate-config"])
    @pytest.mark.parametrize("shift", [60, 27], ids=["beyond-64-bits", "8-gib"])
    def test_permission_map_beyond_address_space(self, tmp_path, capsys,
                                                 command, shift):
        """A table covering more than the 4 GiB address space is refused
        up front instead of failing the run."""
        path = tmp_path / "perm.map"
        path.write_text(
            f"regions 64\nshift {shift}\ndefault = RW,RW,RW,RW,RW,RW,RW,RW\n",
            encoding="utf-8",
        )
        args = [command, "--preset", "desk-scale", "--permissions", str(path)]
        if command == "run":
            args += ["--ops", "5"]
        assert main(args) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "configuration ok" not in captured.out
        assert "address space" in captured.err and "Traceback" not in captured.err

    def test_unknown_preset_is_usage_error(self, capsys):
        """A usage error is bad configuration, not a security halt (2)."""
        with pytest.raises(SystemExit) as exc:
            main(["run", "--preset", "nope"])
        assert exc.value.code == EXIT_CONFIG
        assert "invalid choice: 'nope'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["run", "--width", "32"],
        ["run", "--seed", "x"],
        ["validate-config", "--no-such-flag"],
        [],
    ], ids=["width", "seed", "unknown-flag", "no-command"])
    def test_other_usage_errors_exit_64(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_CONFIG
        assert "error: " in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--help"])
        assert exc.value.code == 0
        assert "--preset" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["run", "validate-config"])
    def test_negative_region_shift(self, tmp_path, capsys, command):
        path = tmp_path / "perm.map"
        path.write_text(
            "regions 8\nshift -1\ndefault = RW,RW,RW,RW,RW,RW,RW,RW\n",
            encoding="utf-8",
        )
        args = [command, "--preset", "desk-scale", "--permissions", str(path)]
        if command == "run":
            args += ["--ops", "5"]
        assert main(args) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "configuration ok" not in captured.out
        assert "region shift -1 is negative" in captured.err
        assert "Traceback" not in captured.err
