import json

import pytest

from tornadotab import cli
from tornadotab.core import parse_spec_string


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSelftest:
    def test_passes(self, capsys):
        code, out, _ = run(capsys, "selftest")
        assert code == 0
        assert "FAIL" not in out
        assert out.count("PASS") == 7


class TestIndependence:
    def test_json_output(self, capsys):
        code, out, _ = run(
            capsys, "independence", "--sigma-bits", "8", "--c", "2", "--d", "4",
            "--set-size", "128", "--trials", "500", "--seed", "0x1",
        )
        assert code == 0
        reports = json.loads(out)
        assert reports[0]["name"] == "dependence"
        assert reports[0]["estimate"] <= reports[0]["bound"]
        assert reports[0]["params"]["mu"] == 128.0

    def test_csv_output(self, capsys):
        code, out, _ = run(
            capsys, "independence", "--trials", "200", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("name,estimate,stderr,bound")
        assert lines[1].startswith("dependence,")

    def test_byte_identical_reruns(self, capsys):
        args = ("independence", "--trials", "300", "--seed", "0x7")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_worker_count_does_not_change_output(self, capsys, monkeypatch):
        args = ("independence", "--trials", "300", "--seed", "0x7")
        monkeypatch.delenv("TORNADO_THREADS", raising=False)
        _, serial, _ = run(capsys, *args)
        monkeypatch.setenv("TORNADO_THREADS", "2")
        _, pooled, _ = run(capsys, *args)
        assert serial == pooled

    def test_keys_on_both_sides_of_2_63(self, capsys):
        """NumPy reads a list of such keys as float64; the run must not."""
        code, out, _ = run(
            capsys, "independence", "--sigma-bits", "8", "--c", "8", "--d", "4",
            "--out-bits", "64", "--set-size", "8", "--trials", "100",
        )
        assert code == 0
        keys = [int(k, 16) for k in json.loads(out)[0]["params"]["selector"]["keys"]]
        assert min(keys) < 1 << 63 <= max(keys)

    def test_invalid_spec_exits_1(self, capsys):
        code, _, err = run(capsys, "independence", "--sigma-bits", "99")
        assert code == 1
        assert "error" in err


class TestSubcommands:
    def test_lowerbound(self, capsys):
        code, out, _ = run(
            capsys, "lowerbound", "--sigma-bits", "4", "--d", "3", "--trials", "20000",
        )
        assert code == 0
        rep = json.loads(out)[0]
        assert rep["name"] == "lowerbound_dependence"
        assert rep["params"]["above_floor"] is True

    def test_lowerbound_keeps_the_verdict_at_sigma_256(self, capsys):
        code, out, _ = run(
            capsys, "lowerbound", "--sigma-bits", "8", "--d", "3", "--trials", "2000",
        )
        assert code == 0
        assert json.loads(out)[0]["verdict"] == "WithinBound"

    def test_survival(self, capsys):
        code, out, _ = run(
            capsys, "survival", "--sigma-bits", "4", "--rounds", "1",
            "--trials", "30000", "--exhaustive",
        )
        assert code == 0
        reports = json.loads(out)
        assert reports[0]["name"] == "survival_1_rounds"
        assert reports[0]["params"]["within_3sigma"] is True
        assert reports[1]["estimate"] == 0.625

    def test_survival_needs_two_characters(self, capsys):
        code, out, err = run(capsys, "survival", "--c", "1", "--trials", "10")
        assert code == 1
        assert err == "tornadotab: error: survival needs c >= 2\n"

    def test_chaining(self, capsys):
        code, out, _ = run(
            capsys, "chaining", "--n", "16", "--out-bits", "4", "--k", "2",
            "--trials", "300",
        )
        assert code == 0
        rep = json.loads(out)[0]
        assert rep["name"] == "chaining_tail_k2"

    def test_chernoff(self, capsys):
        code, out, _ = run(
            capsys, "chernoff", "--set-size", "512", "--out-bits", "4",
            "--delta", "0.5", "--trials", "300",
        )
        assert code == 0
        rep = json.loads(out)[0]
        assert rep["params"]["mu"] == 32.0

    def test_probing_with_histogram(self, capsys, tmp_path):
        hist = tmp_path / "hist.csv"
        code, out, _ = run(
            capsys, "probing", "--sigma-bits", "8", "--n", "256", "--m", "1024",
            "--out-bits", "10", "--queries", "32", "--trials", "2",
            "--star-delta", "0.5", "--histogram", str(hist),
        )
        assert code == 0
        reports = json.loads(out)
        assert {r["name"] for r in reports} == {
            "probing_mean_probe_length", "probing_cdf_dominance",
        }
        assert hist.read_text().startswith("source,seed,probe_length,count")

    def test_bench_csv(self, capsys):
        code, out, _ = run(
            capsys, "bench", "--schemes", "poly2-mersenne", "--n-keys", "500",
            "--reps", "3", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "scheme,n_keys,ns_per_key,checksum"
        assert lines[1].startswith("poly2-mersenne,500,")

    def test_bench_json(self, capsys):
        code, out, _ = run(
            capsys, "bench", "--schemes", "poly2-mersenne", "--n-keys", "500",
            "--reps", "3", "--format", "json",
        )
        assert code == 0
        (row,) = json.loads(out)
        assert row.keys() == {"scheme", "n_keys", "ns_per_key", "checksum", "reps"}
        assert (row["scheme"], row["n_keys"], row["reps"]) == ("poly2-mersenne", 500, 3)
        assert row["ns_per_key"] > 0 and row["checksum"].startswith("0x")


class TestDumpTables:
    def test_deterministic_and_parseable(self, capsys):
        args = ("dump-tables", "--sigma-bits", "4", "--c", "2", "--d", "1",
                "--out-bits", "8", "--seed", "0x42")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2
        header = out1.split("\n", 1)[0]
        assert header.startswith("tornado-tables v1 ")
        spec_str = header.split()[2]
        assert parse_spec_string(spec_str).spec_string() == spec_str

    def test_spec_string_flag(self, capsys):
        code, out, _ = run(
            capsys, "dump-tables", "--spec", "tornado,cb=4,c=2,d=1,r=8",
            "--seed", "0x42",
        )
        assert code == 0
        assert "tornado,cb=4,c=2,d=1,r=8" in out.split("\n")[0]

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "dump.txt"
        code, out, _ = run(
            capsys, "dump-tables", "--spec", "simpletab,cb=4,c=1,d=0,r=8",
            "--out", str(path),
        )
        assert code == 0 and out == ""
        assert path.read_text().count("\n") == 17


    def test_top_seed_accepted(self, capsys):
        code, out, _ = run(capsys, "dump-tables", "--spec", "tornado,cb=4,c=2,d=1,r=4",
                           "--seed", "0xffffffffffffffff")
        assert code == 0
        assert out.startswith("tornado-tables v1 tornado,cb=4,c=2,d=1,r=4 seed=0xffffffffffffffff\n")


class TestSeedRange:
    @pytest.mark.parametrize("command", [
        ("dump-tables", "--spec", "tornado,cb=8,c=2,d=2,r=8"),
        ("independence", "--trials", "10"),
    ])
    @pytest.mark.parametrize("seed", ["-1", "0x10000000000000000", "0x1ffffffffffffffff"])
    def test_seed_outside_64_bits_is_a_usage_error(self, capsys, command, seed):
        with pytest.raises(SystemExit) as exc:
            cli.main([*command, "--seed", seed])
        out = capsys.readouterr()
        assert exc.value.code == 1
        assert out.out == ""
        assert f"argument --seed: seed {seed} is outside [0, 2^64)" in out.err


class TestExitCodes:
    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["definitely-not-a-command"])
        assert exc.value.code == 1

    def test_missing_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 1

    def test_config_error_is_1(self, capsys):
        code, _, err = run(capsys, "chaining", "--n", "100", "--trials", "10")
        assert code == 1

    @pytest.mark.parametrize("argv", [
        ("independence", "--trials", "-5"),
        ("independence", "--trials", "0"),
        ("chaining", "--trials", "0"),
        ("chaining", "--k", "0"),
        ("chernoff", "--trials", "0"),
        ("survival", "--rounds", "0"),
        ("survival", "--trials", "0"),
        ("chernoff", "--delta", "nan"),
        ("chernoff", "--delta", "inf"),
        ("chernoff", "--delta", "1e308"),  # finite, but (1 + delta) * mu is not
        ("lowerbound", "--out-bits", "1"),
        # a NaN floor is not valid JSON, and one <= 0 makes above_floor always true
        ("lowerbound", "--floor-const", "nan", "--trials", "100"),
        ("lowerbound", "--floor-const", "inf", "--trials", "100"),
        ("lowerbound", "--floor-const", "0", "--trials", "100"),
        ("lowerbound", "--floor-const", "-1", "--trials", "100"),
        ("probing", "--star-delta", "0"),
        ("probing", "--star-delta", "1"),
        ("chernoff", "--bin", "64"),  # out-bits 6: no hash value reaches bin 64
        ("chernoff", "--bin", "-1"),
        ("chernoff", "--set-size", "0", "--trials", "10"),  # mu = 0
        ("independence", "--set-size", "0", "--trials", "10"),
        ("dump-tables", "--spec", "tornado,cb=4,c=2,d=1,r=4,typo=9"),
    ])
    def test_degenerate_run_exits_1_with_one_line(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("tornadotab: error: ")
        assert err.count("\n") == 1

    def test_unwritable_output(self, capsys):
        code, _, err = run(
            capsys, "dump-tables", "--spec", "simpletab,cb=4,c=1,d=0,r=8",
            "--out", "/nonexistent-dir/x.txt",
        )
        assert code == 1

    def test_violation_exits_2(self, capsys):
        # bounds hold for the real hash, so exercise the gate directly
        import argparse

        from tornadotab.experiments import ExperimentReport, Verdict

        rep = ExperimentReport("fake", 0.9, 0.001, 0.1, 1000, 0,
                               verdict=Verdict.VIOLATION)
        args = argparse.Namespace(format="json", out="-")
        assert cli._emit_reports(args, [rep]) == 2
        capsys.readouterr()
