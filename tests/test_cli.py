from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import pytest

from hierctl import cli
from hierctl.cli import main
from hierctl.saut import parse_automaton

from conftest import DATA

PLANT = str(DATA / "ex1-plant.saut")
SPEC = str(DATA / "ex1-spec.saut")
RPLANT = str(DATA / "relobs-plant.saut")
RSPEC = str(DATA / "relobs-spec.saut")
RAMBIENT = str(DATA / "relobs-ambient.saut")


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


class TestCheck:
    def test_holds_exits_zero(self, capsys):
        code, out = run(capsys, "check", "oc", PLANT)
        assert code == 0
        assert out.startswith("oc: holds")

    def test_violated_exits_one_with_witness(self, capsys):
        code, out = run(capsys, "check", "moc", PLANT)
        assert code == 1
        assert "violated" in out
        assert "s=c" in out and "t_prime=b c" in out

    def test_json_schema(self, capsys):
        code, out = run(capsys, "--json", "check", "moc", PLANT)
        assert code == 1
        doc = json.loads(out)
        res = doc["result"]
        assert res["verdict"] == "violated"
        assert res["witness"]["strings"]["s"] == ["c"]

    def test_oracle_crosscheck_flag(self, capsys):
        code, out = run(capsys, "--oracle-bound", "6", "check", "moc", PLANT)
        assert code == 1
        assert "oracle (bound 6): violated" in out

    def test_relobs_three_files(self, capsys):
        code, out = run(capsys, "check", "relobs", RSPEC, RAMBIENT, RPLANT)
        assert code == 0

    def test_controllability_two_files(self, capsys):
        code, _ = run(capsys, "check", "controllability", SPEC, PLANT)
        assert code in (0, 1)


class TestSynth:
    def test_supn_writes_saut(self, capsys, tmp_path):
        out_file = tmp_path / "sup.saut"
        code, _ = run(capsys, "--out", str(out_file),
                      "synth", "supn", SPEC, PLANT)
        assert code == 0
        result = parse_automaton(out_file.read_text())
        assert result.states  # parses back

    def test_suprelobs_runs(self, capsys):
        code, out = run(capsys, "synth", "suprelobs", RSPEC, RAMBIENT, RPLANT)
        assert code == 0
        assert "state" in out or "trans" in out


class TestHier:
    def test_verify_text_report(self, capsys):
        code, out = run(capsys, "hier", "verify", PLANT, SPEC)
        assert code in (0, 1, 2)
        assert "observer" in out and "moc" in out

    def test_verify_json_report(self, capsys):
        code, out = run(capsys, "--json", "hier", "verify", PLANT, SPEC)
        doc = json.loads(out)
        assert set(doc["hypotheses"]) >= {"observer", "lcc", "oc", "moc"}

    def test_synth_normal(self, capsys):
        code, out = run(capsys, "--json", "hier", "synth-normal", PLANT, SPEC)
        doc = json.loads(out)
        assert "low" in doc and "lifted" in doc
        assert doc["equal"] is False


class TestModular:
    @staticmethod
    def _component(tmp_path, idx, private):
        body = "\n".join([
            "event x c o hi", f"event {private} c o lo",
            "state s0", "state s1",
            "initial s0", "marked s0", "marked s1",
            "trans s0 x s1", f"trans s0 {private} s0", ""])
        f = tmp_path / f"c{idx}.saut"
        f.write_text(body)
        return str(f)

    def test_moc_over_components(self, capsys, tmp_path):
        f1 = self._component(tmp_path, 1, "a")
        f2 = self._component(tmp_path, 2, "b")
        code, out = run(capsys, "modular", "moc", f1, f2)
        assert code in (0, 2)

    def test_shared_low_event_is_an_error(self, capsys, tmp_path):
        f1 = self._component(tmp_path, 1, "a")
        assert main(["modular", "moc", f1, f1]) == 3


class TestGadgetAndRandom:
    def test_gadget_roundtrips(self, capsys, tmp_path):
        src = tmp_path / "a.saut"
        src.write_text("\n".join([
            "event p c o hi", "event q c o hi",
            "state s0", "initial s0", "marked s0",
            "trans s0 p s0", "trans s0 q s0", ""]))
        out_file = tmp_path / "g.saut"
        code, _ = run(capsys, "--out", str(out_file), "gadget", "moc", str(src))
        assert code == 0
        g = parse_automaton(out_file.read_text(), allow_reserved=True)
        assert "@" in g.alphabet.names and "#" in g.alphabet.names

    def test_random_is_seed_stable(self, capsys):
        _, out1 = run(capsys, "random", "--seed", "5", "--states", "6")
        _, out2 = run(capsys, "random", "--seed", "5", "--states", "6")
        assert out1 == out2 and "state" in out1


class TestDeterminism:
    """Identical invocations give identical output, whatever order the
    string hash seed gives Python's sets of strings."""

    @pytest.mark.parametrize("argv", [
        ("synth", "supn", SPEC, PLANT),
        ("hier", "synth-normal", PLANT, SPEC),
        ("synth", "suprelobs", RSPEC, RAMBIENT, RPLANT),
        ("hier", "synth-relobs", PLANT, SPEC),
    ], ids=["synth-supn", "hier-synth-normal", "synth-suprelobs",
            "hier-synth-relobs"])
    def test_output_is_independent_of_hash_seed(self, argv):
        src = str(DATA.parent / "src")
        outs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join(
                           filter(None, (src, os.environ.get("PYTHONPATH")))))
            proc = subprocess.run(
                [sys.executable, "-m", "hierctl.cli", "--json", *argv],
                env=env, capture_output=True, text=True, timeout=120)
            assert proc.returncode in (0, 1), proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1]
        assert json.loads(outs[0])["command"].startswith(argv[0])


class TestErrors:
    def test_missing_file_exits_three(self, capsys):
        assert main(["check", "oc", "/nonexistent.saut"]) == 3

    def test_parse_error_exits_three(self, capsys, tmp_path):
        f = tmp_path / "bad.saut"
        f.write_text("event a c o hi\nbogus line\n")
        assert main(["check", "oc", str(f)]) == 3

    @pytest.mark.parametrize("argv", [
        ("random", "--states", "0"), ("random", "--events", "-1"),
        ("random", "--density", "1.5"),
        ("--budget", "-5", "check", "moc", PLANT),
        ("--budget", "-1", "hier", "verify", PLANT, SPEC)])
    def test_bad_generator_or_budget_exits_three(self, capsys, argv):
        assert main(list(argv)) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    def test_bad_property_exits_two_from_argparse(self, capsys):
        with pytest.raises(SystemExit):
            main(["check", "nonsense", PLANT])


class TestParser:
    def test_main_builds_no_parser(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        for _ in range(2):
            assert main(["random", "--seed", "5", "--states", "4"]) == 0
        assert main(["check", "oc", PLANT]) == 0
        assert built == []

    def test_usage_error_matches_a_fresh_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        with pytest.raises(SystemExit):
            cli._build_parser().parse_args(["check"])
        assert capsys.readouterr().err == err
        assert err.startswith("usage: hierctl check ")
        assert err.endswith("hierctl check: error: the following arguments "
                            "are required: property, FILE\n")
