from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys

import pytest

from hierctl import checks, cli
from hierctl.cli import main
from hierctl.oracle import PROPERTY_ORACLES
from hierctl.saut import parse_automaton, serialize_automaton

from conftest import DATA, cli_big_inputs, cli_small_inputs

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

    @pytest.mark.parametrize("argv", [
        ["synth", "supn", SPEC, PLANT],
        ["synth", "suprelobs", RSPEC, RAMBIENT, RPLANT],
        ["hier", "synth-normal", PLANT, SPEC],
        ["hier", "synth-relobs", PLANT, SPEC]])
    def test_json_serializes_what_it_reports(self, capsys, monkeypatch,
                                              tmp_path, argv):
        # With --json and no --out the result is in the report alone;
        # its text was also built for `--out` and dropped.
        calls = []

        def counting(a):
            calls.append(a)
            return serialize_automaton(a)

        monkeypatch.setattr(cli, "serialize_automaton", counting)
        code, out = run(capsys, "--json", *argv)
        assert code == 0
        reported = _automata(json.loads(out))
        assert len(calls) == reported > 0
        calls.clear()
        out_file = tmp_path / "out.saut"
        code, _ = run(capsys, "--json", "--out", str(out_file), *argv)
        assert code == 0 and len(calls) == reported + 1
        assert out_file.read_text(encoding="utf-8") == \
            serialize_automaton(calls[-1])

    def test_synthesis_checks_only_k_in_c(self, capsys, monkeypatch):
        # Each specification is made prefix-closed and included in L(G)
        # before the synthesis, so `synth supn` proves nothing again and
        # `synth suprelobs` only K ⊆ C, which its user input can break.
        calls = []
        for module, name in ((checks, "_require_inclusion"),
                             (cli, "_require_inclusion"),
                             (checks, "is_prefix_closed")):
            def spy(*args, name=name, real=getattr(module, name)):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(module, name, spy)
        assert run(capsys, "synth", "supn", SPEC, PLANT)[0] == 0
        assert calls == []
        assert run(capsys, "synth", "suprelobs", RSPEC, RAMBIENT,
                   RPLANT)[0] == 0
        assert calls == ["_require_inclusion"]
        assert main(["synth", "suprelobs", RAMBIENT, RSPEC, RPLANT]) == 3
        assert capsys.readouterr().err == (
            "error: sup_relobs_closed needs K ⊆ C (counterexample: a u)\n")

    def test_synthesis_output_bytes(self, capsys, tmp_path):
        # rc, stdout and --out file of the relative-observability syntheses
        # on cli-mix inputs, pinned to the candidate numbering of the
        # nested product: renaming a result state changes the digest.
        def write(name, a):
            path = tmp_path / f"{name}.saut"
            path.write_text(serialize_automaton(a), encoding="utf-8")
            return str(path)

        runs = []
        for seed in (0, 7, 14):
            g, c, k = cli_big_inputs(seed)
            runs.append(["synth", "suprelobs", write(f"big{seed}-k", k),
                         write(f"big{seed}-c", c), write(f"big{seed}-g", g)])
        for seed in (7, 9, 14, 23):
            g, spec = cli_small_inputs(seed)
            runs.append(["--budget", "300", "hier", "synth-relobs",
                         write(f"small{seed}-g", g),
                         write(f"small{seed}-k", spec)])
        digest, out_file = hashlib.sha256(), tmp_path / "out.saut"
        for argv in runs:
            code, out = run(capsys, "--json", "--out", str(out_file), *argv)
            digest.update(f"{code}\n{out}".encode())
            digest.update(out_file.read_bytes())
        assert digest.hexdigest() == SYNTHESIS_DIGEST


def _automata(doc) -> int:
    """The automata in a JSON report: its {"states", "saut"} objects."""
    if isinstance(doc, dict):
        return 1 if "saut" in doc else sum(map(_automata, doc.values()))
    if isinstance(doc, list):
        return sum(map(_automata, doc))
    return 0


SYNTHESIS_DIGEST = \
    "e16f24d4d071776ca53bd069206a50ef36d2ca33b698ebfc7fd4ed818ef143a7"


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

    def test_non_utf8_file_exits_three(self, capsys, tmp_path):
        f = tmp_path / "bad.saut"
        f.write_bytes(b"event a c o hi\nstate s\xff\n")
        assert main(["check", "oc", str(f)]) == 3
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert err.startswith(f"error: {f} is not UTF-8 text: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ("random", "--states", "0"), ("random", "--events", "-1"),
        ("random", "--density", "1.5"),
        ("--budget", "-5", "check", "moc", PLANT),
        ("--budget", "-1", "hier", "verify", PLANT, SPEC),
        ("--oracle-bound", "-1", "check", "oc", PLANT)])
    def test_bad_generator_or_budget_exits_three(self, capsys, argv):
        assert main(list(argv)) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("argv, want", [
        (("synth", "supn", PLANT), "'synth supn' takes exactly 2 file(s)"),
        (("synth", "suprelobs", SPEC, PLANT),
         "'synth suprelobs' takes exactly 3 file(s)"),
        (("check", "relobs", SPEC, PLANT),
         "'check relobs' takes exactly 3 file(s)"),
        (("check", "oc", PLANT, PLANT), "'check oc' takes exactly 1 file(s)"),
        (("check", "loc", PLANT, PLANT),
         "'check loc' takes exactly 1 file(s)"),
        (("check", "moc", PLANT, PLANT),
         "'check moc' takes exactly 1 file(s)"),
        (("check", "observer", SPEC, PLANT),
         "'check observer' takes exactly 1 file(s)"),
        (("check", "lcc", SPEC, PLANT),
         "'check lcc' takes exactly 1 file(s)"),
        (("check", "controllability", PLANT),
         "'check controllability' takes exactly 2 file(s)"),
        (("check", "observability", SPEC, SPEC, PLANT),
         "'check observability' takes exactly 2 file(s)"),
        (("check", "normality", PLANT),
         "'check normality' takes exactly 2 file(s)"),
        (("check", "nonconflicting", PLANT, PLANT, PLANT),
         "'check nonconflicting' takes exactly 2 file(s)")])
    def test_wrong_file_count_exits_three(self, capsys, argv, want):
        # 1 means "violated", so a usage error must not raise through main
        assert main(list(argv)) == 3
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {want}\n"

    def test_argparse_usage_errors_exit_three(self, capsys):
        # argparse exits 2, which means "inconclusive"
        for argv in (["check", "nonsense", PLANT],
                     ["--budget", "abc", "check", "oc", PLANT], ["check"]):
            assert main(argv) == 3, argv
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("usage: hierctl"), argv

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: hierctl")


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
        assert main(["check"]) == 3
        err = capsys.readouterr().err
        with pytest.raises(SystemExit):
            cli._build_parser().parse_args(["check"])
        assert capsys.readouterr().err == err
        assert err.startswith("usage: hierctl check ")
        assert err.endswith("hierctl check: error: the following arguments "
                            "are required: property, FILE\n")

    def test_check_usage_lists_the_properties_in_order(self, capsys):
        # a fresh parser is built from the same table, so only a pinned
        # text sees the choices reordered
        assert main(["check"]) == 3
        err = capsys.readouterr().err
        usage = " ".join(err.split("\nhierctl check: error:")[0].split())
        assert usage == (
            "usage: hierctl check [-h] {oc,loc,moc,observer,lcc,"
            "controllability,observability,normality,relobs,nonconflicting}"
            " FILE [FILE ...]")

    def test_check_table_is_the_parsers_and_the_oracles(self):
        check = _parsers()[1]
        prop = next(a for a in check._actions if a.dest == "property")
        assert list(cli._CHECKS) == prop.choices
        assert set(cli._CHECKS) == set(PROPERTY_ORACLES)


def _parsers():
    subs = [a for a in cli._PARSER._actions if a.nargs == argparse.PARSER]
    return [cli._PARSER, *subs[0].choices.values()]


def test_import_compiles_every_pattern_the_parser_matches_with():
    # The nine argv shapes of the cli-mix benchmark workload and one argv
    # per subcommand: after `import hierctl.cli`, argparse compiles no
    # regex for them, so a forked child inherits every one it needs.
    shapes = [
        *(["--json", "check", prop, "s", "p"] for prop in
          ("controllability", "observability", "normality")),
        ["--json", "check", "relobs", "s", "a", "p"],
        ["--json", "--out", "o", "synth", "supn", "s", "p"],
        ["--json", "--out", "o", "synth", "suprelobs", "s", "a", "p"],
        *(["--json", "--budget", "300", "hier", kind, "p", "s"]
          for kind in ("verify", "synth-normal", "synth-relobs")),
        ["check", "oc", "p"], ["synth", "supn", "s", "p"],
        ["hier", "synth-normal", "p", "s"], ["modular", "moc", "a", "b"],
        ["gadget", "loc", "p"], ["random", "--seed", "5", "--states", "4"]]
    script = (
        "import json, re, sys\n"
        "from hierctl import cli\n"
        "before = set(re._cache)\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    cli._PARSER.parse_args(argv)\n"
        "print(sorted(str(key) for key in set(re._cache) - before))\n")
    src = str(DATA.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(shapes)],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("argv", [("check", "lcc"), ("check", "oc"),
                                  ("--json", "check", "moc")])
def test_a_byte_order_mark_changes_nothing(capsys, tmp_path, argv):
    bom = tmp_path / "bom.saut"
    with open(PLANT, "rb") as fh:
        bom.write_bytes(b"\xef\xbb\xbf" + fh.read())
    assert run(capsys, *argv, str(bom)) == run(capsys, *argv, PLANT)


def test_the_oracle_is_imported_only_when_used():
    # The bounded oracles referee `--oracle-bound` and the tests; a process
    # that only decides does not load them, and the package still exports
    # them.
    script = (
        "import sys\n"
        "import hierctl.cli\n"
        "assert hierctl.cli.main(['check', 'lcc', sys.argv[1]]) == 0\n"
        "assert 'hierctl.oracle' not in sys.modules\n"
        "from hierctl import oracle_oc, PROPERTY_ORACLES\n"
        "assert PROPERTY_ORACLES['oc'] is oracle_oc\n"
        "assert hierctl.cli.main(['--oracle-bound', '4', 'check', 'moc',\n"
        "                         sys.argv[1]]) == 1\n")
    src = str(DATA.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", script, PLANT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("lcc: holds\n"
                           "moc: violated (s=c; sequence=-:b c:c; "
                           "t_prime=b c)\noracle (bound 4): violated\n")
