"""CLI contract: subcommands, exit codes, output re-parseability."""
import json
import sys

import pytest

from ftop.cli import main
from ftop.parser import parse_map, parse_space
from ftop.space import map_to_json, space_to_json
from ftop.registry import M_TO_LAMBDA, SIERPINSKI

M_TO_LAMBDA_DSL = "{a<-u->x<-v->b}-->{a<-u=x=v->b}"


class TestParseCommand:
    def test_echoes_canonical_and_json(self, capsys):
        assert main(["parse", "{o->c}"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "{o->c}"
        assert json.loads(out[1]) == space_to_json(SIERPINSKI)

    def test_map_json_round_trip(self, capsys):
        assert main(["parse", M_TO_LAMBDA_DSL]) == 0
        out = capsys.readouterr().out.splitlines()
        reparsed = parse_map(out[0])
        assert json.loads(out[1]) == map_to_json(reparsed)

    def test_parse_error_exit_2(self, capsys):
        assert main(["parse", "{a->"]) == 2
        assert "error" in capsys.readouterr().err

    def test_at_file_input(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(map_to_json(M_TO_LAMBDA)))
        assert main(["parse", f"@{path}"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert parse_map(out[0]) == M_TO_LAMBDA


class TestLiftCommand:
    def test_spec_example_holds(self, capsys):
        rc = main(["lift", "-i", "{}-->{o}", "-g", M_TO_LAMBDA_DSL])
        assert rc == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["holds"] is True
        assert blob["counterexample"] is None

    def test_failing_lift_exits_1(self, capsys):
        rc = main(["lift", "-i", "{}-->{a<-w->b}", "-g", M_TO_LAMBDA_DSL])
        assert rc == 1
        blob = json.loads(capsys.readouterr().out)
        assert blob["holds"] is False
        assert blob["counterexample"] is not None

    def test_space_instead_of_map_is_usage_error(self, capsys):
        assert main(["lift", "-i", "{o}", "-g", M_TO_LAMBDA_DSL]) == 2


class TestOrthCommand:
    def test_surjections_at_2(self, capsys):
        rc = main(["orth", "-P", "{}-->{o}", "-w", "r", "-n", "2", "--jobs", "1"])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("# exact class")
        from ftop.properties import surjective

        members = [parse_map(line) for line in out[1:]]
        assert members and all(surjective(m) for m in members)

    def test_jobs_below_one_run_inline_with_the_same_lines(self, capsys):
        # the universe(4) step pays for a pool, and a worker count below 1
        # cuts no shares: it runs in this process, as --jobs 1 does
        out = {}
        for jobs in ("0", "-1", "1"):
            assert main(["orth", "-P", "{}-->{o}", "-w", "r", "-n", "4", "--jobs", jobs]) == 0
            out[jobs] = capsys.readouterr().out.splitlines()
        assert out["0"] == out["-1"] == out["1"] and len(out["1"]) > 1000

    def test_caveat_header_for_long_words(self, capsys):
        rc = main(["orth", "-P", "{}-->{o}", "-w", "rr", "-n", "2", "--jobs", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "caveat" in out

    def test_comma_separated_bases_respect_braces(self, capsys):
        rc = main(
            ["orth", "-P", "{}-->{o},{o}-->{o->c}", "-w", "r", "-n", "2",
             "--jobs", "1"]
        )
        assert rc == 0

    def test_capacity_exit_3(self, capsys):
        assert main(["orth", "-P", "{}-->{o}", "-w", "rr", "-n", "5"]) == 3


class TestClassifyCommand:
    def test_record_fields(self, capsys):
        assert main(["classify", M_TO_LAMBDA_DSL]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["surjective"] is True
        assert blob["quotient_map"] is True
        assert blob["injective"] is False


class TestEnumerateCommand:
    def test_streams_canonical_spaces(self, capsys):
        assert main(["enumerate", "-n", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 14  # 1 + 1 + 3 + 9 homeomorphism classes
        seen = {line for line in lines}
        assert len(seen) == 14
        for line in lines:
            parse_space(line)

    def test_t0_filter(self, capsys):
        assert main(["enumerate", "-n", "3", "--t0"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 + 1 + 2 + 5  # posets up to iso per size

    def test_capacity(self, capsys):
        assert main(["enumerate", "-n", "9"]) == 3

    def test_closed_pipe_exits_quietly(self, capsys, monkeypatch):
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["enumerate", "-n", "2"]) == 141
        assert not isinstance(sys.stdout, ClosedPipe)  # final flush is harmless
        sys.stdout.flush()
        sys.stdout.close()
        assert capsys.readouterr().err == ""


class TestRetractCommand:
    def test_self_retract(self, capsys):
        rc = main(["retract", "-f", M_TO_LAMBDA_DSL, "-g", M_TO_LAMBDA_DSL])
        assert rc == 0
        out = capsys.readouterr().out
        assert "section_dom" in out

    def test_no_witness_exits_1(self, capsys):
        rc = main(["retract", "-f", "{}-->{o}", "-g", "{o}-->{o}"])
        assert rc == 1


class TestFactorCommand:
    def test_identity_factors(self, capsys):
        rc = main(
            ["factor", "-f", "{o->c}-->{o->c}", "-P", M_TO_LAMBDA_DSL,
             "-w", "", "-n", "2", "--jobs", "1"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "i: " in out and "p: " in out
        # p comes from the "lr" class, which over-approximates; "l" is exact
        assert out.splitlines()[1] == (
            "# caveat: bounded universe (n=2): each step after the first "
            "over-approximates the true orthogonal within the universe")

    def test_one_caveat_line_when_both_classes_are_bounded(self, capsys):
        rc = main(
            ["factor", "-f", "{o->c}-->{o->c}", "-P", M_TO_LAMBDA_DSL,
             "-w", "r", "-n", "2", "--jobs", "1"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        # the two caveats read the same, so the line is printed once
        assert [line[:9] for line in out.splitlines()].count("# caveat:") == 1


class TestVerifyCommand:
    def test_text_format(self, capsys):
        rc = main(["verify", "--suite", "archetypes", "--jobs", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "suite archetypes: OK" in out

    def test_json_format(self, capsys):
        rc = main(
            ["verify", "--suite", "retract", "--format", "json", "--jobs", "1"]
        )
        assert rc == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["suite"] == "retract" and blob["ok"] is True

    def test_unknown_suite_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "bogus"])
        assert exc.value.code == 2

    def test_mlambda_over_its_cap_exits_3_before_a_build(self, tmp_path, monkeypatch):
        # the left class refuses n=5 before the universe is read, so the
        # 1.6M-map catalog is never built
        import ftop.universe as universe

        def no_build(spaces):
            raise AssertionError("the n=5 map catalog was built")

        monkeypatch.setenv("FTOP_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(universe, "_map_blocks", no_build)
        assert main(["verify", "--suite", "mlambda", "-n", "5", "--jobs", "1"]) == 3
        assert list(tmp_path.glob("maps_n5_*")) == []

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_all_over_its_cap_exits_3_at_any_jobs(self, jobs, capsys, tmp_path, monkeypatch):
        # the first item, lemma21's ladder, refuses n=5; forked, its worker's
        # error is raised here and the other worker is stopped
        monkeypatch.setenv("FTOP_CACHE_DIR", str(tmp_path))
        assert main(["verify", "--suite", "all", "-n", "5", "--jobs", jobs]) == 3
        assert capsys.readouterr().err == "capacity error: map universe sweep at n=5\n"

    def test_suite_with_bound(self, capsys):
        rc = main(["verify", "--suite", "lemma21", "-n", "2", "--jobs", "1"])
        assert rc == 0
        assert "n=2" in capsys.readouterr().out
