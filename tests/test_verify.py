"""Suite runner behavior: statuses, determinism, report schema."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ftop
from ftop.verify import SUITE_NAMES, run_suite


def claims_of(report):
    return {c.claim_id: c for c in report.claims}


class TestSuiteBasics:
    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suite("nonsense")

    def test_suite_names_cover_contract(self):
        assert set(SUITE_NAMES) == {
            "lemma21",
            "appendix32",
            "closed_proper",
            "archetypes",
            "normality",
            "mlambda",
            "figure2",
            "subdivision",
            "retract",
            "factorization",
            "all",
        }

    def test_archetypes_all_closed(self):
        rep = run_suite("archetypes")
        assert rep.ok
        assert len(rep.claims) == 4
        assert all(c.status == "pass" for c in rep.claims)

    def test_subdivision_structural_sanity(self):
        rep = run_suite("subdivision")
        assert rep.ok and rep.claims[0].status == "pass"

    def test_retract_records_which_reading(self):
        rep = run_suite("retract")
        assert rep.ok
        detail = rep.claims[0].detail
        assert "displayed" in detail and "no witness" in detail
        assert "text" in detail and "witness found and verified" in detail

    def test_normality_suite_default_bound(self):
        rep = run_suite("normality")
        assert rep.n == 5
        assert rep.ok
        got = claims_of(rep)
        assert got["normal_iff_empty_lifting"].status == "pass"
        assert got["hereditarily_normal_two_routes"].status == "pass"


class TestLadderSuites:
    def test_lemma21_small_bound_passes(self):
        rep = run_suite("lemma21", n=2)
        assert rep.ok
        assert {c.claim_id for c in rep.claims} == {
            "ladder.r",
            "ladder.rl",
            "ladder.rll",
            "ladder.rllr",
            "ladder.rr",
            "ladder.lrrrl",
        }

    def test_appendix32_small_bound(self):
        rep = run_suite("appendix32", n=2)
        assert rep.ok
        ids = {c.claim_id for c in rep.claims}
        assert "ladder.lrrrr" in ids
        assert "subsets.via_fwd_collapse" in ids
        assert "subsets.via_bwd_collapse" in ids

    def test_default_bound_is_three_and_exact(self):
        rep = run_suite("lemma21", jobs=2)
        assert rep.n == 3
        assert rep.ok
        assert all(c.status == "pass" for c in rep.claims)


class TestStatusSemantics:
    def test_factorization_is_caveat_only(self):
        rep = run_suite("factorization", n=2)
        assert rep.ok  # caveats never fail a run
        assert rep.claims[0].status == "caveat"
        assert "exploration" in rep.claims[0].detail

    def test_mlambda_directional_caveat(self, mlambda_report):
        got = claims_of(mlambda_report)
        assert got["left_class_lifts_one_step_subdivision"].status == "pass"
        assert got["left_class_lifts_two_step_subdivision"].status == "pass"
        assert got["discrete_domain_members_are_injective"].status == "pass"
        assert got["discrete_domain_members_have_induced_topology"].status == "pass"
        assert got["discrete_domain_members_into_t0_are_closed"].status == "pass"
        hn = got["discrete_domain_members_into_hn_are_closed"]
        assert hn.status == "caveat"
        assert hn.counterexamples  # surfaced verbatim
        assert mlambda_report.ok


@pytest.fixture(scope="module")
def mlambda_report():
    return run_suite("mlambda", jobs=2)


class TestReportShape:
    def test_json_schema(self):
        rep = run_suite("archetypes")
        js = rep.to_json()
        assert set(js) == {"suite", "n", "jobs", "ok", "claims"}
        for claim in js["claims"]:
            assert set(claim) == {
                "claim",
                "anchor",
                "status",
                "detail",
                "counterexamples",
                "runtime",
            }

    def test_text_rendering_mentions_all_claims(self):
        rep = run_suite("archetypes")
        text = rep.render_text()
        for c in rep.claims:
            assert c.claim_id in text
        assert text.endswith("OK")

    @pytest.mark.usefixtures("forked_steps")
    def test_jobs_do_not_change_results(self):
        def strip(r):
            return [
                (c.claim_id, c.status, c.detail, c.counterexamples)
                for c in r.claims
            ]

        a = run_suite("normality", n=4, jobs=1)
        b = run_suite("normality", n=4, jobs=3)
        assert strip(a) == strip(b)

    def test_all_combines_suites(self):
        rep = run_suite("all", n=2)
        prefixes = {c.claim_id.split(".")[0] for c in rep.claims}
        assert "lemma21" in prefixes and "retract" in prefixes


@pytest.mark.parametrize("suite, n, subject", [("normality", 3, "spaces"),
                                               ("closed_proper", 2, "maps")])
def test_sweep_disagreements_are_items_of_the_subject(suite, n, subject, monkeypatch):
    # with its predicate negated, a row disagrees with every item it sweeps,
    # and hands each back as a space or as a map, in catalog order
    import ftop.verify as verify
    from ftop.universe import enumerate_maps, enumerate_spaces

    def negated(pred):
        return lambda item: not pred(item)

    monkeypatch.setattr(verify, "_SWEEPS", tuple(
        row[:5] + (negated(row[5]),) + row[6:] if row[0] == suite else row
        for row in verify._SWEEPS))
    items = enumerate_spaces(n) if subject == "spaces" else enumerate_maps(n)
    total, bad = verify._Run(suite, n, 1).sweep(subject)
    (got,) = bad.values()
    assert total == len(items) and got == list(items)


GOLDEN = Path(__file__).parent / "data" / "verify_all_n2.json"


@pytest.mark.parametrize("jobs", [1, 2])
def test_all_matches_golden_report(jobs):
    """Every claim of every suite at n=2, runtimes aside, as recorded."""
    want = json.loads(GOLDEN.read_text())
    got = run_suite("all", n=2, jobs=jobs).to_json()
    for claim in got["claims"]:
        del claim["runtime"]
    assert got == dict(want, jobs=jobs)


# every suite at n=2 in a fresh process, so no word memo is warm: the report,
# runtimes aside, and the DECISIONS and POOL counts the run made
_ALL_N2 = """
import json, sys
from ftop import lifting
from ftop._parallel import POOL
from ftop.verify import run_suite
lifting.POOL_MIN_WORK = 0  # a step handed jobs > 1 in a worker would fork
report = run_suite("all", n=2, jobs=int(sys.argv[1])).to_json()
for claim in report["claims"]:
    del claim["runtime"]
print(json.dumps([report, dict(lifting.DECISIONS), dict(POOL)]))
"""


def test_all_counts_and_answers_do_not_depend_on_jobs():
    # at 12 every suite item has a worker of its own, so suites that share a
    # word memo (lemma21 with appendix32, mlambda with factorization) must
    # share an item
    env = dict(os.environ, PYTHONPATH=str(Path(ftop.__file__).parents[1]))
    runs = {}
    for jobs in (1, 2, 3, 12):
        out = subprocess.run([sys.executable, "-c", _ALL_N2, str(jobs)], env=env,
                             capture_output=True, text=True, timeout=300)
        assert out.returncode == 0, out.stderr
        runs[jobs] = json.loads(out.stdout.splitlines()[-1])
    report, made, pool = runs.pop(1)
    assert pool.pop("forked", 0) == 0 and set(made) == {"l", "r"}
    for jobs, (got, got_made, got_pool) in runs.items():
        assert got == dict(report, jobs=jobs)
        assert got_made == made
        assert got_pool.pop("forked") == 1 and got_pool == pool
