"""End-to-end acceptance run: one test per criterion, plus engine plumbing."""

import hashlib
import io
import json
import random
import shutil

import pytest

from wonderco import acceptance, satake
from wonderco.acceptance import (
    AcceptanceConfig,
    AcceptanceReport,
    FixtureError,
    _sampled_coefficients,
    fixtures_dir,
    load_fixture,
    run_acceptance,
)
from wonderco.cli import EXIT_OK, _report_payload


@pytest.fixture(scope="module")
def run_output() -> tuple[AcceptanceReport, str]:
    buf = io.StringIO()
    result = run_acceptance(stream=buf)
    return result, buf.getvalue()


@pytest.fixture(scope="module")
def report(run_output) -> AcceptanceReport:
    return run_output[0]


def _require(report, number):
    result = report.results[number - 1]
    assert result.number == number
    assert result.passed, result.line()
    return result


class TestCriteria:
    def test_criterion_01_operator_classification(self, report):
        result = _require(report, 1)
        assert result.elapsed < 5.0

    def test_criterion_02_module_decomposition(self, report):
        _require(report, 2)

    def test_criterion_03_inversion_sets(self, report):
        _require(report, 3)

    def test_criterion_04_degree_bounds(self, report):
        result = _require(report, 4)
        assert result.elapsed < 10.0

    def test_criterion_05_leading_exponents(self, report):
        _require(report, 5)

    def test_criterion_06_fixed_point_combinatorics(self, report):
        _require(report, 6)

    def test_criterion_07_vanishing_degrees(self, report):
        _require(report, 7)

    def test_criterion_08_serre_duality(self, report):
        _require(report, 8)

    def test_criterion_09_cross_route_bounds(self, report):
        result = _require(report, 9)
        # the sample must actually exercise nonzero middle cohomology
        assert "(9 with nonzero middle cohomology)" in result.detail

    def test_criterion_10_oracle_agreement(self, report):
        _require(report, 10)


class TestReport:
    def test_all_passed(self, report):
        assert report.passed
        assert _report_payload(report)["exit_code"] == EXIT_OK

    def test_one_line_per_criterion(self, report):
        lines = report.lines()
        assert len(lines) == 11
        for number, line in enumerate(lines[:10], start=1):
            assert line.startswith(f"criterion {number:>2}/10 ")
            assert " PASS " in line or " FAIL " in line
            assert "\n" not in line
        assert lines[10] == "10/10 criteria passed"

    def test_json_round_trip(self, report):
        data = json.loads(json.dumps(report.to_dict(), sort_keys=True))
        assert data["passed"] is True
        assert [c["number"] for c in data["criteria"]] == list(range(1, 11))
        assert all(c["kind"] == "ok" for c in data["criteria"])

    def test_recorded_report_is_byte_identical(self, report):
        # recorded details and payload of the default run, byte for byte
        lines = "\n".join(report.lines(timed=False))
        payload = json.dumps(_report_payload(report), sort_keys=True)
        assert hashlib.md5(lines.encode()).hexdigest() == "5ca59bc5ca032d54f3ba99e2e7601613"
        assert hashlib.md5(payload.encode()).hexdigest() == "7f9ceada723ae550ac36f9461d0aaa96"

    def test_stream_output_matches_lines(self, run_output):
        result, streamed = run_output
        assert streamed.splitlines() == result.lines()


class TestDeterminism:
    def test_sampler_reproducible(self):
        a = _sampled_coefficients(random.Random(7), 20, 5)
        b = _sampled_coefficients(random.Random(7), 20, 5)
        assert a == b
        assert len(set(a)) == 20
        assert all(abs(c) <= 5 for t in a for c in t)

    def test_config_rng_isolated_per_criterion(self):
        cfg = AcceptanceConfig(seed=3)
        assert cfg.rng(8).random() == cfg.rng(8).random()
        assert cfg.rng(8).random() != cfg.rng(9).random()


class TestConfig:
    def test_defaults_match_published_settings(self):
        cfg = AcceptanceConfig()
        assert cfg.window_width == 40
        assert cfg.height_cutoff == 12
        assert cfg.box_radius == 5
        assert cfg.sample_count == 50

    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            AcceptanceConfig(window_width=0)
        with pytest.raises(ValueError):
            AcceptanceConfig(sample_count=0)

    def test_rejects_box_too_small_for_its_draws(self):
        # Serre duality draws distinct 4-tuples, the cross-route check 20
        # distinct pairs besides its fixed samples, each from the box
        for radius, samples in ((0, 1), (1, 2)):
            with pytest.raises(ValueError, match="cross-route draws"):
                AcceptanceConfig(box_radius=radius, sample_count=samples)
        with pytest.raises(ValueError, match="room for 625 duality samples"):
            AcceptanceConfig(box_radius=2, sample_count=626)
        # at radius 2 each draw still finishes: 625 tuples, 25 pairs
        cfg = AcceptanceConfig(box_radius=2, sample_count=625)
        assert len(_sampled_coefficients(cfg.rng(8), 625, 2)) == 625
        pairs = acceptance.NONZERO_H3_SAMPLES
        assert len(_sampled_coefficients(cfg.rng(9), 20, 2, 2, pairs)) == 20


class TestFixtures:
    def test_directory_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("WONDERCO_FIXTURES", str(tmp_path))
        assert fixtures_dir() == tmp_path
        with pytest.raises(FixtureError, match="cannot read"):
            load_fixture("inversion_sets.json")

    def test_malformed_fixture_rejected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("WONDERCO_FIXTURES", str(tmp_path))
        (tmp_path / "broken.json").write_text("[1, 2", encoding="utf-8")
        with pytest.raises(FixtureError, match="not valid JSON"):
            load_fixture("broken.json")
        (tmp_path / "list.json").write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(FixtureError, match="JSON object"):
            load_fixture("list.json")

    def test_tampered_golden_reported_as_mismatch(self, tmp_path, monkeypatch):
        src = fixtures_dir()
        for name in src.glob("*.json"):
            shutil.copy(name, tmp_path / name.name)
        data = json.loads((tmp_path / "inversion_sets.json").read_text())
        data["w"]["K"][0] = [1, 1, 1, 1, 1]
        (tmp_path / "inversion_sets.json").write_text(json.dumps(data))
        monkeypatch.setenv("WONDERCO_FIXTURES", str(tmp_path))
        # the engine alone, on the one criterion the tampered fixture feeds
        monkeypatch.setattr(acceptance, "_CRITERIA", acceptance._CRITERIA[2:3])
        (result,) = run_acceptance(AcceptanceConfig()).results
        assert not result.passed
        assert result.kind == "mismatch"
        assert "K(w)" in result.detail

    def test_bad_catalog_involution_reported_as_mismatch(self, monkeypatch):
        # the arrow 1-2 of A3 squares to the identity but sends
        # alpha_2 + alpha_3 to -(alpha_1 + alpha_3), which is no root
        monkeypatch.setitem(satake.CATALOG, "bad-A3", "type A3\narrow 1 2")
        # the two route comparisons ahead of the catalog pass as stubs, which
        # keeps this to the catalog path
        monkeypatch.setattr(acceptance, "_characters_agree", lambda *_: True)
        monkeypatch.setattr(acceptance, "_convolved_terms", lambda s: s.terms())
        monkeypatch.setattr(acceptance, "_CRITERIA", acceptance._CRITERIA[9:10])
        (result,) = run_acceptance(AcceptanceConfig()).results
        satake.catalog_diagram.cache_clear()
        assert result.number == 10 and result.kind == "mismatch"
        assert result.detail == "bad-A3 does not induce an involution"
