"""Command-line surface: ingestion, commands, output formats, exit codes."""

import json
import math

import numpy as np
import pytest

from countfam import (
    GenPoissonParams,
    GfpdParams,
    NegBinomParams,
    RngStream,
    SummaryStats,
    genpoisson_factorial_moments,
    genpoisson_pmf,
    genpoisson_pmf_table,
    gfpd_pmf_table,
    gfpd_summary,
    make_special_case,
    negbinom_pmf,
    negbinom_pmf_table,
    negbinom_skewness,
    summary_from_factorial,
    sample_fpd,
    sample_wpd,
    wpd_pmf_table,
    wpd_summary,
)
from countfam.cli import CliError, ingest, main
from countfam.inference import LAWS


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestIngest:
    def test_raw(self, tmp_path):
        f = tmp_path / "raw.txt"
        f.write_text("0\n1\n1\n3\n")
        d = ingest(str(f), "raw")
        assert d.histogram == {0: 1, 1: 2, 3: 1}
        assert d.n_total == 4

    def test_histogram(self, tmp_path):
        f = tmp_path / "h.csv"
        f.write_text("2,5\n0,1\n")
        d = ingest(str(f), "histogram")
        assert d.histogram == {0: 1, 2: 5}
        assert d.n_total == 6

    def test_blank_lines_skipped(self, tmp_path):
        f = tmp_path / "raw.txt"
        f.write_text("1\n\n2\n\n")
        assert ingest(str(f), "raw").n_total == 2

    def test_float_rejected_with_line(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("1.5\n")
        with pytest.raises(CliError) as e:
            ingest(str(f), "raw")
        assert ":1:" in str(e.value)

    def test_negative_rejected(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("3\n-2\n")
        with pytest.raises(CliError) as e:
            ingest(str(f), "raw")
        assert ":2:" in str(e.value)

    def test_empty_file(self, tmp_path):
        f = tmp_path / "empty.txt"
        f.write_text("\n\n")
        with pytest.raises(CliError):
            ingest(str(f), "raw")

    def test_missing_file(self):
        with pytest.raises(CliError):
            ingest("/nonexistent/nope.txt", "raw")


class TestSampleCommand:
    def test_deterministic_and_seed_echo(self, capsys):
        args = ["sample", "--model", "fpd", "--alpha", "1.0", "--mu", "3",
                "--n", "10", "--seed", "7"]
        code1, out1, err1 = run_cli(args, capsys)
        code2, out2, _ = run_cli(args, capsys)
        assert code1 == code2 == 0
        assert out1 == out2
        assert "seed: 7" in err1
        assert len(out1.strip().splitlines()) == 10

    def test_round_trip(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["sample", "--model", "com_poisson", "--lam", "2.0", "--nu", "1.5",
             "--n", "500", "--seed", "3"], capsys)
        assert code == 0
        f = tmp_path / "counts.txt"
        f.write_text(out)
        d = ingest(str(f), "raw")
        vals = [int(line) for line in out.strip().splitlines()]
        h = {}
        for v in vals:
            h[v] = h.get(v, 0) + 1
        assert d.histogram == h
        assert d.n_total == 500


class TestPmfCommand:
    def test_matches_library(self, capsys):
        code, out, _ = run_cli(
            ["pmf", "--model", "fpd", "--alpha", "0.9", "--mu", "2.0",
             "--x-max", "8", "--output-format", "csv"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,probability"
        table = gfpd_pmf_table(GfpdParams.fpd(0.9, 2.0), x_max=8)
        for i, line in enumerate(lines[1:]):
            x, prob = line.split(",")
            assert int(x) == i
            assert float(prob) == pytest.approx(float(table[i]), rel=1e-9)

    def test_adaptive_support_sums_to_one(self, capsys):
        code, out, _ = run_cli(
            ["pmf", "--model", "hyper_poisson", "--lam", "2.0", "--beta", "0.7",
             "--output-format", "csv"], capsys)
        assert code == 0
        total = sum(float(l.split(",")[1]) for l in out.strip().splitlines()[1:])
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_four_parameter_family(self, capsys):
        code, out, _ = run_cli(
            ["pmf", "--model", "gfpd", "--alpha", "0.6", "--beta", "0.9",
             "--delta", "1.0", "--mu", "2.0", "--output-format", "csv"], capsys)
        assert code == 0
        total = sum(float(l.split(",")[1]) for l in out.strip().splitlines()[1:])
        assert total == pytest.approx(1.0, abs=1e-7)


class TestFitGofCompare:
    @pytest.fixture()
    def datafile(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["sample", "--model", "fpd", "--alpha", "0.85", "--mu", "3.6",
             "--n", "2000", "--seed", "5"], capsys)
        assert code == 0
        f = tmp_path / "d.txt"
        f.write_text(out)
        return str(f)

    def test_fit_json_schema(self, datafile, capsys):
        code, out, _ = run_cli(
            ["fit", "--model", "negbinom", "--input", datafile,
             "--output-format", "json"], capsys)
        assert code == 0
        rows = json.loads(out)
        assert set(rows[0]) == {"model", "params", "loglik", "chi2", "df",
                                "p_value", "converged"}

    def test_fit_table_json_same_numbers(self, datafile, capsys):
        _, out_j, _ = run_cli(["fit", "--model", "poisson", "--input", datafile,
                               "--output-format", "json"], capsys)
        _, out_t, _ = run_cli(["fit", "--model", "poisson", "--input", datafile,
                               "--output-format", "table"], capsys)
        row = json.loads(out_j)[0]
        assert f"{row['chi2']:.10g}" in out_t

    def test_gof_known_params(self, datafile, capsys):
        code, out, _ = run_cli(
            ["gof", "--model", "poisson", "--lam", "3.8", "--input", datafile,
             "--output-format", "json"], capsys)
        assert code == 0
        row = json.loads(out)[0]
        assert row["df"] >= 1
        assert 0.0 <= row["p_value"] <= 1.0

    def test_compare_two_rows(self, datafile, capsys):
        code, out, _ = run_cli(
            ["compare", "--models", "fpd,negbinom", "--input", datafile,
             "--output-format", "json"], capsys)
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 2
        ps = [r["p_value"] for r in rows]
        assert ps == sorted(ps, reverse=True)

    def test_no_pool_flag(self, datafile, capsys):
        _, out1, _ = run_cli(["gof", "--model", "poisson", "--lam", "3.8",
                              "--input", datafile, "--output-format", "json"], capsys)
        _, out2, _ = run_cli(["gof", "--model", "poisson", "--lam", "3.8",
                              "--input", datafile, "--no-pool",
                              "--output-format", "json"], capsys)
        assert json.loads(out2)[0]["df"] >= json.loads(out1)[0]["df"]


class TestMomentsCommand:
    def test_fpd_moments(self, capsys):
        code, out, _ = run_cli(
            ["moments", "--model", "fpd", "--alpha", "0.5", "--mu", "2.0",
             "--output-format", "json"], capsys)
        assert code == 0
        row = json.loads(out)[0]
        assert row["mean"] == pytest.approx(2.0 / math.gamma(1.5), rel=1e-10)
        assert row["fisher_index"] > 1.0

    @pytest.mark.parametrize("l2", ["0.3", "-0.2"])
    def test_genpoisson_moments(self, l2, capsys):
        code, out, err = run_cli(
            ["moments", "--model", "genpoisson", "--lambda1", "2", "--lambda2", l2,
             "--output-format", "json"], capsys)
        assert code == 0, err
        row = json.loads(out)[0]
        # mean lambda1 / (1 - lambda2) on the untruncated branch
        if float(l2) > 0:
            assert row["mean"] == pytest.approx(2.0 / 0.7, rel=1e-10)
        assert row["variance"] > 0.0


class TestExitCodes:
    def test_parse_error(self, tmp_path, capsys):
        f = tmp_path / "bad.txt"
        f.write_text("1.5\n")
        code, _, err = run_cli(["fit", "--model", "poisson", "--input", str(f)], capsys)
        assert code == 3
        assert "error[3]" in err

    def test_domain_error(self, capsys):
        code, _, err = run_cli(
            ["pmf", "--model", "fpd", "--alpha", "2.0", "--mu", "1.0",
             "--x-max", "3"], capsys)
        assert code == 4

    @pytest.mark.parametrize("support", [[], ["--x-max", "5"]])
    def test_vanishing_zero_cell(self, support, capsys):
        # model I at beta = 0, nu > 1 has P(0) = 0, so no recursion reaches P(1);
        # the adaptive and the fixed support refuse it alike
        code, out, err = run_cli(
            ["pmf", "--model", "model_i", "--lam", "2", "--beta", "0", "--nu", "1.5",
             *support], capsys)
        assert code == 4
        assert "vanishing zero cell" in err
        assert out == ""

    def test_missing_flag_usage(self, capsys):
        code, _, err = run_cli(["pmf", "--model", "fpd", "--alpha", "0.5"], capsys)
        assert code == 2

    def test_unknown_fit_model(self, tmp_path, capsys):
        f = tmp_path / "d.txt"
        f.write_text("1\n2\n")
        code, _, _ = run_cli(["fit", "--model", "wat", "--input", str(f)], capsys)
        assert code == 2


# one parameter set per law the CLI accepts, as command-line flags
LAW_FLAGS = {
    "fpd": {"alpha": 0.7, "mu": 2.0},
    "gfpd": {"alpha": 0.6, "beta": 0.9, "delta": 1.0, "mu": 2.0},
    "gfpd_aa1": {"alpha": 0.8, "mu": 1.0},
    "negbinom": {"r": 3.0, "p": 0.4},
    "genpoisson": {"lambda1": 2.0, "lambda2": 0.3},
    "poisson": {"lam": 2.5},
    "com_poisson": {"lam": 2.0, "nu": 1.5},
    "hyper_poisson": {"lam": 2.0, "beta": 0.7},
    "alt_mittag_leffler": {"lam": 1.5, "alpha": 0.8, "beta": 1.2},
    "fractional_com_poisson": {"lam": 1.5, "alpha": 0.8, "beta": 1.0, "nu": 1.2},
    "alt_generalized_ml": {"lam": 1.5, "alpha": 0.8, "beta": 1.0, "gamma": 1.5},
    "model_i": {"lam": 2.0, "beta": 0.5, "nu": 1.5},
    "model_i_2param": {"lam": 2.0, "beta": 1.5},
    "model_ii": {"lam": 2.0, "beta": 2.0, "gamma": 1.0},
    "model_ii_2param": {"beta": 2.0, "gamma": 1.0},
}
GFPD_LAWS = {
    "fpd": lambda f: GfpdParams.fpd(f["alpha"], f["mu"]),
    "gfpd": lambda f: GfpdParams(f["alpha"], f["beta"], f["delta"], f["mu"]),
    "gfpd_aa1": lambda f: GfpdParams.aa1(f["alpha"], f["mu"]),
}


def _flags(model):
    argv = ["--model", model]
    for name, v in LAW_FLAGS[model].items():
        argv += [f"--{name}", repr(v)]
    return argv


def _library_pmf(model, x_max):
    f = LAW_FLAGS[model]
    if model in GFPD_LAWS:
        return list(gfpd_pmf_table(GFPD_LAWS[model](f), x_max=x_max))
    if model == "negbinom":
        return list(negbinom_pmf_table(NegBinomParams(f["r"], f["p"]), x_max))
    if model == "genpoisson":
        return list(genpoisson_pmf_table(GenPoissonParams(f["lambda1"], f["lambda2"]), x_max))
    return list(wpd_pmf_table(make_special_case(model, **f), x_max=x_max))


def _library_summary(model):
    f = LAW_FLAGS[model]
    if model in GFPD_LAWS:
        return gfpd_summary(GFPD_LAWS[model](f))
    if model == "negbinom":
        p = NegBinomParams(f["r"], f["p"])
        return SummaryStats(p.mean, p.variance, negbinom_skewness(p), 1.0 / p.p)
    if model == "genpoisson":
        p = GenPoissonParams(f["lambda1"], f["lambda2"])
        return summary_from_factorial(genpoisson_factorial_moments(p, 3))
    return wpd_summary(make_special_case(model, **f))


def _library_sample(model, n, seed):
    f = LAW_FLAGS[model]
    if model == "fpd":
        return sample_fpd(f["alpha"], f["mu"], n, RngStream(seed)).values.tolist()
    return sample_wpd(make_special_case(model, **f), n, RngStream(seed)).values.tolist()


NO_SAMPLER = {"gfpd", "gfpd_aa1", "negbinom", "genpoisson"}


class TestLawContract:
    """Every law the CLI accepts, against the library route it stands for."""

    def test_laws_are_the_registry(self):
        assert set(LAW_FLAGS) == set(LAWS)

    @pytest.mark.parametrize("model", sorted(LAWS))
    def test_pmf_fixed_support(self, model, capsys):
        code, out, _ = run_cli(["pmf", *_flags(model), "--x-max", "12",
                                "--output-format", "json"], capsys)
        assert code == 0
        rows = json.loads(out)
        assert [r["x"] for r in rows] == list(range(13))
        assert [r["probability"] for r in rows] == _library_pmf(model, 12)

    @pytest.mark.parametrize("model, law, scalar_pmf", [
        ("negbinom", lambda f: NegBinomParams(f["r"], f["p"]), negbinom_pmf),
        ("genpoisson", lambda f: GenPoissonParams(f["lambda1"], f["lambda2"]), genpoisson_pmf),
    ])
    def test_pmf_baselines_match_scalar(self, model, law, scalar_pmf, capsys):
        # the scalar pmfs are computed independently of the NumPy tables the
        # CLI calls, so they check the CLI's numbers and not only its route
        code, out, _ = run_cli(["pmf", *_flags(model), "--x-max", "12",
                                "--output-format", "json"], capsys)
        assert code == 0
        p = law(LAW_FLAGS[model])
        expected = [scalar_pmf(p, x) for x in range(13)]
        got = [r["probability"] for r in json.loads(out)]
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("model", sorted(LAWS))
    def test_pmf_adaptive_support(self, model, capsys):
        code, out, _ = run_cli(["pmf", *_flags(model), "--output-format", "json"], capsys)
        assert code == 0
        assert math.fsum(r["probability"] for r in json.loads(out)) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("model", sorted(LAWS))
    def test_moments(self, model, capsys):
        code, out, err = run_cli(["moments", *_flags(model), "--output-format", "json"], capsys)
        assert code == 0
        s = _library_summary(model)
        assert json.loads(out) == [{"mean": s.mean, "variance": s.variance,
                                    "skewness": s.skewness, "fisher_index": s.fisher_index}]

    @pytest.mark.parametrize("model", sorted(LAWS))
    def test_sample(self, model, capsys):
        code, out, err = run_cli(["sample", *_flags(model), "--n", "50", "--seed", "7"], capsys)
        if model in NO_SAMPLER:
            assert code == 2
            assert "error[2]" in err
            return
        assert code == 0
        assert [int(v) for v in out.split()] == _library_sample(model, 50, 7)
        assert "seed: 7" in err
