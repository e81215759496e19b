"""Configuration schema, experiment drivers, and the CLI contract."""

import json
import math
import pathlib
import time

import numpy as np
import pytest

from evlhts import config as config_mod
from evlhts import evl, experiments, hts
from evlhts.cli import build_parser, main
from evlhts.config import ExperimentConfig, SCHEMA, parse_text, resolve
from evlhts.cylinders import PartitionContext
from evlhts.errors import ConfigError
from evlhts.measures import BernoulliDoubling
from evlhts.systems import doubling
from reference import fraction_smb_rates


GOLDEN = pathlib.Path(__file__).with_name("golden")


def make_config(experiment, text="", **kw):
    return ExperimentConfig.build(experiment, parse_text(text), **kw)


MP_BALL = "system.kind = manneville_pomeau\nhts.target = ball"
MP_LEBESGUE = "system.kind = manneville_pomeau\nmeasure.kind = lebesgue"
TENT_LEBESGUE = "system.kind = full_tent\nmeasure.kind = lebesgue"
ONE_HIT_SAMPLE = "system.kind = doubling\nhts.depth_list = 4\nhts.samples = 1"


def override(text, lines):
    """Config ``text`` with ``lines`` added, replacing the keys they set."""
    keys = {line.split("=", 1)[0].strip() for line in lines.splitlines()}
    kept = [line for line in text.splitlines()
            if line.split("=", 1)[0].strip() not in keys]
    return "\n".join(kept + lines.splitlines()) + "\n"


def forbid_sampling(monkeypatch):
    """Fail the test if an experiment samples."""
    def refuse(*args, **kwargs):
        raise AssertionError("sampled before the config was checked")
    for owner, name in ((evl, "sample_ball_min_distances"),
                        (evl, "sample_cylinder_no_entry"),
                        (hts, "sample_hit_times"),
                        (experiments, "dprime_estimate"),
                        (experiments, "mixing_gap_estimate")):
        monkeypatch.setattr(owner, name, refuse)


class TestConfigParsing:
    def test_typed_values_and_comments(self):
        table = parse_text(
            """
            # full-line comment
            master_seed = 7
            evl.samples = 2500   # trailing comment
            evl.iid_mode = true
            evl.y_grid = -1, 0.5, 2
            hts.depth_list = 3, 5
            system.kind = doubling
            """
        )
        assert table["master_seed"] == 7
        assert table["evl.samples"] == 2500
        assert table["evl.iid_mode"] is True
        assert table["evl.y_grid"] == (-1.0, 0.5, 2.0)
        assert table["hts.depth_list"] == (3, 5)
        assert table["system.kind"] == "doubling"

    def test_linspace_lists(self):
        table = parse_text("hts.t_grid = linspace:0.5:2.5:5")
        assert table["hts.t_grid"] == (0.5, 1.0, 1.5, 2.0, 2.5)

    def test_empty_list_only_where_it_means_the_default(self):
        assert parse_text("conditions.t_grid =")["conditions.t_grid"] == ()
        with pytest.raises(ConfigError, match="smb.depth_list"):
            parse_text("smb.depth_list =")

    def test_ball_masses_reach_the_whole_space(self):
        assert parse_text("hts.mass_list = 1.0")["hts.mass_list"] == (1.0,)

    def test_unknown_key_suggests_close_match(self):
        with pytest.raises(ConfigError, match="observable.alpha"):
            parse_text("observable.alhpa = 2")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_text("evl.samples = 10\nevl.samples = 20")

    def test_line_without_assignment(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_text("just some words")

    @pytest.mark.parametrize("line", [
        "evl.samples = many",
        "evl.samples = 0",
        "measure.p = 1.5",
        "observable.zeta = -0.1",
        "system.kind = baker",
        "evl.iid_mode = maybe",
        "evl.tau_grid = 0.5, -1",
        "hts.t_grid = linspace:0:1",
        "hts.mass_list = 0.001, 1.5",
    ])
    def test_bad_values_rejected(self, line):
        with pytest.raises(ConfigError):
            parse_text(line)

    def test_resolve_materializes_every_default(self):
        values = resolve({"evl.samples": 5})
        assert set(values) == set(SCHEMA)
        assert values["evl.samples"] == 5
        assert values["master_seed"] == SCHEMA["master_seed"].default

    def test_echo_skips_execution_keys_only(self):
        cfg = ExperimentConfig.build("kac", threads=8, out_dir="/tmp/x")
        echo = cfg.echo()
        assert "threads" not in echo and "out_dir" not in echo
        assert set(echo) == set(SCHEMA) - config_mod.EXECUTION_KEYS
        # tuples become lists so the echo is JSON-clean
        assert echo["evl.tau_grid"] == [0.5, 1.0, 2.0]

    def test_cli_overrides_beat_file_values(self):
        cfg = make_config("kac", "master_seed = 1", seed=99, threads=4)
        assert cfg["master_seed"] == 99
        assert cfg["threads"] == 4

    def test_getitem_rejects_unknown(self):
        cfg = ExperimentConfig.build("kac")
        with pytest.raises(ConfigError):
            cfg["no.such.key"]


KAC_TENT = """
system.kind = full_tent
observable.zeta = 1.0
hts.target = cylinder
hts.depth_list = 10
hts.samples = 4000
"""


HALF_CYLINDER = "hts.target = cylinder\nhts.depth_list = 6\nhts.samples = 2000"
# a centre where the two names once rounded the same ball to two masses
HALF_BALL_ZETA = "observable.zeta = 0.123456789\n"
HALF_BALL = HALF_BALL_ZETA + (
    "hts.target = ball\nhts.mass_list = 0.01\nhts.samples = 2000")
# doubling-map configs whose cylinder masses, ball masses or iid draws
# follow the digit law; "<experiment>+<variant>" names a second config
HALF_CONFIGS = {
    "evl-balls": "observable.type = g2\nevl.n_list = 256\nevl.samples = 2000\n"
                 "evl.iid_mode = true\nevl.y_grid = 0.5, 1.0, 2.0",
    "smb": "smb.depth_list = 8, 50\nsmb.samples = 20",
    "kac": HALF_CYLINDER,
    "hts": HALF_CYLINDER,
    "rts": HALF_CYLINDER,
    "conditions": "cylinders.max_depth = 6\nconditions.samples = 2000",
    "evl-cylinders": "observable.mode = cylinder\nobservable.type = g2\n"
                     "evl.n_list = 8\nevl.samples = 2000\nevl.iid_mode = true",
    "kac+ball": HALF_BALL,
    "hts+ball": HALF_BALL,
    "rts+ball": HALF_BALL,
    "equivalence": HALF_BALL_ZETA + "observable.type = g2\nevl.n_list = 256\n"
                                    "evl.samples = 2000\nhts.samples = 2000",
}


class TestExperimentDrivers:
    def test_unknown_experiment(self):
        with pytest.raises(ConfigError, match="unknown experiment"):
            experiments.run(ExperimentConfig.build("frobnicate"))

    def test_kac_tent_summary(self):
        report = experiments.run(make_config("kac", KAC_TENT))
        assert report.passed
        target = report.summary["results"]["targets"][0]
        assert target["target"] == "depth=10"
        assert abs(target["product"]["value"] - 1.0) <= 0.05
        assert target["mass"] == {"value": 2.0 ** -10, "exact": True}
        assert report.summary["verdict"] == "PASS"

    def test_kac_thread_count_invariance(self):
        one = experiments.run(make_config("kac", KAC_TENT, threads=1))
        eight = experiments.run(make_config("kac", KAC_TENT, threads=8))
        assert json.dumps(one.summary, sort_keys=True) == \
            json.dumps(eight.summary, sort_keys=True)
        assert one.data_rows == eight.data_rows

    def test_evl_balls_routes_and_verdict(self):
        cfg = make_config("evl-balls", """
            system.kind = doubling
            evl.n_list = 512
            evl.samples = 3000
            evl.y_grid = -1, 0, 1, 2, 3
            evl.iid_mode = true
        """)
        report = experiments.run(cfg)
        entry = report.summary["results"]["per_n"][0]
        assert entry["n"] == 512
        assert entry["ks"]["statistic"]["value"] <= 0.03
        assert entry["route_sup_diff"]["value"] <= 0.03
        assert {"y", "limit", "dyn", "iid"} <= set(entry["points"][0])
        assert report.passed

    def test_evl_cylinders_degenerate_grid_and_iid(self):
        cfg = make_config("evl-cylinders", """
            system.kind = full_tent
            observable.type = g2
            observable.mode = cylinder
            observable.zeta = 1.0
            evl.n_list = 10
            evl.samples = 3000
            evl.iid_mode = true
        """)
        report = experiments.run(cfg)
        cells = report.summary["results"]["cells"]
        assert [c["tau"] for c in cells] == [0.5, 1.0, 2.0]
        for cell in cells:
            assert cell["window"] == int(cell["tau"] * 2 ** 10)
            assert abs(cell["dyn"]["value"] - math.exp(-cell["tau"])) <= 0.03
        assert report.passed

    def test_evl_cylinders_scans_once_per_depth(self, monkeypatch):
        calls = []
        sample = evl.sample_cylinder_no_entry

        def counting(obs, schedules, **kwargs):
            calls.append((kwargs["labels"], [s.tau for s in schedules]))
            return sample(obs, schedules, **kwargs)

        monkeypatch.setattr(evl, "sample_cylinder_no_entry", counting)
        text = (GOLDEN / "evl-cylinders+bernoulli.cfg").read_text()
        report = experiments.run(make_config("evl-cylinders", text))
        assert calls == [(("evl-cylinders", "n=1"), [1.0, 2.0]),
                         (("evl-cylinders", "n=6"), [1.0, 2.0])]
        assert len(report.summary["results"]["cells"]) == 4

    def test_evl_mode_mismatch(self):
        with pytest.raises(ConfigError, match="observable.mode"):
            experiments.run(make_config("evl-cylinders"))

    def test_hts_exponential_curve(self):
        cfg = make_config("hts", """
            system.kind = full_tent
            hts.target = cylinder
            hts.depth_list = 8
            hts.samples = 4000
        """)
        report = experiments.run(cfg)
        target = report.summary["results"]["targets"][0]
        assert target["ks"]["statistic"]["value"] <= 0.03
        assert target["n_censored"] == 0
        assert report.passed

    def test_rts_mean_is_kac(self):
        cfg = make_config("rts", """
            system.kind = doubling
            hts.target = ball
            hts.mass_list = 0.001
            hts.samples = 4000
        """)
        report = experiments.run(cfg)
        target = report.summary["results"]["targets"][0]
        assert abs(target["mean_normalized"]["value"] - 1.0) <= 0.06
        assert report.passed

    def test_conditions_generic_center_consistent(self):
        cfg = make_config("conditions", """
            system.kind = doubling
            observable.zeta = 0.3
            conditions.samples = 20000
        """)
        report = experiments.run(cfg)
        entries = report.summary["results"]["estimates"]
        families = {e["condition"] for e in entries}
        assert families == {"recurrence", "mixing-gap"}
        assert all(e["verdict"] == "ConsistentWithZero" for e in entries)
        assert report.passed

    def test_smb_bernoulli_and_gibbs(self):
        cfg = make_config("smb", """
            system.kind = doubling
            measure.kind = bernoulli
            measure.p = 0.3
            smb.depth_list = 50, 400
            smb.samples = 60
        """)
        report = experiments.run(cfg)
        ref = report.summary["results"]["reference_entropy"]["value"]
        assert ref == pytest.approx(0.6109, abs=5e-4)
        for entry in report.summary["results"]["per_depth"]:
            assert entry["gibbs_ratio"] == {"value": 1.0, "exact": True}
        deep = report.summary["results"]["per_depth"][-1]
        assert abs(deep["estimate"]["value"] - ref) <= 0.05
        assert report.passed

    @pytest.mark.parametrize("seed", [3, 42, 2026])
    @pytest.mark.parametrize("p", [0.3, 0.7, 0.01])
    def test_smb_sampled_rates_match_fraction_route(self, p, seed):
        depths = (1, 2, 63, 64, 400)
        samples = 25
        cfg = make_config("smb", f"""
            system.kind = doubling
            measure.kind = bernoulli
            measure.p = {p}
            smb.depth_list = {", ".join(map(str, depths))}
            smb.samples = {samples}
        """, seed=seed)
        report = experiments.run(cfg)
        ctx = PartitionContext(doubling(), BernoulliDoubling(p))
        for depth, row in zip(depths, report.data_rows):
            rates = fraction_smb_rates(ctx, seed, depth, samples)
            assert row[0] == depth
            assert row[1] == float(rates.mean())
            assert row[2] == float(rates.std(ddof=1) / math.sqrt(samples))

    @pytest.mark.parametrize("experiment", sorted(HALF_CONFIGS))
    def test_bernoulli_half_is_lebesgue(self, experiment):
        # Bernoulli(1/2) on the doubling map is Lebesgue measure, so both
        # names must give the same report
        lebesgue, bernoulli = [
            experiments.run(make_config(
                experiment.split("+", 1)[0],
                override("system.kind = doubling\nobservable.zeta = 0.3",
                         f"{HALF_CONFIGS[experiment]}\n{measure}")))
            for measure in ("measure.kind = lebesgue",
                            "measure.kind = bernoulli\nmeasure.p = 0.5")
        ]
        assert bernoulli.summary["results"] == lebesgue.summary["results"]
        assert bernoulli.data_rows == lebesgue.data_rows

    def test_smb_tent_exact(self):
        cfg = make_config("smb", "smb.depth_list = 1, 7, 33")
        report = experiments.run(cfg)
        for entry in report.summary["results"]["per_depth"]:
            assert entry["estimate"] == {"value": math.log(2.0),
                                         "exact": True}
        assert report.passed

    def test_equivalence_verdict_and_sup_field(self):
        cfg = make_config("equivalence", """
            system.kind = doubling
            measure.kind = bernoulli
            measure.p = 0.3
            observable.type = g2
            evl.n_list = 4096
            evl.samples = 4000
            hts.samples = 4000
        """)
        report = experiments.run(cfg)
        assert report.summary["results"]["sup_discrepancy"]["value"] <= 0.04
        assert report.summary["verdict"] == "PASS"

    def test_rotation_subseq_non_exponential(self):
        cfg = make_config("rotation-subseq", """
            system.kind = rotation
            hts.depth_list = 13
            hts.samples = 4000
        """)
        report = experiments.run(cfg)
        entry = report.summary["results"]["per_depth"][0]
        assert entry["ks_vs_exponential"]["value"] >= 0.1
        assert len(entry["return_values"]) <= 3
        assert report.passed

    def test_rotation_subseq_rejects_off_sequence_depth(self):
        cfg = make_config("rotation-subseq",
                          "system.kind = rotation\nhts.depth_list = 12")
        with pytest.raises(ConfigError, match="block lengths"):
            experiments.run(cfg)

    def test_failing_band_still_writes_report(self, tmp_path):
        cfg = tmp_path / "fail.cfg"
        cfg.write_text("""
            system.kind = full_tent
            observable.mode = cylinder
            observable.zeta = 1.0
            evl.n_list = 8
            evl.samples = 500
            evl.tau_grid = 1
            evl.tol = 1e-9
        """)
        out = tmp_path / "out"
        assert main(["evl-cylinders", "--config", str(cfg),
                     "--out", str(out)]) == 1
        written = json.loads((out / "summary.json").read_text())
        assert written["verdict"] == "FAIL"

    def test_every_result_numeric_is_annotated(self):
        report = experiments.run(make_config("kac", KAC_TENT))

        def walk(node):
            if isinstance(node, dict):
                if "value" in node:
                    assert ("stderr" in node) != ("exact" in node)
                    return
                for v in node.values():
                    walk(v)
            elif isinstance(node, (list, tuple)):
                for v in node:
                    walk(v)

        walk(report.summary["results"])
        product = report.summary["results"]["targets"][0]["product"]
        assert set(product) == {"value", "stderr"}


class TestFilesAndCli:
    def run_cli(self, *argv):
        return main(list(argv))

    def test_written_files_and_exit_zero(self, tmp_path):
        cfg = tmp_path / "kac.cfg"
        cfg.write_text(KAC_TENT)
        out = tmp_path / "out"
        assert self.run_cli("kac", "--config", str(cfg),
                            "--out", str(out)) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["experiment"] == "kac"
        assert summary["config"]["hts.depth_list"] == [10]
        assert "threads" not in summary["config"]
        data = (out / "data.csv").read_text().splitlines()
        assert data[0] == "target,statistic,value,stderr"
        plot = (out / "plot.csv").read_text().splitlines()
        assert plot[0] == "series,x,y,stderr"
        assert len(plot) > 1

    def test_thread_override_is_byte_identical(self, tmp_path):
        cfg = tmp_path / "kac.cfg"
        cfg.write_text(KAC_TENT)
        outs = []
        for threads, name in ((1, "a"), (8, "b")):
            out = tmp_path / name
            assert self.run_cli("kac", "--config", str(cfg), "--out",
                                str(out), "--threads", str(threads)) == 0
            outs.append(out)
        for fname in ("summary.json", "data.csv", "plot.csv"):
            assert (outs[0] / fname).read_bytes() == \
                (outs[1] / fname).read_bytes()

    def test_seed_override_changes_estimates(self, tmp_path):
        cfg = tmp_path / "kac.cfg"
        cfg.write_text(KAC_TENT)
        texts = []
        for seed, name in ((42, "a"), (43, "b")):
            out = tmp_path / name
            assert self.run_cli("kac", "--config", str(cfg), "--out",
                                str(out), "--seed", str(seed)) == 0
            texts.append((out / "summary.json").read_text())
        assert texts[0] != texts[1]

    def test_tolerance_fail_exit_one_with_report(self, tmp_path):
        cfg = tmp_path / "fail.cfg"
        cfg.write_text(KAC_TENT + "kac.tol = 1e-9\n")
        out = tmp_path / "out"
        assert self.run_cli("kac", "--config", str(cfg),
                            "--out", str(out)) == 1
        summary = json.loads((out / "summary.json").read_text())
        assert summary["verdict"] == "FAIL"

    @pytest.mark.parametrize("experiment, line, key", [
        # g2 gives tau(0.01) = 100, past the 50 mean returns of the cap
        ("equivalence", "evl.y_grid = 0.01, 1", "evl.y_grid"),
        # 300 // 5000 leaves an empty window; k = 10 alone would sample
        ("conditions", "conditions.k_list = 5000", "conditions.k_list"),
        ("conditions", "conditions.k_list = 10, 5000", "conditions.k_list"),
        # a tabulation time past the 50 mean returns of the cap
        ("hts", "hts.t_grid = 0.5, 60", "hts.t_grid"),
        ("rts", "hts.t_grid = 0.5, 60", "hts.t_grid"),
        # the intermittent map under the Lebesgue measure (the default),
        # which it does not preserve: its samplers need the orbit measure
        pytest.param("hts", MP_BALL, "measure.kind", id="hts-mp-lebesgue"),
        pytest.param("kac", MP_BALL, "measure.kind", id="kac-mp-lebesgue"),
        pytest.param("rts", MP_BALL + "\nmeasure.kind = lebesgue",
                     "measure.kind", id="rts-mp-lebesgue"),
        pytest.param("evl-balls", MP_LEBESGUE, "measure.kind",
                     id="evl-balls-mp-lebesgue"),
        pytest.param("equivalence", MP_LEBESGUE, "measure.kind",
                     id="equivalence-mp-lebesgue"),
        # the rotation preserves Lebesgue exactly: no orbit measure for it
        pytest.param("evl-balls", "system.kind = rotation\nmeasure.kind = orbit",
                     "measure.kind", id="evl-balls-rotation-orbit"),
        pytest.param("rts", "system.kind = rotation\nhts.target = ball\n"
                     "measure.kind = orbit", "measure.kind",
                     id="rts-rotation-orbit"),
        # a tent or doubling cylinder deeper than the word scans' 63 letters
        ("hts", "hts.depth_list = 6, 64", "hts.depth_list"),
        ("kac", "hts.depth_list = 6, 64", "hts.depth_list"),
        pytest.param("rts", TENT_LEBESGUE + "\nhts.depth_list = 6, 64",
                     "hts.depth_list", id="rts-tent-depth-64"),
        ("conditions", "cylinders.max_depth = 64", "cylinders.max_depth"),
        ("evl-cylinders", "evl.n_list = 8, 64", "evl.n_list"),
        # windows of 2^63 and 2^64 steps overflow the int64 step counter
        pytest.param("evl-cylinders", "evl.n_list = 63\nevl.tau_grid = 1.0, 2.0",
                     "evl.n_list", id="evl-cylinders-window-overflow"),
        # one sample has no sample standard deviation to report
        pytest.param("hts", ONE_HIT_SAMPLE, "hts.samples", id="hts-one-sample"),
        pytest.param("rts", ONE_HIT_SAMPLE, "hts.samples", id="rts-one-sample"),
        pytest.param("kac", ONE_HIT_SAMPLE, "hts.samples", id="kac-one-sample"),
        pytest.param("equivalence", "hts.samples = 1", "hts.samples",
                     id="equivalence-one-sample"),
        pytest.param("rotation-subseq", "hts.samples = 1", "hts.samples",
                     id="rotation-subseq-one-sample"),
        pytest.param("conditions", "conditions.samples = 1",
                     "conditions.samples", id="conditions-one-sample"),
        pytest.param("smb", "smb.samples = 1", "smb.samples",
                     id="smb-one-sample"),
        # an empty list key: no cell to check, or a max() of nothing
        pytest.param("smb", "smb.depth_list =", "smb.depth_list",
                     id="smb-empty-depths"),
        pytest.param("hts", "hts.depth_list =", "hts.depth_list",
                     id="hts-empty-depths"),
        pytest.param("kac", "hts.target = ball\nhts.mass_list =",
                     "hts.mass_list", id="kac-empty-masses"),
        pytest.param("evl-balls", "evl.n_list =", "evl.n_list",
                     id="evl-balls-empty-n"),
        pytest.param("evl-cylinders", "evl.tau_grid = ", "evl.tau_grid",
                     id="evl-cylinders-empty-taus"),
        pytest.param("hts", "hts.t_grid =", "hts.t_grid",
                     id="hts-empty-t-grid"),
        pytest.param("conditions", "conditions.k_list =", "conditions.k_list",
                     id="conditions-empty-k"),
        pytest.param("evl-balls", "evl.y_grid =", "evl.y_grid",
                     id="evl-balls-empty-y"),
        # a rational angle makes the rotation periodic
        pytest.param("rotation-subseq", "system.alpha = 0.5", "system.alpha",
                     id="rotation-subseq-rational-angle"),
        pytest.param("evl-balls", "system.kind = rotation\nsystem.alpha = 0.5",
                     "system.alpha", id="evl-balls-rational-angle"),
        # a ball cannot carry more than the whole mass
        pytest.param("hts", "hts.target = ball\nhts.mass_list = 0.001, 1.5",
                     "hts.mass_list", id="hts-ball-mass-above-one"),
        # a ball centre finer than the 2^-128 grid of the exact ball masses
        pytest.param("evl-balls", "observable.zeta = 1e-300",
                     "observable.zeta", id="evl-balls-fine-zeta"),
        pytest.param("evl-balls", TENT_LEBESGUE + "\nobservable.zeta = 1e-300",
                     "observable.zeta", id="evl-balls-tent-fine-zeta"),
        pytest.param("evl-balls", "system.kind = rotation\nmeasure.kind = "
                     "lebesgue\nobservable.zeta = 1e-300", "observable.zeta",
                     id="evl-balls-rotation-fine-zeta"),
        pytest.param("evl-balls", MP_BALL + "\nmeasure.kind = orbit\n"
                     "measure.orbit_len = 20000\nobservable.zeta = 1e-300",
                     "observable.zeta", id="evl-balls-mp-fine-zeta"),
        pytest.param("rts", TENT_LEBESGUE + "\nhts.target = ball\n"
                     "observable.zeta = 1e-300", "observable.zeta",
                     id="rts-tent-ball-fine-zeta"),
        pytest.param("equivalence",
                     TENT_LEBESGUE + "\nobservable.zeta = 1e-300",
                     "observable.zeta", id="equivalence-tent-fine-zeta"),
        # a g3 level that rounds to sup phi = 1 has no exceedance set: the
        # anchor level 1 - 2^-63, and the quantile 1 - n^(-1e8)
        pytest.param("evl-cylinders", "observable.type = g3\nevl.n_list = 64",
                     "evl.n_list", id="evl-cylinders-g3-supremum"),
        pytest.param("evl-balls", "observable.type = g3\n"
                     "observable.alpha = 1e-8", "observable.alpha",
                     id="evl-balls-g3-supremum"),
        pytest.param("equivalence", "observable.type = g3\n"
                     "observable.alpha = 1e-8", "observable.alpha",
                     id="equivalence-g3-supremum"),
        # past the lane-step ceiling: a cap of 5e13 steps, a window of 2^62
        pytest.param("hts", "hts.target = ball\nhts.mass_list = 1e-12",
                     "hts.mass_list", id="hts-ball-cap-past-budget"),
        pytest.param("evl-cylinders", "evl.n_list = 63\nevl.tau_grid = 0.5",
                     "evl.n_list", id="evl-cylinders-window-past-budget"),
    ])
    def test_late_failure_configs_exit_two(self, tmp_path, capsys, monkeypatch,
                                           experiment, line, key):
        forbid_sampling(monkeypatch)
        cfg = tmp_path / "late.cfg"
        cfg.write_text(override((GOLDEN / f"{experiment}.cfg").read_text(),
                                line))
        out = tmp_path / "out"
        start = time.perf_counter()
        assert self.run_cli(experiment, "--config", str(cfg),
                            "--out", str(out)) == 2
        # refused before any work: each row exits within seconds
        assert time.perf_counter() - start < 5.0
        # an unknown key would name itself: the row must reach the driver
        err = capsys.readouterr().err
        assert key in err and "unknown config key" not in err
        assert not out.exists()

    def test_iid_route_at_exceedance_mass_one(self, tmp_path):
        # u_n(-10) = log 1000 - 10 lies below g(1) = 0: every point
        # exceeds it, so no n independent draws stay below it
        cfg = tmp_path / "iid.cfg"
        cfg.write_text("system.kind = doubling\nobservable.type = g1\n"
                       "observable.zeta = 0.3\nevl.n_list = 1000\n"
                       "evl.y_grid = -10, 0, 1\nevl.samples = 500\n"
                       "evl.iid_mode = true\n")
        out = tmp_path / "out"
        assert self.run_cli("evl-balls", "--config", str(cfg),
                            "--out", str(out)) in (0, 1)
        summary = json.loads((out / "summary.json").read_text())
        point = summary["results"]["per_n"][0]["points"][0]
        assert point["y"] == -10.0
        assert point["iid"] == {"value": 0.0, "exact": True}

    @pytest.mark.parametrize("experiment, text", [
        # the depth-12 anchor level g(2^-11) = 2^1100
        pytest.param("evl-cylinders",
                     "system.kind = full_tent\nobservable.mode = cylinder\n"
                     "observable.type = g2\nobservable.alpha = 0.01\n"
                     "observable.zeta = 1.0\nevl.n_list = 12\n",
                     id="evl-cylinders-anchor-level"),
        # the quantile level g(1/1000) = 1000^1000
        pytest.param("evl-balls",
                     "system.kind = doubling\nobservable.type = g2\n"
                     "observable.alpha = 0.001\nobservable.zeta = 0.3\n"
                     "evl.n_list = 1000\n",
                     id="evl-balls-quantile-level"),
        # the horizon check's tau(y) = 0.001^-200 and exp(800)
        pytest.param("equivalence",
                     "system.kind = doubling\nobservable.type = g2\n"
                     "observable.alpha = 200\nobservable.zeta = 0.3\n"
                     "evl.n_list = 100\nevl.y_grid = 0.001, 1\n",
                     id="equivalence-g2-tau"),
        pytest.param("equivalence",
                     "system.kind = doubling\nobservable.type = g1\n"
                     "observable.zeta = 0.3\nevl.y_grid = -800, 1\n",
                     id="equivalence-g1-tau"),
    ])
    def test_level_past_the_float_range_exits_three(self, tmp_path, capsys,
                                                     experiment, text):
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(text + "evl.samples = 200\n")
        out = tmp_path / "out"
        assert self.run_cli(experiment, "--config", str(cfg),
                            "--out", str(out)) == 3
        assert "runtime error" in capsys.readouterr().err
        assert not out.exists()

    def test_censored_ks_names_the_fixed_cap(self, tmp_path, capsys):
        # at ball mass 0.5 some laminar phases of the intermittent map
        # outlast the cap of 50 mean returns; no key moves that cap
        cfg = tmp_path / "censored.cfg"
        cfg.write_text(override(
            (GOLDEN / "hts+intermittent.cfg").read_text(),
            "hts.mass_list = 0.5"))
        out = tmp_path / "out"
        assert self.run_cli("hts", "--config", str(cfg),
                            "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert "of 4200 times are censored" in err
        assert "fixed cap of 50 mean returns" in err
        assert "larger horizon" not in err
        assert not out.exists()

    @pytest.mark.parametrize("experiment, golden, lines, key", [
        ("evl-balls", "evl-balls+bernoulli-iid", "evl.n_list = 200",
         "evl.n_list"),
        ("hts", "evl-balls+bernoulli-iid",
         "hts.target = ball\nhts.mass_list = 0.005", "hts.mass_list"),
        ("rts", "evl-balls+bernoulli-iid",
         "hts.target = ball\nhts.mass_list = 0.005", "hts.mass_list"),
        ("kac", "evl-balls+bernoulli-iid",
         "hts.target = ball\nhts.mass_list = 0.005", "hts.mass_list"),
        ("equivalence", "equivalence", "evl.n_list = 200", "evl.n_list"),
    ])
    def test_unresolvable_ball_stays_out_of_the_verdicts(
            self, tmp_path, capsys, monkeypatch, experiment, golden, lines,
            key):
        # under Bernoulli(0.01) the ball of mass 1/200 around 0.3 has no
        # radius: its mass profile jumps past 0.005 within 53-bit distances
        forbid_sampling(monkeypatch)
        cfg = tmp_path / "p001.cfg"
        cfg.write_text(override((GOLDEN / f"{golden}.cfg").read_text(),
                                "measure.p = 0.01\n" + lines))
        out = tmp_path / "out"
        assert self.run_cli(experiment, "--config", str(cfg),
                            "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert key in err and "0.005" in err and "53-bit radius" in err
        assert not out.exists()

    def test_unknown_key_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("observable.alhpa = 2\n")
        assert self.run_cli("kac", "--config", str(cfg)) == 2
        assert "observable.alpha" in capsys.readouterr().err

    @pytest.mark.parametrize("line", [
        "hts.start_j = 1", "hts.cap_factor = 50", "evl.convention = step",
        "observable.D = 1"])
    def test_removed_key_is_unknown(self, tmp_path, capsys, line):
        cfg = tmp_path / "old.cfg"
        cfg.write_text(line + "\n")
        assert self.run_cli("validate", "--config", str(cfg)) == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_validate_command(self, tmp_path, capsys):
        good = tmp_path / "good.cfg"
        good.write_text("evl.samples = 100\n")
        assert self.run_cli("validate", "--config", str(good)) == 0
        assert "1 keys valid" in capsys.readouterr().out
        bad = tmp_path / "bad.cfg"
        bad.write_text("evl.samples = toast\n")
        assert self.run_cli("validate", "--config", str(bad)) == 2

    def test_missing_config_file_exit_two(self, tmp_path):
        assert self.run_cli("validate", "--config",
                            str(tmp_path / "nope.cfg")) == 2

    def test_list_systems(self, capsys):
        assert self.run_cli("list-systems") == 0
        out = capsys.readouterr().out
        for name in ("full_tent", "doubling", "rotation",
                     "manneville_pomeau"):
            assert name in out

    COMMANDS = (*experiments.EXPERIMENTS, "list-systems", "validate")

    def test_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as stop:
            self.run_cli("--help")
        assert stop.value.code == 0
        out = capsys.readouterr().out
        assert "{" + ",".join(self.COMMANDS) + "}" in out
        for name in experiments.EXPERIMENTS:
            assert f"run the {name} experiment" in out

    def test_unknown_command_names_every_choice(self, capsys):
        with pytest.raises(SystemExit) as stop:
            self.run_cli("tent-balls", "--config", "x.cfg")
        assert stop.value.code == 2
        err = capsys.readouterr().err
        named, choices = err.split("choose from", 1)
        assert "invalid choice" in named and "tent-balls" in named
        choices = choices.strip(" ()\n")
        assert [c.strip(" '") for c in choices.split(",")] == \
            list(self.COMMANDS)

    @pytest.mark.parametrize("experiment", experiments.EXPERIMENTS)
    def test_experiment_help(self, capsys, experiment):
        with pytest.raises(SystemExit) as stop:
            self.run_cli(experiment, "--help")
        assert stop.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: evlhts {experiment} ")
        assert "--config CONFIG" in out

    def test_an_experiment_builds_only_its_own_subparser(self):
        usage = build_parser(["kac", "--config", "x.cfg"]).format_usage()
        assert "{kac,list-systems,validate}" in usage

    def test_unwritable_out_dir_exit_three(self, tmp_path):
        cfg = tmp_path / "kac.cfg"
        cfg.write_text(KAC_TENT)
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        assert self.run_cli("kac", "--config", str(cfg),
                            "--out", str(blocker)) == 3

    def test_csv_floats_round_trip(self, tmp_path):
        cfg = tmp_path / "kac.cfg"
        cfg.write_text(KAC_TENT)
        out = tmp_path / "out"
        assert self.run_cli("kac", "--config", str(cfg),
                            "--out", str(out)) == 0
        rows = (out / "data.csv").read_text().splitlines()[1:]
        product = float(rows[0].split(",")[2])
        summary = json.loads((out / "summary.json").read_text())
        assert product == summary["results"]["targets"][0]["product"]["value"]
