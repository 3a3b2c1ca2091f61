import csv
import io
import json
import math

import pytest

import paulipath.cli
from paulipath.cli import main


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def write_config(tmp_path, obj, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


RX_DAMP_CONFIG = {
    "circuit": {
        "n": 1,
        "layers": [
            {
                "gates": [{"type": "rot", "generator": "X", "support": [0], "angle": 0.7}],
                "noise": {"kind": "amplitude_damping", "param": 0.2},
            }
        ],
    },
    "observable": [{"pauli": "Z", "coeff": 1.0}],
    "state": "zeros",
}


class TestChannelInfo:
    def test_amplitude_damping(self, capsys):
        code, out, _ = run_cli(
            ["channel-info", "--channel", '{"kind":"amplitude_damping","param":0.1}'], capsys
        )
        assert code == 0
        result = json.loads(out)["result"]
        assert result["class"] == "non_unital"
        assert result["contraction_sq_worstcase"] <= 0.91

    def test_zero_rate_warns(self, capsys):
        code, out, _ = run_cli(
            ["channel-info", "--channel", '{"kind":"depolarizing","param":0.0}'], capsys
        )
        assert code == 0
        result = json.loads(out)["result"]
        assert result["effective_rate_worstcase"] == 0.0
        assert "warning" in result

    def test_dephasing_scrambler(self, capsys):
        code, out, _ = run_cli(
            ["channel-info", "--channel", '{"kind":"dephasing","param":0.3}', "--eta", "0.25"],
            capsys,
        )
        assert code == 0
        result = json.loads(out)["result"]
        assert result["contraction_sq_scrambler"] == pytest.approx(0.58)

    def test_invalid_spec_exits_2(self, capsys):
        code, _, err = run_cli(["channel-info", "--channel", '{"kind":"bogus"}'], capsys)
        assert code == 2 and err


class TestPropagate:
    def test_identity_circuit(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "circuit": {"n": 1, "layers": []},
                "observable": [{"pauli": "Z", "coeff": 1.0}],
            },
        )
        code, out, _ = run_cli(["propagate", "--config", cfg], capsys)
        assert code == 0
        assert json.loads(out)["result"]["expectation"] == 1.0

    def test_rx_damping_value(self, tmp_path, capsys):
        cfg = write_config(tmp_path, RX_DAMP_CONFIG)
        code, out, _ = run_cli(["propagate", "--config", cfg], capsys)
        assert code == 0
        got = json.loads(out)["result"]["expectation"]
        assert got == pytest.approx(0.8 * math.cos(0.7) + 0.2, abs=1e-12)

    def test_k_sweep_csv_contract(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**RX_DAMP_CONFIG, "k_sweep": [1, 2, 3]})
        code, out, _ = run_cli(["propagate", "--config", cfg, "--format", "csv"], capsys)
        assert code == 0
        rows = [r for r in out.splitlines() if not r.startswith("#")]
        reader = list(csv.DictReader(io.StringIO("\n".join(rows))))
        assert [r["k"] for r in reader] == ["1", "2", "3"]
        assert set(reader[0]) == {"k", "expectation", "surviving_paths", "wall_time"}

    def test_k_sweep_json_rows_match_csv(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**RX_DAMP_CONFIG, "k_sweep": [1, 2, 3]})
        code, out, _ = run_cli(["propagate", "--config", cfg], capsys)
        assert code == 0
        rows = json.loads(out)["result"]
        code, out, _ = run_cli(["propagate", "--config", cfg, "--format", "csv"], capsys)
        assert code == 0
        lines = [r for r in out.splitlines() if not r.startswith("#")]
        csv_rows = list(csv.DictReader(io.StringIO("\n".join(lines))))
        keys = ("k", "expectation", "surviving_paths")
        assert len(rows) == 3
        assert [[str(r[k]) for k in keys] for r in rows] == [[r[k] for k in keys] for r in csv_rows]

    KSWEEP_CONFIG = {
        "circuit": {
            "builder": "hva",
            "lattice": {"type": "chain", "n": 4},
            "blocks": 3,
            "noise": {"kind": "amplitude_damping", "param": 0.1},
            "angles": "uniform",
        },
        "observable": [{"pauli": "IZII", "coeff": 1.0}],
        "truncation": {"k": None, "coeff_cutoff": 1e-3, "xy_cutoff": 2},
        "k_sweep": [2, 6, 3, 9],
        "seed": 4,
    }

    def test_k_sweep_rows_equal_separate_runs(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.KSWEEP_CONFIG)
        code, out, _ = run_cli(["propagate", "--config", cfg], capsys)
        assert code == 0
        rows = json.loads(out)["result"]
        assert [r["k"] for r in rows] == [2, 6, 3, 9]
        assert len({r["surviving_paths"] for r in rows}) == 4
        times = [r["wall_time"] for r in rows]
        assert times == sorted(times)  # seconds since the one pass started
        single = {key: v for key, v in self.KSWEEP_CONFIG.items() if key != "k_sweep"}
        for row in rows:
            cfg = write_config(tmp_path, _with(single, ("truncation", "k"), row["k"]), "k.json")
            code, out, _ = run_cli(["propagate", "--config", cfg], capsys)
            assert code == 0
            want = json.loads(out)["result"]
            assert row["surviving_paths"] == want["stats"]["surviving_path_count"]
            assert row["expectation"] == pytest.approx(want["expectation"], rel=0, abs=1e-12)

    def test_k_sweep_is_one_pass(self, tmp_path, capsys, monkeypatch):
        cutoffs = []
        backpropagate = paulipath.cli.backpropagate

        def counting(circuit, seed, trunc, **kwargs):
            cutoffs.append(trunc.path_weight_cutoff)
            return backpropagate(circuit, seed, trunc, **kwargs)

        monkeypatch.setattr(paulipath.cli, "backpropagate", counting)
        code, _, _ = run_cli(["propagate", "--config", write_config(tmp_path, self.KSWEEP_CONFIG)],
                             capsys)
        assert code == 0 and cutoffs == [9]

    @pytest.mark.parametrize("ks", [[0, 2], [-1]])
    def test_non_positive_k_sweep_exits_2(self, tmp_path, capsys, ks):
        cfg = write_config(tmp_path, {**RX_DAMP_CONFIG, "k_sweep": ks})
        code, out, err = run_cli(["propagate", "--config", cfg], capsys)
        assert code == 2 and out == ""
        assert "'k_sweep'" in err and "Traceback" not in err

    def test_empty_k_sweep_writes_no_rows(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**RX_DAMP_CONFIG, "k_sweep": []})
        code, out, _ = run_cli(["propagate", "--config", cfg], capsys)
        assert code == 0 and json.loads(out)["result"] == []

    def test_reruns_bit_identical(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "circuit": {
                    "builder": "hva",
                    "lattice": {"type": "chain", "n": 3},
                    "blocks": 2,
                    "noise": {"kind": "amplitude_damping", "param": 0.1},
                    "angles": "uniform",
                },
                "observable": [{"pauli": "ZII", "coeff": 1.0}],
                "seed": 11,
            },
        )
        _, out1, _ = run_cli(["propagate", "--config", cfg], capsys)
        _, out2, _ = run_cli(["propagate", "--config", cfg], capsys)
        assert out1 == out2

    def test_seed_changes_sampled_circuit(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "circuit": {
                    "builder": "hva",
                    "lattice": {"type": "chain", "n": 2},
                    "blocks": 1,
                    "noise": {"kind": "dephasing", "param": 0.1},
                },
                "observable": [{"pauli": "ZI", "coeff": 1.0}],
            },
        )
        _, out1, _ = run_cli(["propagate", "--config", cfg, "--seed", "1"], capsys)
        _, out2, _ = run_cli(["propagate", "--config", cfg, "--seed", "2"], capsys)
        assert json.loads(out1)["result"] != json.loads(out2)["result"]


class TestOracleCommand:
    def test_matches_propagate(self, tmp_path, capsys):
        cfg = write_config(tmp_path, RX_DAMP_CONFIG)
        _, out_p, _ = run_cli(["propagate", "--config", cfg], capsys)
        _, out_o, _ = run_cli(["oracle", "--config", cfg], capsys)
        assert json.loads(out_o)["result"]["expectation"] == pytest.approx(
            json.loads(out_p)["result"]["expectation"], abs=1e-12
        )

    def test_infeasible_size_exits_3(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "circuit": {"n": 13, "layers": []},
                "observable": [{"pauli": "Z" + "I" * 12, "coeff": 1.0}],
            },
        )
        code, _, err = run_cli(["oracle", "--config", cfg], capsys)
        assert code == 3 and err

    def test_max_terms_guard_exits_3(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "circuit": {
                    "builder": "hva",
                    "lattice": {"type": "chain", "n": 4},
                    "blocks": 3,
                    "noise": {"kind": "amplitude_damping", "param": 0.05},
                },
                "observable": [{"pauli": "ZIII", "coeff": 1.0}],
                "seed": 8,
            },
        )
        code, _, err = run_cli(["propagate", "--config", cfg, "--max-terms", "2"], capsys)
        assert code == 3 and err


class TestEstimateCommand:
    def test_variance_output(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "circuit": {
                    "n": 1,
                    "layers": [
                        {
                            "gates": [
                                {"type": "rot", "generator": "X", "support": [0], "angle": "uniform"}
                            ],
                            "noise": {"kind": "amplitude_damping", "param": 0.2},
                        }
                    ],
                },
                "observable": [{"pauli": "Z", "coeff": 1.0}],
                "estimator": {
                    "functional": "variance",
                    "state": "zeros",
                    "samples": 50000,
                    "seed": 42,
                },
            },
        )
        code, out, _ = run_cli(["estimate", "--config", cfg], capsys)
        assert code == 0
        result = json.loads(out)["result"]
        assert set(result) == {"mean", "stderr", "samples", "nonzero_fraction"}
        # paths ending on Y have zero overlap with |0>, those on I or Z do not
        assert 0.0 < result["nonzero_fraction"] < 1.0
        want = 0.8**2 / 2 + 0.04
        assert result["mean"] == pytest.approx(want, abs=5 * result["stderr"] + 1e-3)

    def test_unknown_functional_exits_2(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "circuit": {"n": 1, "layers": []},
                "observable": [{"pauli": "Z", "coeff": 1.0}],
                "estimator": {"functional": "median"},
            },
        )
        code, _, _ = run_cli(["estimate", "--config", cfg], capsys)
        assert code == 2


    def test_reweighting_guard_exits_4(self, tmp_path, capsys, monkeypatch):
        import paulipath.montecarlo as mc

        walk = mc._walk_chunk

        def escaping_walk(*args):
            codes, weight, k_factor = walk(*args)
            return codes, weight, 2.0 * k_factor + 1.0

        monkeypatch.setattr(mc, "_walk_chunk", escaping_walk)
        cfg = write_config(
            tmp_path,
            {
                "circuit": {
                    "n": 1,
                    "layers": [
                        {
                            "gates": [
                                {"type": "rot", "generator": "X", "support": [0], "angle": "uniform"}
                            ],
                            "noise": {"kind": "amplitude_damping", "param": 0.2},
                        }
                    ],
                },
                "observable": [{"pauli": "Z", "coeff": 1.0}],
                "estimator": {"functional": "trunc_frobenius", "k": 2, "samples": 100},
            },
        )
        code, _, err = run_cli(["estimate", "--config", cfg], capsys)
        assert code == 4
        assert "reweighting" in err and "Traceback" not in err


class TestSweepCommand:
    SWEEP_CONFIG = {
        "lattice": {"type": "chain", "n": 3},
        "blocks": 2,
        "noise_kind": "dephasing",
        "noise_grid": [0.1],
        "k_grid": [2, 4],
        "samples": 4000,
        "seed": 5,
    }

    def sweep_rows(self, tmp_path, capsys, **extra):
        cfg = write_config(tmp_path, {**self.SWEEP_CONFIG, **extra})
        code, out, _ = run_cli(["sweep", "--config", cfg, "--format", "json", "--threads", "1"], capsys)
        assert code == 0
        return json.loads(out)["result"]

    def test_noise_placement_from_config(self, tmp_path, capsys):
        default = self.sweep_rows(tmp_path, capsys)
        per_block = self.sweep_rows(tmp_path, capsys, noise_placement="per_block")
        per_round = self.sweep_rows(tmp_path, capsys, noise_placement="per_round")
        assert default == per_block
        assert [r["estimate"] for r in per_round] != [r["estimate"] for r in per_block]

    def test_empty_k_grid_header_only(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "lattice": {"type": "square", "rows": 2, "cols": 2},
                "blocks": 1,
                "noise_kind": "amplitude_damping",
                "noise_grid": [0.05, 0.1],
                "k_grid": [],
                "samples": 1000,
            },
        )
        code, out, _ = run_cli(["sweep", "--config", cfg, "--format", "csv"], capsys)
        assert code == 0
        rows = [r for r in out.splitlines() if r and not r.startswith("#")]
        assert rows == ["noise_param,k,estimate,stderr,theory_bound"]

    def test_rows_and_theory_bound(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "lattice": {"type": "chain", "n": 3},
                "blocks": 2,
                "noise_kind": "dephasing",
                "noise_grid": [0.1],
                "k_grid": [2, 4],
                "samples": 4000,
                "seed": 5,
            },
        )
        code, out, _ = run_cli(["sweep", "--config", cfg, "--format", "csv", "--threads", "1"], capsys)
        assert code == 0
        rows = [r for r in out.splitlines() if not r.startswith("#")]
        reader = list(csv.DictReader(io.StringIO("\n".join(rows))))
        assert len(reader) == 2
        coef = (1 + (1 - 0.2) ** 2) / 2
        assert float(reader[0]["theory_bound"]) == pytest.approx(coef**2)
        assert float(reader[1]["theory_bound"]) == pytest.approx(coef**4)


class TestDynamicsCommand:
    def test_zero_steps_single_row(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "lattice": {"type": "square", "rows": 2, "cols": 2},
                "J": 3.004438,
                "h": 1.0,
                "dt": 0.04,
                "steps": 0,
                "noise": {"kind": "amplitude_damping", "param": 0.1},
            },
        )
        code, out, _ = run_cli(["dynamics", "--config", cfg, "--format", "csv"], capsys)
        assert code == 0
        rows = [r for r in out.splitlines() if not r.startswith("#")]
        reader = list(csv.DictReader(io.StringIO("\n".join(rows))))
        assert len(reader) == 1
        assert float(reader[0]["t"]) == 0.0
        assert float(reader[0]["expectation"]) == 1.0

    def test_series_matches_oracle_small(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "lattice": {"type": "chain", "n": 2},
                "J": 1.0,
                "h": 1.0,
                "dt": 0.05,
                "steps": 2,
                "noise": {"kind": "amplitude_damping", "param": 0.2},
                "truncation": {"k": None},
            },
        )
        code, out, _ = run_cli(["dynamics", "--config", cfg], capsys)
        assert code == 0
        rows = json.loads(out)["result"]
        assert len(rows) == 3
        oracle_cfg = write_config(
            tmp_path,
            {
                "circuit": {
                    "builder": "trotter_tfim",
                    "lattice": {"type": "chain", "n": 2},
                    "J": 1.0,
                    "h": 1.0,
                    "dt": 0.05,
                    "steps": 2,
                    "noise": {"kind": "amplitude_damping", "param": 0.2},
                },
                "observable": [{"pauli": "IZ", "coeff": 1.0}],
            },
            name="oracle.json",
        )
        _, out_o, _ = run_cli(["oracle", "--config", oracle_cfg], capsys)
        assert rows[2]["expectation"] == pytest.approx(
            json.loads(out_o)["result"]["expectation"], abs=1e-10
        )


class TestErrors:
    def test_missing_config(self, capsys):
        code, _, err = run_cli(["propagate"], capsys)
        assert code == 2 and err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, _ = run_cli(["propagate", "--config", str(path)], capsys)
        assert code == 2

    def test_mismatched_observable(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "circuit": {"n": 2, "layers": []},
                "observable": [{"pauli": "Z", "coeff": 1.0}],
            },
        )
        code, _, _ = run_cli(["propagate", "--config", cfg], capsys)
        assert code == 2

    def test_output_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path, RX_DAMP_CONFIG)
        out_path = tmp_path / "result.json"
        code, out, _ = run_cli(["propagate", "--config", cfg, "--out", str(out_path)], capsys)
        assert code == 0 and out == ""
        payload = json.loads(out_path.read_text())
        assert "version" in payload and "config" in payload

    def test_missing_key_exits_2_naming_it(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"lattice": {"type": "chain", "n": 2}, "h": 1.0, "dt": 0.1, "steps": 1},
        )
        code, _, err = run_cli(["dynamics", "--config", cfg], capsys)
        assert code == 2
        assert "'J'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "trunc, key",
        [
            ({"k": "16"}, "k"),
            ({"k": 16.5}, "k"),
            ({"k": True}, "k"),
            ({"k": 16, "xy_cutoff": True}, "xy_cutoff"),
            ({"current_weight_cutoff": 2.0}, "current_weight_cutoff"),
            ({"coeff_cutoff": "0.1"}, "coeff_cutoff"),
            ({"coeff_cutoff": False}, "coeff_cutoff"),
        ],
    )
    def test_badly_typed_truncation_exits_2(self, tmp_path, capsys, trunc, key):
        cfg = write_config(tmp_path, {**RX_DAMP_CONFIG, "truncation": trunc})
        code, out, err = run_cli(["propagate", "--config", cfg], capsys)
        assert code == 2 and out == ""
        assert repr(key) in err and "Traceback" not in err

    def test_well_typed_truncation_runs(self, tmp_path, capsys):
        trunc = {"k": 16, "coeff_cutoff": 0, "xy_cutoff": None, "current_weight_cutoff": 3}
        cfg = write_config(tmp_path, {**RX_DAMP_CONFIG, "truncation": trunc})
        code, _, _ = run_cli(["propagate", "--config", cfg], capsys)
        assert code == 0

    def test_library_key_error_is_not_a_config_error(self, tmp_path, capsys, monkeypatch):
        import paulipath.cli

        def broken(*args, **kwargs):
            raise KeyError("internal")

        monkeypatch.setattr(paulipath.cli, "dynamics_series", broken)
        cfg = write_config(
            tmp_path,
            {"lattice": {"type": "chain", "n": 2}, "J": 1.0, "h": 1.0, "dt": 0.1, "steps": 1},
        )
        with pytest.raises(KeyError, match="internal"):
            main(["dynamics", "--config", cfg])
        assert "configuration" not in capsys.readouterr().err


ESTIMATE_CONFIG = {
    "circuit": {
        "n": 1,
        "layers": [
            {
                "gates": [{"type": "rot", "generator": "X", "support": [0], "angle": "uniform"}],
                "noise": {"kind": "amplitude_damping", "param": 0.2},
            }
        ],
    },
    "observable": [{"pauli": "Z", "coeff": 1.0}],
    "estimator": {"functional": "trunc_frobenius", "k": 2, "samples": 100, "seed": 3},
}
DYNAMICS_CONFIG = {"lattice": {"type": "chain", "n": 2}, "J": 1.0, "h": 1.0, "dt": 0.1, "steps": 1}
HVA_CIRCUIT = {
    "builder": "hva",
    "lattice": {"type": "chain", "n": 2},
    "blocks": 1,
    "noise": {"kind": "amplitude_damping", "param": 0.1},
    "angles": 0.3,
}
TFIM_CIRCUIT = {
    "builder": "trotter_tfim",
    "lattice": {"type": "chain", "n": 2},
    "J": 1.0,
    "h": 1.0,
    "dt": 0.1,
    "steps": 1,
}


def _with(base: dict, path: tuple, value) -> dict:
    """A deep copy of ``base`` with the entry at ``path`` set to ``value``."""
    cfg = json.loads(json.dumps(base))
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return cfg


def _builder_config(circuit: dict) -> dict:
    return {"circuit": circuit, "observable": [{"pauli": "ZI", "coeff": 1.0}]}


class TestIntegerFields:
    @pytest.mark.parametrize(
        "command, cfg, key",
        [
            ("estimate", _with(ESTIMATE_CONFIG, ("estimator", "k"), 2.7), "k"),
            ("estimate", _with(ESTIMATE_CONFIG, ("estimator", "k"), True), "k"),
            ("estimate", _with(ESTIMATE_CONFIG, ("estimator", "samples"), 100.5), "samples"),
            ("estimate", _with(ESTIMATE_CONFIG, ("estimator", "seed"), "3"), "seed"),
            ("propagate", _with(RX_DAMP_CONFIG, ("seed",), 1.5), "seed"),
            ("propagate", _with(RX_DAMP_CONFIG, ("k_sweep",), [True, "3", 2.5]), "k_sweep"),
            ("propagate", _with(RX_DAMP_CONFIG, ("k_sweep",), 3), "k_sweep"),
            ("sweep", _with(TestSweepCommand.SWEEP_CONFIG, ("blocks",), 2.0), "blocks"),
            ("sweep", _with(TestSweepCommand.SWEEP_CONFIG, ("samples",), "4000"), "samples"),
            ("sweep", _with(TestSweepCommand.SWEEP_CONFIG, ("k_grid",), [2, 4.5]), "k_grid"),
            ("dynamics", _with(DYNAMICS_CONFIG, ("steps",), 2.9), "steps"),
            ("propagate", _builder_config(_with(HVA_CIRCUIT, ("blocks",), 2.5)), "blocks"),
            ("propagate", _builder_config(_with(TFIM_CIRCUIT, ("steps",), False)), "steps"),
            ("dynamics", _with(DYNAMICS_CONFIG, ("lattice", "n"), 2.5), "n"),
            ("propagate", _with(RX_DAMP_CONFIG, ("circuit", "n"), "1"), "n"),
            ("sweep", _with(TestSweepCommand.SWEEP_CONFIG, ("lattice",),
                            {"type": "square", "rows": 2.0, "cols": 2}), "rows"),
            ("dynamics", _with(DYNAMICS_CONFIG, ("lattice", "periodic"), "false"), "periodic"),
        ],
    )
    def test_non_integer_exits_2_naming_it(self, tmp_path, capsys, command, cfg, key):
        code, out, err = run_cli([command, "--config", write_config(tmp_path, cfg)], capsys)
        assert code == 2 and out == ""
        assert repr(key) in err and "Traceback" not in err

    def test_integer_fields_run(self, tmp_path, capsys):
        for command, cfg in (
            ("estimate", ESTIMATE_CONFIG),
            ("dynamics", DYNAMICS_CONFIG),
            ("propagate", _builder_config(HVA_CIRCUIT)),
            ("propagate", _builder_config(TFIM_CIRCUIT)),
        ):
            code, _, err = run_cli([command, "--config", write_config(tmp_path, cfg)], capsys)
            assert code == 0, err


ROT_GATE = ("circuit", "layers", 0, "gates", 0)
LAYER_NOISE = ("circuit", "layers", 0, "noise")


class TestRealFields:
    @pytest.mark.parametrize(
        "command, cfg, key",
        [
            ("propagate", _builder_config(_with(HVA_CIRCUIT, ("angles",), [0.3])), "angles"),
            ("propagate", _builder_config(_with(HVA_CIRCUIT, ("angles",), "0.3")), "angles"),
            ("propagate", _with(RX_DAMP_CONFIG, (*ROT_GATE, "angle"), "0.3"), "angle"),
            ("propagate", _with(RX_DAMP_CONFIG, (*ROT_GATE, "angle"), math.nan), "angle"),
            ("propagate", _builder_config(_with(TFIM_CIRCUIT, ("J",), [1.0])), "J"),
            ("propagate", _builder_config(_with(TFIM_CIRCUIT, ("h",), "1.0")), "h"),
            ("propagate", _builder_config(_with(TFIM_CIRCUIT, ("dt",), True)), "dt"),
            ("dynamics", _with(DYNAMICS_CONFIG, ("J",), [1.0]), "J"),
            ("dynamics", _with(DYNAMICS_CONFIG, ("h",), "1.0"), "h"),
            ("dynamics", _with(DYNAMICS_CONFIG, ("dt",), math.inf), "dt"),
            ("sweep", _with(TestSweepCommand.SWEEP_CONFIG, ("noise_grid",), 0.1), "noise_grid"),
            ("sweep", _with(TestSweepCommand.SWEEP_CONFIG, ("noise_grid",), ["0.1"]), "noise_grid"),
            ("propagate", _with(RX_DAMP_CONFIG, (*LAYER_NOISE, "param"), [0.1]), "param"),
            ("dynamics", _with(DYNAMICS_CONFIG, ("noise",), {"kind": "dephasing", "param": "0.1"}),
             "param"),
            ("propagate", _with(RX_DAMP_CONFIG, ("observable", 0, "coeff"), "1.0"), "coeff"),
        ],
    )
    def test_non_real_exits_2_naming_it(self, tmp_path, capsys, command, cfg, key):
        code, out, err = run_cli([command, "--config", write_config(tmp_path, cfg)], capsys)
        assert code == 2 and out == ""
        assert repr(key) in err and "Traceback" not in err


class TestCustomGateAndChannelFields:
    @pytest.mark.parametrize(
        "cfg, key",
        [
            (_with(RX_DAMP_CONFIG, (*ROT_GATE, "support"), 0), "support"),
            (_with(RX_DAMP_CONFIG, (*ROT_GATE, "support"), ["0"]), "support"),
            (_with(RX_DAMP_CONFIG, (*ROT_GATE, "generator"), 5), "generator"),
            (_with(RX_DAMP_CONFIG, LAYER_NOISE, {"kind": "custom", "D": 5, "t": [0, 0, 0]}), "D"),
            (_with(RX_DAMP_CONFIG, LAYER_NOISE, {"kind": "custom", "D": [1, 1, 1], "t": [0, 0]}),
             "t"),
        ],
    )
    def test_malformed_exits_2_naming_it(self, tmp_path, capsys, cfg, key):
        code, out, err = run_cli(["propagate", "--config", write_config(tmp_path, cfg)], capsys)
        assert code == 2 and out == ""
        assert repr(key) in err and "Traceback" not in err

    def test_well_formed_custom_channel_runs(self, tmp_path, capsys):
        noise = {"kind": "custom", "D": [0.7, 0.7, 0.49], "t": [0, 0, 0.51]}  # damping 0.51
        cfg = write_config(tmp_path, _with(RX_DAMP_CONFIG, LAYER_NOISE, noise))
        code, out, _ = run_cli(["propagate", "--config", cfg], capsys)
        assert code == 0
        assert json.loads(out)["result"]["expectation"] == pytest.approx(
            0.49 * math.cos(0.7) + 0.51, abs=1e-12
        )


class TestObjectFields:
    @pytest.mark.parametrize(
        "command, cfg, key",
        [
            ("dynamics", _with(DYNAMICS_CONFIG, ("noise",), "bogus"), "noise"),
            ("dynamics", _with(DYNAMICS_CONFIG, ("noise",), [0.1]), "noise"),
            ("dynamics", _with(DYNAMICS_CONFIG, ("lattice",), "x"), "lattice"),
            ("sweep", _with(TestSweepCommand.SWEEP_CONFIG, ("lattice",), 3), "lattice"),
            ("propagate", _builder_config(_with(HVA_CIRCUIT, ("noise",), "bogus")), "noise"),
            ("propagate", _builder_config(_with(TFIM_CIRCUIT, ("lattice",), ["chain"])), "lattice"),
        ],
    )
    def test_non_object_exits_2_naming_it(self, tmp_path, capsys, command, cfg, key):
        code, out, err = run_cli([command, "--config", write_config(tmp_path, cfg)], capsys)
        assert code == 2 and out == ""
        assert repr(key) in err and "Traceback" not in err


class TestMalformedEntries:
    @pytest.mark.parametrize(
        "command, cfg, key",
        [
            ("propagate", _with(RX_DAMP_CONFIG, ("circuit", "layers", 0, "noise"), "bogus"),
             "noise"),
            ("propagate", _with(RX_DAMP_CONFIG, ("circuit", "layers", 0, "gates"), ["x"]), "gates"),
            ("propagate", _with(RX_DAMP_CONFIG, ("observable",), "ZI"), "observable"),
            ("sweep", _with(TestSweepCommand.SWEEP_CONFIG, ("noise_kind",), ["x"]), "noise_kind"),
        ],
    )
    def test_malformed_entry_exits_2_naming_it(self, tmp_path, capsys, command, cfg, key):
        code, out, err = run_cli([command, "--config", write_config(tmp_path, cfg)], capsys)
        assert code == 2 and out == ""
        assert repr(key) in err and "Traceback" not in err


class TestCounts:
    def test_negative_steps_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, _with(DYNAMICS_CONFIG, ("steps",), -1))
        code, out, err = run_cli(["dynamics", "--config", cfg], capsys)
        assert code == 2 and out == ""
        assert "'steps'" in err

    @pytest.mark.parametrize("value", ["0", "-3", "2.5"])
    def test_non_positive_max_terms_exit_2(self, tmp_path, capsys, value):
        cfg = write_config(tmp_path, DYNAMICS_CONFIG)
        with pytest.raises(SystemExit) as exc:
            main(["dynamics", "--config", cfg, "--max-terms", value])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert "--max-terms" in err and "positive" in err
