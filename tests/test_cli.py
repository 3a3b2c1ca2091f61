import csv
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import threading

import pytest

import paulipath.cli
import paulipath.pauli
from paulipath import (
    PauliString,
    PauliSum,
    ProductState,
    Square,
    TruncMSE,
    build_hva,
    estimate,
    make_amplitude_damping,
)
from paulipath.cli import main


def _not_json(constant):
    raise ValueError(f"output holds {constant}, which strict JSON has no literal for")


def run_cli(args, capsys):
    """Exit code, stdout and stderr of ``main(args)``; exit-0 JSON on stdout must be strict JSON."""
    code = main(args)
    out = capsys.readouterr()
    if code == 0 and out.out and "csv" not in args:
        json.loads(out.out, parse_constant=_not_json)
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



def _mixed_config() -> dict:
    """A 66-qubit propagate config that mixes every local step the engine runs.

    Rotations, H and S, CNOT and CZ on qubits 63 and 64 (one in each mask
    word), amplitude damping, dephasing and a custom channel whose ``pre``
    rotation gives several outputs per input; every cutoff discards paths.
    """
    n = 66

    def label(**sites):
        return "".join(sites.get(f"q{q}", "I") for q in range(n))

    def noise(**sites):
        return [sites.get(f"q{q}") for q in range(n)]

    def rot(generator, support, angle):
        return {"type": "rot", "generator": generator, "support": support, "angle": angle}

    def cliff(name, support):
        return {"type": "clifford", "name": name, "support": support}

    c, s = math.cos(0.6), math.sin(0.6)
    turn = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, c, -s], [0, 0, s, c]]  # about the x axis
    damp = {"kind": "amplitude_damping", "param": 0.15}
    deph = {"kind": "dephasing", "param": 0.2}
    custom = {"kind": "custom", "D": [0.8, 0.7, 0.6], "t": [0.0, 0.1, 0.2], "pre": turn}
    layers = [
        ([rot("X", [62], 0.3), rot("Y", [63], 0.7), rot("Z", [64], -0.4), rot("XZ", [61, 65], 0.9)],
         noise(q61=custom, q62=damp, q63=damp, q64=deph, q65=custom)),
        ([cliff("CNOT", [63, 64]), cliff("H", [62]), cliff("S", [65]), rot("ZZ", [0, 61], 1.2)],
         noise(q0=deph, q62=custom, q63=custom, q64=damp)),
        ([cliff("CZ", [64, 63]), rot("YY", [61, 62], 1.1), rot("X", [65], 0.5), cliff("H", [0])],
         noise(q61=damp, q62=deph, q63=custom, q64=custom, q65=damp)),
        ([rot("ZX", [62, 63], 0.8), rot("Y", [64], 1.3), cliff("S", [61]), rot("XY", [65, 0], -0.6)],
         noise(q0=custom, q61=deph, q62=damp, q63=custom, q64=custom, q65=deph)),
    ]
    return {
        "circuit": {
            "n": n,
            "layers": [{"gates": gates, "noise": chs} for gates, chs in layers],
            "final_layer": [rot("X", [63], 0.2), cliff("S", [62]), cliff("H", [64])],
        },
        "observable": [
            {"pauli": label(q63="Z", q64="Z"), "coeff": 1.0},
            {"pauli": label(q62="X", q63="Y"), "coeff": -0.5},
            {"pauli": label(q64="Y", q65="X", q0="Z"), "coeff": 0.25},
        ],
        "state": [[0.3 * math.sin(q), 0.3 * math.cos(q), 0.8] for q in range(n)],
        "truncation": {"k": 12, "coeff_cutoff": 1e-3, "xy_cutoff": 3, "current_weight_cutoff": 4},
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

    def test_mixed_circuit_pinned(self, tmp_path, capsys):
        code, out, err = run_cli(["propagate", "--config", write_config(tmp_path, _mixed_config())],
                                 capsys)
        assert code == 0, err
        result = json.loads(out)["result"]
        assert result["expectation"] == float.fromhex("0x1.84f6018fc232bp-4")
        assert result["stats"] == {
            "paths_discarded_by_weight": 32,
            "paths_discarded_by_coeff": 307,
            "paths_discarded_by_xy": 5,
            "paths_discarded_by_current_weight": 16,
            "peak_term_count": 202,
            "surviving_path_count": 139,
        }

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

    def test_k_sweep_builds_no_pauli_objects(self, tmp_path, capsys, monkeypatch):
        # once the observable is read, the pass and every k's row work on columns
        def refuse(*args):
            raise AssertionError("the k-sweep built a PauliString")

        backpropagate = paulipath.cli.backpropagate

        def then_refuse(*args, **kwargs):
            monkeypatch.setattr(paulipath.pauli.PauliString, "__post_init__", refuse)
            return backpropagate(*args, **kwargs)

        monkeypatch.setattr(paulipath.cli, "backpropagate", then_refuse)
        cfg = write_config(tmp_path, self.KSWEEP_CONFIG)
        code, out, err = run_cli(["propagate", "--config", cfg], capsys)
        assert code == 0, err
        assert [r["k"] for r in json.loads(out)["result"]] == [2, 6, 3, 9]

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

    # RX(0.7) rotates Z and Y into each other: each sum overflows to inf
    OVERFLOW_CONFIG = {
        "circuit": {"n": 1, "layers": [{"gates": RX_DAMP_CONFIG["circuit"]["layers"][0]["gates"]}]},
        "observable": [{"pauli": "Z", "coeff": 1.7e308}, {"pauli": "Y", "coeff": 1.7e308}],
    }

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
    @pytest.mark.parametrize("extra", [{}, {"k_sweep": [1, 2]}])
    def test_non_finite_expectation_exits_4(self, tmp_path, capsys, extra):
        cfg = write_config(tmp_path, {**self.OVERFLOW_CONFIG, **extra})
        code, out, err = run_cli(["propagate", "--config", cfg], capsys)
        assert code == 4 and out == ""
        assert err.splitlines() == ["error: propagation produced a non-finite expectation"]

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
        assert set(result) == {"mean", "stderr", "samples", "nonzero_fraction", "max_reweight"}
        # paths ending on Y have zero overlap with |0>, those on I or Z do not
        assert 0.0 < result["nonzero_fraction"] < 1.0
        # the damping step scales every path by the squared norm of Z's image
        assert result["max_reweight"] == pytest.approx(0.8**2 + 0.2**2, rel=1e-12)
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

    def test_trunc_mse_is_the_library_estimate(self, tmp_path, capsys):
        state = [[0.6, 0.0, 0.8], [0.0, 0.0, 1.0]]
        cfg = {
            **_builder_config({**HVA_CIRCUIT, "blocks": 2, "angles": "uniform"}),
            "estimator": {"functional": "trunc_mse", "k": 2, "state": state, "samples": 3000,
                          "seed": 11},
        }
        code, out, err = run_cli(["estimate", "--config", write_config(tmp_path, cfg)], capsys)
        assert code == 0, err
        template = build_hva(Square(1, 2), make_amplitude_damping(0.1), 2)
        obs = PauliSum(2, [(PauliString.from_label("ZI"), 1.0)])
        want = estimate(template, obs, TruncMSE(2, ProductState.from_vectors(state)), 3000, 11)
        assert want.mean > 0.0
        assert json.loads(out)["result"] == {
            "mean": want.mean,
            "stderr": want.standard_error,
            "samples": want.samples,
            "nonzero_fraction": want.nonzero_fraction,
            "max_reweight": want.max_reweight,
        }

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

    def test_one_thread_by_default(self, tmp_path, capsys, monkeypatch):
        # --threads still parses, and the noise points run in order on this thread
        def no_thread(*_args, **_kwargs):
            raise AssertionError("sweep started a thread")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        cfg = write_config(tmp_path, {**self.SWEEP_CONFIG, "noise_grid": [0.1, 0.2]})
        code, out, _ = run_cli(["sweep", "--config", cfg, "--format", "json", "--threads", "2"], capsys)
        assert code == 0 and len(json.loads(out)["result"]) == 4

    def test_noise_placement_from_config(self, tmp_path, capsys):
        default = self.sweep_rows(tmp_path, capsys)
        per_block = self.sweep_rows(tmp_path, capsys, noise_placement="per_block")
        per_round = self.sweep_rows(tmp_path, capsys, noise_placement="per_round")
        assert default == per_block
        assert [r["estimate"] for r in per_round] != [r["estimate"] for r in per_block]

    def test_trunc_mse_rows_at_most_trunc_frobenius(self, tmp_path, capsys):
        # one chunk (at most 2**17 samples) walks the same paths under both
        # functionals, and a path's trunc_mse value is its trunc_frobenius
        # value times an overlap squared of at most 1
        frobenius = self.sweep_rows(tmp_path, capsys)
        mse = self.sweep_rows(tmp_path, capsys, functional="trunc_mse")
        assert [(r["noise_param"], r["k"]) for r in mse] == [
            (r["noise_param"], r["k"]) for r in frobenius
        ]
        assert all(m["estimate"] <= f["estimate"] for m, f in zip(mse, frobenius))
        assert any(0.0 < m["estimate"] < f["estimate"] for m, f in zip(mse, frobenius))

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
    def test_out_of_memory_exits_3(self, tmp_path):
        # a child capped at 512 MiB of address space: the frontier of an exact
        # 40-qubit HVA with uniform angles outgrows it within seconds
        pytest.importorskip("resource")
        n = 40
        circuit = {"builder": "hva", "lattice": {"type": "chain", "n": n}, "blocks": 30,
                   "angles": "uniform"}
        cfg = write_config(tmp_path, {"circuit": circuit, "seed": 1,
                                      "observable": [{"pauli": "Z" * n, "coeff": 1.0}]})
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        script = (
            "import resource, sys; from paulipath.cli import main; "
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29)); sys.exit(main(sys.argv[1:]))"
        )
        child = subprocess.run(
            [sys.executable, "-c", script, "propagate", "--config", cfg],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=300,
        )
        assert child.returncode == 3 and child.stdout == ""
        assert child.stderr.startswith("error: propagate ran out of memory")
        assert child.stderr.count("\n") == 1 and "Traceback" not in child.stderr

    def test_missing_config(self, capsys):
        code, _, err = run_cli(["propagate"], capsys)
        assert code == 2 and err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, _ = run_cli(["propagate", "--config", str(path)], capsys)
        assert code == 2

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_constant_in_config_exits_2(self, tmp_path, capsys, constant):
        # Python's json reads these constants; under a key no command reads,
        # one would reach the output's config and fail there (exit 4)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**RX_DAMP_CONFIG, "note": [0.0]}).replace("[0.0]", f"[{constant}]"))
        code, out, err = run_cli(["oracle", "--config", str(path)], capsys)
        assert code == 2 and out == ""
        assert err == f"error: 'note' holds {constant}, which is not a finite number\n"

    def test_non_finite_constant_in_channel_option_exits_2(self, capsys):
        text = '{"kind": "dephasing", "param": 0.1, "note": Infinity}'
        code, out, err = run_cli(["channel-info", "--channel", text], capsys)
        assert code == 2 and out == ""
        assert "'note'" in err and "Infinity" in err

    def test_malformed_channel_option_exits_2_naming_it(self, capsys):
        code, out, err = run_cli(["channel-info", "--channel", '{"kind": '], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: --channel is not valid JSON: Expecting value")

    @pytest.mark.parametrize("content", [None, "[1, 2]"])
    def test_unreadable_or_non_object_config_exits_2(self, tmp_path, capsys, content):
        path = tmp_path / "cfg.json"
        if content is not None:  # else there is no file to read
            path.write_text(content)
        code, out, err = run_cli(["propagate", "--config", str(path)], capsys)
        assert code == 2 and out == ""
        assert "config" in err and "Traceback" not in err

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


TEMPLATE_CONFIG = _builder_config({**HVA_CIRCUIT, "angles": "uniform"})


class TestSeeds:
    @pytest.mark.parametrize(
        "command, cfg, flag, key",
        [
            ("estimate", ESTIMATE_CONFIG, ["--seed", "-1"], "--seed"),
            ("estimate", _with(ESTIMATE_CONFIG, ("estimator", "seed"), -5), [], "'seed'"),
            ("estimate", {**_with(ESTIMATE_CONFIG, ("estimator",), {
                "functional": "trunc_frobenius", "k": 2, "samples": 100}), "seed": -2}, [], "'seed'"),
            ("sweep", TestSweepCommand.SWEEP_CONFIG, ["--seed", "-1"], "--seed"),
            ("sweep", _with(TestSweepCommand.SWEEP_CONFIG, ("seed",), -5), [], "'seed'"),
            ("propagate", TEMPLATE_CONFIG, ["--seed", "-1"], "--seed"),
            ("propagate", {**TEMPLATE_CONFIG, "seed": -3}, [], "'seed'"),
        ],
    )
    def test_negative_exits_2_naming_it(self, tmp_path, capsys, command, cfg, flag, key):
        code, out, err = run_cli([command, "--config", write_config(tmp_path, cfg), *flag], capsys)
        assert code == 2 and out == ""
        assert key in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "command, cfg",
        [("estimate", ESTIMATE_CONFIG), ("sweep", TestSweepCommand.SWEEP_CONFIG),
         ("propagate", TEMPLATE_CONFIG)],
    )
    def test_any_nonnegative_seed_runs(self, tmp_path, capsys, command, cfg):
        path = write_config(tmp_path, cfg)
        for seed in ("0", str(2**128), str(2**200 + 7)):
            code, out, err = run_cli([command, "--config", path, "--seed", seed], capsys)
            assert code == 0, err
            assert json.loads(out)["config"]["seed"] == int(seed)


ROT_GATE = ("circuit", "layers", 0, "gates", 0)
RANDOM_CLIFFORD_CONFIG = {
    "circuit": {"n": 2, "layers": [{"gates": [{"type": "random_clifford", "support": [1]}]}]},
    "observable": [{"pauli": "ZI", "coeff": 1.0}],
}
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
            ("propagate", _with(RX_DAMP_CONFIG, ("state",), [5]), "state"),
            ("propagate", _with(RX_DAMP_CONFIG, ("state",), [["0", "0", "0.5"]]), "state"),
            ("oracle", _with(RX_DAMP_CONFIG, ("state",), [[0.0, 0.5]]), "state"),
            ("estimate", _with(ESTIMATE_CONFIG, ("estimator", "state"), [[0, 0, True]]), "state"),
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
            (_with(RANDOM_CLIFFORD_CONFIG, (*ROT_GATE, "support"), []), "support"),
            (_with(RANDOM_CLIFFORD_CONFIG, (*ROT_GATE, "support"), [0, 1]), "support"),
        ],
    )
    def test_malformed_exits_2_naming_it(self, tmp_path, capsys, cfg, key):
        code, out, err = run_cli(["propagate", "--config", write_config(tmp_path, cfg)], capsys)
        assert code == 2 and out == ""
        assert repr(key) in err and "Traceback" not in err

    def test_well_formed_random_clifford_and_state_run(self, tmp_path, capsys):
        cfg = _with(RANDOM_CLIFFORD_CONFIG, ("state",), [[0, 0, 1], [0.5, 0, 0]])
        code, out, err = run_cli(["propagate", "--config", write_config(tmp_path, cfg)], capsys)
        assert code == 0, err
        assert json.loads(out)["result"]["expectation"] == pytest.approx(1.0)

    def test_well_formed_custom_channel_runs(self, tmp_path, capsys):
        noise = {"kind": "custom", "D": [0.7, 0.7, 0.49], "t": [0, 0, 0.51]}  # damping 0.51
        cfg = write_config(tmp_path, _with(RX_DAMP_CONFIG, LAYER_NOISE, noise))
        code, out, _ = run_cli(["propagate", "--config", cfg], capsys)
        assert code == 0
        assert json.loads(out)["result"]["expectation"] == pytest.approx(
            0.49 * math.cos(0.7) + 0.51, abs=1e-12
        )


def _custom(**fields) -> dict:
    """A custom channel with D = (0.9, 0.9, 0.9), t = 0 and the given fields."""
    return {"kind": "custom", "D": [0.9, 0.9, 0.9], "t": [0, 0, 0], **fields}


def _diag(*entries) -> list:
    return [[entries[i] if i == j else 0 for j in range(4)] for i in range(4)]


# a ``post`` whose first column is (1, 0.5, 0, 0): it would give <X> = 1.4 on |+>
_SHIFTED = [[1, 0, 0, 0], [0.5, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
CHANNEL_ONLY_CONFIG = {
    "circuit": {"n": 1, "layers": [{"gates": [], "noise": _custom()}]},
    "observable": [{"pauli": "X", "coeff": 1.0}],
    "state": [[1.0, 0.0, 0.0]],
}


class TestRotationFields:
    @pytest.mark.parametrize(
        "noise, key",
        [
            (_custom(pre=_diag(1, 1, 1, 5)), "pre"),  # not orthogonal
            (_custom(post=_diag(1, 1, 1, -1)), "post"),  # a reflection
            (_custom(post=_SHIFTED), "post"),  # first column is not (1, 0, 0, 0)
            (_custom(pre="x"), "pre"),
            (_custom(pre=[]), "pre"),
            (_custom(post=_diag(1, 1, "1", 1)), "post"),
            (_custom(pre=_diag(1, True, 1, 1)), "pre"),
            (_custom(pre=[[1, 0, 0, 0]] * 3), "pre"),
        ],
    )
    def test_non_rotation_exits_2_naming_it(self, tmp_path, capsys, noise, key):
        cfg = write_config(tmp_path, _with(CHANNEL_ONLY_CONFIG, LAYER_NOISE, noise))
        code, out, err = run_cli(["propagate", "--config", cfg], capsys)
        assert code == 2 and out == ""
        assert repr(key) in err and "Traceback" not in err

    def test_rotations_run(self, tmp_path, capsys):
        # pre is a half-turn about z, post a quarter turn about z; the PTM's X row
        # post[1] @ diag(1, 0.9, 0.9, 0.9) @ pre is (0, 0, 0.9, 0), so <X> = 0.9 r_y
        quarter = [[1, 0, 0, 0], [0, 0, -1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
        noise = _custom(pre=_diag(1, -1, -1, 1), post=quarter)
        cfg = _with(CHANNEL_ONLY_CONFIG, LAYER_NOISE, noise)
        cfg["state"] = [[0.0, 1.0, 0.0]]
        code, out, err = run_cli(["propagate", "--config", write_config(tmp_path, cfg)], capsys)
        assert code == 0, err
        assert json.loads(out)["result"]["expectation"] == pytest.approx(0.9, abs=1e-12)


class TestNames:
    @pytest.mark.parametrize(
        "cfg, key",
        [
            (_with(RX_DAMP_CONFIG, (*LAYER_NOISE, "kind"), ["dephasing"]), "kind"),
            (_with(RX_DAMP_CONFIG, ROT_GATE, {"type": "clifford", "name": ["H"], "support": [0]}),
             "name"),
        ],
    )
    def test_unhashable_name_exits_2_naming_it(self, tmp_path, capsys, cfg, key):
        code, out, err = run_cli(["propagate", "--config", write_config(tmp_path, cfg)], capsys)
        assert code == 2 and out == ""
        assert repr(key) in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "command, cfg, value",
        [
            ("dynamics", _with(DYNAMICS_CONFIG, ("lattice", "type"), "hex"), "hex"),
            ("propagate", _builder_config(_with(HVA_CIRCUIT, ("lattice", "type"), "ring")), "ring"),
            ("propagate", _with(RX_DAMP_CONFIG, (*ROT_GATE, "type"), "swap"), "swap"),
            ("propagate", _builder_config(_with(HVA_CIRCUIT, ("builder",), "qaoa")), "qaoa"),
            ("estimate", _with(ESTIMATE_CONFIG, ("estimator", "functional"), "bogus"), "bogus"),
            # a functional of ``estimate`` that the sweep does not take
            ("sweep", {**TestSweepCommand.SWEEP_CONFIG, "functional": "variance"}, "variance"),
        ],
    )
    def test_unknown_name_exits_2_naming_it(self, tmp_path, capsys, command, cfg, value):
        # the key each case sets
        key = {"qaoa": "builder", "bogus": "functional", "variance": "functional"}.get(value, "type")
        code, out, err = run_cli([command, "--config", write_config(tmp_path, cfg)], capsys)
        assert code == 2 and out == ""
        assert repr(key) in err and repr(value) in err and "Traceback" not in err

    def test_clifford_word_in_a_fresh_process(self, tmp_path, capsys):
        # "HS" is one of the H/S words that name the 24 single-qubit Cliffords
        gate = {"type": "clifford", "name": "HS", "support": [0]}
        cfg = _with(RX_DAMP_CONFIG, ROT_GATE, gate)
        cfg = write_config(tmp_path, {**cfg, "state": [[1, 0, 0]]})
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        script = "import sys; from paulipath.cli import main; sys.exit(main(sys.argv[1:]))"
        fresh = subprocess.run(
            [sys.executable, "-c", script, "propagate", "--config", cfg],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=300,
        )
        assert fresh.returncode == 0, fresh.stderr
        code, out, _ = run_cli(["propagate", "--config", cfg], capsys)
        assert code == 0
        assert json.loads(fresh.stdout)["result"] == json.loads(out)["result"]


class TestPauliLabels:
    TWO_TERMS = {
        "circuit": {"n": 2, "layers": []},
        "observable": [{"pauli": "ZZ", "coeff": 1.0}, {"pauli": "Z", "coeff": 0.5}],
    }

    @pytest.mark.parametrize(
        "cfg, key, label",
        [
            (_with(RX_DAMP_CONFIG, (*ROT_GATE, "generator"), "Q"), "generator", "Q"),
            (_with(RX_DAMP_CONFIG, ("observable", 0, "pauli"), "W"), "pauli", "W"),
            (_with(RX_DAMP_CONFIG, (*ROT_GATE, "generator"), ""), "generator", ""),
            (_with(RX_DAMP_CONFIG, ("observable", 0, "pauli"), ""), "pauli", ""),
            (TWO_TERMS, "pauli", "Z"),  # shorter than the first term
        ],
    )
    def test_bad_label_exits_2_naming_key_and_label(self, tmp_path, capsys, cfg, key, label):
        code, out, err = run_cli(["propagate", "--config", write_config(tmp_path, cfg)], capsys)
        assert code == 2 and out == ""
        assert repr(key) in err and repr(label) in err and "Traceback" not in err


TWO_QUBIT_GATES = ("circuit", "layers", 0, "gates")
TWO_QUBIT_CONFIG = {
    "circuit": {"n": 2, "layers": [{"gates": []}]},
    "observable": [{"pauli": "ZI", "coeff": 1.0}],
}


class TestGateFit:
    @pytest.mark.parametrize(
        "gate, key, value",
        [
            ({"type": "rot", "generator": "XX", "support": [0], "angle": 0.1}, "generator", "'XX'"),
            ({"type": "rot", "generator": "XI", "support": [0, 1], "angle": 0.1}, "generator",
             "'XI'"),
            ({"type": "clifford", "name": "CNOT", "support": [0]}, "name", "'CNOT'"),
            ({"type": "rot", "generator": "XX", "support": [0, 0], "angle": 0.1}, "support",
             "[0, 0]"),
            ({"type": "rot", "generator": "X", "support": [5], "angle": 0.1}, "support", "[5]"),
            ({"type": "clifford", "name": "CNOT", "support": [0, 0]}, "support", "[0, 0]"),
        ],
    )
    def test_misfit_gate_exits_2_naming_key_and_value(self, tmp_path, capsys, gate, key, value):
        cfg = write_config(tmp_path, _with(TWO_QUBIT_CONFIG, TWO_QUBIT_GATES, [gate]))
        code, out, err = run_cli(["propagate", "--config", cfg], capsys)
        assert code == 2 and out == ""
        assert repr(key) in err and value in err and "Traceback" not in err


class TestHvaNoisePlacement:
    def expectation(self, tmp_path, capsys, **extra):
        cfg = write_config(tmp_path, _builder_config({**HVA_CIRCUIT, "blocks": 2, **extra}))
        code, out, _ = run_cli(["propagate", "--config", cfg], capsys)
        assert code == 0
        return json.loads(out)["result"]["expectation"]

    def test_placement_from_config(self, tmp_path, capsys):
        default = self.expectation(tmp_path, capsys)
        per_round = self.expectation(tmp_path, capsys, noise_placement="per_round")
        per_block = self.expectation(tmp_path, capsys, noise_placement="per_block")
        assert default == per_round != per_block

    @pytest.mark.parametrize("command, value", [("propagate", "bogus"), ("estimate", "per_step")])
    def test_bad_placement_exits_2_naming_key_and_value(self, tmp_path, capsys, command, value):
        cfg = _builder_config(_with(HVA_CIRCUIT, ("noise_placement",), value))
        cfg["estimator"] = ESTIMATE_CONFIG["estimator"]
        code, out, err = run_cli([command, "--config", write_config(tmp_path, cfg)], capsys)
        assert code == 2 and out == ""
        assert "'noise_placement'" in err and repr(value) in err and "Traceback" not in err


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


ZERO_OBSERVABLE = [{"pauli": "Z", "coeff": 0.0}, {"pauli": "X", "coeff": 0}]


class TestMalformedEntries:
    @pytest.mark.parametrize(
        "command, cfg, key",
        [
            ("propagate", _with(RX_DAMP_CONFIG, ("circuit", "layers", 0, "noise"), "bogus"),
             "noise"),
            ("propagate", _with(RX_DAMP_CONFIG, ("circuit", "layers", 0, "gates"), ["x"]), "gates"),
            ("propagate", _with(RX_DAMP_CONFIG, ("observable",), "ZI"), "observable"),
            ("sweep", _with(TestSweepCommand.SWEEP_CONFIG, ("noise_kind",), ["x"]), "noise_kind"),
            ("propagate", _with(RX_DAMP_CONFIG, ("circuit", "layers", 0, "noise"), [None, None]),
             "noise"),
            ("propagate", _with(TWO_QUBIT_CONFIG, TWO_QUBIT_GATES, [
                {"type": "clifford", "name": "H", "support": [0]},
                {"type": "rot", "generator": "ZZ", "support": [1, 0], "angle": 0.1},
            ]), "support"),
            ("propagate", _with(RX_DAMP_CONFIG, ("state",), [[2.0, 0.0, 0.0]]), "state"),
            ("oracle", _with(RX_DAMP_CONFIG, ("state",), [[0, 0, 1], [0, 0, 1]]), "state"),
            ("propagate", _with(RX_DAMP_CONFIG, ("state",), []), "state"),
            ("estimate", _with(ESTIMATE_CONFIG, ("estimator", "state"), "ones"), "state"),
            ("propagate", _with(RX_DAMP_CONFIG, ("observable",), ZERO_OBSERVABLE), "observable"),
            ("oracle", _with(RX_DAMP_CONFIG, ("observable",), ZERO_OBSERVABLE), "observable"),
            ("estimate", _with(ESTIMATE_CONFIG, ("observable",), []), "observable"),
            ("dynamics", _with(DYNAMICS_CONFIG, ("noise_placement",), "bogus"), "noise_placement"),
        ],
    )
    def test_malformed_entry_exits_2_naming_it(self, tmp_path, capsys, command, cfg, key):
        code, out, err = run_cli([command, "--config", write_config(tmp_path, cfg)], capsys)
        assert code == 2 and out == ""
        assert repr(key) in err and "Traceback" not in err


def _square(rows, cols) -> dict:
    return {"type": "square", "rows": rows, "cols": cols}


class TestCounts:
    @pytest.mark.parametrize(
        "command, cfg, key",
        [
            ("propagate", _builder_config(_with(HVA_CIRCUIT, ("blocks",), -2)), "blocks"),
            ("sweep", _with(TestSweepCommand.SWEEP_CONFIG, ("blocks",), -1), "blocks"),
            ("propagate", _builder_config(_with(TFIM_CIRCUIT, ("steps",), -1)), "steps"),
            ("propagate", _builder_config(_with(HVA_CIRCUIT, ("lattice",), _square(-2, 3))),
             "rows"),
            ("dynamics", _with(DYNAMICS_CONFIG, ("lattice",), _square(0, 2)), "rows"),
            ("sweep", _with(TestSweepCommand.SWEEP_CONFIG, ("lattice",), _square(2, 0)), "cols"),
            ("dynamics", _with(DYNAMICS_CONFIG, ("lattice", "n"), 0), "n"),
            ("propagate", _with(RX_DAMP_CONFIG, ("circuit", "n"), 0), "n"),
            ("oracle", _with(RX_DAMP_CONFIG, ("circuit", "n"), -1), "n"),
        ],
    )
    def test_out_of_range_size_exits_2_naming_it(self, tmp_path, capsys, command, cfg, key):
        code, out, err = run_cli(
            [command, "--config", write_config(tmp_path, cfg), "--threads", "1"], capsys
        )
        assert code == 2 and out == ""
        assert repr(key) in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "command, cfg, key",
        [
            ("propagate", _with(RX_DAMP_CONFIG, ("truncation",), {"k": 0}), "k"),
            ("propagate", _with(RX_DAMP_CONFIG, ("truncation",), {"xy_cutoff": 0}), "xy_cutoff"),
            ("dynamics", _with(DYNAMICS_CONFIG, ("truncation",), {"current_weight_cutoff": 0}),
             "current_weight_cutoff"),
            ("propagate", _with(RX_DAMP_CONFIG, ("truncation",), {"coeff_cutoff": -1}), "coeff_cutoff"),
            ("estimate", _with(ESTIMATE_CONFIG, ("estimator", "k"), 0), "k"),
            ("estimate", _with(ESTIMATE_CONFIG, ("estimator",),
                               {"functional": "trunc_mse", "k": -2, "samples": 100}), "k"),
            ("sweep", _with(TestSweepCommand.SWEEP_CONFIG, ("k_grid",), [2, 0]), "k_grid"),
            ("sweep", _with(TestSweepCommand.SWEEP_CONFIG, ("noise_grid",), [1.5]), "noise_grid"),
            ("sweep", _with(TestSweepCommand.SWEEP_CONFIG, ("noise_grid",), [0.1, -0.1]),
             "noise_grid"),
        ],
    )
    def test_out_of_range_value_exits_2_naming_it(self, tmp_path, capsys, command, cfg, key):
        code, out, err = run_cli([command, "--config", write_config(tmp_path, cfg)], capsys)
        assert code == 2 and out == ""
        assert repr(key) in err and "Traceback" not in err

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

    @pytest.mark.parametrize("command", ["propagate", "sweep"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_non_positive_threads_exit_2(self, tmp_path, capsys, command, value):
        cfg = write_config(tmp_path, TestSweepCommand.SWEEP_CONFIG)
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", cfg, "--threads", value])
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        assert "--threads" in err and "positive" in err


def _nodes(value, path=()):
    """The path of every node of a JSON value: itself, then each key's or entry's nodes."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from _nodes(child, (*path, key))


# No huge counts: a count of 10**30 runs until a builder bound stops it.
_BAD_VALUES = [None, True, -1, 0, 3, 2.5, -0.5, math.nan, "bogus", "", [], [1], {}, {"kind": "bogus"}]


def _fuzz_cases(count: int = 60, seed: int = 2026) -> list:
    """(command, config) pairs: one node of a base config set to a bad value, drawn with a fixed seed."""
    import random

    bases = [
        ("propagate", RX_DAMP_CONFIG),
        ("oracle", RX_DAMP_CONFIG),
        ("estimate", ESTIMATE_CONFIG),
        ("dynamics", DYNAMICS_CONFIG),
        ("sweep", TestSweepCommand.SWEEP_CONFIG),
        ("propagate", _builder_config(HVA_CIRCUIT)),
        ("propagate", _builder_config(TFIM_CIRCUIT)),
    ]
    cases = [(command, base, path, bad) for command, base in bases for path in _nodes(base)
             for bad in _BAD_VALUES]
    cases = random.Random(seed).sample(cases, count)
    return [(command, _with(base, path, bad) if path else bad) for command, base, path, bad in cases]


_HVA_2X2 = {**HVA_CIRCUIT, "lattice": {"type": "square", "rows": 2, "cols": 2}}


class TestNonFiniteOutputs:
    """Inputs whose numbers overflow: each run exits 2 or 4 with one error: line and writes nothing."""

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
    @pytest.mark.parametrize(
        "command, cfg, code, named",
        [
            # an expectation of 1e308 + 1e308
            ("oracle", {"circuit": {"n": 2, "layers": [{"gates": []}]},
                        "observable": [{"pauli": "ZI", "coeff": 1e308}, {"pauli": "IZ", "coeff": 1e308}]},
             4, "oracle would write a non-finite number"),
            # two terms of one string that sum to inf
            *[(command, {"circuit": _HVA_2X2, "observable": [{"pauli": "ZIII", "coeff": 1e308}] * 2},
               2, "coefficient of ZIII must be finite") for command in ("oracle", "propagate")],
            # ||O||_F^2 = 1e400
            ("estimate", _with(ESTIMATE_CONFIG, ("observable", 0, "coeff"), 1e200), 4, "||O||_F^2"),
            # the samples' squared deviations from their mean of about 1e300
            ("estimate", _with(_with(ESTIMATE_CONFIG, ("observable", 0, "coeff"), 1e150),
                               ("estimator", "k"), 1), 4, "standard error is not finite"),
        ],
    )
    def test_exits_without_output(self, tmp_path, capsys, command, cfg, code, named):
        got, out, err = run_cli([command, "--config", write_config(tmp_path, cfg)], capsys)
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert got == code and out == ""
        assert len(errors) == 1 and named in errors[0]

    def test_overflowing_estimate_prints_only_its_error_line(self, tmp_path):
        # numpy's warnings reach the process's stderr past capsys, so the CLI runs in a
        # child, with warnings shown as by default whatever the environment asks
        cfg = _with(_with(ESTIMATE_CONFIG, ("observable", 0, "coeff"), 1e150), ("estimator", "k"), 1)
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        child = subprocess.run(
            [sys.executable, "-W", "default", "-m", "paulipath.cli", "estimate", "--config",
             write_config(tmp_path, cfg)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=300,
        )
        assert child.returncode == 4 and child.stdout == ""
        assert child.stderr == "error: the estimate's mean or standard error is not finite\n"


class TestConfigFuzz:
    def test_bad_values_exit_with_a_documented_code(self, tmp_path, capsys):
        # every case ends in a documented exit code with no traceback (main
        # raising would fail the test); an error exit prints one error: line
        for i, (command, cfg) in enumerate(_fuzz_cases()):
            path = tmp_path / f"cfg{i}.json"
            path.write_text(json.dumps(cfg))
            code, _, err = run_cli([command, "--config", str(path), "--threads", "1"], capsys)
            errors = [line for line in err.splitlines() if line.startswith("error:")]
            assert code in (0, 2, 3, 4), (command, cfg, err)
            assert len(errors) == (code != 0), (command, cfg, err)
            assert "Traceback" not in err
