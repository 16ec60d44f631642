import os

import numpy as np
import pytest

from stattrunc import ConfigError, load_config
from stattrunc.config import (
    build_certificate,
    build_chain,
    build_reward,
    load_reward_table,
    parse_config,
)
from stattrunc.chain import ROW_CHUNK

from conftest import REWARD_REFERENCES

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")

MINIMAL = {"model": "random_walk", "z": 0, "K_max": 2, "a_values": [10, 20]}


def test_load_shipped_gm1_config():
    cfg = load_config(os.path.join(CONFIG_DIR, "gm1.yaml"))
    assert cfg.model == "gm1"
    assert cfg.model_params == {"c": 2.01}
    assert cfg.z == 0 and cfg.K_max == 200
    assert cfg.a_values == (1000, 5000, 10000)
    assert cfg.r_spec == "identity" and cfg.h_mode == "paper_literal"
    assert cfg.solver.tol == 1e-12
    assert (cfg.oracle.n_cycles, cfg.oracle.seed) == (20000, 7)
    assert cfg.output.format == "csv"


def test_load_shipped_file_config_resolves_paths():
    cfg = load_config(os.path.join(CONFIG_DIR, "two_state.yaml"))
    assert cfg.model.startswith("file:") and cfg.model.endswith("two_state_chain.txt")
    assert os.path.isfile(cfg.model[5:])
    assert cfg.r_spec.startswith("file:") and os.path.isfile(cfg.r_spec[5:])
    assert cfg.output.format == "json"


def test_parse_config_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.r_spec == "identity"
    assert cfg.h_mode == "exact"
    assert cfg.solver.tol == 1e-12
    assert (cfg.oracle.n_cycles, cfg.oracle.seed) == (20000, 12345)
    assert cfg.output.format == "csv" and cfg.output.path is None


@pytest.mark.parametrize("patch,fragment", [
    ({"model": None}, "missing|type"),
    ({"model": "mm1"}, "model must be one of"),
    ({"z": True}, "type"),
    ({"z": 3}, "0 <= z <= K_max"),
    ({"K_max": 15}, "K_max < min"),
    ({"a_values": []}, "non-empty"),
    ({"a_values": [20, 10]}, "strictly increasing"),
    ({"a_values": [10, 10]}, "strictly increasing"),
    ({"a_values": "10"}, "type"),
    ({"a_values": ["a"]}, "list of integers"),
    ({"r_spec": "cubed"}, "r_spec must be one of"),
    ({"h_mode": "literal"}, "h_mode must be one of"),
    ({"output": {"format": "xml"}}, "output.format"),
    ({"output": "csv"}, "must have type dict"),
    ({"solver": {"tolerance": 1e-9}}, "unknown keys in 'solver'"),
    ({"frobnicate": 1}, "unknown top-level"),
    ({"a_values": [1000.5]}, "item 0 must be an integer, got 1000.5"),
    ({"a_values": [True, 5]}, "item 0 must be an integer, got True"),
    ({"a_values": [10, 2.5e1, None]}, "item 2 must be an integer, got None"),
    ({"a_values": ["1e400"]}, "item 0 must be an integer"),
])
def test_parse_config_rejections(patch, fragment):
    raw = {**MINIMAL, **patch}
    if "model" in patch and patch["model"] is None:
        raw.pop("model")
    with pytest.raises(ConfigError, match=fragment):
        parse_config(raw)


@pytest.mark.parametrize("items,want", [
    (["1e4"], (10000,)),
    ([10, "20", 3e1, 4.0e1], (10, 20, 30, 40)),
])
def test_a_values_items_take_the_int_type(items, want):
    got = parse_config({**MINIMAL, "a_values": items}).a_values
    assert got == want and all(type(a) is int for a in got)


def test_parse_config_missing_required():
    with pytest.raises(ConfigError, match="missing required"):
        parse_config({"model": "gm1"})


def test_paper_literal_requires_builtin_model(tmp_path):
    chain_file = tmp_path / "c.txt"
    chain_file.write_text("states 2\n0 1 1.0\n1 0 1.0\n")
    raw = {"model": f"file:{chain_file}", "z": 0, "K_max": 0, "a_values": [2],
           "h_mode": "paper_literal"}
    with pytest.raises(ConfigError, match="paper_literal"):
        parse_config(raw)


def test_file_paths_resolve_against_base_dir(tmp_path):
    raw = {**MINIMAL, "model": "file:sub/chain.txt"}
    cfg = parse_config(raw, base_dir=str(tmp_path))
    assert cfg.model == "file:" + os.path.join(str(tmp_path), "sub", "chain.txt")


def test_load_config_error_paths(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "missing.yaml"))
    bad = tmp_path / "bad.yaml"
    bad.write_text("model: [unclosed\n")
    with pytest.raises(ConfigError, match="YAML parse error"):
        load_config(str(bad))
    empty = tmp_path / "empty.yaml"
    empty.write_text("\n")
    with pytest.raises(ConfigError, match="empty"):
        load_config(str(empty))


def test_files_that_are_not_utf8_are_config_errors(tmp_path):
    table = tmp_path / "r.txt"
    table.write_bytes(b"0 1.0\n\xff\xfe 2.0\n")
    with pytest.raises(ConfigError, match="^reward table .* is not UTF-8 text: ") as exc:
        load_reward_table(str(table))
    assert str(table) in str(exc.value)
    cfg = tmp_path / "c.yaml"
    cfg.write_bytes(b"model: random_walk\nz: \xc0\n")
    with pytest.raises(ConfigError, match="^config .* is not UTF-8 text: ") as exc:
        load_config(str(cfg))
    assert str(cfg) in str(exc.value)


def test_reward_table_round_trip(tmp_path):
    table = tmp_path / "r.txt"
    table.write_text("# header\n0 1.5\n3 0.25  # inline comment\n\n")
    r = load_reward_table(str(table))
    assert r(0) == 1.5 and r(3) == 0.25
    assert r(1) == 0.0  # unlisted states default to zero


@pytest.mark.parametrize("body,fragment", [
    ("0 1.0\n0 2.0\n", "duplicate state"),
    ("0 -1.0\n", "need state"),
    ("-1 1.0\n", "need state"),
    ("0 nan\n", "need state"),
    ("0 inf\n", "need state"),
    ("0\n", "expected 'state value'"),
    ("zero 1.0\n", "invalid literal"),
])
def test_reward_table_rejects_malformed(tmp_path, body, fragment):
    table = tmp_path / "r.txt"
    table.write_text(body)
    with pytest.raises(ConfigError, match=fragment):
        load_reward_table(str(table))


def test_build_chain_variants(tmp_path):
    assert build_chain(parse_config(MINIMAL)).n_states is None
    gm1_cfg = parse_config({**MINIMAL, "model": "gm1",
                            "model_params": {"c": 1.5}})
    assert "1.5" in build_chain(gm1_cfg).description
    with pytest.raises(ConfigError, match="unknown gm1"):
        build_chain(parse_config({**MINIMAL, "model": "gm1",
                                  "model_params": {"mu": 2.0}}))
    with pytest.raises(ConfigError, match="no model_params"):
        build_chain(parse_config({**MINIMAL, "model_params": {"c": 1.0}}))
    chain_file = tmp_path / "c.txt"
    chain_file.write_text("states 2\n0 1 1.0\n1 0 1.0\n")
    file_cfg = parse_config({**MINIMAL, "model": f"file:{chain_file}",
                             "K_max": 0, "a_values": [2]})
    assert build_chain(file_cfg).n_states == 2


def test_build_reward_variants(tmp_path):
    assert build_reward(parse_config(MINIMAL))(6) == 6.0
    assert build_reward(parse_config({**MINIMAL, "r_spec": "half"}))(6) == 3.0
    table = tmp_path / "r.txt"
    table.write_text("2 9.0\n")
    cfg = parse_config({**MINIMAL, "r_spec": f"file:{table}"})
    assert build_reward(cfg)(2) == 9.0


@pytest.mark.parametrize("spec,table_body", [
    ("identity", None), ("half", None),
    ("file", "2 9.0\n7 0.125\n1025 3.5\n"),                           # scattered states
    ("file", "".join(f"{x} {x / 3.0!r}\n" for x in range(1500))),      # a range
    ("file", "# nothing listed\n"),
])
def test_config_reward_batch_forms_equal_scalar_forms(tmp_path, spec, table_body):
    """Each config reward against its per-state formula, bit for bit."""
    r_spec = spec
    if spec == "file":
        table = tmp_path / "r.txt"
        table.write_text(table_body)
        r_spec = f"file:{table}"
        values = {int(x): float(v) for x, v in
                  (line.split() for line in table_body.splitlines() if line[:1] != "#")}
        ref = lambda x: values.get(x, 0.0)
    else:
        ref = REWARD_REFERENCES[spec]
    reward = build_reward(parse_config({**MINIMAL, "r_spec": r_spec}))
    states = [0, 1, 2, 7, ROW_CHUNK - 1, ROW_CHUNK, ROW_CHUNK + 1, 1499, 1500,
              2 * ROW_CHUNK, 10 ** 5, 3 * 10 ** 9 + 7]
    for xs in (np.array(states), np.arange(3 * ROW_CHUNK + 5)):
        batch = reward.batch_fn(xs)
        assert batch.dtype == np.float64
        assert batch.tobytes() == np.array([ref(x) for x in xs.tolist()]).tobytes()
    assert [reward(x) for x in states] == [ref(x) for x in states]


def test_build_certificate_modes():
    cfg_exact = parse_config({**MINIMAL, "K_max": 300, "a_values": [400]})
    chain = build_chain(cfg_exact)
    r = build_reward(cfg_exact)
    cert = build_certificate(cfg_exact, chain, 400, range(301), r)
    assert cert.g1(401) == cert.g2(401) == 401.0 ** 2


def test_build_certificate_file_model(tmp_path):
    chain_file = tmp_path / "c.txt"
    chain_file.write_text("states 3\n0 1 1.0\n1 0 0.5\n1 2 0.5\n2 1 1.0\n")
    cfg = parse_config({"model": f"file:{chain_file}", "z": 0, "K_max": 0,
                        "a_values": [3]})
    chain = build_chain(cfg)
    cert = build_certificate(cfg, chain, 3, [0], build_reward(cfg))
    # first-step values: E_1 tau = 1 + 0.5 E_2 tau, E_2 tau = 1 + E_1 tau
    assert cert.g1(0) == 0.0
    assert cert.g2(1) == pytest.approx(3.0)
    assert cert.g2(2) == pytest.approx(4.0)


def load_yaml_config(tmp_path, section: str):
    path = tmp_path / "cfg.yaml"
    path.write_text("model: random_walk\nz: 0\nK_max: 2\na_values: [10]\n" + section + "\n")
    return load_config(str(path))


@pytest.mark.parametrize("section,name,key,value", [
    # YAML 1.1 reads an exponent without a decimal point as a string
    ("solver: {tol: 1e-12}", "solver", "tol", 1e-12),
    ("oracle: {seed: 1e6}", "oracle", "seed", 10 ** 6),
    ('oracle: {seed: "10"}', "oracle", "seed", 10),
    ("oracle: {n_cycles: 1e4, seed: 7.0}", "oracle", "n_cycles", 10 ** 4),
    ("output: {path: null}", "output", "path", None),
])
def test_numeric_strings_take_the_field_type(tmp_path, section, name, key, value):
    got = getattr(getattr(load_yaml_config(tmp_path, section), name), key)
    assert got == value and type(got) is type(value)


@pytest.mark.parametrize("section,fragment", [
    ("oracle: {n_cycles: 2.5e0}", "'oracle' section: 'n_cycles' must be an integer"),
    ("oracle: {n_cycles: 1e400}", "'oracle' section: 'n_cycles' must be an integer"),
    ("solver: {tol: small}", "'solver' section: 'tol' must be a number"),
    ("solver: {tol: true}", "'solver' section: 'tol' must be a number"),
    ("output: {format: 3}", "'output' section: 'format' must be a string"),
    ("output: {path: 5}", "'output' section: 'path' must be a string"),
])
def test_section_values_of_the_wrong_type_are_config_errors(tmp_path, section, fragment):
    with pytest.raises(ConfigError, match=fragment):
        load_yaml_config(tmp_path, section)


@pytest.mark.parametrize("key", ["method", "max_iter", "memory_budget"])
def test_removed_solver_keys_are_config_errors(tmp_path, key):
    # tol is the only solver key
    with pytest.raises(ConfigError, match=rf"unknown keys in 'solver': \['{key}'\]"):
        load_yaml_config(tmp_path, f"solver: {{{key}: 1}}")


def test_removed_oracle_enabled_key_is_a_config_error(tmp_path):
    # --validate is the one switch for the Monte Carlo cross-check
    with pytest.raises(ConfigError, match=r"unknown keys in 'oracle': \['enabled'\]"):
        load_yaml_config(tmp_path, "oracle: {enabled: true}")


def test_one_oracle_cycle_is_a_config_error(tmp_path):
    # one cycle has an infinite half-width: the cross-check would pass any interval
    for n in (0, 1):
        fragment = rf"'oracle' section: n_cycles must be >= 2, got {n}"
        with pytest.raises(ConfigError, match=fragment):
            load_yaml_config(tmp_path, f"oracle: {{n_cycles: {n}}}")
    assert load_yaml_config(tmp_path, "oracle: {n_cycles: 2}").oracle.n_cycles == 2


def test_negative_oracle_seed_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError, match=r"'oracle' section: seed must be >= 0, got -1"):
        load_yaml_config(tmp_path, "oracle: {seed: -1}")
    assert load_yaml_config(tmp_path, "oracle: {seed: 0}").oracle.seed == 0


@pytest.mark.parametrize("tol", [".inf", "0.1", "1.0"])
def test_infinite_or_large_tol_is_a_config_error(tmp_path, tol):
    # 10 * tol is the threshold delta must exceed, and delta <= 1
    with pytest.raises(ConfigError, match=r"'solver' section: tol must be positive with 10\*tol"):
        load_yaml_config(tmp_path, f"solver: {{tol: {tol}}}")
    assert load_yaml_config(tmp_path, "solver: {tol: 0.0999}").solver.tol == 0.0999


def gm1_yaml_config(tmp_path, model_params: str):
    path = tmp_path / "gm1.yaml"
    path.write_text("model: gm1\nz: 0\nK_max: 2\na_values: [10]\n"
                    f"model_params: {model_params}\n")
    return load_config(str(path))


def test_gm1_model_params_take_the_field_type(tmp_path):
    # YAML 1.1 reads 2e0 (no decimal point) as a string
    chain = build_chain(gm1_yaml_config(tmp_path, "{c: 2e0}"))
    assert chain.description.endswith("uniform interarrival on (0, 2.0)")


def test_gm1_model_params_of_the_wrong_type_are_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="'c' must be a number, got True"):
        build_chain(gm1_yaml_config(tmp_path, "{c: true}"))
