import datetime as dt

import pytest

from fleetcast.config import (
    PipelineConfig,
    apply_overrides,
    config_hash,
    dump_config,
    load_config,
    parse_config_text,
)


def test_defaults_validate():
    cfg = PipelineConfig()
    cfg.validate()
    assert cfg.window_size == 10
    assert cfg.mixture_components == 3
    assert cfg.dense_sizes == (256, 128)


def test_parse_key_value_text():
    cfg = parse_config_text("""
    # comment line
    seed = 42
    window_size = 12
    dense_sizes = 64,32
    train_end = 2019-03-31
    price = 9.5
    """)
    assert cfg.seed == 42
    assert cfg.window_size == 12
    assert cfg.dense_sizes == (64.0, 32.0)
    assert cfg.train_end == dt.date(2019, 3, 31)
    assert cfg.price == 9.5


def test_unknown_key_names_the_line():
    with pytest.raises(ValueError, match="unknown config key 'windows'"):
        parse_config_text("windows = 10")


def test_bad_value_names_the_field():
    with pytest.raises(ValueError, match="config.epochs"):
        parse_config_text("epochs = ten")


def test_out_of_range_names_the_field():
    with pytest.raises(ValueError, match="config.window_size"):
        parse_config_text("window_size = 0")
    with pytest.raises(ValueError, match="config.val_fraction"):
        parse_config_text("val_fraction = 1.5")


@pytest.mark.parametrize("stock", ["inf,50", "50,nan", "-1,50", "50,-inf"])
def test_non_finite_or_negative_stock_names_the_field(stock):
    with pytest.raises(ValueError, match="config.stock: .*finite and >= 0"):
        parse_config_text(f"stock = {stock}")


def test_overrides_win_and_are_typed():
    cfg = PipelineConfig()
    cfg = apply_overrides(cfg, {"seed": "99", "n_scenarios": "17", "epochs": None})
    assert cfg.seed == 99
    assert cfg.n_scenarios == 17
    assert cfg.epochs == PipelineConfig().epochs  # None means untouched
    with pytest.raises(ValueError, match="unknown config key"):
        apply_overrides(cfg, {"nope": "1"})


def test_dump_parse_round_trip():
    cfg = PipelineConfig(seed=5, stock=(10.0, 20.0, 30.0),
                         train_end=dt.date(2019, 3, 31))
    text = dump_config(cfg)
    back = parse_config_text(text)
    assert back == cfg


def test_hash_stable_and_sensitive():
    a = PipelineConfig()
    b = PipelineConfig()
    assert config_hash(a) == config_hash(b)
    b.seed = 123
    assert config_hash(a) != config_hash(b)


def test_load_from_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("seed = 3\nn_scenarios = 17\n")
    cfg = load_config(path)
    assert cfg.seed == 3 and cfg.n_scenarios == 17
