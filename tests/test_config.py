import datetime as dt
from pathlib import Path

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


@pytest.mark.parametrize("day", ["20170301", "2017-W09-3", "2017-3-1"])
def test_a_day_that_is_not_yyyy_mm_dd_names_the_field(day):
    with pytest.raises(ValueError, match=f"config.train_end: cannot parse '{day}' "
                                         f"\\('{day}' is not a YYYY-MM-DD date\\)"):
        parse_config_text(f"train_end = {day}")


def test_out_of_range_names_the_field():
    with pytest.raises(ValueError, match="config.window_size"):
        parse_config_text("window_size = 0")
    with pytest.raises(ValueError, match="config.val_fraction"):
        parse_config_text("val_fraction = 1.5")


@pytest.mark.parametrize("sizes", ["0", "-4", "8.7", "64,0", "inf", "nan"])
def test_dense_sizes_must_be_positive_integers(sizes):
    with pytest.raises(ValueError, match="config.dense_sizes: every layer size must "
                                         "be a positive integer"):
        parse_config_text(f"dense_sizes = {sizes}")


def test_whole_dense_sizes_are_accepted():
    assert parse_config_text("dense_sizes = 64,8.0").dense_sizes == (64.0, 8.0)


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


def test_relative_data_dir_in_a_file_resolves_against_the_file_directory(tmp_path,
                                                                        monkeypatch):
    from fleetcast.cli import main

    (tmp_path / "cfgdir").mkdir()
    (tmp_path / "cfgdir" / "exp.cfg").write_text("data_dir = rundir\nsynth_days = 30\n")
    (tmp_path / "cwd").mkdir()
    monkeypatch.chdir(tmp_path / "cwd")
    assert load_config("../cfgdir/exp.cfg").data_dir == str(Path("../cfgdir/rundir"))
    assert main(["--config", "../cfgdir/exp.cfg", "synth"]) == 0
    assert (tmp_path / "cfgdir" / "rundir" / "trips.csv").exists()
    assert not (tmp_path / "cwd" / "rundir").exists()
    # a --data-dir flag and the defaults stay relative to the working directory
    assert main(["--config", "../cfgdir/exp.cfg", "synth", "--data-dir", "flagdir"]) == 0
    assert (tmp_path / "cwd" / "flagdir" / "trips.csv").exists()
    assert load_config(tmp_path / "cfgdir" / "exp.cfg").data_dir == \
        str(tmp_path / "cfgdir" / "rundir")
    assert PipelineConfig().data_dir == "runs/demo"
    assert parse_config_text("data_dir = rundir").data_dir == "rundir"


def test_absolute_data_dir_in_a_file_is_kept(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(f"data_dir = {tmp_path / 'elsewhere'}\n")
    assert load_config(path).data_dir == str(tmp_path / "elsewhere")
