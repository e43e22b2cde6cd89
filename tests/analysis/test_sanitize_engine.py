"""Engine-level sanitize contract: the flag reaches every cell, keys the
cache, and never perturbs a result."""

import json

from repro.core.config import ava_config
from repro.experiments.engine import Cell, cell_key, make_executor
from repro.sim.scenario import Scenario


def test_sanitize_is_part_of_the_cell_key():
    """A cached plain result proves nothing about the invariants, so a
    sanitized run must never hit it."""
    config = ava_config(2)
    plain = Cell("axpy", Scenario(config))
    checked = Cell("axpy", Scenario(config), sanitize=True)
    assert cell_key(plain) != cell_key(checked)


def test_executor_sanitize_flag_upgrades_every_cell(tmp_path):
    """make_executor(sanitize=True) semantics: results are byte-identical
    to the plain run, but land under sanitized cache keys."""
    config = ava_config(2)
    cells = [Cell("axpy", Scenario(config))]
    with make_executor(cache=True, cache_dir=tmp_path / "plain") as plain_ex:
        plain = plain_ex.run(cells)
    with make_executor(cache=True, cache_dir=tmp_path / "checked",
                       sanitize=True) as checked_ex:
        checked = checked_ex.run(cells)
        assert checked_ex.stats.cache_misses == 1  # distinct key: no reuse
    assert json.dumps(plain[0].stats.to_dict(), sort_keys=True) == \
        json.dumps(checked[0].stats.to_dict(), sort_keys=True)
    assert plain[0].energy == checked[0].energy


def test_sanitized_cell_result_replays_from_cache(tmp_path):
    config = ava_config(2)
    cells = [Cell("axpy", Scenario(config), sanitize=True)]
    with make_executor(cache=True, cache_dir=tmp_path / "c") as ex:
        first = ex.run(cells)
        second = ex.run(cells)
        assert ex.stats.cache_hits == 1
    assert json.dumps(first[0].stats.to_dict(), sort_keys=True) == \
        json.dumps(second[0].stats.to_dict(), sort_keys=True)
