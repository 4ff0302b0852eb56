from types import SimpleNamespace

import numpy as np
import pytest

from langdei.efficiency import GoodsTable, load_amrs
from langdei.io import bundled_path, load_curve_registry, load_speakers
from langdei.metrics import load_tasks, load_universe


@pytest.fixture(scope="session")
def bundle():
    """The datasets shipped with the package, each read by its loader."""
    return SimpleNamespace(
        speakers=load_speakers(bundled_path("speakers.csv")),
        tasks=load_tasks(bundled_path("tasks.csv")),
        goods=GoodsTable.read_csv(bundled_path("goods.csv")),
        curves={
            "muril": load_curve_registry(bundled_path("curves_muril.txt")),
            "xlmr": load_curve_registry(bundled_path("curves_xlmr.txt")),
        },
        printed_amrs=load_amrs(bundled_path("amrs_printed.csv")),
        universe=load_universe(bundled_path("universe_23.txt")),
    )


@pytest.fixture()
def rng():
    return np.random.default_rng(20240814)
