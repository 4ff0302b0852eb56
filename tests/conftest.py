from types import SimpleNamespace

import numpy as np
import pytest

from langdei.io import (
    bundled_path,
    load_amrs,
    load_curve_registry,
    load_goods,
    load_speakers,
    load_tasks,
    load_universe,
)


@pytest.fixture(scope="session")
def bundle():
    """The datasets shipped with the package, each read by its loader."""
    return SimpleNamespace(
        speakers=load_speakers(bundled_path("speakers.csv")),
        tasks=load_tasks(bundled_path("tasks.csv")),
        goods=load_goods(bundled_path("goods.csv")),
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
