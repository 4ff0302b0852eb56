"""Numpy-free kernels of one vector: demand weights and the Gini
coefficient, and the speaker table that demand reads.

The scorecard (``langdei.metrics``) computes each of its rows with them, and
``allocate`` each source state and plan evaluation, so neither loads numpy.
``langdei.metrics`` re-exports every public name of this module.

numpy adds a vector pairwise, not left to right: blocks of up to 128 values,
each in 8 interleaved accumulators. ``_pairwise_sum_statements`` writes that
order out as source code, and the Gini is a function generated from it once
per vector length (``_gini_kernel``), so a Gini here is the one numpy's sums
give, to the last bit, except that a finite negative one is 0; property
tests hold each kernel to a numpy counterpart. The greedy state that ``allocator`` generates per target count
calls the same Gini kernel. Demand totals add left to right.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from typing import Callable, Iterable, Mapping, Sequence

from langdei.errors import ComputationError, InputError, LangDeiError, check_id
from langdei.records import Record, check_tau, sequential_sum

_GINI_ALL_ZERO = "Gini is undefined for an all-zero vector"
_GINI_OVERFLOW = "Gini is undefined for values whose sums overflow a float"


class SpeakerTable(Record):
    """Speaker populations per language, in millions."""

    entries: Mapping[str, float]

    def __post_init__(self) -> None:
        for lang, count in self.entries.items():
            self.check_entry(lang, count)

    @staticmethod
    def check_entry(lang: str, count: float) -> None:
        """The rule every entry obeys: a valid code and a finite count >= 0."""
        check_id(lang, "language code")
        if not math.isfinite(count) or count < 0:
            raise InputError(f"speaker count for {lang!r} must be a finite non-negative number, got {count}")


def _check_universe(universe: Sequence[str]) -> tuple[str, ...]:
    codes = tuple(universe)
    if not codes:
        raise InputError("language universe must be non-empty")
    for code in codes:
        check_id(code, "language code")
    if len(set(codes)) != len(codes):
        dupes = sorted(code for code, count in Counter(codes).items() if count > 1)
        raise InputError(f"duplicate language codes in universe: {', '.join(dupes)}")
    return codes


def demand(speakers: SpeakerTable, universe: Sequence[str], tau: float) -> dict[str, float]:
    """Per-language demand weights d_l = n_l^tau / sum n^tau, summing to 1.

    tau=0 weighs every language equally; tau=1 weighs by speaker population.
    Intermediate values are accepted. Speaker entries are only required when
    tau > 0. Each n^tau is a Python float power and the total adds them in
    universe order, left to right. A total that overflows a float leaves the
    weights undefined, as all-zero counts do.
    """
    codes = _check_universe(universe)
    check_tau(tau)
    return dict(zip(codes, _weights(codes, _powers(speakers, codes, tau), tau)))


def _powers(speakers: SpeakerTable, codes: Sequence[str], tau: float) -> list[float]:
    """Each language's speaker count to the power tau, a Python float power:
    1.0 each for tau = 0, which needs no counts, and NaN for a language
    without a count."""
    if tau == 0:
        return [1.0] * len(codes)
    return [float(speakers.entries[lang]) ** tau if lang in speakers.entries else math.nan for lang in codes]


def _weights(codes: Sequence[str], powered: Sequence[float], tau: float) -> list[float]:
    """The demand weights of the languages ``codes`` from their ``_powers``:
    each power over the total, which adds them left to right. A total that
    is not a positive float (NaN for a missing count) raises."""
    total = sequential_sum(powered)
    if not 0 < total < math.inf:  # also true for NaN: a speaker count is missing
        raise _undefined_demand(tau, next((lang for lang, v in zip(codes, powered) if math.isnan(v)), None), total)
    return [value / total for value in powered]


def _undefined_demand(tau: float, missing: str | None, total: float) -> LangDeiError:
    """The error of demand weights whose total is not a positive float: a
    language without a speaker count (if ``missing`` names one), a total
    that overflows, or all counts zero."""
    if missing is not None:
        return InputError(f"tau={tau} requires a speaker count for language {missing!r}")
    if total == math.inf:
        return ComputationError("demand is undefined: the sum of the speaker counts to the power tau overflows a float")
    return ComputationError("demand is undefined: all speaker counts in the universe are zero")


def _pairwise_sum_statements(target: str, terms: Sequence[str]) -> list[str]:
    """Python statements that set the local ``target`` to numpy's float sum
    of the expressions ``terms``, bit for bit: fewer than 8 terms left to
    right; up to 128 in 8 accumulators, where accumulator j adds terms j,
    j + 8, ..., which are then added as a tree, followed by the terms past
    the last multiple of 8; more in two halves, the first a multiple of 8
    long. A zero total is +0.0, as numpy's (its sum starts from 0.0). One
    statement per addition, so no expression nests deeper than the 8-way
    tree. The statements also bind locals named ``target`` plus a suffix."""
    n = len(terms)
    if n < 8:
        return [f"{target} = 0.0", *(f"{target} += {term}" for term in terms)]
    if n <= 128:
        end = n - n % 8
        r = [f"{target}_{j}" for j in range(8)]
        return [
            *(f"{r[j]} = {terms[j]}" for j in range(8)),
            *(f"{r[i % 8]} += {terms[i]}" for i in range(8, end)),
            # Adding to 0.0 turns a tree of -0.0 into +0.0; no other bit changes.
            f"{target} = 0.0 + ((({r[0]} + {r[1]}) + ({r[2]} + {r[3]})) + (({r[4]} + {r[5]}) + ({r[6]} + {r[7]})))",
            *(f"{target} += {term}" for term in terms[end:]),
        ]
    half = n // 2 - n // 2 % 8
    return [*_pairwise_sum_statements(f"{target}_a", terms[:half]),
            *_pairwise_sum_statements(f"{target}_b", terms[half:]), f"{target} = {target}_a + {target}_b"]


def _checked(values: Iterable[float]) -> list[float]:
    """``values`` as a list of floats, if it is a non-empty vector of finite
    values >= 0."""
    try:
        vector = list(map(float, values))
    except TypeError:  # an entry that is itself a vector
        vector = []
    if not vector:
        raise InputError("expected a non-empty 1-d vector of values")
    if not all(map(math.isfinite, vector)):
        raise InputError("values must be finite")
    if min(vector) < 0:
        raise InputError("values must be non-negative")
    return vector


def gini(values: Iterable[float]) -> float:
    """Gini coefficient of a non-negative vector, in [0, (n-1)/n].

    Sorts ascending and applies
    ``G = (1/n) * (n + 1 - 2 * sum_i (n+1-i) y_i / sum_i y_i)``.
    All-zero input is an error rather than 0: the formula divides by the
    total, and a silent 0 would mask missing data. So is input whose total
    or weighted sum overflows (such as two values of 1e308): the formula
    then gives NaN or -inf.
    """
    vector = _checked(values)
    g = _gini_row(vector)
    if not math.isfinite(g):
        raise ComputationError(_GINI_OVERFLOW if any(vector) else _GINI_ALL_ZERO)
    return g


def _gini_row(values: list[float]) -> float:
    """The Gini formula of ``gini``, unchecked, with numpy's sums: an
    undefined Gini is NaN or infinite, and a zero total gives NaN, as
    numpy's 0/0 does."""
    return _gini_kernel(len(values))(*values)


@functools.cache
def _gini_kernel(n: int) -> Callable[..., float]:
    """``_gini_row`` of n values, as a function of the n values: straight-line
    code generated and compiled once per n, which adds the total, and the
    sorted values times their weights n + 1 - rank, in numpy's order.
    Rounding can leave the Gini of near-equal values just below 0; a finite
    negative result is 0.0, and NaN or -inf stays for ``gini`` to reject."""
    values = [f"v{i}" for i in range(n)]
    ranked = [f"s{i}" for i in range(n)]
    body = [
        *_pairwise_sum_statements("total", values),
        "if total == 0:",
        "    return nan",
        f"[{', '.join(ranked)}] = sorted([{', '.join(values)}])",
        *_pairwise_sum_statements("weighted", [f"{float(n - i)!r} * {s}" for i, s in enumerate(ranked)]),
        f"g = ({n + 1} - 2.0 * weighted / total) / {n}",
        "return 0.0 if -inf < g < 0 else g",
    ]
    namespace = {"nan": math.nan, "inf": math.inf}
    exec(f"def gini_row({', '.join(values)}):\n    " + "\n    ".join(body), namespace)
    return namespace["gini_row"]
