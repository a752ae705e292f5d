import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from reference import argsort_ranks

import bnndep
from bnndep import estimators
from bnndep.estimators import (
    _ranks,
    kendall_tau,
    kendall_tau_arrays,
    spearman_rho,
    spearman_rho_arrays,
)
from bnndep.exact import _TAU_ROWS as ROWS
from bnndep.exact import brute_force_tau
from bnndep.network import PriorSpec, uniform_config
from bnndep.sampling import SampleBatch, SeedSpec, generate_input, sample_units


def make_batch(u, v):
    return SampleBatch(np.asarray(u, float), np.asarray(v, float), 2, "pre", PriorSpec())


class TestKendallHandValues:
    def test_all_concordant(self):
        assert kendall_tau(make_batch([1, 2, 3, 4], [1, 2, 3, 4])).value == 1.0

    def test_three_point_mixture(self):
        # pairs: (1,2)-(2,1) discordant, (1,2)-(3,3) concordant, (2,1)-(3,3) concordant
        assert kendall_tau(make_batch([1, 2, 3], [2, 1, 3])).value == pytest.approx(1 / 3)

    def test_reversed(self):
        assert kendall_tau(make_batch([1, 2, 3], [3, 2, 1])).value == -1.0

    def test_ties_counted_as_neither(self):
        # (1,1)-(1,2) tied in u; (1,1)-(2,2) concordant; (1,2)-(2,2) tied in v
        assert kendall_tau(make_batch([1, 1, 2], [1, 2, 2])).value == pytest.approx(1 / 3)

    def test_null_se_formula(self):
        n = 100
        e = kendall_tau(make_batch(np.arange(n), np.arange(n)))
        assert e.std_error == pytest.approx(np.sqrt(2 * (2 * n + 5) / (9 * n * (n - 1))))

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            kendall_tau(make_batch([1], [1]))


    @pytest.mark.parametrize("estimator", [kendall_tau_arrays, spearman_rho_arrays,
                                           brute_force_tau])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_samples_rejected(self, estimator, bad):
        u, v = np.array([0.0, 1.0, 2.0]), np.array([0.0, bad, 1.0])
        with pytest.raises(ValueError, match="finite"):
            estimator(u, v)
        with pytest.raises(ValueError, match="finite"):
            estimator(v, u)

    @pytest.mark.parametrize("estimator", [kendall_tau_arrays, spearman_rho_arrays,
                                           brute_force_tau])
    @pytest.mark.parametrize("u, v", [([0.0, 1.0, 2.0, 3.0], [5.0]),
                                      ([[0.0, 1.0], [2.0, 3.0]], [[1.0, 0.0], [3.0, 2.0]])],
                             ids=["unequal_lengths", "two_d"])
    def test_unequal_or_non_1d_samples_rejected(self, estimator, u, v):
        for a, b in ((u, v), (v, u)):
            with pytest.raises(ValueError, match="1-D samples of equal length"):
                estimator(np.asarray(a), np.asarray(b))


class TestSpearmanHandValues:
    def test_identical_rankings(self):
        assert spearman_rho(make_batch([1, 2, 3], [1, 2, 3])).value == pytest.approx(1.0)

    def test_reversed_rankings(self):
        assert spearman_rho(make_batch([1, 2, 3], [3, 2, 1])).value == pytest.approx(-1.0)

    def test_constant_column_rejected(self):
        with pytest.raises(ValueError):
            spearman_rho(make_batch([1, 1, 1], [1, 2, 3]))

    def test_null_se_formula(self):
        e = spearman_rho(make_batch([1, 2, 3, 4, 5], [2, 1, 5, 3, 4]))
        assert e.std_error == pytest.approx(1 / np.sqrt(4))

    def test_midranks_handle_ties(self):
        # scipy-independent hand computation: ranks u = [1.5, 1.5, 3], v = [1, 2.5, 2.5]
        e = spearman_rho(make_batch([1, 1, 2], [0, 3, 3]))
        ru = np.array([1.5, 1.5, 3.0])
        rv = np.array([1.0, 2.5, 2.5])
        expected = np.corrcoef(ru, rv)[0, 1]
        assert e.value == pytest.approx(expected, rel=1e-12)


def tied_batches():
    """(u, v) pairs with heavy ties: ReLU zeros, rounded values, three levels; n from 2 up."""
    rng = np.random.default_rng(11)
    for n in (2, 3, 4, 5, 8, 17, 100, 1000, 20000):
        for _ in range(3):
            x = rng.standard_normal((2, n))
            yield np.maximum(x, 0.0)
            yield np.round(x, 1)
            yield rng.integers(0, 3, (2, n)).astype(float)


def reference_spearman(u, v):
    """spearman_rho_arrays's value as computed through scipy.stats.rankdata."""
    ac = rankdata(u, method="average")
    bc = rankdata(v, method="average")
    ac, bc = ac - ac.mean(), bc - bc.mean()
    denom = np.sqrt((ac @ ac) * (bc @ bc))
    if denom == 0.0:
        return None
    return float(np.clip((ac @ bc) / denom, -1.0, 1.0))


class TestMidRanks:
    def test_equal_scipy_rankdata_bitwise(self):
        # the 1e5 batch's quarter of exact zeros is one long run for the unstable sort
        zeros = np.random.default_rng(13).standard_normal(100_000)
        zeros[::4] = 0.0
        for batch in [*tied_batches(), (zeros,)]:
            for x in batch:
                ranks, edges = _ranks(x)
                mid = (0.5 * (edges[:-1] + edges[1:] + 1))[ranks]
                assert mid.tobytes() == rankdata(x, method="average").tobytes()
                assert np.array_equal(ranks, rankdata(x, method="dense") - 1)

    def test_spearman_keeps_its_bits(self):
        checked = 0
        for u, v in tied_batches():
            expected = reference_spearman(u, v)
            if expected is None:
                with pytest.raises(ValueError):
                    spearman_rho_arrays(u, v)
            else:
                assert spearman_rho_arrays(u, v).value.hex() == expected.hex()
                checked += 1
        assert checked >= 70


ZERO_RUN_CASES = {
    "one_zero": [0.0], "one_value": [-2.5], "two_zeros": [0.0, -0.0], "zero_and_one": [1.0, 0.0],
    "two_values": [3.0, -3.0], "all_zeros": [0.0] * 9, "no_zeros": [2.0, -1.0, 2.0, 7.0, -1.0],
    "only_negatives": [-1.0, -3.0, -1.0, -2.0], "negatives_and_zeros": [-1.0, 0.0, -2.0, 0.0],
    "signed_zeros": [0.0, -0.0, 1.0, -0.0, -1.0, 0.0, 0.0, -0.0],
    "subnormals": [5e-324, -5e-324, 0.0, -0.0, 5e-324, 0.0, -5e-324, 0.0],
    "positives_and_zeros": [0.0, 4.0, 0.0, 4.0, 1.0, 0.0],
    # one zero in 16 is below the eighth from which the zeros are sorted as one; two are not
    "below_an_eighth": [0.0] + list(np.arange(1.0, 16.0)),
    "an_eighth": [0.0, -0.0] + list(np.arange(-7.0, 7.0)),
}


def ranks_agree(x):
    x = np.asarray(x, dtype=np.float64)
    (ranks, edges), (want_ranks, want_edges) = _ranks(x), argsort_ranks(x)
    assert ranks.dtype == want_ranks.dtype == np.int64
    assert np.array_equal(ranks, want_ranks) and np.array_equal(edges, want_edges)


def atom_batches(n=20_000):
    """Pre and ReLU-post batches of an L2H2 ReLU net: zeros from its dead first layer."""
    x = generate_input(20, SeedSpec(7))
    return [sample_units(uniform_config(20, 2, 2), x, 2, (0, 1), tap, n, SeedSpec(7))
            for tap in ("pre", "post")]


class TestZeroRun:
    """``_ranks`` sorts a large zero run as one value; its ranks and edges stay the argsort's."""

    @pytest.mark.parametrize("x", ZERO_RUN_CASES.values(), ids=ZERO_RUN_CASES.keys())
    def test_fixed_cases_equal_the_argsort(self, x):
        ranks_agree(x)

    @given(st.lists(st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0]),
                              st.floats(allow_nan=False, allow_infinity=False)),
                    min_size=1, max_size=300))
    @settings(max_examples=300, deadline=None)
    def test_equals_the_argsort(self, values):
        ranks_agree(values)

    @pytest.mark.parametrize("share", [0.0, 0.001, 0.1, 0.125, 0.25, 0.63, 1.0])
    def test_large_samples_equal_the_argsort(self, share):
        rng = np.random.default_rng(int(1000 * share))
        x = np.round(rng.standard_normal(100_000), 2)
        x[rng.random(x.size) < share] = 0.0
        x[rng.random(x.size) < share / 2] = -0.0
        ranks_agree(x)

    @pytest.mark.parametrize("zeros, sorted_size", [(1, 16), (2, 15), (16, 1)])
    def test_zeros_are_sorted_as_one_from_an_eighth(self, monkeypatch, zeros, sorted_size):
        sizes, argsort = [], np.argsort
        monkeypatch.setattr(np, "argsort", lambda a: sizes.append(a.size) or argsort(a))
        x = np.arange(1.0, 17.0)
        x[:zeros] = 0.0
        _ranks(x)
        assert sizes == [sorted_size]

    @pytest.mark.parametrize("tap", ["pre", "post"])
    def test_concordance_keeps_its_bits_on_atoms(self, monkeypatch, tap):
        batch = dict(zip(("pre", "post"), atom_batches()))[tap]
        for x in (batch.u, batch.v):
            share = np.mean(x == 0)
            assert (0.2 < share < 0.3) if tap == "pre" else (0.55 < share < 0.7)
        got = [kendall_tau(batch), spearman_rho(batch)]
        monkeypatch.setattr(estimators, "_ranks", argsort_ranks)
        want = [kendall_tau(batch), spearman_rho(batch)]
        assert [(e.value.hex(), e.std_error.hex()) for e in got] == [
            (e.value.hex(), e.std_error.hex()) for e in want]


EXTREME_FLOATS = np.array([-0.0, 0.0, 5e-324, -5e-324, 1.0, np.nextafter(1.0, 2.0),
                           1e308, -1e308])


def pair_loop_tau(u, v):
    """tau-a by a pure-Python loop over pairs i < j."""
    ul, vl, n = np.asarray(u).tolist(), np.asarray(v).tolist(), len(u)

    def sign(a, b):
        return (a < b) - (a > b)

    numerator = sum(sign(ul[i], ul[j]) * sign(vl[i], vl[j])
                    for i in range(n) for j in range(i + 1, n))
    return numerator / (n * (n - 1) // 2)


@st.composite
def paired_data(draw, max_size=200, exact_halving=False):
    n = draw(st.integers(2, max_size))
    if draw(st.booleans()):
        lo = max(2, n // 4)
        u = draw(st.lists(st.integers(0, lo), min_size=n, max_size=n))
        v = draw(st.lists(st.integers(0, lo), min_size=n, max_size=n))
    else:
        floats = st.floats(-100, 100)
        if exact_halving:
            # doubling is exact here, so this drops exactly the x where 0.5 * x rounds
            floats = floats.filter(lambda x: 2.0 * (0.5 * x) == x)
        u = draw(st.lists(floats, min_size=n, max_size=n))
        v = draw(st.lists(floats, min_size=n, max_size=n))
    return np.asarray(u, float), np.asarray(v, float)


class TestAlgorithmEquivalence:
    @given(paired_data())
    @settings(max_examples=150, deadline=None)
    def test_merge_count_equals_brute_force_bitwise(self, data):
        u, v = data
        assert kendall_tau_arrays(u, v).value == brute_force_tau(u, v)

    def test_brute_force_cap(self):
        big = np.arange(10_001, dtype=float)
        with pytest.raises(ValueError):
            brute_force_tau(big, big)

    @pytest.mark.parametrize("n", [2, 3, ROWS - 1, ROWS, ROWS + 1, 2 * ROWS + 1])
    @pytest.mark.parametrize("data", ["normal", "tied_integers", "extreme_floats"])
    def test_brute_force_equals_pair_loop(self, n, data):
        # sizes on both sides of the oracle's row blocks
        rng = np.random.default_rng(n)
        if data == "tied_integers":
            u, v = rng.integers(0, max(2, n // 8), (2, n)).astype(float)
        elif data == "extreme_floats":
            # signed zeros tie, neighbouring floats stay distinct in the oracle's ranks
            u, v = rng.choice(EXTREME_FLOATS, (2, n))
        else:
            u, v = rng.standard_normal((2, n))
        # the oracle sorts its rows, so their order must not matter
        p = rng.permutation(n)
        assert brute_force_tau(u, v) == brute_force_tau(u[p], v[p]) == pair_loop_tau(u, v)

    @pytest.mark.parametrize("n", [2, 3, 255, 256, 257, 1025])
    @pytest.mark.parametrize("data", ["tied_integers", "half_zero_relu"])
    def test_merge_count_equals_pair_loop(self, n, data):
        # sizes on both sides of the merge's power-of-two padding
        rng = np.random.default_rng(n)
        if data == "tied_integers":
            u, v = rng.integers(0, max(2, n // 8), (2, n)).astype(float)
        else:
            x = rng.standard_normal((2, n))
            u, v = np.maximum(x, 0.0)
        tau = kendall_tau_arrays(u, v).value
        assert tau == brute_force_tau(u, v) == pair_loop_tau(u, v)

    @pytest.mark.parametrize("size", [2, 256, estimators._PAIR_MIN // 2, estimators._PAIR_MIN,
                                      2 * estimators._PAIR_MIN])
    @pytest.mark.parametrize("halves", [False, True], ids=["from_singles", "two_sorted_halves"])
    def test_int32_merge_equals_int64_merge(self, size, halves):
        # tau's padded keys: tied ranks below n, then the pad value n up to the power of two
        rng = np.random.default_rng(size)
        n = size - size // 3
        keys = np.full(size, n)
        keys[:n] = rng.integers(0, max(1, n // 4), n)
        width = size // 2 if halves else 1
        if halves:                      # kendall_tau_arrays' last merge: two sorted halves
            keys = np.sort(keys.reshape(2, width), axis=1).ravel()
        k32, k64 = keys.astype(np.int32), keys.astype(np.int64)
        count = estimators._strict_inversions(k64, width)
        assert estimators._strict_inversions(k32, width) == count
        assert np.array_equal(k32, k64)
        assert np.array_equal(k64, np.sort(keys))

    def test_lists_accepted(self):
        u, v = [1.0, 2.0, 3.0, 4.0], [1.0, 3.0, 2.0, 4.0]
        assert kendall_tau_arrays(u, v).value == brute_force_tau(u, v) == 2 / 3
        assert spearman_rho_arrays(u, v).value == 0.8   # 1 - 6 * 2 / (4 * 15)

    def test_pair_key_bound(self, monkeypatch):
        # the key rank_u * n + rank_v reaches n * n - 1; past the bound it would wrap in int64
        bound = 3_037_000_499
        assert bound * bound - 1 <= np.iinfo(np.int64).max < (bound + 1) ** 2 - 1
        huge = np.broadcast_to(0.0, (bound + 1,))   # one stored value
        # the guard must come before the sample check, which would read every value
        monkeypatch.setattr(estimators, "_sample_count", lambda *a, **k: pytest.fail("read"))
        with pytest.raises(ValueError, match="n <= 3037000499"):
            kendall_tau_arrays(huge, huge)

    def test_brute_force_at_its_cap(self):
        rng = np.random.default_rng(19)
        u = rng.integers(0, 300, 10_000).astype(float)
        v = u + rng.standard_normal(10_000)
        assert kendall_tau_arrays(u, v).value == brute_force_tau(u, v)

    def test_large_batch_spot_check(self):
        rng = np.random.default_rng(17)
        u = rng.integers(0, 50, 5000).astype(float)
        v = (u + rng.integers(0, 50, 5000)).astype(float)
        assert kendall_tau_arrays(u, v).value == brute_force_tau(u, v)


class TestMonotoneInvariance:
    # 0.5 * x can round for 0 < |x| < 2**-1021 and create ties, so such inputs are excluded
    @given(paired_data(max_size=80, exact_halving=True))
    @settings(max_examples=60, deadline=None)
    def test_power_of_two_scaling_exact(self, data):
        u, v = data
        base_t = kendall_tau_arrays(u, v).value
        base_r = None
        try:
            base_r = spearman_rho_arrays(u, v).value
        except ValueError:
            pass
        assert kendall_tau_arrays(4.0 * u, v).value == base_t
        assert kendall_tau_arrays(u, 0.5 * v).value == base_t
        if base_r is not None:
            assert spearman_rho_arrays(4.0 * u, v).value == base_r

    @pytest.mark.parametrize(
        "v",
        [[0.0, 5e-324], [sys.float_info.min, np.nextafter(sys.float_info.min, 1.0)]],
        ids=["subnormal_underflow", "min_normal_collision"],
    )
    def test_rounded_halving_creates_counted_tie(self, v):
        u, v = np.array([0.0, 1.0]), np.asarray(v)
        half_v = 0.5 * v
        assert kendall_tau_arrays(u, v).value == 1.0
        assert kendall_tau_arrays(u, half_v).value == brute_force_tau(u, half_v) == 0.0

    def test_integer_cubing_exact(self):
        rng = np.random.default_rng(23)
        u = rng.integers(-900, 900, 300).astype(float)
        v = rng.integers(-900, 900, 300).astype(float)
        assert kendall_tau_arrays(u**3, v).value == kendall_tau_arrays(u, v).value
        assert spearman_rho_arrays(u**3, v**3).value == spearman_rho_arrays(u, v).value

    @given(paired_data(max_size=80))
    @settings(max_examples=60, deadline=None)
    def test_exchange_invariance(self, data):
        u, v = data
        assert kendall_tau_arrays(u, v).value == kendall_tau_arrays(v, u).value

    @given(paired_data(max_size=100))
    @settings(max_examples=60, deadline=None)
    def test_range(self, data):
        u, v = data
        assert -1.0 <= kendall_tau_arrays(u, v).value <= 1.0
        try:
            assert -1.0 <= spearman_rho_arrays(u, v).value <= 1.0
        except ValueError:
            pass


def fresh_python(code, *args):
    """stdout of ``code`` run in a new interpreter that imports bnndep from this checkout."""
    src = str(Path(bnndep.__file__).resolve().parent.parent)
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": src}).stdout


SCIPY_FREE_COMMANDS = """
import contextlib, io, json, sys
import bnndep
from bnndep import cli

def scipy_modules():
    return [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]

loaded = {"import": scipy_modules()}
out = sys.argv[1]
net = ["--depths", "2", "--widths", "2", "--n", "400", "--input-dim", "10", "--grid-steps", "3"]
for argv in (["sweep", *net, "--out", out + "/sweep"], ["delta", *net, "--out", out + "/delta"],
             ["concordance", *net], ["pd", *net, "--z-steps", "3"],
             ["oracle", "enumerate"], ["print-config"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    loaded[argv[0]] = scipy_modules()
print(json.dumps(loaded))
"""

FIRST_SIGMOID_IN_THREADS = """
import sys
from bnndep.network import SIGMOID, uniform_config
from bnndep.sampling import generate_input, sample_units

cfg = uniform_config(10, 3, 2, SIGMOID)
x = generate_input(10, 1)
assert "scipy.special" not in sys.modules
# four blocks, so two worker threads each run a first sigmoid call
threaded = sample_units(cfg, x, 2, (0, 1), "post", 4 * 4096, 5, workers=2)
assert "scipy.special" in sys.modules
serial = sample_units(cfg, x, 2, (0, 1), "post", 4 * 4096, 5, workers=1)
print(all(a.tobytes() == b.tobytes() for a, b in ((threaded.u, serial.u), (threaded.v, serial.v))))
"""

FIRST_RAO_BLACKWELL_IN_THREADS = """
import sys
import numpy as np
from bnndep import estimators
from bnndep.network import PriorSpec
from bnndep.sampling import SampleBatch

n = estimators._PAIR_MIN
y = np.abs(np.random.default_rng(5).standard_normal(n))
y[::7] = 0.0
batch = SampleBatch(np.zeros(n), np.zeros(n), 2, "pre", PriorSpec(), y)
assert "scipy.special" not in sys.modules
# at n = _PAIR_MIN both survival passes, and so both first imports, run side by side
threaded = estimators.rao_blackwell_delta(batch, 0.5, -0.25)
assert "scipy.special" in sys.modules
estimators._PAIR_MIN = n + 1
serial = estimators.rao_blackwell_delta(batch, 0.5, -0.25)
print(threaded.value.hex() == serial.value.hex() and
      threaded.std_error.hex() == serial.std_error.hex())
"""


class TestScipyLoadsOnFirstUse:
    def test_import_and_scipy_free_commands_load_no_scipy(self, tmp_path):
        # scipy.special is imported inside the few functions that call it
        loaded = json.loads(fresh_python(SCIPY_FREE_COMMANDS, str(tmp_path)))
        assert list(loaded) == ["import", "sweep", "delta", "concordance", "pd", "oracle",
                                "print-config"]
        assert all(modules == [] for modules in loaded.values()), loaded

    def test_first_sigmoid_draw_in_worker_threads_matches_serial_draw(self):
        assert fresh_python(FIRST_SIGMOID_IN_THREADS).strip() == "True"

    def test_first_rao_blackwell_call_in_two_threads_matches_serial_call(self):
        assert fresh_python(FIRST_RAO_BLACKWELL_IN_THREADS).strip() == "True"
