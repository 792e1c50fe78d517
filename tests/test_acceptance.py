"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

Tolerances are fixed here and nowhere else. The detection experiment runs
at desk scale with frozen seeds; see the README for the full-scale caveat.
"""

import io
import math
import time
from contextlib import contextmanager
from datetime import date

import numpy as np
import numpy.testing as npt
import pytest

from ais_outliers import detect
from ais_outliers.cli import main as cli_main
from ais_outliers.ingest import filter_by_length, group_and_sort, parse_ais_csv
from ais_outliers.nn.dropout import sample_masks
from ais_outliers.nn.layers import unroll
from ais_outliers.nn.model import ModelConfig, RecurrentAutoencoder
from ais_outliers.nn.train import train
from ais_outliers.preprocess import (
    IDS_DTYPE,
    SENTINEL,
    build_daily_grids,
    normalize_corpus,
)
from ais_outliers.sequence import SequenceSet, SplitSpec, split

import fixture_ais
from oracles import (
    auc_from_scores,
    denormalize,
    finite_difference_gradients,
    gru_step_loop,
    max_relative_error,
    random_gru_params,
    random_rnn_params,
    rnn_step_loop,
    step_once,
)
from synthetic import day_matrices, generate_days, normalize_raw, write_ais_csv


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {name}: FAIL", flush=True)
        raise
    print(f"\nACCEPTANCE {name}: PASS", flush=True)


# ---------------------------------------------------------------------------
# 1. Gradient oracle: BPTT vs central finite differences.
# ---------------------------------------------------------------------------

def test_gradient_oracle():
    with criterion("gradient-oracle"):
        started = time.monotonic()
        rng = np.random.default_rng(424242)
        worst_overall = 0.0
        checked = 0
        for cell_kind in ("simple_rnn", "gru"):
            for bidirectional in (False, True):
                for dropout in (False, True):
                    for _ in range(2):  # 2 random sizes per combination
                        hidden = int(rng.integers(1, 5))       # H <= 4
                        timesteps = int(rng.integers(2, 6))    # T <= 5
                        rates = dict(recurrent_dropout_rate=0.3,
                                     input_dropout_rate=0.25,
                                     dense_dropout_rate=0.25) if dropout else {}
                        cfg = ModelConfig(cell_kind=cell_kind,
                                          bidirectional=bidirectional,
                                          layers=1, hidden=hidden,
                                          timesteps=timesteps, features=4, **rates)
                        model = RecurrentAutoencoder.initialize(
                            cfg, int(rng.integers(0, 2 ** 31)))
                        batch = rng.uniform(0, 1, (2, timesteps, 4))
                        masks = sample_masks(cfg, 2, rng) if dropout else None
                        _, analytic = model.loss_and_gradients(batch, masks)
                        numeric = finite_difference_gradients(
                            lambda: model.loss_and_gradients(batch, masks)[0],
                            model.params.flat(), step=1e-5)
                        worst = max_relative_error(analytic.flat(), numeric, floor=1e-6)
                        assert worst < 1e-4, (
                            f"{cell_kind} bidir={bidirectional} dropout={dropout} "
                            f"H={hidden} T={timesteps}: rel err {worst:.3e}")
                        worst_overall = max(worst_overall, worst)
                        checked += 1
        elapsed = time.monotonic() - started
        assert checked == 16
        # Four extra fully random configurations to reach 20.
        for _ in range(4):
            cfg = ModelConfig(
                cell_kind=("simple_rnn", "gru")[int(rng.integers(0, 2))],
                bidirectional=bool(rng.integers(0, 2)),
                layers=int(rng.integers(1, 3)),
                hidden=int(rng.integers(1, 5)),
                timesteps=int(rng.integers(2, 6)),
                features=4,
                dropout_rate=0.3 * float(rng.integers(0, 2)),
                recurrent_dropout_rate=0.3 * float(rng.integers(0, 2)),
            )
            model = RecurrentAutoencoder.initialize(cfg, int(rng.integers(0, 2 ** 31)))
            batch = rng.uniform(0, 1, (2, cfg.timesteps, 4))
            masks = sample_masks(cfg, 2, rng)
            _, analytic = model.loss_and_gradients(batch, masks)
            numeric = finite_difference_gradients(
                lambda: model.loss_and_gradients(batch, masks)[0],
                model.params.flat(), step=1e-5)
            worst = max_relative_error(analytic.flat(), numeric, floor=1e-6)
            assert worst < 1e-4
            worst_overall = max(worst_overall, worst)
            checked += 1
        elapsed = time.monotonic() - started
        print(f"\n  20 configurations, max relative error {worst_overall:.3e}, "
              f"{elapsed:.1f}s")
        assert checked == 20
        assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 2. Forward oracle: `cells.step` vs independent scalar loops.
# ---------------------------------------------------------------------------

def test_forward_oracle():
    with criterion("forward-oracle"):
        started = time.monotonic()
        rng = np.random.default_rng(31337)
        worst = 0.0
        for _ in range(1000):
            d = int(rng.integers(1, 6))
            h = int(rng.integers(1, 6))
            x = rng.uniform(-2, 2, d)
            h_prev = rng.uniform(-1, 1, h)

            p_rnn = random_rnn_params(rng, d, h, scale=1.0)
            mine = step_once(x, h_prev, p_rnn)
            gold = rnn_step_loop(x, h_prev, p_rnn.w_x, p_rnn.w_h, p_rnn.b)
            worst = max(worst, float(np.abs(mine - gold).max()))

            p_gru = random_gru_params(rng, d, h, scale=1.0)
            mine = step_once(x, h_prev, p_gru)
            gold = gru_step_loop(x, h_prev, p_gru)
            worst = max(worst, float(np.abs(mine - gold).max()))
        elapsed = time.monotonic() - started
        print(f"\n  1000 random inputs per cell, max abs deviation {worst:.3e}, "
              f"{elapsed:.1f}s")
        assert worst <= 1e-12
        assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 3. Recurrent-dropout invariant: mask constant across all 48 timesteps and
#    distinct from the conventional per-timestep regime.
# ---------------------------------------------------------------------------

def test_recurrent_dropout_invariant():
    with criterion("recurrent-dropout-invariant"):
        rng = np.random.default_rng(5150)
        cfg = ModelConfig(cell_kind="gru", bidirectional=False, layers=2,
                          hidden=5, timesteps=48, features=4,
                          recurrent_dropout_rate=0.4, dropout_rate=0.4)
        model = RecurrentAutoencoder.initialize(cfg, 3)
        batch = rng.uniform(0, 1, (2, 48, 4))
        masks = sample_masks(cfg, 2, rng)

        # Instrument the unroll: at every timestep the cached masked state
        # must equal h_prev * the one sampled mask, bitwise.
        rec_mask = masks.recurrent_masks[0][0]
        cell = model.params.layers[0]
        h_seq, cache = unroll(batch, cell, input_mask=masks.input_masks[0],
                              recurrent_mask=masks.recurrent_masks[0], want_cache=True)
        h_prev = np.zeros((2, cfg.hidden))
        for t in range(48):
            npt.assert_array_equal(cache[0]["hm"][t, 0], h_prev * rec_mask,
                                   err_msg=f"recurrent mask changed at t={t}")
            h_prev = h_seq[:, t, :]

        # The recurrent mask carries no time axis; the conventional
        # (between-layer) mask redraws per timestep and its slices differ.
        assert rec_mask.shape == (2, cfg.hidden)
        conventional = masks.interlayer[0]
        assert conventional.shape == (2, 48, cfg.hidden)
        slices = [conventional[:, t, :] for t in range(48)]
        assert any(not np.array_equal(slices[0], s) for s in slices[1:]), \
            "conventional dropout must redraw its mask at each timestep"

        # Dropped-unit sets: identical across time in recurrent mode,
        # varying across time in conventional mode.
        dropped_per_t = [set(np.flatnonzero(conventional[0, t, :] == 0.0))
                         for t in range(48)]
        assert len({frozenset(s) for s in dropped_per_t}) > 1
        print(f"\n  recurrent mask bitwise constant over 48 steps; conventional "
              f"mask drew {len({frozenset(s) for s in dropped_per_t})} distinct "
              f"drop patterns")


# ---------------------------------------------------------------------------
# 4. Pipeline oracle: the 200-row fixture, end to end with exact expectations.
# ---------------------------------------------------------------------------

def test_pipeline_oracle():
    with criterion("pipeline-oracle"):
        text = fixture_ais.build_fixture_csv()
        records, report = parse_ais_csv(io.StringIO(text))
        assert report.rows_read == fixture_ais.EXPECTED_ROWS_READ
        assert report.reject_reasons == fixture_ais.EXPECTED_PARSE_REJECTS
        assert report.rows_accepted == fixture_ais.EXPECTED_ACCEPTED_AFTER_PARSE

        kept = filter_by_length(records, 20.0)
        assert len(kept) == fixture_ais.EXPECTED_AFTER_LENGTH_FILTER
        dropped_vessels = set(records["mmsi"]) - set(kept["mmsi"])
        assert len(dropped_vessels) == fixture_ais.EXPECTED_VESSELS_DROPPED_BY_LENGTH

        tracks = group_and_sort(kept, report)
        dedup = {k: v for k, v in report.reject_reasons.items()
                 if k.startswith("duplicate")}
        assert dedup == fixture_ais.EXPECTED_DEDUP
        assert len(tracks.index) == fixture_ais.EXPECTED_TRACKS
        assert len(tracks.records) == fixture_ais.EXPECTED_TRACK_ROWS

        grids, summary = build_daily_grids([tracks], tolerance_s=60.0,
                                           min_entries=20, max_fill=20)
        assert summary.days_total == 5
        assert summary.days_sparse_dropped == fixture_ais.EXPECTED_SPARSE_DROPPED

        tensor, ids, stats = normalize_corpus(grids, max_missing_fraction=0.30,
                                              summary=summary)
        assert summary.days_missing_dropped == fixture_ais.EXPECTED_MISSING_DROPPED
        assert tuple(sorted(f"{mmsi:09d}" for mmsi in ids["mmsi"].tolist())) == \
            fixture_ais.EXPECTED_SURVIVORS

        # Post-interpolation grids match the closed-form construction exactly.
        expected = fixture_ais.expected_surviving_grids()
        surviving = {f"{mmsi:09d}": (grids.values[row], grids.mask[row])
                     for row, mmsi in enumerate(grids.ids["mmsi"].tolist())
                     if 1.0 - grids.mask[row].sum() / 48 <= 0.30}
        for mmsi, (exp_values, exp_mask) in expected.items():
            values, mask = surviving[mmsi]
            npt.assert_array_equal(mask, exp_mask)
            npt.assert_allclose(values[exp_mask], exp_values[exp_mask],
                                rtol=0, atol=1e-12,
                                err_msg=f"vessel {mmsi} grid mismatch")

        # Expected stats by brute-force scan of the expected grids.
        cells = np.vstack([v[m] for v, m in expected.values()])
        npt.assert_array_equal(stats.minimum, cells.min(axis=0))
        npt.assert_array_equal(stats.maximum, cells.max(axis=0))

        # Normalization: bounds, sentinels, and round-trip within 1e-9.
        by_mmsi = {f"{mmsi:09d}": tensor[i] for i, mmsi in enumerate(ids["mmsi"].tolist())}
        sentinel_cells = int((tensor == SENTINEL).sum())
        assert sentinel_cells == fixture_ais.EXPECTED_SENTINEL_CELLS
        npt.assert_array_equal(
            by_mmsi[fixture_ais.B][list(fixture_ais.B_MISSING_LEADING)],
            SENTINEL)

        for mmsi, (exp_values, exp_mask) in expected.items():
            matrix = by_mmsi[mmsi]
            in_unit = (matrix >= 0.0) & (matrix <= 1.0)
            npt.assert_array_equal(in_unit.all(axis=1), exp_mask)
            for i in np.flatnonzero(exp_mask):
                for j in range(4):
                    span = stats.maximum[j] - stats.minimum[j]
                    eq2 = (exp_values[i, j] - stats.minimum[j]) / span
                    assert matrix[i, j] == pytest.approx(eq2, abs=1e-12)
                    back = denormalize(matrix[i, j], j, stats)
                    assert abs(back - exp_values[i, j]) <= \
                        1e-9 * max(1.0, abs(exp_values[i, j]))

        # Eq. (2) endpoints: the global extrema map to exactly 0 and 1.
        observed = tensor[tensor != SENTINEL]
        assert observed.min() == 0.0 and observed.max() == 1.0
        print(f"\n  200 rows -> {len(ids)} surviving days, "
              f"{sentinel_cells} sentinel cells, stats + round-trip exact")


# ---------------------------------------------------------------------------
# 5. Synthetic end-to-end detection at desk scale.
# ---------------------------------------------------------------------------

def test_synthetic_end_to_end_detection():
    with criterion("synthetic-end-to-end"):
        days = generate_days(2000, anomaly_fraction=0.02, seed=20190306)
        raw, labels = day_matrices(days)
        assert labels.sum() == 40
        norm = normalize_raw(raw)

        perm = np.random.default_rng(13).permutation(2000)
        train_tensor, val_tensor = norm[perm[:1600]], norm[perm[1600:]]

        cfg = ModelConfig(cell_kind="gru", bidirectional=True, layers=1,
                          hidden=16, recurrent_dropout_rate=0.2,
                          dense_dropout_rate=0.2)
        model = RecurrentAutoencoder.initialize(cfg, 11)
        started = time.monotonic()
        history = train(model, train_tensor, val_tensor, epochs=5,
                        batch_size=8, seed=13, learning_rate=3e-3)
        train_seconds = time.monotonic() - started
        assert train_seconds < 600.0, f"training took {train_seconds:.0f}s"

        ids = np.array([(int(d.mmsi), d.day) for d in days], IDS_DTYPE)
        sset = SequenceSet(norm, ids)
        rmse, _ = detect.score_set(model, sset)

        # (a) the score distribution must be right-skewed.
        assert rmse.mean() > np.median(rmse)

        # (b) ranking quality against the planted labels.
        auc = auc_from_scores(rmse, labels)
        assert auc >= 0.90, f"AUC {auc:.3f}"

        # (c) precision of the flagged set at the largest workable k <= 6.
        dist = detect.fit_distribution(rmse)
        flagged_report = None
        for k in range(6, 0, -1):
            candidate = detect.flag_outliers(rmse, ids, dist, k=float(k))
            if candidate.flagged.size:
                flagged_report = candidate
                break
        assert flagged_report is not None
        label_by_id = {(int(d.mmsi), d.day): d.anomalous for d in days}
        hits = sum(label_by_id[key] for key in ids[flagged_report.flagged].tolist())
        precision = hits / len(flagged_report.flagged)
        assert precision >= 0.80, (
            f"k={flagged_report.k}: {hits}/{len(flagged_report.flagged)} correct")
        print(f"\n  train {train_seconds:.0f}s (final val loss "
              f"{history.final().val_loss:.2e}), AUC {auc:.3f}, "
              f"k={flagged_report.k:g} flags {len(flagged_report.flagged)} "
              f"days at precision {precision:.2f}")


# ---------------------------------------------------------------------------
# 6. Detector arithmetic on the canonical score set.
# ---------------------------------------------------------------------------

def test_detector_arithmetic():
    with criterion("detector-arithmetic"):
        rmse = np.array([1, 1, 1, 1, 100], dtype=np.float64)
        ids = np.array([(100000001, date(2019, 3, 6 + i)) for i in range(5)], IDS_DTYPE)
        dist = detect.fit_distribution(rmse)

        mean = (1 + 1 + 1 + 1 + 100) / 5.0
        std = math.sqrt(sum((v - mean) ** 2 for v in (1, 1, 1, 1, 100)) / 5.0)
        assert dist.mean == pytest.approx(20.8, abs=1e-12)
        assert dist.std == pytest.approx(39.6, abs=1e-12)

        at_k1 = detect.flag_outliers(rmse, ids, dist, k=1.0)
        assert at_k1.threshold == pytest.approx(mean + std, abs=1e-12)
        assert at_k1.threshold == pytest.approx(60.4, abs=1e-12)
        assert rmse[at_k1.flagged].tolist() == [100.0]

        at_k6 = detect.flag_outliers(rmse, ids, dist, k=6.0)
        assert at_k6.threshold == pytest.approx(mean + 6 * std, abs=1e-12)
        assert at_k6.threshold == pytest.approx(258.4, abs=1e-12)
        assert at_k6.flagged.size == 0
        print("\n  thresholds 60.4 / 258.4 exact; flags {100} / {}")


# ---------------------------------------------------------------------------
# 7. CLI determinism: byte-identical artifacts across two same-seed runs.
# ---------------------------------------------------------------------------

def test_cli_determinism(tmp_path):
    with criterion("cli-determinism"):
        csv_path = tmp_path / "synthetic.csv"
        write_ais_csv(generate_days(120, anomaly_fraction=0.05, seed=77,
                                    days_per_vessel=6), csv_path)

        def run(run_dir):
            base = ["--input-glob", str(csv_path), "--run-dir", str(run_dir),
                    "--hidden", "8", "--epochs", "2", "--batch-size", "8",
                    "--learning-rate", "0.003", "--sigma-k", "2.0",
                    "--min-appearances", "2", "--seed", "99"]
            for command in ("ingest", "preprocess", "split", "train", "score",
                            "export-geojson"):
                assert cli_main([command] + base) == 0, command

        run(tmp_path / "run_a")
        run(tmp_path / "run_b")

        compared = []
        # The stated criterion covers the four report artifacts; the wider
        # reproducibility contract also holds for the data artifacts.
        for name in ("scores.csv", "outliers.csv", "offenders.csv",
                     "outliers.geojson", "corpus.f64", "train.f64",
                     "checkpoints/epoch_002.ckpt"):
            a = (tmp_path / "run_a" / name).read_bytes()
            b = (tmp_path / "run_b" / name).read_bytes()
            assert a == b, f"{name} differs between identical runs"
            compared.append(name)
        flagged = len((tmp_path / "run_a" / "outliers.csv")
                      .read_text().splitlines()) - 1
        assert flagged > 0, "determinism check should compare non-trivial flags"
        print(f"\n  {', '.join(compared)} byte-identical ({flagged} flagged days)")


# ---------------------------------------------------------------------------
# 8. Tensor shape and split-size conformance.
# ---------------------------------------------------------------------------

def test_tensor_shape_and_split_conformance(rng):
    with criterion("shape-and-split-conformance"):
        sset = SequenceSet(rng.uniform(0, 1, (100, 48, 4)),
                           np.array([(367000000 + i, date(2019, 3, 6)) for i in range(100)],
                                    IDS_DTYPE))
        assert sset.tensor.shape == (100, 48, 4)

        train_s, val_s, test_s = split(sset, SplitSpec(
            test_fraction=0.20, val_fraction=0.20, seed=1))
        assert len(test_s) == int(100 * 0.20) == 20
        assert len(val_s) == int((100 - 20) * 0.20) == 16
        assert len(train_s) == 64
        for subset in (train_s, val_s, test_s):
            assert subset.tensor.shape[1:] == (48, 4)
        print("\n  N=100 -> train/val/test = 64/16/20, tensors Nx48x4")
