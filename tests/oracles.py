"""Independent reference implementations used as test oracles.

Everything here is written with explicit Python loops over units and
timesteps, deliberately avoiding the vectorized code paths under test.
"""

import csv
import math
from datetime import datetime, timedelta

import numpy as np


def sigmoid_scalar(x):
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def rnn_step_loop(x, h_prev, w_x, w_h, b):
    """SimpleRNN step, one unit at a time."""
    d = len(x)
    hidden = len(h_prev)
    out = np.zeros(hidden)
    for j in range(hidden):
        acc = b[j]
        for i in range(d):
            acc += x[i] * w_x[i, j]
        for i in range(hidden):
            acc += h_prev[i] * w_h[i, j]
        out[j] = math.tanh(acc)
    return out


def gru_step_loop(x, h_prev, p, convention="z_gates_candidate"):
    """GRU step, one unit at a time, from the cell's parameter dataclass."""
    d = len(x)
    hidden = len(h_prev)

    def gate(w_x, w_h, b, state, squash):
        out = np.zeros(hidden)
        for j in range(hidden):
            acc = b[j]
            for i in range(d):
                acc += x[i] * w_x[i, j]
            for i in range(hidden):
                acc += state[i] * w_h[i, j]
            out[j] = squash(acc)
        return out

    z = gate(p.w_xz, p.w_hz, p.b_z, h_prev, sigmoid_scalar)
    r = gate(p.w_xr, p.w_hr, p.b_r, h_prev, sigmoid_scalar)
    reset_state = np.array([r[i] * h_prev[i] for i in range(hidden)])
    h_cand = gate(p.w_xh, p.w_hh, p.b_h, reset_state, math.tanh)
    out = np.zeros(hidden)
    for j in range(hidden):
        if convention == "z_gates_candidate":
            out[j] = (1.0 - z[j]) * h_prev[j] + z[j] * h_cand[j]
        else:
            out[j] = z[j] * h_prev[j] + (1.0 - z[j]) * h_cand[j]
    return out


def mse_loop(pred, truth):
    total = 0.0
    count = 0
    flat_p = np.asarray(pred).ravel()
    flat_t = np.asarray(truth).ravel()
    for a, b in zip(flat_p, flat_t):
        total += (a - b) ** 2
        count += 1
    return total / count


def rmse_loop(pred, truth):
    return math.sqrt(mse_loop(pred, truth))


def auc_from_scores(scores, labels):
    """Mann-Whitney AUC with average ranks for ties."""
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(len(scores))
    sorted_scores = np.asarray(scores)[order]
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    labels = np.asarray(labels, dtype=bool)
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs both classes")
    rank_sum = ranks[labels].sum()
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def finite_difference_gradients(loss_fn, params_flat, step=1e-5):
    """Central finite differences of loss_fn() w.r.t. every entry of every
    array in `params_flat` (perturbed in place, then restored)."""
    grads = {}
    for name, arr in params_flat.items():
        grad = np.zeros_like(arr)
        flat = arr.ravel()
        for idx in range(flat.size):
            original = flat[idx]
            flat[idx] = original + step
            loss_plus = loss_fn()
            flat[idx] = original - step
            loss_minus = loss_fn()
            flat[idx] = original
            grad.ravel()[idx] = (loss_plus - loss_minus) / (2.0 * step)
        grads[name] = grad
    return grads


def max_relative_error(analytic, numeric, floor=1e-6):
    """Elementwise |a - n| / max(|a|, |n|, floor), reduced to the maximum."""
    worst = 0.0
    for name in analytic:
        a = analytic[name].ravel()
        n = numeric[name].ravel()
        for x, y in zip(a, n):
            scale = max(abs(x), abs(y), floor)
            worst = max(worst, abs(x - y) / scale)
    return worst


def reference_init_params(config, rng):
    """Same-seed initial weights by dotted name, drawn as separate per-gate
    blocks (input kernel, then recurrent kernel; z, r, h~ order) and
    concatenated: cell by cell, layer ascending, forward before backward,
    the dense kernel last, all biases zero."""

    def glorot(fan_in, fan_out):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=(fan_in, fan_out))

    def orthogonal(size):
        q, r = np.linalg.qr(rng.standard_normal((size, size)))
        return q * np.sign(np.diag(r))

    gates = 3 if config.cell_kind == "gru" else 1
    h = config.hidden
    out = {}
    for layer in range(config.layers):
        d_in = config.features if layer == 0 else h * config.directions
        for tag in ("fwd", "bwd")[:config.directions]:
            w_x, w_h = [], []
            for _ in range(gates):
                w_x.append(glorot(d_in, h))
                w_h.append(orthogonal(h))
            out[f"layer{layer}.{tag}.w_x"] = np.concatenate(w_x, axis=1)
            out[f"layer{layer}.{tag}.w_h"] = np.concatenate(w_h, axis=1)
            out[f"layer{layer}.{tag}.b"] = np.zeros(gates * h)
    out["dense.w"] = glorot(h * config.directions, config.features)
    out["dense.b"] = np.zeros(config.features)
    return out


def reference_adam_update(params, grads, m, v, step, alpha=1e-3, beta1=0.9,
                          beta2=0.999, eps=1e-8):
    """Bias-corrected Adam step `step` (1-based), tensor by tensor over
    name-keyed dicts; `params`, `m` and `v` are updated in place."""
    for key, p in params.items():
        g = grads[key]
        m[key] *= beta1
        m[key] += (1.0 - beta1) * g
        v[key] *= beta2
        v[key] += (1.0 - beta2) * g * g
        m_hat = m[key] / (1.0 - beta1 ** step)
        v_hat = v[key] / (1.0 - beta2 ** step)
        p -= alpha * m_hat / (np.sqrt(v_hat) + eps)


def reference_normalize_corpus(grids, max_missing_fraction):
    """Day-by-day normalization: the 30%-missing rule, then per-feature
    extrema accumulated grid by grid over the present cells, then each
    surviving grid scaled on its own, clipped to [0, 1], and its missing
    slots written as -1. Returns (matrices, ids, minimum, maximum)."""
    survivors = [g for g in grids if g.missing_fraction <= max_missing_fraction]
    minimum = np.full(4, np.inf)
    maximum = np.full(4, -np.inf)
    for grid in survivors:
        present = grid.values[grid.mask]
        if present.size:
            np.minimum(minimum, present.min(axis=0), out=minimum)
            np.maximum(maximum, present.max(axis=0), out=maximum)
    matrices = []
    for grid in survivors:
        scaled = np.clip((grid.values - minimum) / (maximum - minimum), 0.0, 1.0)
        matrix = np.full((grid.values.shape[0], 4), -1.0)
        matrix[grid.mask] = scaled[grid.mask]
        matrices.append(matrix)
    return matrices, [(g.mmsi, g.day) for g in survivors], minimum, maximum


_REFERENCE_STAMP_FORMATS = ("%Y-%m-%dT%H:%M:%S", "%Y-%m-%d %H:%M:%S")


def _reference_timestamp(text):
    for fmt in _REFERENCE_STAMP_FORMATS:
        try:
            return (datetime.strptime(text, fmt) - datetime(1970, 1, 1)) // timedelta(seconds=1)
        except ValueError:
            continue
    return None


def _reference_float(text):
    try:
        value = float(text)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _reference_row(row, index):
    mmsi = row[index["mmsi"]].strip()
    if len(mmsi) != 9 or not (mmsi.isascii() and mmsi.isdigit()):
        return None, "bad_mmsi"
    t = _reference_timestamp(row[index["timestamp"]].strip())
    if t is None:
        return None, "bad_timestamp"
    lat = _reference_float(row[index["lat"]])
    if lat is None:
        return None, "bad_lat"
    if not -90.0 <= lat <= 90.0:
        return None, "lat_out_of_range"
    lon = _reference_float(row[index["lon"]])
    if lon is None:
        return None, "bad_lon"
    if not -180.0 <= lon <= 180.0:
        return None, "lon_out_of_range"
    sog = _reference_float(row[index["sog"]])
    if sog is None:
        return None, "bad_sog"
    if sog < 0.0:
        return None, "sog_out_of_range"
    cog = _reference_float(row[index["cog"]])
    if cog is None:
        return None, "bad_cog"
    if not 0.0 <= cog <= 360.0:
        return None, "cog_out_of_range"
    if cog == 360.0:
        cog = 0.0
    raw_length = row[index["length"]].strip()
    length = _reference_float(raw_length) if raw_length else None
    if length is None or length < 0.0:
        length = math.nan
    return (int(mmsi), t, lat, lon, sog, cog, length), ""


def reference_parse_ais_csv(path, schema=None):
    """Row-by-row AIS parse with `csv`, `datetime.strptime` and `float`:
    each row is checked field by field and tallied under the first check it
    fails. Returns (TRACK_DTYPE table, IngestReport) like `parse_ais_csv`."""
    from ais_outliers.ingest import DEFAULT_SCHEMA, TRACK_DTYPE, IngestReport

    columns = {**DEFAULT_SCHEMA, **(schema or {})}
    rows = []
    report = IngestReport()
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            return np.array(rows, dtype=TRACK_DTYPE), report
        index = {logical: header.index(column) for logical, column in columns.items()}
        max_index = max(index.values())
        for row in reader:
            if not row:
                continue
            report.rows_read += 1
            if len(row) <= max_index:
                report.reject("short_row")
                continue
            record, reason = _reference_row(row, index)
            if record is None:
                report.reject(reason)
            else:
                rows.append(record)
    return np.array(rows, dtype=TRACK_DTYPE), report
