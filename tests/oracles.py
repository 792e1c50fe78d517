"""Independent reference implementations used as test oracles.

Everything here is written with explicit Python loops over units and
timesteps, deliberately avoiding the vectorized code paths under test.
The cell parameter builders and `step_once` are the exceptions: they set
up and drive the code under test.
"""

import csv
import math
import struct
import zlib
from dataclasses import dataclass
from datetime import date, datetime, timedelta
from pathlib import Path

import numpy as np

from ais_outliers.nn.cells import GruCellParams, SimpleRnnCellParams, step
from ais_outliers.preprocess import FEATURES, SENTINEL, NormalizationStats


def sigmoid_scalar(x):
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def _random_fused(rng, d, h, gates, scale):
    # Per-gate draws in z, r, h~ order, concatenated into the fused layout.
    w_x, w_h, b = [], [], []
    for _ in range(gates):
        w_x.append(rng.uniform(-scale, scale, (d, h)))
        w_h.append(rng.uniform(-scale, scale, (h, h)))
        b.append(rng.uniform(-scale, scale, h))
    return np.concatenate(w_x, axis=1), np.concatenate(w_h, axis=1), np.concatenate(b)


def random_rnn_params(rng, d, h, scale=0.5):
    return SimpleRnnCellParams(*_random_fused(rng, d, h, 1, scale))


def random_gru_params(rng, d, h, scale=0.5):
    return GruCellParams(*_random_fused(rng, d, h, 3, scale))


def zero_rnn_params(d, h):
    return SimpleRnnCellParams(np.zeros((d, h)), np.zeros((h, h)), np.zeros(h))


def zero_gru_params(d, h):
    return GruCellParams(np.zeros((d, 3 * h)), np.zeros((h, 3 * h)), np.zeros(3 * h))


def gate_tensors(cell, gate):
    """Column block `gate` of an unstacked cell's w_x, w_h and b (views);
    for GRU, blocks 0, 1 and 2 are the update, reset and candidate gates."""
    h = cell.hidden_size
    return tuple(arr[..., gate * h:(gate + 1) * h] for _, arr in cell.tensors())


def step_once(x, h_prev, cell):
    """One `cells.step` of an unstacked cell from (.., D) inputs and (.., H)
    states, without dropout: the new (.., H) state."""
    x = np.asarray(x, dtype=np.float64)
    h_prev = np.asarray(h_prev, dtype=np.float64)
    gates, h = cell.gates, cell.hidden_size
    xw = np.moveaxis((x @ cell.w_x + cell.b).reshape(*x.shape[:-1], gates, h), -2, 0)
    out = np.empty_like(h_prev)
    step(xw, h_prev, h_prev, cell, np.empty((gates, *h_prev.shape)), out)
    return out


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


def gru_step_loop(x, h_prev, p):
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

    z = gate(*gate_tensors(p, 0), h_prev, sigmoid_scalar)
    r = gate(*gate_tensors(p, 1), h_prev, sigmoid_scalar)
    reset_state = np.array([r[i] * h_prev[i] for i in range(hidden)])
    h_cand = gate(*gate_tensors(p, 2), reset_state, math.tanh)
    out = np.zeros(hidden)
    for j in range(hidden):
        out[j] = (1.0 - z[j]) * h_prev[j] + z[j] * h_cand[j]
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


def _reference_step(xw, h_prev, hm, cell):
    """One step of a single-direction scan on (B, .) arrays: (h, acts)."""
    h = cell.hidden_size
    s = (cell.gates - 1) * h
    acts = np.empty_like(xw)
    if s:
        acts[..., :s] = 0.5 * (1.0 + np.tanh(0.5 * (xw[..., :s] + hm @ cell.w_h[:, :s])))
        hm = acts[..., h:s] * hm
    acts[..., s:] = np.tanh(xw[..., s:] + hm @ cell.w_h[:, s:])
    if not s:
        return acts, acts
    z, cand = acts[..., :h], acts[..., s:]
    return (1.0 - z) * h_prev + z * cand, acts


def reference_unroll(seq, cell, direction="forward", input_mask=None,
                     recurrent_mask=None):
    """One direction of a recurrent layer over a (B, T, D) sequence, scanned
    on its own with unstacked (D, G·H) / (H, G·H) / (G·H,) cell tensors and
    (B, D) / (B, H) masks. Returns the time-aligned (B, T, H) states and the
    cache `reference_unroll_backward` takes."""
    batch, timesteps, features = seq.shape
    order = list(range(timesteps))
    if direction == "backward":
        order.reverse()
    xm = np.array(seq.transpose(1, 0, 2), order="C")
    if input_mask is not None:
        xm *= input_mask
    xw = (xm.reshape(-1, features) @ cell.w_x).reshape(timesteps, batch, cell.w_x.shape[1])
    xw += cell.b
    h = np.zeros((batch, cell.hidden_size))
    h_seq = np.empty((timesteps, batch, cell.hidden_size))
    cache = {"xm": xm, "h_prev": np.empty_like(h_seq), "hm": np.empty_like(h_seq),
             "acts": np.empty_like(xw), "order": order, "input_mask": input_mask,
             "recurrent_mask": recurrent_mask}
    for t in order:
        hm = h if recurrent_mask is None else h * recurrent_mask
        h_prev = h
        h, acts = _reference_step(xw[t], h_prev, hm, cell)
        h_seq[t] = h
        cache["h_prev"][t], cache["hm"][t], cache["acts"][t] = h_prev, hm, acts
    return h_seq.transpose(1, 0, 2), cache


def reference_unroll_backward(d_hseq, cell, cache):
    """BPTT through one `reference_unroll` direction: the gradient w.r.t.
    its (B, T, D) input and a dict of parameter gradients."""
    xm, h_prev, hm, acts = cache["xm"], cache["h_prev"], cache["hm"], cache["acts"]
    recurrent_mask = cache["recurrent_mask"]
    h = cell.hidden_size
    s = (cell.gates - 1) * h
    w_h_gates, w_h_cand = cell.w_h[:, :s], cell.w_h[:, s:]
    d_h = d_hseq.transpose(1, 0, 2)
    d_pre = np.empty_like(acts)
    carry = 0.0
    for t in reversed(cache["order"]):
        dh = d_h[t] + carry
        cand = acts[t, :, s:]
        if s:
            z, r = acts[t, :, :h], acts[t, :, h:s]
            dz, d_cand, d_direct = dh * (cand - h_prev[t]), dh * z, dh * (1.0 - z)
        else:
            d_cand, d_direct = dh, 0.0
        d_pre[t, :, s:] = d_cand * (1.0 - cand ** 2)
        d_hm = d_pre[t, :, s:] @ w_h_cand.T
        if s:
            d_pre[t, :, h:s] = d_hm * hm[t] * r * (1.0 - r)
            d_pre[t, :, :h] = dz * z * (1.0 - z)
            d_hm = d_hm * r + d_pre[t, :, :s] @ w_h_gates.T
        carry = d_direct + (d_hm if recurrent_mask is None else d_hm * recurrent_mask)
    flat = d_pre.reshape(-1, d_pre.shape[-1])
    cand_state = hm if not s else acts[..., h:s] * hm
    d_w_h = np.empty_like(cell.w_h)
    d_w_h[:, :s] = hm.reshape(-1, h).T @ flat[:, :s]
    d_w_h[:, s:] = cand_state.reshape(-1, h).T @ flat[:, s:]
    grads = {"w_x": xm.reshape(-1, xm.shape[-1]).T @ flat, "w_h": d_w_h,
             "b": flat.sum(axis=0)}
    d_x = (flat @ cell.w_x.T).reshape(xm.shape)
    if cache["input_mask"] is not None:
        d_x *= cache["input_mask"]
    return d_x.transpose(1, 0, 2), grads


def stack_cells(*cells):
    """Unstacked cells of one kind as one cell with a leading direction axis
    (copies), the layout `layers.unroll` takes."""
    tensors = zip(*([arr for _, arr in cell.tensors()] for cell in cells))
    return type(cells[0])(*(np.stack(per_direction) for per_direction in tensors))


def direction_cells(layer):
    """(scan direction, name tag, unstacked cell) for each direction of a
    stacked layer cell, in its order."""
    return [(("forward", "backward")[k], ("fwd", "bwd")[k], layer[k])
            for k in range(len(layer.w_x))]


def reference_layer(seq, layer, input_masks, recurrent_masks):
    """A model layer with each direction scanned on its own: the (B, T, K·H)
    output and the per-direction caches. Masks are per direction or None."""
    outs, caches = [], []
    for k, (direction, _, cell) in enumerate(direction_cells(layer)):
        im = None if input_masks is None else input_masks[k]
        rm = None if recurrent_masks is None else recurrent_masks[k]
        out, cache = reference_unroll(seq, cell, direction, im, rm)
        outs.append(out)
        caches.append(cache)
    return np.concatenate(outs, axis=-1), caches


def reference_layer_backward(d_out, layer, caches):
    """Backward of `reference_layer`: the input gradient (summed over the
    directions) and the parameter gradients keyed `fwd.w_x` etc."""
    h = layer.hidden_size
    d_x, grads = 0.0, {}
    for k, ((_, tag, cell), cache) in enumerate(zip(direction_cells(layer), caches)):
        dx, g = reference_unroll_backward(d_out[..., k * h:(k + 1) * h], cell, cache)
        d_x = d_x + dx
        grads.update({f"{tag}.{name}": arr for name, arr in g.items()})
    return d_x, grads


def reference_loss_and_gradients(params, config, batch, masks):
    """The model's forward pass and MSE gradients composed from
    `reference_layer`: (pred, layer outputs, gradients by dotted name)."""
    last = config.layers - 1
    seq, outputs, caches = batch, [], []
    for i, layer in enumerate(params.layers):
        out, layer_caches = reference_layer(
            seq, layer, masks.input_masks[i] if masks else None,
            masks.recurrent_masks[i] if masks else None)
        outputs.append(out)
        caches.append(layer_caches)
        if i < last and masks is not None and masks.interlayer[i] is not None:
            out = out * masks.interlayer[i]
        seq = out
    if masks is not None and masks.dense is not None:
        seq = seq * masks.dense
    pred = np.tanh(seq @ params.w_out + params.b_out)
    da = 2.0 * (pred - batch) / pred.size * (1.0 - pred ** 2)
    flat_h, flat_da = seq.reshape(-1, seq.shape[-1]), da.reshape(-1, da.shape[-1])
    grads = {"dense.w": flat_h.T @ flat_da, "dense.b": flat_da.sum(axis=0)}
    d_seq = da @ params.w_out.T
    if masks is not None and masks.dense is not None:
        d_seq = d_seq * masks.dense
    for i in range(last, -1, -1):
        if i < last and masks is not None and masks.interlayer[i] is not None:
            d_seq = d_seq * masks.interlayer[i]
        d_seq, g = reference_layer_backward(d_seq, params.layers[i], caches[i])
        grads.update({f"layer{i}.{name}": arr for name, arr in g.items()})
    return pred, outputs, grads


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


_SLOT_SECONDS, _N_SLOTS = 1800, 48
_DAY_SECONDS = _N_SLOTS * _SLOT_SECONDS
_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()
_FEATURES = ("lat", "lon", "sog", "cog")


@dataclass
class ReferenceDay:
    """One vessel's day on the half-hour grid: slot i is 00:00 + i*30min;
    `values` (48, 4) is NaN where `mask` (48,) is False."""

    mmsi: int
    day: date
    values: np.ndarray
    mask: np.ndarray

    @property
    def missing_fraction(self):
        return 1.0 - int(self.mask.sum()) / _N_SLOTS


def _reference_vessel_days(records):
    """UTC days touched by a vessel's records, judged by each record's
    nearest slot."""
    slots = (records["t"] + _SLOT_SECONDS // 2) // _SLOT_SECONDS
    return [date.fromordinal(_EPOCH_ORDINAL + int(d)) for d in np.unique(slots // _N_SLOTS)]


def reference_resample_day(mmsi, records, day, tolerance_s):
    """One day's grid from the vessel's records whose nearest slot lies in
    the day: per slot the nearest record within tolerance, the earlier on
    ties."""
    start = (day.toordinal() - _EPOCH_ORDINAL) * _DAY_SECONDS
    half = _SLOT_SECONDS // 2
    lo, hi = np.searchsorted(records["t"], [start - half, start + _DAY_SECONDS - half])
    window = records[lo:hi]
    offset = window["t"] - start
    slot = (offset + half) // _SLOT_SECONDS
    distance = np.abs(offset - slot * _SLOT_SECONDS)
    near = np.flatnonzero(distance <= tolerance_s)
    near = near[np.lexsort((distance[near], slot[near]))]
    best = near[np.unique(slot[near], return_index=True)[1]]
    values = np.full((_N_SLOTS, 4), np.nan)
    mask = np.zeros(_N_SLOTS, dtype=bool)
    for j, name in enumerate(_FEATURES):
        values[slot[best], j] = window[name][best]
    mask[slot[best]] = True
    return ReferenceDay(mmsi, day, values, mask)


def reference_interpolate_day(grid, max_fill):
    """Fill interior missing runs of <= max_fill slots, run by run and slot
    by slot, from the run's two present neighbours; returns a new day."""
    values, mask = grid.values.copy(), grid.mask.copy()
    i = 0
    while i < _N_SLOTS:
        if mask[i]:
            i += 1
            continue
        run_start = i
        while i < _N_SLOTS and not mask[i]:
            i += 1
        run_end = i - 1
        if run_start == 0 or run_end == _N_SLOTS - 1 or run_end - run_start + 1 > max_fill:
            continue
        left, right = run_start - 1, run_end + 1
        for slot in range(run_start, run_end + 1):
            frac = (slot - left) / (right - left)
            values[slot] = values[left] + frac * (values[right] - values[left])
            mask[slot] = True
    return ReferenceDay(grid.mmsi, grid.day, values, mask)


def reference_build_daily_grids(tracks, tolerance_s, min_entries, max_fill):
    """The per-day path over (mmsi, records) pairs, one per vessel, each
    sorted by time: every day a vessel touches is resampled on its own,
    sparse days are dropped, the rest interpolated one at a time. Returns
    the ReferenceDay list and the summary counts (days_total,
    days_sparse_dropped and the 10-bin missing-fraction histogram)."""
    grids, counts = [], {"days_total": 0, "days_sparse_dropped": 0,
                         "missing_histogram": [0] * 10}
    for mmsi, records in tracks:
        for day in _reference_vessel_days(records):
            counts["days_total"] += 1
            grid = reference_resample_day(mmsi, records, day, tolerance_s)
            if int(grid.mask.sum()) < min_entries:
                counts["days_sparse_dropped"] += 1
                continue
            grid = reference_interpolate_day(grid, max_fill)
            counts["missing_histogram"][min(int(grid.missing_fraction * 10), 9)] += 1
            grids.append(grid)
    return grids, counts


def reference_normalize_corpus(grids, max_missing_fraction):
    """Day-by-day normalization of ReferenceDays: the 30%-missing rule,
    then per-feature extrema accumulated grid by grid over the present
    cells, then each surviving grid scaled on its own, clipped to [0, 1],
    and its missing slots written as -1. Returns (matrices, ids, minimum,
    maximum); no present cell at all is the DataError the program raises."""
    from ais_outliers.errors import DataError

    survivors = [g for g in grids if g.missing_fraction <= max_missing_fraction]
    minimum = np.full(4, np.inf)
    maximum = np.full(4, -np.inf)
    for grid in survivors:
        present = grid.values[grid.mask]
        if present.size:
            np.minimum(minimum, present.min(axis=0), out=minimum)
            np.maximum(maximum, present.max(axis=0), out=maximum)
    if not np.isfinite(minimum).all():
        raise DataError("cannot compute normalization stats: no present values")
    matrices = []
    for grid in survivors:
        scaled = np.clip((grid.values - minimum) / (maximum - minimum), 0.0, 1.0)
        matrix = np.full((grid.values.shape[0], 4), -1.0)
        matrix[grid.mask] = scaled[grid.mask]
        matrices.append(matrix)
    return matrices, [(g.mmsi, g.day) for g in survivors], minimum, maximum


def denormalize(value: float, feature: int | str, stats: NormalizationStats) -> float:
    """Invert min-max normalization; the -1 sentinel passes through."""
    if value == SENTINEL:
        return SENTINEL
    j = FEATURES.index(feature) if isinstance(feature, str) else feature
    return float(stats.minimum[j] + value * (stats.maximum[j] - stats.minimum[j]))


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


def reference_group_and_sort(records, report=None):
    """`ingest.group_and_sort` as it was before it sorted an index: a sorted
    structured copy of the table, each row's group head by a running
    maximum, every value field gathered through it, and `table[first]`.
    Returns an (mmsi, records) pair per vessel, of the rows the program
    keeps, and tallies the same duplicates."""
    # lexsort is stable, so input order survives among equal (mmsi, t).
    table = records[np.lexsort((records["t"], records["mmsi"]))]
    first = np.ones(len(table), dtype=bool)
    first[1:] = ((table["mmsi"][1:] != table["mmsi"][:-1])
                 | (table["t"][1:] != table["t"][:-1]))
    if report is not None:
        # Index of each row's group head; compared one field at a time.
        head = np.maximum.accumulate(np.where(first, np.arange(len(table)), 0))
        same = ~first
        for name in ("lat", "lon", "sog", "cog", "length"):
            a = table[name]
            b = a[head]
            same &= (a == b) | (np.isnan(a) & np.isnan(b))
        exact, conflicting = int(same.sum()), int((~first).sum() - same.sum())
        if exact:
            report.reject("duplicate_row", exact)
        if conflicting:
            report.reject("duplicate_timestamp", conflicting)
    table = table[first]
    if not len(table):
        return []
    cuts = np.flatnonzero(np.diff(table["mmsi"])) + 1
    return [(int(chunk["mmsi"][0]), chunk) for chunk in np.split(table, cuts)]


def _reference_counts(values, decimals):
    """Each float as an int32 count of 10**-decimals units, or None if one
    is not exactly such a count: `i = round(v * 10**decimals)` must divide
    back to `v`, sign of zero included, and fit in int32."""
    counts = []
    for v in values.tolist():
        try:
            i = round(v * 10**decimals)
        except OverflowError:  # v * 10**decimals is infinite
            return None
        back = i / 10**decimals
        if not (-2**31 <= i < 2**31 and back == v
                and math.copysign(1.0, back) == math.copysign(1.0, v)):
            return None
        counts.append(i)
    return counts


# Decimals of each stored value column that a packed store keeps.
_REFERENCE_DECIMALS = {"lat": 7, "lon": 7, "sog": 3, "cog": 3}


def reference_ingest(paths, schema=None, min_length=20.0):
    """The whole-corpus ingest: every file's table concatenated, then one
    length filter and one `reference_group_and_sort`. The stored rows are
    (t, lat, lon, sog, cog), packed (int32 counts, by `_reference_counts`)
    when every length-filtered row's values are exact counts, and float64
    otherwise. Returns the IngestReport like `ingest_files`, the (mmsi,
    records) pair of each vessel and the stored rows, in the layout
    `read_track_store` gives."""
    from ais_outliers.ingest import TRACK_DTYPE, IngestReport, parse_ais_csv

    tables, report = [], IngestReport()
    for path in paths:
        table, file_report = parse_ais_csv(path, schema)
        tables.append(table)
        report.merge(file_report)
    records = np.concatenate(tables)
    kept = records[records["length"] > min_length]
    report.vessels_dropped_by_length = (len(np.unique(records["mmsi"]))
                                        - len(np.unique(kept["mmsi"])))
    packed = all(_reference_counts(kept[name], e) is not None
                 for name, e in _REFERENCE_DECIMALS.items())
    tracks = reference_group_and_sort(kept, report)
    report.vessels_kept = len(tracks)
    records = np.concatenate([r for _, r in tracks] or [np.empty(0, TRACK_DTYPE)])
    rows = np.empty(len(records), _STORE_LAYOUTS[24 if packed else 40][1])
    for name in _STORE_COLUMNS:
        rows[name] = (_reference_counts(records[name], _REFERENCE_DECIMALS[name])
                      if packed and name != "t" else records[name])
    return report, tracks, rows


# The track store's columns and, by the header's layout value, the integer
# dtype each block codes and the rows they spell.
_STORE_COLUMNS = ["t", "lat", "lon", "sog", "cog"]
_STORE_LAYOUTS = {
    24: ([("t", "<i8")] + [(name, "<i4") for name in _STORE_COLUMNS[1:]],) * 2,
    40: ([(name, "<i8") for name in _STORE_COLUMNS],
         [("t", "<i8")] + [(name, "<f8") for name in _STORE_COLUMNS[1:]]),
}
STORE_HEADER = struct.Struct("<8s5q")


def read_track_store(path):
    """Decode a track store without `TrackReader`: the header's magic,
    layout, rows, vessels, block rows and stream bytes; one
    `zlib.decompress` of the whole stream, cut into blocks of the header's
    rows, each column by column undone by two `np.cumsum`s in the column's
    own dtype (the column holds second differences; in the packed layout
    zigzagged, as byte planes: its rows' least significant bytes first);
    then the index. Returns the rows (int32 counts for the packed layout,
    float64 values for the float one) and the index as a list of
    (mmsi, rows)."""
    data = Path(path).read_bytes()
    magic, layout, rows, vessels, block_rows, stream = STORE_HEADER.unpack_from(data)
    assert magic == b"AISTRK\x00\x03", magic
    ints, values = _STORE_LAYOUTS[layout]
    raw = zlib.decompress(data[STORE_HEADER.size:STORE_HEADER.size + stream])
    assert len(raw) == rows * layout
    table, at = np.empty(rows, ints), 0
    for start in range(0, rows, block_rows):
        n = min(block_rows, rows - start)
        for name, dtype in ints:
            size = np.dtype(dtype).itemsize
            if layout == 24:
                deltas = _unzigzag(_gather_planes(raw, at, n, size)).astype(dtype)
            else:
                deltas = np.frombuffer(raw, dtype, n, at)
            steps = np.cumsum(deltas, dtype=dtype)
            table[name][start:start + n] = np.cumsum(steps, dtype=dtype)
            at += n * size
    index = np.frombuffer(data, [("mmsi", "<i8"), ("rows", "<i8")],
                          offset=STORE_HEADER.size + stream)
    assert len(index) == vessels
    return table.view(values), index.tolist()


def _gather_planes(raw, at, n, size):
    """The `n` uint64 of `size` bytes each whose byte planes start at
    `raw[at]`: plane k holds byte k (weight 256**k) of every integer."""
    planes = np.frombuffer(raw, np.uint8, n * size, at).reshape(size, n).astype(np.uint64)
    return sum(planes[k] << np.uint64(8 * k) for k in range(size))


def _unzigzag(codes):
    """The signed integers (int64) the zigzag codes name: 0, 1, 2, 3, ...
    are 0, -1, 1, -2, ..."""
    half = (codes >> np.uint64(1)).astype(np.int64)
    return np.where(codes & np.uint64(1), -half - 1, half)


def rewrite_track_store(path, edit_stream=lambda stream: stream, entries=None, **fields):
    """Rewrite a track store with its stream edited, its index replaced by
    `entries` of (mmsi, rows) and header fields set; the header's vessels
    and stream bytes follow what is written unless set."""
    data = Path(path).read_bytes()
    magic, layout, rows, _, block_rows, size = STORE_HEADER.unpack_from(data)
    stream = edit_stream(data[STORE_HEADER.size:STORE_HEADER.size + size])
    index = (data[STORE_HEADER.size + size:] if entries is None
             else np.array(entries, [("mmsi", "<i8"), ("rows", "<i8")]).tobytes())
    header = {"magic": magic, "layout": layout, "rows": rows, "vessels": len(index) // 16,
              "block_rows": block_rows, "stream": len(stream), **fields}
    Path(path).write_bytes(STORE_HEADER.pack(*header.values()) + stream + index)


@dataclass(frozen=True)
class ScoreRecord:
    mmsi: str
    day: date
    rmse: float
    feature_rmse: tuple[float, ...] = ()  # diagnostic: unmasked RMSE per feature


def _reference_score_records(model, sset, mask_sentinel):
    """One ScoreRecord per sequence, in sidecar order."""
    if len(sset) == 0:
        return []
    pred = model.reconstruct(sset.tensor)
    diff2 = (pred - sset.tensor) ** 2
    if mask_sentinel:
        keep = sset.tensor != -1.0
        rmse = np.sqrt(np.where(keep, diff2, 0.0).sum(axis=(1, 2)) / keep.sum(axis=(1, 2)))
    else:
        rmse = np.sqrt(diff2.mean(axis=(1, 2)))
    features = np.sqrt(diff2.mean(axis=-2))
    return [ScoreRecord(mmsi=f"{mmsi:09d}", day=day, rmse=float(rmse[i]),
                        feature_rmse=tuple(map(float, features[i])))
            for i, (mmsi, day) in enumerate(sset.ids.tolist())]


def reference_score_csvs(out_dir, model, test_set, basis_set=None, mask_sentinel=False,
                         per_feature=False, k=6.0, bins=50, min_appearances=5):
    """The record-based scoring path: one ScoreRecord per sequence, a
    threshold from the test set (or from `basis_set`), flags sorted by
    (-rmse, mmsi, day), a dict tally of flagged days per MMSI, and the four
    score CSVs written row by row into `out_dir`. Returns the flagged
    records."""
    scores = _reference_score_records(model, test_set, mask_sentinel)
    basis = scores if basis_set is None else _reference_score_records(
        model, basis_set, mask_sentinel)
    values = np.array([s.rmse for s in basis], dtype=np.float64)
    top = float(values.max())
    if top <= 0.0:
        top = 1.0
    bin_counts, bin_edges = np.histogram(values, bins=bins, range=(0.0, top))
    threshold = float(values.mean()) + k * float(values.std())
    flagged = [s for s in scores if s.rmse > threshold]
    flagged.sort(key=lambda s: (-s.rmse, s.mmsi, s.day))
    counts = {}
    for record in flagged:
        counts[record.mmsi] = counts.get(record.mmsi, 0) + 1

    def write(name, header, rows):
        with open(out_dir / name, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow(row)

    rmse_col = "rmse_masked" if mask_sentinel else "rmse"
    header, rows = ["mmsi", "day", rmse_col], []
    if per_feature:
        header += [f"{rmse_col}_{name}" for name in ("lat", "lon", "sog", "cog")]
    for s in scores:
        rows.append([s.mmsi, s.day.isoformat(), repr(s.rmse)])
        if per_feature:
            rows[-1] += [repr(v) for v in s.feature_rmse]
    write("scores.csv", header, rows)
    write("histogram.csv", ["bin_low", "bin_high", "count"],
          [[repr(float(bin_edges[i])), repr(float(bin_edges[i + 1])), int(count)]
           for i, count in enumerate(bin_counts)])
    write("outliers.csv", ["rank", "mmsi", "day", "rmse", "threshold", "k"],
          [[rank, s.mmsi, s.day.isoformat(), repr(s.rmse), repr(threshold), repr(k)]
           for rank, s in enumerate(flagged, start=1)])
    write("offenders.csv", ["mmsi", "flag_count", "persistent"],
          [[mmsi, count, int(count >= min_appearances)]
           for mmsi, count in sorted(counts.items(), key=lambda item: (-item[1], item[0]))])
    return flagged


def reference_split_by_vessel(mmsis, spec):
    """The vessel-by-vessel split: the sorted MMSIs shuffled as a list by
    the seed's generator, then each vessel's rows, in index order, appended
    to test while it holds fewer than floor(N * test_fraction) rows, then to
    val likewise, then to train. Returns the (train, val, test) row lists."""
    n = len(mmsis)
    n_test = int(n * spec.test_fraction)
    n_val = int((n - n_test) * spec.val_fraction)
    vessels = sorted(set(mmsis))
    np.random.default_rng(spec.seed).shuffle(vessels)
    rows = {m: [] for m in vessels}
    for i, mmsi in enumerate(mmsis):
        rows[mmsi].append(i)
    test, val, train = [], [], []
    for mmsi in vessels:
        if len(test) < n_test:
            test += rows[mmsi]
        elif len(val) < n_val:
            val += rows[mmsi]
        else:
            train += rows[mmsi]
    return train, val, test
