"""Reference implementations used to cross-check the package's vectorized code.

The feature, AUC and F1 references are naive pure Python, deliberately
written without numpy and without looking at the implementation under test.
The split-search references are the earlier per-feature CART loop and the
earlier dense GBDT histogram search, kept as they were so that the vectorized
kernels can be required to return the very same splits. Likewise the
per-segment feature code and the per-row recording parser are the earlier
implementations, kept so that the block feature kernel and the columnar
parser can be required to give the very same bytes and errors. So is the
per-minute interchange writer, for the bulk writer. The earlier
Nesterov-accelerated logistic fit is kept as a baseline objective that the
Newton fit must reach.
"""

import csv
import io
import math
from datetime import datetime

import numpy as np

from chronoseg.errors import ConfigError, DataError
from chronoseg.models.linear import LogisticModel


def _median_sorted(sorted_vals):
    m = len(sorted_vals)
    if m % 2:
        return float(sorted_vals[m // 2])
    return (sorted_vals[m // 2 - 1] + sorted_vals[m // 2]) / 2.0


def _quantile(sorted_vals, p):
    # position h = (n-1)p with linear interpolation
    n = len(sorted_vals)
    h = (n - 1) * p
    lo = math.floor(h)
    hi = math.ceil(h)
    return sorted_vals[lo] + (h - lo) * (sorted_vals[hi] - sorted_vals[lo])


def naive_features(values):
    """The sixteen statistics, computed the slow and obvious way.

    Expects integer-valued input (activity counts), which keeps the entropy
    bin assignment exact.
    """
    xs = [float(v) for v in values]
    n = len(xs)
    assert n > 0
    mean = sum(xs) / n
    s = sorted(xs)
    median = _median_sorted(s)

    var = sum((v - mean) ** 2 for v in xs) / n
    std = math.sqrt(var)
    if var > 0:
        skewness = (sum((v - mean) ** 3 for v in xs) / n) / var**1.5
        kurtosis = (sum((v - mean) ** 4 for v in xs) / n) / var**2 - 3.0
    else:
        skewness = 0.0
        kurtosis = 0.0

    prop_zeros = sum(1 for v in xs if v == 0) / n
    maximum = max(xs)
    mad = _median_sorted(sorted(abs(v - median) for v in xs))
    iqr = _quantile(s, 0.75) - _quantile(s, 0.25)
    cv = std / mean if mean != 0 else 0.0

    distinct = len(set(xs))
    if distinct <= 1:
        entropy = 0.0
    else:
        bins = min(16, distinct)
        mx = int(maximum)
        counts = [0] * bins
        for v in values:
            idx = min(bins - 1, (int(v) * bins) // mx)
            counts[idx] += 1
        entropy = -sum((c / n) * math.log(c / n) for c in counts if c > 0)

    den = sum((v - mean) ** 2 for v in xs)
    if den > 0 and n > 1:
        autocorr = sum((xs[t] - mean) * (xs[t + 1] - mean) for t in range(n - 1)) / den
    else:
        autocorr = 0.0

    n_peaks = sum(1 for i in range(1, n - 1) if xs[i - 1] < xs[i] > xs[i + 1])
    n_troughs = sum(1 for i in range(1, n - 1) if xs[i - 1] > xs[i] < xs[i + 1])
    semivariance = sum((mean - v) ** 2 for v in xs if v < mean) / n
    rms = math.sqrt(sum(v * v for v in xs) / n)

    return {
        "mean": mean,
        "median": median,
        "std_dev": std,
        "prop_zeros": prop_zeros,
        "skewness": skewness,
        "kurtosis": kurtosis,
        "max": maximum,
        "mad": mad,
        "iqr": iqr,
        "cv": cv,
        "entropy": entropy,
        "autocorr_lag1": autocorr,
        "n_peaks": float(n_peaks),
        "n_troughs": float(n_troughs),
        "semivariance": semivariance,
        "rms": rms,
    }


def naive_auc(scores, labels):
    """Brute-force Mann-Whitney statistic over all positive-negative pairs."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    assert pos and neg
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def naive_f1(scores, labels, threshold=0.5):
    tp = sum(1 for s, y in zip(scores, labels) if s >= threshold and y == 1)
    fp = sum(1 for s, y in zip(scores, labels) if s >= threshold and y == 0)
    fn = sum(1 for s, y in zip(scores, labels) if s < threshold and y == 1)
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2 * precision * recall / (precision + recall)


def loop_cart_split(X, y, features):
    """Best (gain, feature, threshold) over the candidate features, or None.

    One stable argsort per feature; ties break on the lowest feature index,
    then the lowest threshold.
    """
    n = y.size
    n_pos = int(y.sum())
    parent = n * 2.0 * (n_pos / n) * (1.0 - n_pos / n) if n else 0.0
    best = None  # (gain, feature, threshold)
    for f in features:
        col = X[:, f]
        order = np.argsort(col, kind="stable")
        xs = col[order]
        ys = y[order]
        boundaries = np.flatnonzero(xs[:-1] < xs[1:])  # split after index i
        if boundaries.size == 0:
            continue
        pos_prefix = np.cumsum(ys)
        nl = boundaries + 1
        pl = pos_prefix[boundaries]
        nr = n - nl
        pr = n_pos - pl
        with np.errstate(divide="ignore", invalid="ignore"):
            imp_l = np.where(nl > 0, 2.0 * pl * (nl - pl) / nl, 0.0)
            imp_r = np.where(nr > 0, 2.0 * pr * (nr - pr) / nr, 0.0)
        gains = parent - imp_l - imp_r
        i = int(np.argmax(gains))  # first max -> lowest threshold among ties
        gain = float(gains[i])
        if best is None or gain > best[0]:
            b = boundaries[i]
            threshold = float((xs[b] + xs[b + 1]) / 2.0)
            best = (gain, int(f), threshold)
    return best


def dense_gbdt_split(codes, n_bins, idx, g, h, reg_lambda, min_child):
    """Best (gain, feature, bin) of the rows idx, or None.

    Builds full gradient, hessian and count histograms with three bincounts,
    then scores every (feature, bin) cell; ties break on the lowest feature
    index then the lowest bin (np.argmax order).
    """
    p = codes.shape[1]
    width = int(n_bins.max())
    flat = (codes + np.arange(p) * width)[idx].ravel()
    size = p * width
    hist_g = np.bincount(flat, weights=np.repeat(g[idx], p), minlength=size).reshape(p, width)
    hist_h = np.bincount(flat, weights=np.repeat(h[idx], p), minlength=size).reshape(p, width)
    hist_c = np.bincount(flat, minlength=size).reshape(p, width)

    G = hist_g.sum(axis=1, keepdims=True)
    H = hist_h.sum(axis=1, keepdims=True)
    C = hist_c.sum(axis=1, keepdims=True)
    GL = np.cumsum(hist_g, axis=1)
    HL = np.cumsum(hist_h, axis=1)
    CL = np.cumsum(hist_c, axis=1)
    GR = G - GL
    HR = H - HL
    CR = C - CL

    parent = (G**2) / (H + reg_lambda)
    with np.errstate(divide="ignore", invalid="ignore"):
        gains = 0.5 * (GL**2 / (HL + reg_lambda) + GR**2 / (HR + reg_lambda) - parent)

    valid = (CL >= min_child) & (CR >= min_child)
    valid &= np.arange(width)[None, :] < (n_bins - 1)[:, None]
    gains = np.where(valid, gains, -np.inf)

    flat_best = int(np.argmax(gains))
    feature, bin_ = divmod(flat_best, width)
    gain = float(gains[feature, bin_])
    if not np.isfinite(gain) or gain <= 1e-12:
        return None
    return gain, feature, bin_




def per_segment_features(values):
    """The sixteen statistics of one segment, as the per-segment code computed them.

    Conventions: population moments throughout; skewness/kurtosis/cv/
    autocorrelation are 0 for degenerate inputs; entropy is over at most 16
    equal-width histogram bins spanning [0, max]; peaks/troughs are strict
    interior local extrema.
    """
    x = np.asarray(values, dtype=np.float64)
    if x.size == 0:
        raise ValueError("cannot extract features from an empty vector")
    n = x.size
    mean = float(x.mean())
    median = float(np.median(x))
    centered = x - mean
    m2 = float(np.mean(centered**2))
    std = float(np.sqrt(m2))

    if m2 > 0:
        skewness = float(np.mean(centered**3)) / m2**1.5
        kurtosis = float(np.mean(centered**4)) / m2**2 - 3.0
    else:
        skewness = 0.0
        kurtosis = 0.0

    prop_zeros = float(np.count_nonzero(x == 0)) / n
    maximum = float(x.max())
    mad = float(np.median(np.abs(x - median)))
    q1, q3 = np.quantile(x, [0.25, 0.75])  # linear interpolation at h=(n-1)p
    iqr = float(q3 - q1)
    cv = std / mean if mean != 0 else 0.0

    distinct = np.unique(x).size
    if distinct <= 1:
        entropy = 0.0
    else:
        # equal-width bins over [0, max], left-closed, last bin closed
        bins = min(16, distinct)
        idx = np.minimum((x * bins / maximum).astype(np.int64), bins - 1)
        counts = np.bincount(idx, minlength=bins)
        p = counts[counts > 0] / n
        entropy = float(-(p * np.log(p)).sum())

    denom = float(np.sum(centered**2))
    if denom > 0 and n > 1:
        autocorr = float(np.sum(centered[:-1] * centered[1:])) / denom
    else:
        autocorr = 0.0

    if n >= 3:
        inner = x[1:-1]
        n_peaks = int(np.count_nonzero((x[:-2] < inner) & (inner > x[2:])))
        n_troughs = int(np.count_nonzero((x[:-2] > inner) & (inner < x[2:])))
    else:
        n_peaks = 0
        n_troughs = 0

    below = centered[centered < 0]
    semivariance = float(np.sum(below**2)) / n
    rms = float(np.sqrt(np.mean(x**2)))

    return {
        "mean": mean,
        "median": median,
        "std_dev": std,
        "prop_zeros": prop_zeros,
        "skewness": skewness,
        "kurtosis": kurtosis,
        "max": maximum,
        "mad": mad,
        "iqr": iqr,
        "cv": cv,
        "entropy": entropy,
        "autocorr_lag1": autocorr,
        "n_peaks": float(n_peaks),
        "n_troughs": float(n_troughs),
        "semivariance": semivariance,
        "rms": rms,
    }


def _parse_timestamp(text):
    for fmt in ("%Y-%m-%d %H:%M:%S", "%Y-%m-%d %H:%M"):
        try:
            ts = datetime.strptime(text.strip(), fmt)
        except ValueError:
            continue
        return ts.replace(second=0, microsecond=0)
    raise ValueError(f"unparseable timestamp {text!r}")


def per_row_days(text, column_map=None, label=0):
    """Parse one recording row by row and keep its complete days.

    Returns (label, [(date, values)], n_discarded) with values a list of 1440
    counts, or raises the DataError or ConfigError the per-row parser raised.
    """
    columns = {"timestamp": "timestamp", "activity": "activity", **(column_map or {})}
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise DataError("empty file: no header row")
    header = [h.strip() for h in header]
    try:
        ts_idx = header.index(columns["timestamp"])
        act_idx = header.index(columns["activity"])
    except ValueError as exc:
        raise ConfigError(f"mapped column missing from header {header}: {exc}")
    label_idx = header.index(columns["label"]) if "label" in columns and columns["label"] in header else None

    samples = []
    file_label = None
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        try:
            ts = _parse_timestamp(row[ts_idx])
            raw = row[act_idx].strip()
            activity = int(float(raw))
            if float(raw) != activity:
                raise ValueError(f"non-integer activity {raw!r}")
        except OverflowError:
            raise DataError(f"malformed row at line {lineno}: non-finite activity {raw!r}")
        except (ValueError, IndexError) as exc:
            raise DataError(f"malformed row at line {lineno}: {exc}")
        if activity < 0:
            raise DataError(f"malformed row at line {lineno}: negative activity {activity}")
        if label_idx is not None:
            try:
                file_label = int(row[label_idx])
            except ValueError as exc:
                raise DataError(f"malformed row at line {lineno}: {exc}")
        samples.append((ts, activity))

    for i, (prev, cur) in enumerate(zip(samples, samples[1:])):
        if cur[0] <= prev[0]:
            raise DataError(
                f"non-monotonic timestamps: {prev[0]} followed by {cur[0]} (samples {i} and {i + 1})"
            )
    label = file_label if file_label is not None else label
    if label not in (0, 1):
        raise DataError(f"label must be 0 or 1, got {label}")

    groups = {}
    for ts, activity in samples:
        groups.setdefault(ts.date(), {})[ts.hour * 60 + ts.minute] = activity
    kept = [(d, [minutes[m] for m in range(1440)]) for d, minutes in sorted(groups.items()) if len(minutes) == 1440]
    return label, kept, len(groups) - len(kept)


def per_minute_save_corpus(corpus, path):
    """The interchange file of a corpus, written one csv row per minute."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["subject_id", "label", "date", "minute", "activity"])
        for subject_id, label, day, row in zip(corpus.subject_ids, corpus.labels, corpus.dates, corpus.values):
            for minute in range(1440):
                writer.writerow([subject_id, int(label), day.isoformat(), minute, int(row[minute])])


def _clipped_sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))


def _mean_gradient(w, b, X, y, l2):
    n = X.shape[0]
    residual = _clipped_sigmoid(X @ w + b) - y
    return X.T @ residual / n + (l2 / n) * w, float(np.mean(residual))


def reference_train_logistic(X, y, l2=1.0, tol=1e-6, max_iter=1000):
    """Nesterov-accelerated logistic fit with NumPy scalars throughout."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, p = X.shape

    design = np.hstack([X, np.ones((n, 1))])
    sigma = float(np.linalg.norm(design, 2))
    L = sigma**2 / (4 * n) + l2 / n
    step = 1.0 / L

    w = np.zeros(p)
    b = 0.0
    w_prev, b_prev = w, b
    t_prev = 1.0
    n_iter, grad_norm = 0, float("inf")
    for n_iter in range(1, max_iter + 1):
        t = (1 + np.sqrt(1 + 4 * t_prev**2)) / 2
        beta = (t_prev - 1) / t
        w_look = w + beta * (w - w_prev)
        b_look = b + beta * (b - b_prev)
        gw, gb = _mean_gradient(w_look, b_look, X, y, l2)
        w_prev, b_prev = w, b
        w = w_look - step * gw
        b = b_look - step * gb
        t_prev = t
        gw, gb = _mean_gradient(w, b, X, y, l2)
        grad_norm = float(np.sqrt(float(gw @ gw) + gb**2))
        if grad_norm <= tol:
            break
    return LogisticModel(weights=w, intercept=b, n_iter=n_iter, grad_norm=grad_norm)
