"""Reference implementations used to cross-check the package's vectorized code.

The feature, AUC and F1 references are naive pure Python, deliberately
written without numpy and without looking at the implementation under test.
The split-search references are the earlier per-feature CART loop and the
earlier dense GBDT histogram search, kept as they were so that the vectorized
kernels can be required to return the very same splits.
"""

import math

import numpy as np


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
