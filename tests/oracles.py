"""Independent reference implementations used only to cross-check results.

Everything here deliberately takes a different route than the package:
residuals via normal equations with an SVD pseudo-inverse, correlation from
the definitional covariance formula, connectivity edges through the full
r x r square, p-values by numerically integrating a hand-written t density,
ranks by explicit tie-group averaging, the edge-level metrics as plain loops
over edges, and matrix CSV text cell by cell from a written-out quoting rule.
"""

import math

import numpy as np
import scipy.integrate


def oracle_demean(arr):
    arr = np.asarray(arr, dtype=float)
    return arr - arr.mean(axis=0, keepdims=True)


def oracle_residualize(y, x):
    """E = Y - X (X^T X)^+ X^T Y on demeaned inputs."""
    y = oracle_demean(y)
    x = oracle_demean(x)
    if x.shape[1] == 0:
        return y
    beta = np.linalg.pinv(x.T @ x) @ (x.T @ y)
    return y - x @ beta


def oracle_t_density(u, df):
    c = math.gamma((df + 1) / 2.0) / (math.sqrt(df * math.pi) * math.gamma(df / 2.0))
    return c * (1.0 + u * u / df) ** (-(df + 1) / 2.0)


def oracle_t_pvalue(r, m):
    """Two-sided tail mass of the t distribution, by quadrature."""
    df = m - 2
    if abs(r) >= 1.0:
        return 0.0
    t = abs(r) * math.sqrt(df / (1.0 - r * r))
    tail, _ = scipy.integrate.quad(oracle_t_density, t, np.inf, args=(df,))
    return min(1.0, 2.0 * tail)


def oracle_pearson(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xc = x - x.mean()
    yc = y - y.mean()
    r = float(np.sum(xc * yc) / math.sqrt(np.sum(xc * xc) * np.sum(yc * yc)))
    r = max(-1.0, min(1.0, r))
    return r, oracle_t_pvalue(r, x.size)


def oracle_ranks(v):
    """Average ranks (1-based); tied values share the mean of their positions."""
    v = np.asarray(v, dtype=float)
    order = sorted(range(v.size), key=lambda i: v[i])
    ranks = np.zeros(v.size)
    i = 0
    while i < v.size:
        j = i
        while j + 1 < v.size and v[order[j + 1]] == v[order[i]]:
            j += 1
        mean_rank = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = mean_rank
        i = j + 1
    return ranks


def oracle_spearman(x, y):
    return oracle_pearson(oracle_ranks(x), oracle_ranks(y))


def oracle_fd(motion_values):
    rows = np.asarray(motion_values, dtype=float).tolist()  # Python floats: overflow gives inf
    fd = [0.0]
    for t in range(1, len(rows)):
        d = [abs(rows[t][k] - rows[t - 1][k]) for k in range(6)]
        try:
            fd.append(math.fsum(d[:3]) + 50.0 * math.fsum(d[3:]))
        except OverflowError:  # finite terms whose exact sum is beyond float64
            fd.append(math.inf)
    return np.array(fd)


def oracle_median(values):
    s = sorted(values)
    n = len(s)
    if n % 2 == 1:
        return s[n // 2]
    return (s[n // 2 - 1] + s[n // 2]) / 2.0


def oracle_qcfc(fc_values_per_subject, mfd):
    """Per-edge (r, p) plus median |r|, as plain loops; NaN marks undefined edges."""
    mats = [np.asarray(m, dtype=float) for m in fc_values_per_subject]
    mfd = np.asarray(mfd, dtype=float)
    r_dim = mats[0].shape[0]
    edge_r = []
    edge_p = []
    for i in range(r_dim):
        for j in range(i + 1, r_dim):
            vals = np.array([m[i, j] for m in mats])
            if np.all(vals == vals[0]):
                edge_r.append(np.nan)
                edge_p.append(np.nan)
                continue
            r, p = oracle_pearson(vals, mfd)
            edge_r.append(r)
            edge_p.append(p)
    median_abs, _ = oracle_report_summary(edge_r)
    return np.array(edge_r), np.array(edge_p), median_abs


def oracle_report_summary(edge_r):
    """Median |r| over the defined (non-NaN) edges, NaN if there are none, and the NaN count."""
    defined = [abs(r) for r in edge_r if not math.isnan(r)]
    median_abs = oracle_median(defined) if defined else float("nan")
    return median_abs, len(edge_r) - len(defined)


def oracle_fc_edges(values):
    """`fc_matrix`'s edges through the whole square: gram / sqrt(outer(ss, ss)),
    symmetrised, clipped, unit diagonal, then its upper triangle. The column
    scaling and the gram are the package's, so the two agree bit for bit."""
    values = np.asarray(values, dtype=float)
    exponent = np.frexp(np.max(np.abs(values), axis=0))[1]
    centered = np.ldexp(values, -exponent)
    centered -= centered.mean(axis=0, keepdims=True)
    gram = centered.T @ centered
    ss = np.diag(gram).copy()
    corr = gram / np.sqrt(np.multiply.outer(ss, ss))
    corr = np.clip((corr + corr.T) / 2.0, -1.0, 1.0)
    np.fill_diagonal(corr, 1.0)
    return corr[np.triu_indices(corr.shape[0], k=1)]


def oracle_edge_lengths(centroids):
    centroids = np.asarray(centroids, dtype=float)
    out = []
    for i in range(centroids.shape[0]):
        for j in range(i + 1, centroids.shape[0]):
            d = centroids[i] - centroids[j]
            out.append(math.sqrt(float(np.sum(d * d))))
    return np.array(out)


def oracle_distance_dependence(edge_r, lengths):
    edge_r = np.asarray(edge_r, dtype=float)
    lengths = np.asarray(lengths, dtype=float)
    keep = ~np.isnan(edge_r)
    return oracle_spearman(edge_r[keep], lengths[keep])


def oracle_csv_field(text):
    """One CSV field: quoted, inner quotes doubled, iff it holds , " LF or CR."""
    if any(c in text for c in ',"\n\r'):
        return '"' + text.replace('"', '""') + '"'
    return text


def oracle_matrix_csv(values, labels):
    """Matrix CSV text cell by cell: the header through `oracle_csv_field`
    (a lone empty label is written `""`, as `csv.writer` does, so the row
    is not blank) and every value through `format(x, ".17g")`."""
    labels = list(labels)
    header = '""' if labels == [""] else ",".join(oracle_csv_field(lab) for lab in labels)
    rows = np.asarray(values, dtype=float)
    lines = [header] + [",".join(format(float(x), ".17g") for x in row) for row in rows]
    return "".join(line + "\n" for line in lines)
