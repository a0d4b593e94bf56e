"""Independent reference implementations used to check the package's numerics.

Everything here is deliberately slow and simple: quadratic-time DFT, direct
tap-by-tap frequency response and convolution, a periodogram built on the
quadratic-time DFT, adaptive quadrature of the t density, one Pegasos step
at a time, every synthetic trial drawn in turn from one generator, one trial
file read or written after another, one trial's features after another, a
t-test map on sorted copies of each side's rows, a rule ensemble that
predicts the test rows a second time. These are built and self-tested before
the fast implementations they vet.
"""

import dataclasses
import json
import math
import warnings
from pathlib import Path

import numpy as np

from motorclass import classifiers as cl
from motorclass import dsp, evaluation, features, fusion, stats
from motorclass.dataset import (_MICROVOLT_SCALE, CHANNELS, EPOCH_SAMPLES, EPOCHS_PER_TRIAL,
                                FS, GEN_BAND_HZ, LEFT, RIGHT, TRIAL_SAMPLES, DataError,
                                Dataset, Trial, _line_shares, _mirror_boost_channels,
                                write_csv, write_json)


def brute_dft(x, inverse: bool = False) -> np.ndarray:
    """O(n^2) discrete Fourier transform along the last axis, straight from
    the definition; inverse flips the exponent's sign and does not divide by n.
    The phase k*m is reduced mod n in integers and looked up in a table of
    the n roots of unity."""
    x = np.asarray(x, dtype=np.complex128)
    n = x.shape[-1]
    k = np.arange(n)
    roots = np.exp((1.0 if inverse else -1.0) * 2j * np.pi * k / n)
    return np.stack([np.sum(x * roots[k * m % n], axis=-1) for m in range(n)], axis=-1)


def freq_response(taps, fs: float, freq: float) -> float:
    """|H(f)| of an FIR filter, evaluated tap by tap."""
    taps = np.asarray(taps, dtype=float)
    n = np.arange(len(taps))
    return abs(np.sum(taps * np.exp(-2j * np.pi * freq * n / fs)))


def direct_fir(taps, x) -> np.ndarray:
    """Linear-phase FIR applied tap by tap: reflect-pad x by the group delay
    on both sides, convolve, keep the len(x) group-delay-aligned samples."""
    taps = np.asarray(taps, dtype=float)
    x = np.asarray(x, dtype=float)
    gd = (len(taps) - 1) // 2
    padded = np.pad(x, gd, mode="reflect")
    full = np.zeros(len(padded) + len(taps) - 1)
    for k, h in enumerate(taps):
        full[k:k + len(padded)] += h * padded
    return full[2 * gd: 2 * gd + len(x)]


def periodogram_psd(epoch, fs: float, segment: int = 256, bins: int = 25) -> np.ndarray:
    """Mean of the one-sided periodograms of consecutive segments: each is
    mean-removed, periodic-Hamming windowed, DFT'd by brute_dft and scaled by
    2 / (fs * window energy); bins 1..bins are kept."""
    window = 0.54 - 0.46 * np.cos(2.0 * np.pi * np.arange(segment) / segment)
    segs = np.asarray(epoch, dtype=float).reshape(-1, segment)
    power = []
    for seg in segs:
        spec = brute_dft((seg - seg.mean()) * window)
        power.append(2.0 * np.abs(spec) ** 2 / (fs * np.sum(window ** 2)))
    return np.mean(power, axis=0)[1:bins + 1]


def _t_density(x: float, df: float) -> float:
    log_norm = (math.lgamma((df + 1.0) / 2.0) - math.lgamma(df / 2.0)
                - 0.5 * math.log(df * math.pi))
    return math.exp(log_norm - (df + 1.0) / 2.0 * math.log1p(x * x / df))


def _adaptive_simpson(f, a: float, b: float, tol: float) -> float:
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(a, b, fa, fb, fm, whole, tol, depth):
        lm, rm = 0.5 * (a + 0.5 * (a + b)), 0.5 * (0.5 * (a + b) + b)
        flm, frm = f(lm), f(rm)
        mid = 0.5 * (a + b)
        left = (mid - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - mid) / 6.0 * (fm + 4.0 * frm + fb)
        if depth > 60 or abs(left + right - whole) < 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return (recurse(a, mid, fa, fm, flm, left, tol / 2.0, depth + 1)
                + recurse(mid, b, fm, fb, frm, right, tol / 2.0, depth + 1))

    return recurse(a, b, fa, fb, fm, whole, tol, 0)


def t_two_tailed_p(t: float, df: float, tol: float = 1e-9) -> float:
    """Two-tailed p-value by integrating the t density over the central
    interval [-|t|, |t|] with adaptive Simpson quadrature."""
    t = abs(t)
    if t == 0.0:
        return 1.0
    central = 2.0 * _adaptive_simpson(lambda x: _t_density(x, df), 0.0, t, tol)
    return min(1.0, max(0.0, 1.0 - central))


def pegasos_reference(X, y, cfg):
    """(w, b) of classifiers.train_svm as it was written before its margin
    search was vectorized: the same preprocessing, then one step at a time,
    testing each step's margin with its own dot product."""
    X, y = cl._check_xy(X, y)
    ys = cl._signed(y)
    order = cl._canonical_order(X, ys)
    Xo, yo = X[order], ys[order]
    n, d = Xo.shape
    lam = 1.0 / (cfg.svm_c * n)
    rng = np.random.default_rng(cfg.seed)
    v = np.zeros(d)
    b = 0.0
    t = 0
    for _ in range(cfg.svm_epochs):
        perm = rng.permutation(n)
        for i in perm:
            t += 1
            if yo[i] * (Xo[i] @ v / (lam * max(t - 1, 1)) + b) < 1.0:
                v += yo[i] * Xo[i]
                b += yo[i] / t
    return v / (lam * t), b


def load_dataset_reference(manifest_path) -> Dataset:
    """dataset.load_dataset as it was written before trial files were read in
    a process pool: one loop that checks each manifest entry, then reads and
    checks its file, and raises at the first fault. The header line is read
    inside the parse's try, as in dataset._read_trial."""
    path = Path(manifest_path)
    if not path.exists():
        raise DataError("MissingFile", repr(str(path)))
    try:
        manifest = json.loads(path.read_text())
    except ValueError as exc:
        raise DataError("BadManifest", f"{str(path)!r}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise DataError("BadManifest", f"manifest must be an object, got {type(manifest).__name__}")
    for key in ("subject_id", "fs", "channels", "trials"):
        if key not in manifest:
            raise DataError("BadManifest", f"missing key {key!r}")
    for key, kind in (("subject_id", str), ("trials", list)):
        if not isinstance(manifest[key], kind):
            raise DataError("BadManifest", f"{key} must be a {kind.__name__}, "
                            f"got {type(manifest[key]).__name__}")
    if manifest["fs"] != FS:
        raise DataError("BadSampleRate", f"manifest fs={manifest['fs']!r}, expected {FS}")
    if manifest["channels"] != list(CHANNELS):
        raise DataError("BadChannels",
                        f"manifest channels {manifest['channels']!r} != expected montage")
    if not manifest["trials"]:
        raise DataError("EmptyDataset", "manifest lists zero trials")
    trials = []
    seen = set()
    for entry in manifest["trials"]:
        if not isinstance(entry, dict):
            raise DataError("BadManifest", f"trial entry must be a JSON object, got {entry!r}")
        tid = entry.get("trial_id")
        if not isinstance(tid, int) or isinstance(tid, bool):
            raise DataError("BadTrialId", f"trial_id must be an integer, got {tid!r}")
        if tid in seen:
            raise DataError("DuplicateTrialId", "listed more than once", trial_id=tid)
        seen.add(tid)
        label = entry.get("label")
        if type(label) is not int or label not in (RIGHT, LEFT):
            raise DataError("BadLabel", f"label={label!r}", trial_id=tid)
        fname = entry.get("file")
        if not isinstance(fname, str):
            raise DataError("BadManifest", f"file={fname!r}, expected a string", trial_id=tid)
        fpath = path.parent / fname
        if not fpath.is_file():
            raise DataError("MissingFile", repr(str(fpath)), trial_id=tid)
        with open(fpath) as fh:
            try:
                header = [name.strip() for name in fh.readline().split(",")]
                if header == list(CHANNELS):
                    table = np.loadtxt(fh, delimiter=",", ndmin=2)
            except ValueError as exc:
                raise DataError("BadTrialFile", f"{fpath.name!r}: {exc}", trial_id=tid) from exc
        if header != list(CHANNELS):
            raise DataError("BadChannels", f"{fpath.name!r}: header {header}", trial_id=tid)
        if table.shape != (TRIAL_SAMPLES, len(CHANNELS)):
            raise DataError("BadSampleCount",
                            f"{fpath.name!r}: {table.shape[0]} rows x {table.shape[1]} cols, "
                            f"expected {TRIAL_SAMPLES} x {len(CHANNELS)}", trial_id=tid)
        if not np.all(np.isfinite(table)):
            raise DataError("NonFinite", f"{fpath.name!r} contains non-finite samples",
                            trial_id=tid)
        trials.append(Trial(trial_id=tid, label=label, samples=np.ascontiguousarray(table.T)))
    right = sum(t.label == RIGHT for t in trials)
    left = len(trials) - right
    if right != left:
        warnings.warn(f"imbalanced dataset: {right} right vs {left} left")
    return Dataset(subject_id=manifest["subject_id"], trials=trials)


def validate_reference(manifest_path, limit=None) -> str:
    """The line cli.cmd_validate printed when it loaded every trial before it
    counted: the side counts and, with an amplitude limit, the epochs whose
    peak magnitude lies above it."""
    ds = load_dataset_reference(manifest_path)
    right = sum(t.label == RIGHT for t in ds.trials)
    line = (f"ok: {len(ds.trials)} trials ({right} right, {len(ds.trials) - right} left), "
            f"{len(CHANNELS)} channels, fs={FS}")
    if limit is not None:
        flagged = sum(int((np.abs(dsp.epoch_trial(t.samples)).max(axis=(1, 2)) > limit).sum())
                      for t in ds.trials)
        line += f", {flagged} epoch(s) above {limit:g} uV"
    return line


def build_feature_matrix_reference(dataset, filt, scale: str = "linear"):
    """features.build_feature_matrix as it was written before trials were
    filtered in a process pool: one loop that filters, epochs and PSDs each
    trial in the calling process and writes its rows into X."""
    if scale not in features.SCALES:
        raise ValueError(f"scale must be one of {features.SCALES}, got {scale!r}")
    n_trials = len(dataset.trials)
    X = np.empty((n_trials * EPOCHS_PER_TRIAL, features.N_FEATURES))
    y = np.empty(n_trials * EPOCHS_PER_TRIAL, dtype=int)
    trial_ids = np.empty_like(y)
    epoch_idx = np.empty_like(y)
    for i, trial in enumerate(dataset.trials):
        filtered = dsp._filter_rows(filt, np.asarray(trial.samples, dtype=float))
        epochs = dsp.epoch_trial(filtered)  # (8, 12, 512)
        psd = dsp._psd_epoch_rows(epochs.reshape(-1, EPOCH_SAMPLES))
        rows = psd.reshape(EPOCHS_PER_TRIAL, len(CHANNELS) * dsp.PSD_BINS)
        sl = slice(i * EPOCHS_PER_TRIAL, (i + 1) * EPOCHS_PER_TRIAL)
        X[sl] = rows
        y[sl] = trial.label
        trial_ids[sl] = trial.trial_id
        epoch_idx[sl] = np.arange(EPOCHS_PER_TRIAL)
    if scale == "db":
        X = 10.0 * np.log10(np.maximum(X, 1e-20))
    if not np.all(np.isfinite(X)):
        raise dsp.DspError("feature matrix contains non-finite values")
    return features.FeatureMatrix(X=X, y=y, trial_ids=trial_ids, epochs=epoch_idx)


def significance_map_reference(fm, alpha: float = 0.05, level: str = "epoch"):
    """stats.significance_map as it was written before it read rows by
    position: each label's rows are copied out of X, sorted by (trial_id,
    epoch), and every test and mean runs on those copies."""
    def ordered_rows(label):
        mask = fm.y == label
        order = np.lexsort((fm.epochs[mask], fm.trial_ids[mask]))
        return fm.X[mask][order]

    def trial_means(rows):
        return rows.reshape(-1, EPOCHS_PER_TRIAL, rows.shape[1]).mean(axis=1)

    right, left = ordered_rows(RIGHT), ordered_rows(LEFT)
    if len(right) == 0 or len(left) == 0:
        raise DataError("OneLabel", "significance_map needs rows of both labels")
    if level == "trial":
        right, left = trial_means(right), trial_means(left)
    if len(right) != len(left):
        raise DataError("UnequalCounts", "the rank-paired t-test needs equal right/left "
                        f"counts, got {len(right)} right and {len(left)} left")
    n_ch, n_bins = len(CHANNELS), dsp.PSD_BINS
    t = np.empty((n_ch, n_bins))
    p = np.empty((n_ch, n_bins))
    for j in range(right.shape[1]):
        res = stats.paired_t(right[:, j], left[:, j])
        t[j // n_bins, j % n_bins] = res.t
        p[j // n_bins, j % n_bins] = res.p
    mean_r = right.mean(axis=0).reshape(n_ch, n_bins)
    mean_l = left.mean(axis=0).reshape(n_ch, n_bins)
    return stats.SignificanceMap(t=t, p=p, delta=mean_r - mean_l, significant=p < alpha,
                                 alpha=alpha, mean_right=mean_r, mean_left=mean_l)


def generate_synthetic_reference(config) -> Dataset:
    """dataset.generate_synthetic as it was written before each trial could be
    made on its own: one loop over the trials that draws every trial's phases
    from one generator, in trial order."""
    rng = np.random.default_rng(config.seed)
    freqs = np.arange(1, EPOCH_SAMPLES // 2)  # 1..255 Hz synthesis grid
    amp = _MICROVOLT_SCALE * freqs.astype(float) ** (-config.noise_model / 2.0)
    var_per_freq = 2.0 * amp ** 2 / EPOCH_SAMPLES

    lo, hi = GEN_BAND_HZ[config.target_band]
    band_mask = (freqs >= lo) & (freqs <= hi)
    band_power = float(var_per_freq[band_mask].sum())
    lines = np.arange(lo + (lo % 2), hi + 1, 2)
    shares = _line_shares(len(lines))
    ratio = 10.0 ** (config.asymmetry_db / 10.0)
    line_amp = np.sqrt(2.0 * ratio * band_power * shares)
    polarity = (-1.0) ** np.arange(len(lines))
    t_grid = np.arange(TRIAL_SAMPLES) / FS

    n = config.n_trials_per_side
    trials = []
    for tt in range(2 * n):
        label = RIGHT if tt < n else LEFT
        boosted = _mirror_boost_channels(config, label) if config.asymmetry_db > 0 else []
        spectra = np.empty((EPOCHS_PER_TRIAL, len(CHANNELS), len(freqs)), dtype=np.complex128)
        for e in range(EPOCHS_PER_TRIAL):
            phase = rng.uniform(0.0, 2.0 * np.pi, (len(CHANNELS), len(freqs)))
            spectra[e] = np.sqrt(2.0) * amp * np.exp(1j * phase)
            if boosted:
                spectra[e][np.ix_(boosted, np.nonzero(band_mask)[0])] = 0.0
        full = np.zeros((EPOCHS_PER_TRIAL, len(CHANNELS), EPOCH_SAMPLES), dtype=np.complex128)
        full[:, :, 1:EPOCH_SAMPLES // 2] = spectra
        full[:, :, EPOCH_SAMPLES // 2 + 1:] = np.conj(spectra[:, :, ::-1])
        # the unnormalized inverse DFT over sqrt(2N), so each frequency carries var_per_freq
        epochs = dsp._fft_last_axis(full, inverse=True).real / np.sqrt(2.0 * EPOCH_SAMPLES)
        samples = epochs.transpose(1, 0, 2).reshape(len(CHANNELS), TRIAL_SAMPLES)
        for ch in boosted:
            phi = rng.uniform(0.0, 2.0 * np.pi)
            rhythm = (polarity[:, None] * line_amp[:, None]
                      * np.cos(2.0 * np.pi * lines[:, None] * t_grid[None, :] + phi)).sum(axis=0)
            samples[ch] += rhythm
        trials.append(Trial(trial_id=tt, label=label, samples=samples))
    return Dataset(subject_id="synthetic", trials=trials)


def save_dataset_reference(dataset, out_dir) -> Path:
    """dataset.save_dataset as it was written before trial files were written
    in a process pool: one loop that writes each trial's CSV in the calling
    process, then the manifest, then deletes the unlisted trial files."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for trial in dataset.trials:
        name = f"trial_{trial.trial_id:04d}.csv"
        write_csv(out / name, CHANNELS, ["%.17g"] * len(CHANNELS),
                  (row.tolist() for row in trial.samples.T))
        entries.append({"trial_id": trial.trial_id, "label": trial.label, "file": name})
    manifest = write_json(out / "manifest.json", {
        "subject_id": dataset.subject_id,
        "fs": FS,
        "channels": list(CHANNELS),
        "trials": entries,
    })
    listed = {entry["file"] for entry in entries}
    for stale in out.glob("trial_*.csv"):
        if stale.name not in listed:
            stale.unlink()
    return manifest


def score_fold_reference(X_train, y_train, X_test, y_test, calib, cfg, kinds) -> dict:
    """evaluation._score_fold as it was written before the Rule row was formed
    from the test predictions already made: the ranking is moved onto the
    outer fit's models, and the three ranked ones predict every test row a
    second time for the rule."""
    scaler, Z_train, models = evaluation._fit(X_train, y_train, cfg, kinds)
    Z_test = features.apply_scaler(scaler, X_test)
    cms = {kind: evaluation._confusion(y_test, cl.predict(models[kind], Z_test))
           for kind in kinds}
    if len(kinds) < 3:
        return cms
    if calib is None:
        ensemble = fusion.rank_models(models, Z_train, y_train)
    else:
        inner_scaler, _, inner_models = evaluation._fit(X_train[~calib], y_train[~calib],
                                                        cfg, kinds)
        ranking = fusion.rank_models(inner_models,
                                     features.apply_scaler(inner_scaler, X_train[calib]),
                                     y_train[calib])
        ensemble = dataclasses.replace(ranking,
                                       ranked=[models[k] for k in ranking.ranked_kinds])
    a, b, c = (cl.predict(m, Z_test) == RIGHT for m in ensemble.ranked)
    cms["Rule"] = evaluation._confusion(y_test, np.where(a & (b | c), RIGHT, LEFT))
    return cms


# The CSV tables as the package wrote them with hand-rolled f-string loops,
# before every table went through one writer; the writer must reproduce them
# byte for byte.

def map_csv_text(channels, freqs, smap) -> str:
    lines = ["channel,freq_hz,t,p,delta,significant\n"]
    for ch, name in enumerate(channels):
        for b in range(len(freqs)):
            lines.append(f"{name},{int(freqs[b])},{smap.t[ch, b]:.17g},"
                         f"{smap.p[ch, b]:.17g},{smap.delta[ch, b]:.17g},"
                         f"{int(smap.significant[ch, b])}\n")
    return "".join(lines)


def band_csv_text(channels, bmap) -> str:
    lines = ["band,channel,mean_delta,mean_delta_significant\n"]
    for bi, band in enumerate(bmap.bands):
        for ch, name in enumerate(channels):
            sig = bmap.mean_delta_significant[bi, ch]
            sig_txt = "" if np.isnan(sig) else f"{sig:.17g}"
            lines.append(f"{band},{name},{bmap.mean_delta[bi, ch]:.17g},{sig_txt}\n")
    return "".join(lines)


def psd_curves_csv_text(channels, freqs, smap) -> str:
    lines = ["channel,freq_hz,mean_left,mean_right\n"]
    for ch, name in enumerate(channels):
        for b in range(len(freqs)):
            lines.append(f"{name},{int(freqs[b])},{smap.mean_left[ch, b]:.17g},"
                         f"{smap.mean_right[ch, b]:.17g}\n")
    return "".join(lines)


def report_csv_text(metric_names, report) -> str:
    std_keys = [k for k in report["classifiers"][0] if k.startswith("accuracy_std")]
    cols = ["classifier"]
    for name in metric_names:
        cols.append(f"{name}_mean")
        for sk in std_keys:
            cols.append(name + sk[len("accuracy"):])
    lines = [",".join(cols) + "\n"]
    for entry in report["classifiers"]:
        row = [entry["kind"]]
        for col in cols[1:]:
            row.append(f"{entry[col]:.17g}")
        lines.append(",".join(row) + "\n")
    return "".join(lines)
