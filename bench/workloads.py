"""The benchmark's workloads: how each makes its inputs from the seed, the
command it runs, and the checks that decide whether one execution succeeded.

Inputs are made with the program's own generator and writer before anything
is timed; the program then receives only the files (or, for synth, the seed).
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

REPORT_KINDS = ["SVM", "KNN", "NaiveBayes", "Boosting", "LDA", "Rule"]
RULE_ACCURACY_FLOOR = 95.0   # acceptance criterion 6
NULL_SIGNIFICANT_CEILING = 0.12
MAP_ROWS = 300


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class Workload:
    name = ""
    trials = 0

    def __init__(self, mc):
        self.mc = mc

    def prepare(self, work: Path, seed: int) -> list:
        """Make the inputs; returns the CLI arguments, without --out."""
        raise NotImplementedError

    def check(self, out: Path) -> dict:
        """Inspect one execution's outputs: {"problems": [...],
        "fingerprint": {file: sha256}, and any workload figures}."""
        raise NotImplementedError

    def _synthetic(self, n_per_side: int, asymmetry_db: float, seed: int):
        ds = self.mc.dataset
        return ds.generate_synthetic(ds.SynthConfig(
            n_trials_per_side=n_per_side, asymmetry_db=asymmetry_db, seed=seed))


class Evaluate(Workload):
    """The paper's protocol and the README quick start: 3-fold CV of five
    classifiers and rule fusion on 80 trials with a 6 dB alpha asymmetry on
    C3/C4. Every layer runs except CSV write."""

    name = "evaluate"
    trials = 80

    def prepare(self, work, seed):
        manifest = self.mc.dataset.save_dataset(self._synthetic(40, 6.0, seed), work / "data")
        return ["evaluate", str(manifest)]

    def check(self, out):
        path = out / "report.json"
        try:
            rows = json.loads(path.read_text())["classifiers"]
            kinds = [row["kind"] for row in rows]
            rule = next((row["accuracy_mean"] for row in rows if row["kind"] == "Rule"), None)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return {"problems": [f"report.json unreadable: {exc!r}"], "fingerprint": {}}
        problems = []
        if kinds != REPORT_KINDS:
            problems.append(f"report rows {kinds}, expected {REPORT_KINDS}")
        if rule is None or not rule >= RULE_ACCURACY_FLOOR:
            problems.append(f"Rule accuracy {rule} below {RULE_ACCURACY_FLOOR}%")
        return {"problems": problems, "fingerprint": {"report.json": sha256(path)},
                "rule_accuracy_pct": rule}


class TTest(Workload):
    """The t-test map on 160 null trials (0 dB): CSV read and dsp with no
    classifier work, on twice the working set of evaluate. The null data
    doubles as a calibration check."""

    name = "ttest"
    trials = 160

    def prepare(self, work, seed):
        manifest = self.mc.dataset.save_dataset(self._synthetic(80, 0.0, seed), work / "data")
        return ["ttest", str(manifest)]

    def check(self, out):
        path = out / "ttest_map.csv"
        try:
            with open(path, newline="") as fh:
                rows = list(csv.DictReader(fh))
            p = [float(row["p"]) for row in rows]
            significant = sum(row["significant"] == "1" for row in rows)
        except (OSError, ValueError, KeyError) as exc:
            return {"problems": [f"ttest_map.csv unreadable: {exc!r}"], "fingerprint": {}}
        problems = []
        if len(rows) != MAP_ROWS:
            problems.append(f"map has {len(rows)} rows, expected {MAP_ROWS}")
        if not all(0.0 <= value <= 1.0 for value in p):
            problems.append("a p value lies outside [0, 1]")
        fraction = significant / max(len(rows), 1)
        if fraction > NULL_SIGNIFICANT_CEILING:
            problems.append(f"{100 * fraction:.1f}% of null cells significant, "
                            f"ceiling {100 * NULL_SIGNIFICANT_CEILING:.0f}%")
        return {"problems": problems, "fingerprint": {"ttest_map.csv": sha256(path)},
                "significant_pct": 100.0 * fraction}


class Synth(Workload):
    """`synth` of 80 trials, 74 MB of %.17g CSV: the only workload that
    writes, with read, dsp and classifiers idle."""

    name = "synth"
    trials = 80

    def prepare(self, work, seed):
        self.seed = seed
        self.reference = None
        self.verified = set()   # digests of output sets already reloaded and compared
        return ["synth", "--n-per-side", "40", "--asymmetry-db", "6", "--seed", str(seed)]

    def check(self, out):
        manifest = out / "manifest.json"
        try:
            first = json.loads(manifest.read_text())["trials"][0]["file"]
            hashes = {p.name: sha256(p) for p in sorted(out.iterdir())}
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return {"problems": [f"synth output unreadable: {exc!r}"], "fingerprint": {}}
        fingerprint = {"manifest.json": hashes["manifest.json"], first: hashes[first]}
        digest = hashlib.sha256(json.dumps(hashes, sort_keys=True).encode()).hexdigest()
        # byte-identical output sets reload identically, so each distinct set
        # is reloaded and compared once
        problems = [] if digest in self.verified else self._reload_problems(manifest)
        if not problems:
            self.verified.add(digest)
        return {"problems": problems, "fingerprint": fingerprint}

    def _reload_problems(self, manifest: Path) -> list:
        if self.reference is None:
            self.reference = self._synthetic(40, 6.0, self.seed)
        try:
            loaded = self.mc.dataset.load_dataset(manifest)
        except (self.mc.dataset.DataError, OSError, ValueError) as exc:
            return [f"written dataset does not reload: {exc}"]
        want = [(t.trial_id, t.label, t.samples.tobytes()) for t in self.reference.trials]
        got = [(t.trial_id, t.label, t.samples.tobytes()) for t in loaded.trials]
        if got != want:
            return ["reloaded dataset differs from generate_synthetic bit for bit"]
        return []


WORKLOADS = {cls.name: cls for cls in (Evaluate, TTest, Synth)}
