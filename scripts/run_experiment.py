#!/usr/bin/env python3
"""Run the full scheme x model evaluation matrix on a synthetic corpus.

Generates a deterministic synthetic cohort, evaluates every segmentation
preset against every model preset with stratified 10-fold CV, prints the
results grid, and writes report/fold/ROC CSVs.

Example:
    python3 scripts/run_experiment.py --out-dir results/ --workers 4
    python3 scripts/run_experiment.py --patients 22 --controls 32 --days 13
"""

import argparse
import sys
import time
from pathlib import Path

from chronoseg.cli import DEFAULT_SCHEMES
from chronoseg.evaluation import run_matrix, write_fold_csv, write_report_csv, write_roc_csv
from chronoseg.features import featurize_corpus
from chronoseg.models import default_model_specs
from chronoseg.segmentation import resolve_scheme
from chronoseg.synth import gen_corpus


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--patients", type=int, default=10)
    parser.add_argument("--controls", type=int, default=10)
    parser.add_argument("--days", type=int, default=14)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--schemes", nargs="+", default=list(DEFAULT_SCHEMES))
    parser.add_argument("--models", nargs="+", default=None,
                        help="subset of model presets (default: all seven)")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--out-dir", type=Path, default=Path("results"))
    args = parser.parse_args(argv)

    corpus = gen_corpus(args.patients, args.controls, args.days, seed=args.seed)
    print(f"synthetic corpus: {len(corpus.subjects)} subjects, {len(corpus.dates)} days")

    specs = default_model_specs(seed=args.seed)
    if args.models is not None:
        specs = {name: specs[name] for name in args.models}
    schemes = [resolve_scheme(name) for name in args.schemes]

    start = time.monotonic()
    tables = [featurize_corpus(corpus, scheme) for scheme in schemes]
    reports, grid = run_matrix(tables, specs, k=args.k, seed=args.seed, workers=args.workers)
    print(grid, end="")
    print(f"{len(reports)} cells in {time.monotonic() - start:.0f}s")

    args.out_dir.mkdir(parents=True, exist_ok=True)
    write_report_csv(reports, args.out_dir / "report.csv")
    write_fold_csv(reports, args.out_dir / "folds.csv")
    write_roc_csv(reports, args.out_dir / "roc_points.csv")
    print(f"wrote report.csv, folds.csv, roc_points.csv to {args.out_dir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
