#!/usr/bin/env python3
"""Accuracy versus prior contrast.

Evaluates crossvalidated 1-NN accuracy on planted-group data for a ladder
of a_large values at fixed a_small, from the label-blind setting
(a_large == a_small) to a strongly separated one. Prints one row per
setting so the contrast / accuracy relationship is visible at a glance.
"""

import argparse

import numpy as np

from gsnmf import (
    CvConfig,
    GroupAssignment,
    LabeledDataset,
    PriorSettings,
    parameter_sweep,
    sample_model,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--groups", type=int, default=3)
    parser.add_argument("--per-group", type=int, default=2)
    parser.add_argument("--rows", type=int, default=40)
    parser.add_argument("--samples", type=int, default=90)
    parser.add_argument("--generator-contrast", type=float, default=16.0)
    parser.add_argument("--folds", type=int, default=5)
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--restarts", type=int, default=3)
    parser.add_argument("--sweeps", type=int, default=150)
    parser.add_argument("--seed", type=int, default=4)
    args = parser.parse_args()

    C, per_group = args.groups, args.per_group
    V, T = args.rows, args.samples
    generator = PriorSettings(per_group=per_group, a_small=1.0,
                              a_large=args.generator_contrast, b_lambda=1.0)
    hyper = generator.hyperparameters(V, C, T)
    labels = np.arange(T) % C
    X, _ = sample_model(hyper, GroupAssignment(C, labels), seed=args.seed)
    dataset = LabeledDataset(X, labels)

    ladder = [1.0, 4.0, 16.0, 64.0, 256.0]
    grid = [
        PriorSettings(per_group=per_group, a_small=1.0, a_large=a, b_lambda=1.0)
        for a in ladder
    ]
    config = CvConfig(
        folds=args.folds,
        runs=args.runs,
        restarts=args.restarts,
        seed=args.seed,
        sweeps=args.sweeps,
    )
    best, reports = parameter_sweep(dataset, grid, config)
    print(f"{'a_large':>8}  {'max':>7}  {'mean':>7}  {'variance':>9}")
    for a, report in zip(ladder, reports):
        marker = "  <- selected" if grid[best].a_large == a else ""
        print(f"{a:8.0f}  {report.max_accuracy:7.4f}  {report.mean_accuracy:7.4f}  "
              f"{report.variance:9.6f}{marker}")


if __name__ == "__main__":
    main()
