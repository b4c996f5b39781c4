"""Report files: long-format cell CSVs, performance tables, inferential
statistics tables (CSV plus aligned text), and boxplot data."""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from .inference import omega_squared, tukey_hsd, two_way_anova

LONG_HEADER = ["scheme", "extractor", "model", "replication",
               "accuracy", "sensitivity", "specificity"]


def _fmt(value) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return ""
    return repr(float(value))


def long_rows(cell_results):
    """(scheme, extractor, model, replication, acc, sen, spe) per cell replication:
    the rows ``write_long_csv`` writes and ``read_long_csv`` reads back."""
    for cell in cell_results:
        for rep in range(cell.n_replications):
            yield (cell.scheme, cell.extractor, cell.model_kind, rep,
                   cell.accuracy[rep], cell.sensitivity[rep], cell.specificity[rep])


def write_long_csv(cell_results, path):
    """The ``long_rows`` of the cells; the input schema of the stats stage."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(LONG_HEADER)
        for row in long_rows(cell_results):
            writer.writerow(list(row[:4]) + [_fmt(v) for v in row[4:]])


def read_long_csv(path):
    """Rows of (scheme, extractor, model, replication, acc, sen, spe)."""
    out = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in LONG_HEADER if c not in (reader.fieldnames or [])]
        if missing:
            raise ValueError(f"{path}: missing columns {missing}")
        for row in reader:
            out.append((
                row["scheme"], row["extractor"], row["model"],
                int(row["replication"]),
                float(row["accuracy"]) if row["accuracy"] else float("nan"),
                float(row["sensitivity"]) if row["sensitivity"] else float("nan"),
                float(row["specificity"]) if row["specificity"] else float("nan"),
            ))
    return out


def write_performance_tables(cell_results, out_dir: Path, plan_name: str):
    """Per (scheme, extractor): model rows with ACC/SPE/SEN mean and std (%)."""
    by_table = {}
    for cell in cell_results:
        by_table.setdefault((cell.scheme, cell.extractor), []).append(cell)
    text_lines = []
    for (scheme, extractor), cells in sorted(by_table.items()):
        path = out_dir / f"performance_{plan_name}_{scheme}_{extractor}.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["model", "acc_mean", "acc_std", "spe_mean", "spe_std",
                             "sen_mean", "sen_std"])
            text_lines.append(f"\n[{plan_name}] scheme={scheme} extractor={extractor}")
            text_lines.append(f"{'model':<6} {'ACC(%)':>10} {'SPE(%)':>10} {'SEN(%)':>10}")
            for cell in cells:
                acc = 100 * np.asarray(cell.accuracy)
                sen = 100 * np.asarray(cell.sensitivity)
                spe = 100 * np.asarray(cell.specificity)
                writer.writerow([cell.model_kind] + [
                    f"{v:.4f}" for v in (
                        np.nanmean(acc), np.nanstd(acc), np.nanmean(spe),
                        np.nanstd(spe), np.nanmean(sen), np.nanstd(sen))
                ])
                text_lines.append(
                    f"{cell.model_kind:<6} "
                    f"{np.nanmean(acc):7.2f}+-{np.nanstd(acc):5.2f} "
                    f"{np.nanmean(spe):7.2f}+-{np.nanstd(spe):5.2f} "
                    f"{np.nanmean(sen):7.2f}+-{np.nanstd(sen):5.2f}")
    (out_dir / f"performance_{plan_name}.txt").write_text("\n".join(text_lines) + "\n")


def five_number_summary(values):
    """(min, q1, median, q3, max, whisker_low, whisker_high, n_outliers)."""
    v = np.asarray(sorted(values), dtype=float)
    q1, med, q3 = np.percentile(v, [25.0, 50.0, 75.0])
    iqr = q3 - q1
    lo_fence, hi_fence = q1 - 1.5 * iqr, q3 + 1.5 * iqr
    inside = v[(v >= lo_fence) & (v <= hi_fence)]
    outliers = int(v.size - inside.size)
    return (float(v[0]), float(q1), float(med), float(q3), float(v[-1]),
            float(inside[0]), float(inside[-1]), outliers)


def write_boxplot_data(cell_results, out_dir: Path):
    """Per scheme: raw accuracy observations plus five-number summaries."""
    by_scheme = {}
    for cell in cell_results:
        by_scheme.setdefault(cell.scheme, []).append(cell)
    for scheme, cells in sorted(by_scheme.items()):
        with open(out_dir / f"boxplot_{scheme}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["extractor", "model", "replication", "accuracy"])
            for cell in cells:
                for rep, acc in enumerate(cell.accuracy):
                    writer.writerow([cell.extractor, cell.model_kind, rep, _fmt(acc)])
        with open(out_dir / f"boxplot_summary_{scheme}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["extractor", "model", "min", "q1", "median", "q3",
                             "max", "whisker_low", "whisker_high", "n_outliers"])
            for cell in cells:
                summary = five_number_summary(cell.accuracy)
                writer.writerow([cell.extractor, cell.model_kind]
                                + [_fmt(v) for v in summary[:7]] + [summary[7]])


def accuracy_observations(rows, scheme: str):
    """Long rows -> (model, extractor, accuracy-in-points) triples."""
    return [(model, extractor, 100.0 * acc)
            for s, extractor, model, _rep, acc, _sen, _spe in rows
            if s == scheme and not math.isnan(acc)]


def run_inference(rows, scheme: str):
    """ANOVA table, effect sizes, and both HSD factor tables for one scheme."""
    obs = accuracy_observations(rows, scheme)
    table = two_way_anova(obs, factor_a="Models", factor_b="feat_extr")
    effects = omega_squared(table)
    hsd_extractor = tukey_hsd(obs, factor="feat_extr",
                              factor_a="Models", factor_b="feat_extr")
    hsd_models = tukey_hsd(obs, factor="Models",
                           factor_a="Models", factor_b="feat_extr")
    return table, effects, hsd_extractor, hsd_models


def write_inference_reports(rows, scheme: str, out_dir: Path):
    table, effects, hsd_extr, hsd_models = run_inference(rows, scheme)
    with open(out_dir / f"anova_{scheme}.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["term", "df", "sum_sq", "mean_sq", "f_value", "p_value"])
        for r in table.rows:
            writer.writerow([r.term, r.df, _fmt(r.sum_sq), _fmt(r.mean_sq),
                             _fmt(r.f_value), _fmt(r.p_value)])
    with open(out_dir / f"omega_squared_{scheme}.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["term", "omega_squared", "raw_omega_squared", "band"])
        for e in effects:
            writer.writerow([e.term, _fmt(e.omega_sq), _fmt(e.raw_omega_sq), e.band])
    for name, comparisons in (("feat_extr", hsd_extr), ("models", hsd_models)):
        with open(out_dir / f"hsd_{scheme}_{name}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["term", "comparison", "estimate", "conf.low",
                             "conf.high", "adj.p.value"])
            for c in comparisons:
                writer.writerow([c.factor, c.comparison, _fmt(c.estimate),
                                 _fmt(c.conf_low), _fmt(c.conf_high), _fmt(c.adj_p)])

    lines = [f"Two-way ANOVA on accuracy (%), scheme={scheme}",
             f"{'term':<18} {'Df':>5} {'Sum Sq':>12} {'Mean Sq':>11} {'F value':>9} {'Pr(>F)':>9}"]
    for r in table.rows:
        f_txt = "" if math.isnan(r.f_value) else f"{r.f_value:9.2f}"
        p_txt = "" if math.isnan(r.p_value) else f"{r.p_value:9.4f}"
        lines.append(f"{r.term:<18} {r.df:>5} {r.sum_sq:>12.2f} {r.mean_sq:>11.2f} "
                     f"{f_txt:>9} {p_txt:>9}")
    lines.append("")
    lines.append(f"{'term':<18} {'omega^2':>8}  band")
    for e in effects:
        lines.append(f"{e.term:<18} {e.omega_sq:8.3f}  {e.band}")
    for name, comparisons in (("feat_extr", hsd_extr), ("Models", hsd_models)):
        lines.append("")
        lines.append(f"Tukey HSD for {name} (accuracy points)")
        lines.append(f"{'comparison':<14} {'estimate':>9} {'conf.low':>9} "
                     f"{'conf.high':>10} {'adj.p':>7}")
        for c in comparisons:
            lines.append(f"{c.comparison:<14} {c.estimate:9.2f} {c.conf_low:9.2f} "
                         f"{c.conf_high:10.2f} {c.adj_p:7.3f}")
    (out_dir / f"inference_{scheme}.txt").write_text("\n".join(lines) + "\n")
    return table, effects, hsd_extr, hsd_models
