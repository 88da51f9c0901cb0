//! Integration tests for report formatting fed by real experiment runs.

use slsvr_core::Method;
use vr_system::report::format_mmax_table;
use vr_system::{
    format_figure_series, format_paper_table, ExperimentConfig, SweepBuilder, SweepCell,
};
use vr_volume::DatasetKind;

fn rows() -> Vec<SweepCell> {
    SweepBuilder {
        base: ExperimentConfig::small_test(DatasetKind::Cube, 2, Method::Bsbrc),
        datasets: vec![DatasetKind::Cube],
        processor_counts: vec![2, 4],
        methods: Method::paper_methods().to_vec(),
        verify: false,
    }
    .run()
    .unwrap()
}

#[test]
fn paper_table_renders_real_data() {
    let table = format_paper_table("Cube (test scale)", &rows());
    // Header with all four methods, three columns each.
    assert_eq!(table.matches(":comp").count(), 4);
    assert_eq!(table.matches(":total").count(), 4);
    // One row per processor count.
    assert!(table.contains("| 2 |"));
    assert!(table.contains("| 4 |"));
    // No NaNs or negatives leaked into the formatting.
    assert!(!table.contains("NaN"));
    assert!(!table.contains("-0."));
}

#[test]
fn figure_series_renders_real_data() {
    let fig = format_figure_series("Cube", &rows());
    let lines: Vec<&str> = fig.lines().collect();
    // Title + header + 2 data rows.
    assert_eq!(lines.len(), 4);
    assert!(lines[1].contains("BS") && lines[1].contains("BSBRC"));
}

#[test]
fn mmax_table_confirms_ordering_on_real_runs() {
    let table = format_mmax_table("Cube", &rows());
    // Every row must carry either the full ordering check or the
    // documented small-P caveat — never a hard violation.
    assert!(!table.contains("violated"), "{table}");
}
