//! The paper's shape claims, asserted on the checked-in results.
//!
//! `results/table1.txt`, `results/table2.txt` and `results/mmax.txt` are
//! program output: CI `cmp`s each against its binary's stdout. Every ✓
//! in EXPERIMENTS.md names one test here, and the words it uses ("in 20
//! of 24 cells", "3.0–6.3×") are the counts and bounds these tests pin.
//! A change that moves a table moves a claim: fix the prose with the
//! test, never the table.

use std::collections::BTreeMap;

/// One table row: column name (`BS:total`, `BSLC:comm`, `BSBRC`, …) →
/// value.
type Row = BTreeMap<String, f64>;

/// Dataset → P → row, for every `## Dataset` section of a results file.
type Table = BTreeMap<String, BTreeMap<u32, Row>>;

const DATASETS: [&str; 4] = ["Engine_low", "Engine_high", "Head", "Cube"];
const PROCS: [u32; 6] = [2, 4, 8, 16, 32, 64];
const TABLE_1_METHODS: [&str; 4] = ["BS", "BSBR", "BSLC", "BSBRC"];
const TABLE_2_METHODS: [&str; 3] = ["BSBR", "BSLC", "BSBRC"];

fn read(path: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(path);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

/// The Markdown tables of a results file, keyed by the `## ` heading
/// above them (its first word: the dataset).
fn parse(text: &str) -> Table {
    let mut table = Table::new();
    let mut dataset = None;
    let mut header: Vec<String> = Vec::new();
    for line in text.lines() {
        if let Some(heading) = line.strip_prefix("## ") {
            dataset = heading.split_whitespace().next().map(str::to_string);
            continue;
        }
        let cells: Vec<&str> = line
            .trim()
            .trim_matches('|')
            .split('|')
            .map(str::trim)
            .collect();
        if !line.starts_with('|') {
            continue;
        }
        if cells[0] == "P" {
            header = cells.iter().map(|c| c.to_string()).collect();
            continue;
        }
        let (Some(dataset), Ok(p)) = (&dataset, cells[0].parse::<u32>()) else {
            continue;
        };
        let row = header[1..]
            .iter()
            .zip(&cells[1..])
            .filter_map(|(name, value)| Some((name.clone(), value.parse::<f64>().ok()?)))
            .collect();
        table.entry(dataset.clone()).or_default().insert(p, row);
    }
    for dataset in DATASETS {
        let ps: Vec<u32> = table[dataset].keys().copied().collect();
        assert_eq!(ps, PROCS, "{dataset}: the P column");
    }
    table
}

fn table_1() -> Table {
    parse(
        read("results/table1.txt")
            .split("# Table 2")
            .next()
            .unwrap(),
    )
}

fn table_2() -> Table {
    parse(&read("results/table2.txt"))
}

fn mmax() -> Table {
    parse(&read("results/mmax.txt"))
}

/// Every (dataset, P, row) of a table, in file order of P.
fn cells(table: &Table) -> impl Iterator<Item = (&str, u32, &Row)> {
    DATASETS
        .iter()
        .flat_map(move |&d| table[d].iter().map(move |(&p, row)| (d, p, row)))
}

fn value(row: &Row, column: &str) -> f64 {
    *row.get(column)
        .unwrap_or_else(|| panic!("no column {column}"))
}

/// The method with the smallest `method:term` in `row`.
fn smallest<'a>(row: &Row, methods: &[&'a str], term: &str) -> &'a str {
    methods
        .iter()
        .copied()
        .min_by(|a, b| {
            value(row, &format!("{a}:{term}")).total_cmp(&value(row, &format!("{b}:{term}")))
        })
        .unwrap()
}

/// The method with the largest `method:term` in `row`.
fn largest<'a>(row: &Row, methods: &[&'a str], term: &str) -> &'a str {
    methods
        .iter()
        .copied()
        .max_by(|a, b| {
            value(row, &format!("{a}:{term}")).total_cmp(&value(row, &format!("{b}:{term}")))
        })
        .unwrap()
}

/// The (dataset, P) cells of `table` where `pred` fails.
fn exceptions(table: &Table, pred: impl Fn(&Row) -> bool) -> Vec<(&str, u32)> {
    cells(table)
        .filter(|(_, _, row)| !pred(row))
        .map(|(d, p, _)| (d, p))
        .collect()
}

#[test]
fn bs_is_worst_in_every_table_1_cell() {
    let t1 = table_1();
    let mut ratios = Vec::new();
    let mut below_4 = Vec::new();
    for (d, p, row) in cells(&t1) {
        assert_eq!(largest(row, &TABLE_1_METHODS, "total"), "BS", "{d} P={p}");
        let slowest_other = ["BSBR", "BSLC", "BSBRC"]
            .map(|m| value(row, &format!("{m}:total")))
            .into_iter()
            .fold(f64::MIN, f64::max);
        let ratio = value(row, "BS:total") / slowest_other;
        ratios.push(ratio);
        if ratio < 4.0 {
            below_4.push((d, p));
        }
    }
    let min = ratios.iter().copied().fold(f64::MAX, f64::min);
    let max = ratios.iter().copied().fold(f64::MIN, f64::max);
    assert_eq!(
        (format!("{min:.1}"), format!("{max:.1}")),
        ("3.0".into(), "6.3".into())
    );
    assert_eq!(
        below_4,
        [
            ("Engine_low", 2),
            ("Engine_low", 4),
            ("Head", 2),
            ("Head", 4),
            ("Cube", 2),
            ("Cube", 4)
        ]
    );
}

#[test]
fn bs_total_grows_with_p_and_saturates() {
    let t1 = table_1();
    let series: Vec<f64> = PROCS
        .iter()
        .map(|p| value(&t1["Head"][p], "BS:total"))
        .collect();
    for d in DATASETS {
        let own: Vec<f64> = PROCS.iter().map(|p| value(&t1[d][p], "BS:total")).collect();
        assert_eq!(own, series, "BS sends every pixel, so no dataset moves it");
    }
    let steps: Vec<f64> = series.windows(2).map(|w| w[1] - w[0]).collect();
    assert!(steps.iter().all(|&s| s > 0.0), "grows: {series:?}");
    assert!(
        steps.windows(2).all(|w| w[1] < w[0]),
        "saturates: {steps:?}"
    );
    assert_eq!((series[0], series[5]), (328.66, 647.20));
    assert_eq!(format!("{:.2}", series[5] / series[0]), "1.97");
}

#[test]
fn bsbrc_has_the_best_table_1_total_in_20_of_24_cells() {
    let t1 = table_1();
    let others: Vec<_> = cells(&t1)
        .filter(|(_, _, row)| smallest(row, &TABLE_1_METHODS, "total") != "BSBRC")
        .map(|(d, p, row)| (d, p, smallest(row, &TABLE_1_METHODS, "total")))
        .collect();
    assert_eq!(
        others,
        DATASETS.map(|d| (d, 4, "BSLC")),
        "BSLC wins P = 4 everywhere"
    );
    let bsbr_ahead = exceptions(&t1, |row| {
        value(row, "BSBRC:total") <= value(row, "BSBR:total")
    });
    assert_eq!(bsbr_ahead, [("Engine_low", 4)]);
    let row = &t1["Engine_low"][&4];
    assert_eq!(
        (value(row, "BSBR:total"), value(row, "BSBRC:total")),
        (156.56, 158.52)
    );
}

#[test]
fn bslc_has_the_smallest_t_comm_in_21_of_24_cells() {
    let t1 = table_1();
    let others = exceptions(&t1, |row| smallest(row, &TABLE_1_METHODS, "comm") == "BSLC");
    assert_eq!(others, [("Engine_low", 2), ("Engine_high", 2), ("Head", 2)]);
    for (d, p) in others {
        let row = &t1[d][&p];
        let gap = value(row, "BSLC:comm") - value(row, "BSBRC:comm");
        assert!(
            gap > 0.0 && gap <= 0.06 + 1e-9,
            "{d} P={p}: BSBRC lower by {gap}"
        );
    }
    let comm: Vec<f64> = cells(&t1)
        .map(|(_, _, row)| value(row, "BSLC:comm"))
        .collect();
    let min = comm.iter().copied().fold(f64::MAX, f64::min);
    let max = comm.iter().copied().fold(f64::MIN, f64::max);
    assert_eq!((min, max), (1.05, 6.22));
}

#[test]
fn bslc_t_comp_exceeds_bsbrc_except_at_p4_on_three_datasets() {
    let t1 = table_1();
    let below = exceptions(&t1, |row| {
        value(row, "BSLC:comp") > value(row, "BSBRC:comp")
    });
    assert_eq!(below, [("Engine_low", 4), ("Head", 4), ("Cube", 4)]);
    let row = &t1["Engine_low"][&4];
    assert_eq!(
        (value(row, "BSLC:comp"), value(row, "BSBRC:comp")),
        (125.07, 147.50)
    );
}

#[test]
fn figure_8_engine_low_orders_as_stated() {
    let t1 = table_1();
    let worst_of_three = |p: u32| largest(&t1["Engine_low"][&p], &TABLE_2_METHODS, "total");
    let best_of_three = |p: u32| smallest(&t1["Engine_low"][&p], &TABLE_2_METHODS, "total");
    let order: Vec<(u32, &str, &str)> = PROCS
        .iter()
        .map(|&p| (p, best_of_three(p), worst_of_three(p)))
        .collect();
    assert_eq!(
        order,
        [
            (2, "BSBRC", "BSBR"),
            (4, "BSLC", "BSBRC"),
            (8, "BSBRC", "BSLC"),
            (16, "BSBRC", "BSLC"),
            (32, "BSBRC", "BSLC"),
            (64, "BSBRC", "BSBR"),
        ]
    );
}

#[test]
fn figure_9_head_bsbrc_beats_bsbr_by_under_13_percent() {
    let t1 = table_1();
    for (p, row) in &t1["Head"] {
        let (bsbr, bsbrc) = (value(row, "BSBR:total"), value(row, "BSBRC:total"));
        assert!(bsbrc < bsbr, "P={p}");
        assert!((bsbr - bsbrc) / bsbr < 0.13, "P={p}: {bsbr} vs {bsbrc}");
    }
}

#[test]
fn figure_10_engine_high_bsbrc_best_but_at_p4_and_bslc_ahead_of_bsbr_only_below_p8() {
    let t1 = table_1();
    for (&p, row) in &t1["Engine_high"] {
        let best = smallest(row, &TABLE_2_METHODS, "total");
        assert_eq!(best, if p == 4 { "BSLC" } else { "BSBRC" }, "P={p}");
        let bslc_ahead = value(row, "BSLC:total") < value(row, "BSBR:total");
        assert_eq!(bslc_ahead, p < 8, "P={p}");
    }
    let row = &t1["Engine_high"][&4];
    assert_eq!(
        (value(row, "BSLC:total"), value(row, "BSBRC:total")),
        (100.49, 101.14)
    );
}

#[test]
fn figure_11_cube_bsbr_costs_1_2_to_1_4_times_bsbrc() {
    let (t1, mmax) = (table_1(), mmax());
    for p in PROCS {
        let row = &t1["Cube"][&p];
        let total = value(row, "BSBR:total") / value(row, "BSBRC:total");
        assert!((1.2..1.45).contains(&total), "P={p}: T_total ratio {total}");
        let bytes = value(&mmax["Cube"][&p], "BSBR") / value(&mmax["Cube"][&p], "BSBRC");
        assert!((1.85..2.41).contains(&bytes), "P={p}: M_max ratio {bytes}");
    }
}

#[test]
fn table_2_bslc_is_worst_in_14_and_bsbrc_best_in_20_of_24_cells() {
    let t2 = table_2();
    let bslc_worst = cells(&t2)
        .filter(|(_, _, row)| largest(row, &TABLE_2_METHODS, "total") == "BSLC")
        .count();
    assert_eq!(bslc_worst, 14);
    let not_best = exceptions(&t2, |row| {
        smallest(row, &TABLE_2_METHODS, "total") == "BSBRC"
    });
    assert_eq!(not_best, DATASETS.map(|d| (d, 4)));
}

#[test]
fn equation_9_ordering_holds_at_every_p_from_4() {
    let mmax = mmax();
    let order = |row: &Row| {
        let m = |name| value(row, name);
        m("BS") >= m("BSBR") && m("BSBR") >= m("BSBRC") && m("BSBRC") >= m("BSLC")
    };
    let broken = exceptions(&mmax, order);
    assert_eq!(broken, [("Engine_low", 2), ("Engine_high", 2), ("Head", 2)]);
    for (d, _) in &broken {
        let row = &mmax[*d][&2];
        assert!(
            value(row, "BS") >= value(row, "BSBR") && value(row, "BSBR") >= value(row, "BSBRC")
        );
    }
}

#[test]
fn bslc_m_max_exceeds_bsbrc_at_p2_by_0_2_to_2_3_percent() {
    let mmax = mmax();
    let excess: Vec<String> = ["Engine_low", "Engine_high", "Head"]
        .iter()
        .map(|d| {
            let row = &mmax[*d][&2];
            format!(
                "{:.2}",
                100.0 * (value(row, "BSLC") / value(row, "BSBRC") - 1.0)
            )
        })
        .collect();
    assert_eq!(excess, ["0.25", "2.33", "0.22"]);
    let row = &mmax["Engine_high"][&2];
    assert_eq!(
        (value(row, "BSLC"), value(row, "BSBRC")),
        (103_360.0, 101_008.0)
    );
}

/// The "paper → measured" cells EXPERIMENTS.md quotes, each as
/// (table, dataset, P, method, paper, measured).
fn quoted_cells() -> Vec<(u32, String, u32, String, f64, f64)> {
    let text = read("EXPERIMENTS.md");
    let mut quoted = Vec::new();
    let mut table = 0;
    let mut methods: Vec<String> = Vec::new();
    for line in text.lines() {
        if line.starts_with("## Table 1") {
            table = 1;
        } else if line.starts_with("## Table 2") {
            table = 2;
        } else if line.starts_with("## ") {
            table = 0;
        }
        let cells: Vec<&str> = line
            .trim()
            .trim_matches('|')
            .split('|')
            .map(str::trim)
            .collect();
        if table == 0 || !line.starts_with('|') {
            continue;
        }
        if cells[0] == "Dataset" {
            methods = cells[2..].iter().map(|c| c.to_string()).collect();
            continue;
        }
        let Ok(p) = cells
            .get(1)
            .map_or(Err(()), |c| c.parse::<u32>().map_err(|_| ()))
        else {
            continue;
        };
        for (method, cell) in methods.iter().zip(&cells[2..]) {
            let (paper, measured) = cell.split_once('→').expect("paper → measured");
            quoted.push((
                table,
                cells[0].to_string(),
                p,
                method.clone(),
                paper.trim().parse().unwrap(),
                measured.trim().parse().unwrap(),
            ));
        }
    }
    quoted
}

#[test]
fn quoted_cells_match_the_results() {
    let (t1, t2) = (table_1(), table_2());
    let quoted = quoted_cells();
    assert_eq!(quoted.len(), 24 + 12, "EXPERIMENTS.md quotes 24 + 12 cells");
    for (table, d, p, method, _, measured) in &quoted {
        let source = if *table == 1 { &t1 } else { &t2 };
        let total = value(&source[d.as_str()][p], &format!("{method}:total"));
        assert_eq!(
            *measured,
            total.round(),
            "Table {table} {d} P={p} {method}: {total}"
        );
    }
}

#[test]
fn table_2_quoted_cells_are_within_28_percent_of_the_paper() {
    let worst = quoted_cells()
        .into_iter()
        .filter(|q| q.0 == 2)
        .map(|(_, _, _, _, paper, measured)| (measured - paper).abs() / paper)
        .fold(0.0, f64::max);
    assert!(worst < 0.28 && worst > 0.27, "{worst}");
}
