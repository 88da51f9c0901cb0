//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. **Encoding scheme** (Section 3.3's argument): wire size of mask
//!    RLE vs value RLE (Ahrens & Painter) vs explicit x/y coordinates on
//!    rendered subimages.
//! 2. **Bounding-rectangle density sweep** (Section 3.4's argument):
//!    BSBR vs BSBRC message bytes as the non-blank density inside the
//!    rectangle varies.
//! 3. **Interleave vs block split** (Molnar's load-imbalance argument):
//!    max/mean non-blank pixels per partner under both splits.
//! 4. **Viewing-point rotation** (Section 3.2): empty receiving
//!    bounding rectangles per rank as the view rotates on one or two
//!    axes.
//!
//! ```text
//! cargo run --release -p vr-bench --bin ablation [-- --quick]
//! ```

use slsvr_core::Method;
use vr_bench::workloads::{cell_config, prepare_cell, Scale};
use vr_image::rle::ValueRle;
use vr_image::{Image, MaskRle, Pixel, StridedSeq};
use vr_system::Experiment;
use vr_volume::DatasetKind;

fn main() {
    let scale = Scale::from_args();
    encoding_comparison(scale);
    density_sweep();
    interleave_balance(scale);
    rotation_sweep(scale);
    bslc_ingredient_ablation(scale);
    radix_tradeoff(scale);
}

/// One fault-free frame; a rank failure here is a bug, so it panics.
fn frame(exp: &Experiment, method: Method) -> vr_system::Outcome {
    exp.run(method).into_result().expect("a fault-free frame")
}

/// Radix-k vs binary swap: rounds, messages and bytes per rank — the
/// T_s-vs-bandwidth trade-off that motivates higher radices on modern
/// networks (and lower ones on the latency-bound SP2).
fn radix_tradeoff(scale: Scale) {
    println!("# Ablation 6 — radix-k vs binary swap (Engine_high)\n");
    println!(
        "{:>4} {:<8} {:>8} {:>10} {:>14} {:>12} {:>12}",
        "P", "method", "rounds", "msgs/rank", "bytes (total)", "T_comm(ms)", "T_total(ms)"
    );
    for p in [8usize, 16, 64] {
        let exp = prepare_cell(DatasetKind::EngineHigh, 384, p, scale);
        for method in [Method::Bs, Method::Bsbr, Method::RadixK] {
            let out = frame(&exp, method);
            let rounds = out.per_rank[0].as_ref().map_or(0, |s| s.stages.len());
            let msgs: u64 = out.traffic[0].sent_messages;
            let record = out.record();
            println!(
                "{:>4} {:<8} {:>8} {:>10} {:>14} {:>12.2} {:>12.2}",
                p,
                method.name(),
                rounds,
                msgs,
                record.total_bytes,
                record.t_comm_ms,
                record.t_total_ms
            );
        }
    }
    println!();
}

/// Decomposes BSLC into its two ingredients via the BSRL variant
/// (RLE over spatial halves, no interleave): BSRL vs BSLC isolates the
/// interleaved load balancing; BSRL vs BSBRC isolates the bounding
/// rectangle.
fn bslc_ingredient_ablation(scale: Scale) {
    println!("# Ablation 5 — BSLC ingredients: RLE vs +interleave vs +rect (P=16)\n");
    println!(
        "{:<12} {:>12} {:>12} {:>12} {:>12}",
        "dataset", "BSRL M_max", "BSLC M_max", "BSRL enc px", "BSBRC enc px"
    );
    for dataset in DatasetKind::all() {
        let exp = prepare_cell(dataset, 384, 16, scale);
        let bsrl = frame(&exp, Method::Bsrl);
        let bslc = frame(&exp, Method::Bslc);
        let bsbrc = frame(&exp, Method::Bsbrc);
        let enc = |out: &vr_system::Outcome| -> u64 {
            out.per_rank
                .iter()
                .flatten()
                .map(|s| s.stages.iter().map(|st| st.encoded_pixels).sum::<u64>())
                .sum()
        };
        println!(
            "{:<12} {:>12} {:>12} {:>12} {:>12}",
            dataset.name(),
            bsrl.record().m_max,
            bslc.record().m_max,
            enc(&bsrl),
            enc(&bsbrc)
        );
    }
    println!();
}

/// Wire bytes needed to ship one rendered subimage under each encoding.
fn encoding_comparison(scale: Scale) {
    println!("# Ablation 1 — encoding scheme wire size (bytes, rank 0 subimage)\n");
    println!(
        "{:<12} {:>12} {:>12} {:>12} {:>12} {:>10}",
        "dataset", "dense", "mask-RLE", "value-RLE", "xy-coords", "non-blank"
    );
    for dataset in DatasetKind::all() {
        let exp = prepare_cell(dataset, 384, 4, scale);
        let img = &exp.subimages()[0];
        let n = img.non_blank_count();
        let dense = img.area() * 16;
        let mask = {
            let rle = MaskRle::encode(img.pixels().iter());
            rle.wire_bytes() + rle.non_blank_total() * 16
        };
        let value = ValueRle::encode(img.pixels().iter()).wire_bytes();
        // Explicit coordinates: 2×u16 per non-blank pixel + pixel.
        let coords = n * (4 + 16);
        println!(
            "{:<12} {:>12} {:>12} {:>12} {:>12} {:>10}",
            dataset.name(),
            dense,
            mask,
            value,
            coords,
            n
        );
    }
    println!();
}

/// BSBR vs BSBRC bytes as the density of non-blank pixels inside a fixed
/// bounding rectangle varies — the regime where BSBRC's advantage lives.
fn density_sweep() {
    println!("# Ablation 2 — BSBR vs BSBRC sent bytes vs rectangle density (P=2, 256²)\n");
    println!(
        "{:>8} {:>12} {:>12} {:>8}",
        "density", "BSBR", "BSBRC", "ratio"
    );
    for percent in [1u32, 5, 10, 25, 50, 75, 100] {
        let img = synthetic_density_image(256, 256, percent);
        let images = vec![img, Image::blank(256, 256)];
        let config = cell_config(DatasetKind::Cube, 256, 2, Scale::Quick);
        let config = vr_system::ExperimentConfig {
            image_size: 256,
            processors: 2,
            ..config
        };
        let exp = Experiment::from_subimages(config, images, vr_volume::DepthOrder::identity(2));
        let bsbr = frame(&exp, Method::Bsbr).record().total_bytes;
        let bsbrc = frame(&exp, Method::Bsbrc).record().total_bytes;
        println!(
            "{:>7}% {:>12} {:>12} {:>8.2}",
            percent,
            bsbr,
            bsbrc,
            bsbr as f64 / bsbrc.max(1) as f64
        );
    }
    println!();
}

/// An image whose central 200×200 rectangle holds `percent`% non-blank
/// pixels in a deterministic scatter.
fn synthetic_density_image(w: u16, h: u16, percent: u32) -> Image {
    Image::from_fn(w, h, |x, y| {
        let inside = (28..228).contains(&x) && (28..228).contains(&y);
        if !inside {
            return Pixel::BLANK;
        }
        // Low-discrepancy-ish scatter.
        let idx = (x as u32)
            .wrapping_mul(2654435761)
            .wrapping_add((y as u32).wrapping_mul(40503));
        if idx % 100 < percent {
            Pixel::gray(0.5 + (idx % 7) as f32 * 0.05, 0.8)
        } else {
            Pixel::BLANK
        }
    })
}

/// Non-blank pixel balance across the first-stage exchange: spatial half
/// vs interleaved half, per dataset.
fn interleave_balance(scale: Scale) {
    println!("# Ablation 3 — first-stage non-blank balance: block vs interleave\n");
    println!(
        "{:<12} {:>14} {:>14} {:>16} {:>16}",
        "dataset", "block max/min", "", "interleave max/min", ""
    );
    for dataset in DatasetKind::all() {
        let exp = prepare_cell(dataset, 384, 2, scale);
        let img = &exp.subimages()[0];
        let full = img.full_rect();
        let (left, right) = full.split_at_x(full.width() / 2);
        let block = [
            img.non_blank_count_in(&left),
            img.non_blank_count_in(&right),
        ];
        let (even, odd) = StridedSeq::dense(img.area()).split();
        let count_seq = |s: &StridedSeq| s.iter().filter(|&i| !img.pixels()[i].is_blank()).count();
        let inter = [count_seq(&even), count_seq(&odd)];
        let ratio = |v: [usize; 2]| {
            let max = v[0].max(v[1]) as f64;
            let min = v[0].min(v[1]).max(1) as f64;
            max / min
        };
        println!(
            "{:<12} {:>7}/{:<7} {:>5.2} {:>9}/{:<9} {:>5.2}",
            dataset.name(),
            block[0],
            block[1],
            ratio(block),
            inter[0],
            inter[1],
            ratio(inter)
        );
    }
    println!();
}

/// Empty receiving bounding rectangles as the viewing point rotates —
/// Section 3.2's discussion of rotation axes.
fn rotation_sweep(scale: Scale) {
    println!("# Ablation 4 — empty receiving rectangles vs view rotation (Engine_high, P=16)\n");
    println!(
        "{:>8} {:>8} {:>22} {:>14}",
        "rot_x", "rot_y", "empty rects (max/rank)", "BSBRC bytes"
    );
    for (rx, ry) in [
        (0.0, 0.0),
        (30.0, 0.0),
        (0.0, 30.0),
        (25.0, 40.0),
        (45.0, 45.0),
    ] {
        let mut config = cell_config(DatasetKind::EngineHigh, 384, 16, scale);
        config.rot_x_deg = rx;
        config.rot_y_deg = ry;
        let exp = Experiment::prepare(&config);
        let out = frame(&exp, Method::Bsbrc);
        let max_empty = out
            .per_rank
            .iter()
            .flatten()
            .map(|s| s.empty_recv_rects())
            .max()
            .unwrap_or(0);
        println!(
            "{:>8.0} {:>8.0} {:>22} {:>14}",
            rx,
            ry,
            max_empty,
            out.record().total_bytes
        );
    }
    println!();
}
