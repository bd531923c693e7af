//! Wall-clock microbenchmarks for the GIS substrates: R-tree
//! construction and search, the external priority queue, and watershed
//! labeling. Runs as a plain main under `cargo bench --bench gis_micro`.

use lmas_bench::timing::BenchReport;
use lmas_gis::{fractal_terrain, random_points, ExternalPq, RTree, Rect, WatershedLabeler};

fn main() {
    let mut report = BenchReport::new();

    let points = random_points(50_000, 1);
    report.bench("rtree/bulk_load_50k", 50_000, || {
        RTree::bulk_load(points.clone(), 32)
    });
    let tree = RTree::bulk_load(points, 32);
    for &side in &[0.01f32, 0.1, 0.5] {
        let rect = Rect::new(0.3, 0.3, 0.3 + side, 0.3 + side);
        report.bench(&format!("rtree/query_side={side}"), 1, || tree.query(&rect));
    }

    let n = 10_000u64;
    let mut rng = lmas_sim::DetRng::new(3);
    report.bench("external_pq/push_pop_10k_spilling", n, || {
        let mut pq = ExternalPq::new(256);
        for _ in 0..n {
            pq.push(rng.gen_range(1 << 20), 0u32);
        }
        let mut acc = 0u64;
        while let Some((k, _)) = pq.pop_min() {
            acc = acc.wrapping_add(k);
        }
        acc
    });

    // The watershed labeler's pattern: cell t drains the messages keyed
    // t, then forwards four to cells a mean ~825 later, which holds the
    // frontier near 3,300 messages (the 257×257 terrain's mean). The
    // queue persists across iterations so every timed cell sees a full
    // frontier; ns/unit is per cell.
    let cells_per_iter = 10_000u64;
    let mut frontier: ExternalPq<u64, u32> = ExternalPq::new(1 << 16);
    let mut drained = Vec::new();
    let mut label_cell = |t: u64| {
        drained.clear();
        frontier.pop_all_eq(t, &mut drained);
        for _ in 0..4 {
            frontier.push(t + 1 + rng.gen_range(1_650), t as u32);
        }
        drained.len()
    };
    for t in 0..2_000 {
        label_cell(t);
    }
    let mut t = 2_000;
    report.bench("external_pq/frontier_interleaved", cells_per_iter, || {
        let mut popped = 0;
        for _ in 0..cells_per_iter {
            popped += label_cell(t);
            t += 1;
        }
        popped
    });

    let grid = fractal_terrain(129, 129, 0.55, 5);
    let mut cells = lmas_gis::restructure(&grid);
    cells.sort_by_key(lmas_core::Record::key);
    report.bench("watershed/label_129x129", cells.len() as u64, || {
        let mut labeler = WatershedLabeler::default();
        for &cell in &cells {
            labeler.label(cell);
        }
        labeler.colors()
    });
}
